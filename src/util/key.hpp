#pragma once
// Store keys built in place.
//
// Every state key is a short ASCII path ("bank/bal/<addr>|<denom>",
// "ibc/commitments/ports/<port>/channels/<channel>/sequences/<n>"), built
// for every read and write a message makes. Concatenating std::strings
// costs a heap allocation per piece; a Key keeps up to kInline bytes inside
// itself and moves to the heap only past that (a balance key whose address
// is a long mesh route, say). It converts to std::string_view, which every
// KvStore operation takes; str() makes the std::string a proof query or a
// test needs.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace util {

class Key {
 public:
  /// Inline capacity: ICS-24 paths with long ids and a 20-digit sequence
  /// stay below it.
  static constexpr std::size_t kInline = 128;

  Key() = default;
  /// The concatenation of `parts`: strings, and integers in decimal (as
  /// std::to_string writes them).
  template <typename First, typename... Rest>
  explicit Key(const First& first, const Rest&... rest) {
    append(first);
    (append(rest), ...);
  }
  Key(const Key& other) { append(other.view()); }
  Key& operator=(const Key& other) {
    if (this != &other) {
      size_ = 0;
      heap_.clear();
      append(other.view());
    }
    return *this;
  }

  Key& append(std::string_view s) {
    const std::size_t n = size_ + s.size();
    if (n <= kInline) {
      if (!s.empty()) std::memcpy(inline_ + size_, s.data(), s.size());
    } else {
      if (size_ <= kInline) heap_.assign(inline_, size_);  // outgrew inline_
      heap_.append(s);
    }
    size_ = n;
    return *this;
  }
  template <std::integral Int>
  Key& append(Int n) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, n).ptr;
    return append(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }

  const char* data() const { return size_ <= kInline ? inline_ : heap_.data(); }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {data(), size_}; }
  operator std::string_view() const { return view(); }  // NOLINT
  std::string str() const { return std::string(view()); }

 private:
  std::size_t size_ = 0;
  // The key while it fits. Left uninitialized: only the first size_ bytes
  // are ever read, and a key is built for every store access.
  char inline_[kInline];
  std::string heap_;  // the whole key once it is longer than kInline
};

}  // namespace util
