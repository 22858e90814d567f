#pragma once
// Serialization helpers for IBC message payloads.
//
// Messages travel inside chain::Msg::value as deterministic length-prefixed
// bytes. Writer/Reader keep the per-message codecs short and symmetric.

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace ibc {

class Writer {
 public:
  Writer() = default;
  /// Sizes the buffer up front; a codec that knows its encoded size (see
  /// str_size()) writes into one allocation.
  explicit Writer(std::size_t size) { out_.reserve(size); }

  /// Encoded size of str(s): a u32 length, then the bytes.
  static std::size_t str_size(std::string_view s) { return 4 + s.size(); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { util::append_u32_be(out_, v); }
  void u64(std::uint64_t v) { util::append_u64_be(out_, v); }
  void i64(std::int64_t v) { util::append_u64_be(out_, static_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(util::BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    util::append(out_, b);
  }
  void digest(const crypto::Digest& d) {
    util::append(out_, util::BytesView(d.data(), d.size()));
  }

  util::Bytes take() { return std::move(out_); }

 private:
  util::Bytes out_;
};

class Reader {
 public:
  explicit Reader(util::BytesView data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (off_ + 1 > data_.size()) return fail();
    v = data_[off_++];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (off_ + 4 > data_.size()) return fail();
    v = util::read_u32_be(data_, off_);
    off_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (off_ + 8 > data_.size()) return fail();
    v = util::read_u64_be(data_, off_);
    off_ += 8;
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (off_ + len > data_.size()) return fail();
    s.assign(data_.begin() + static_cast<std::ptrdiff_t>(off_),
             data_.begin() + static_cast<std::ptrdiff_t>(off_ + len));
    off_ += len;
    return true;
  }
  bool bytes(util::Bytes& b) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (off_ + len > data_.size()) return fail();
    b.assign(data_.begin() + static_cast<std::ptrdiff_t>(off_),
             data_.begin() + static_cast<std::ptrdiff_t>(off_ + len));
    off_ += len;
    return true;
  }
  bool digest(crypto::Digest& d) {
    if (off_ + d.size() > data_.size()) return fail();
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(off_),
              data_.begin() + static_cast<std::ptrdiff_t>(off_ + d.size()),
              d.begin());
    off_ += d.size();
    return true;
  }

  bool done() const { return ok_ && off_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }

  util::BytesView data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace ibc
