#pragma once
// Byte-buffer primitives shared by every module.
//
// All wire-ish data in the simulator (transactions, packet payloads, proofs)
// is carried as `util::Bytes`. Hex encoding is used for human-readable ids
// (tx hashes, commitment keys) in logs and reports.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Encodes `data` as lowercase hex.
std::string to_hex(BytesView data);

/// Decodes a hex string (upper or lower case). Returns empty on malformed
/// input (odd length or non-hex character).
Bytes from_hex(std::string_view hex);

/// Converts a string to its byte representation (no copy-avoidance games —
/// simulation payloads are small).
Bytes to_bytes(std::string_view s);

/// Converts bytes back to a std::string.
std::string to_string(BytesView data);

/// The bytes of `s`, without a copy.
inline BytesView as_bytes(std::string_view s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Appends `src` to `dst`.
void append(Bytes& dst, BytesView src);

/// A u64 in big-endian order (canonical encodings use it so that hashes are
/// platform-independent), on the stack: an 8-byte balance or sequence value
/// needs no buffer of its own.
inline std::array<std::uint8_t, 8> u64_be(std::uint64_t v) {
  std::array<std::uint8_t, 8> out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
  return out;
}

/// Appends a fixed-width big-endian integer, growing `dst` once.
void append_u64_be(Bytes& dst, std::uint64_t v);
void append_u32_be(Bytes& dst, std::uint32_t v);

/// Reads a big-endian integer from `data` at `offset`; the caller must have
/// validated bounds.
std::uint64_t read_u64_be(BytesView data, std::size_t offset);
std::uint32_t read_u32_be(BytesView data, std::size_t offset);

/// A stored u64 value (a balance, supply or sequence: 8 big-endian bytes);
/// 0 when absent or of another size.
inline std::uint64_t stored_u64(std::optional<BytesView> value) {
  return value && value->size() == 8 ? read_u64_be(*value, 0) : 0;
}

}  // namespace util
