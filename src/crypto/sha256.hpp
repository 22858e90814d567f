#pragma once
// SHA-256 (FIPS 180-4).
//
// Used for block hashes, transaction hashes, packet commitments, Merkle
// trees and the store's set-hash root. A real Tendermint node uses the same
// primitive; implementing it here keeps hashes stable across platforms and
// avoids external deps.
//
// The kernels are selected once at runtime: x86 SHA-NI when the CPU
// supports it, otherwise portable unrolled scalar loops. Both produce
// identical digests; only throughput differs. One SHA-NI block is a serial
// chain of sha256rnds2 instructions, so a single message leaves the unit
// idle most of each instruction's latency. sha256_padded() hashes many
// short independent messages (the store's root fold) four at a time,
// interleaving their rounds, which keeps the unit at its throughput limit.
// The compression kernels are exposed to tests in sha256_kernels.hpp.

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace crypto {

using Digest = std::array<std::uint8_t, 32>;

/// One-shot SHA-256. Pads directly into a stack block — no stream object,
/// no per-byte work — so small inputs (keys, commitments) stay cheap.
Digest sha256(util::BytesView data);

/// Incremental hashing for multi-part canonical encodings. finalize()
/// returns the digest and resets the state, so hot loops can keep one
/// hasher and reuse it instead of constructing one per digest.
class Sha256 {
 public:
  Sha256();

  /// Returns to the initial (empty-input) state. finalize() does this
  /// automatically.
  void reset();

  void update(util::BytesView data) { update(data.data(), data.size()); }
  void update(const void* data, std::size_t len);
  Digest finalize();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// The number of 64-byte blocks a `len`-byte message pads to: one up to 55
/// bytes, two up to 119.
constexpr std::size_t padded_blocks(std::size_t len) {
  return (len + 9 + 63) / 64;
}

/// Pads the `len`-byte message at the start of `blocks` in place (0x80,
/// zeros, then its bit length as a big-endian u64), filling
/// padded_blocks(len) blocks.
void pad_message(std::uint8_t* blocks, std::size_t len);

/// Hashes `n` independent padded messages of `nblocks` blocks each: message
/// i is the nblocks * 64 bytes at blocks + i * nblocks * 64, laid out by
/// pad_message(), and its digest, the sha256() of the unpadded bytes, goes
/// to out[i].
void sha256_padded(const std::uint8_t* blocks, std::size_t n,
                   std::size_t nblocks, Digest* out);

/// Digest helpers.
util::Bytes digest_to_bytes(const Digest& d);
std::string digest_hex(const Digest& d);

/// Short (8-byte) hex prefix, for readable ids in logs.
std::string digest_short_hex(const Digest& d);

}  // namespace crypto
