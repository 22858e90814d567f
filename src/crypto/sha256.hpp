#pragma once
// SHA-256 (FIPS 180-4).
//
// Used for block hashes, transaction hashes, packet commitments and Merkle
// trees. A real Tendermint node uses the same primitive; implementing it
// here keeps hashes stable across platforms and avoids external deps.
//
// The compression function is selected once at runtime: an x86 SHA-NI
// implementation when the CPU supports it, otherwise a portable unrolled
// scalar loop. Both produce identical digests; only throughput differs.

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

/// True when the runtime-selected compression loop uses the x86 SHA
/// extensions. Digest bytes are identical either way; exposed for bench
/// labelling and tests that force-compare both paths.
bool sha256_hw_accelerated();

/// Digest helpers.
util::Bytes digest_to_bytes(const Digest& d);
std::string digest_hex(const Digest& d);

/// Short (8-byte) hex prefix, for readable ids in logs.
std::string digest_short_hex(const Digest& d);

}  // namespace crypto
