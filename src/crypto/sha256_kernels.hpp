#pragma once
// The SHA-256 kernels behind sha256(), Sha256 and sha256_padded().
//
// kernel() picks one set per process (SHA-NI when the CPU has it), so on a
// SHA-NI host the portable loops never run. This header exposes both sets
// so tests can run each against the FIPS vectors and against each other;
// callers outside crypto use sha256.hpp.

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace crypto::detail {

struct Kernel {
  /// Compresses `nblocks` consecutive 64-byte blocks into `state`.
  void (*compress)(std::uint32_t* state, const std::uint8_t* data,
                   std::size_t nblocks);
  /// sha256_padded()'s work, without its profiler scope.
  void (*hash_padded)(const std::uint8_t* blocks, std::size_t n,
                      std::size_t nblocks, Digest* out);
};

/// The scalar kernels; they run on every host.
extern const Kernel kPortableKernel;

/// The SHA-NI kernels, or nullptr when the build or the CPU lacks the SHA
/// extensions. Their hash_padded runs four messages at once.
const Kernel* shani_kernel();

/// The kernels every hash uses, chosen once: shani_kernel() when there is
/// one, kPortableKernel otherwise.
const Kernel& kernel();

/// The big-endian digest bytes of a state.
Digest extract_digest(const std::uint32_t* state);

}  // namespace crypto::detail
