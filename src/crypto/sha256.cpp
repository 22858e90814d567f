#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "crypto/sha256_kernels.hpp"
#include "telemetry/profiler.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define XCC_SHA256_X86 1
#include <immintrin.h>
#endif

namespace crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Portable compression: fully unrolled rounds over a 16-word ring message
// schedule (no 64-word expansion buffer, no per-round register shuffle).

#define XCC_ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define XCC_BS0(x) (XCC_ROTR(x, 2) ^ XCC_ROTR(x, 13) ^ XCC_ROTR(x, 22))
#define XCC_BS1(x) (XCC_ROTR(x, 6) ^ XCC_ROTR(x, 11) ^ XCC_ROTR(x, 25))
#define XCC_SS0(x) (XCC_ROTR(x, 7) ^ XCC_ROTR(x, 18) ^ ((x) >> 3))
#define XCC_SS1(x) (XCC_ROTR(x, 17) ^ XCC_ROTR(x, 19) ^ ((x) >> 10))

#define XCC_RND(a, b, c, d, e, f, g, h, k, wv)                      \
  do {                                                              \
    const std::uint32_t t1 =                                        \
        (h) + XCC_BS1(e) + (((e) & (f)) ^ (~(e) & (g))) + (k) + (wv); \
    const std::uint32_t t2 =                                        \
        XCC_BS0(a) + (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));     \
    (d) += t1;                                                      \
    (h) = t1 + t2;                                                  \
  } while (0)

#define XCC_WEXP(i)                                              \
  (w[(i) & 15] += XCC_SS1(w[((i) - 2) & 15]) + w[((i) - 7) & 15] + \
                  XCC_SS0(w[((i) - 15) & 15]))

#define XCC_R0(i, a, b, c, d, e, f, g, h) \
  XCC_RND(a, b, c, d, e, f, g, h, kK[i], w[(i) & 15])
#define XCC_R1(i, a, b, c, d, e, f, g, h) \
  XCC_RND(a, b, c, d, e, f, g, h, kK[i], XCC_WEXP(i))

#define XCC_GROUP(R, i)               \
  R((i) + 0, a, b, c, d, e, f, g, h); \
  R((i) + 1, h, a, b, c, d, e, f, g); \
  R((i) + 2, g, h, a, b, c, d, e, f); \
  R((i) + 3, f, g, h, a, b, c, d, e); \
  R((i) + 4, e, f, g, h, a, b, c, d); \
  R((i) + 5, d, e, f, g, h, a, b, c); \
  R((i) + 6, c, d, e, f, g, h, a, b); \
  R((i) + 7, b, c, d, e, f, g, h, a)

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t nblocks) {
  while (nblocks--) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    XCC_GROUP(XCC_R0, 0);
    XCC_GROUP(XCC_R0, 8);
    XCC_GROUP(XCC_R1, 16);
    XCC_GROUP(XCC_R1, 24);
    XCC_GROUP(XCC_R1, 32);
    XCC_GROUP(XCC_R1, 40);
    XCC_GROUP(XCC_R1, 48);
    XCC_GROUP(XCC_R1, 56);

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    data += 64;
  }
}

#undef XCC_GROUP
#undef XCC_R1
#undef XCC_R0
#undef XCC_WEXP
#undef XCC_RND
#undef XCC_SS1
#undef XCC_SS0
#undef XCC_BS1
#undef XCC_BS0
#undef XCC_ROTR

void hash_padded_portable(const std::uint8_t* blocks, std::size_t n,
                          std::size_t nblocks, Digest* out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t state[8];
    std::memcpy(state, kInit.data(), sizeof(state));
    compress_portable(state, blocks + i * nblocks * 64, nblocks);
    out[i] = detail::extract_digest(state);
  }
}

#if XCC_SHA256_X86
// x86 SHA-NI (the Intel SHA extensions' reference flow), written once for
// L independent messages ("lanes"). One block's 32 sha256rnds2 form a
// serial chain, so a single lane waits out each instruction's latency;
// interleaving four lanes' rounds keeps the unit at its throughput limit.
// Compiled with per-function target attributes so the TU itself needs no
// -msha; only called after __builtin_cpu_supports confirms support.
#define XCC_SHANI __attribute__((target("sha,sse4.1,ssse3")))
#define XCC_SHANI_INLINE XCC_SHANI __attribute__((always_inline)) inline

// Reverses the bytes of each 32-bit word: big-endian message and digest
// words to and from the unit's little-endian lanes.
XCC_SHANI_INLINE __m128i bswap_words(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL));
}

// Rounds 4Q..4Q+3 of one block in every lane. w[Q % 4] holds the message
// words of these rounds; w is a ring of the 16 words the schedule needs,
// each extended in place (sha256msg1 from round group 1, sha256msg2 from 3).
template <std::size_t Q, std::size_t L>
XCC_SHANI_INLINE void shani_quad(__m128i (&abef)[L], __m128i (&cdgh)[L],
                                 __m128i (&w)[4][L],
                                 const std::uint8_t* const* data) {
  const __m128i k =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * Q]));
#pragma GCC unroll 4
  for (std::size_t l = 0; l < L; ++l) {
    if constexpr (Q < 4) {
      w[Q][l] = bswap_words(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data[l] + 16 * Q)));
    }
    __m128i msg = _mm_add_epi32(w[Q % 4][l], k);
    cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], msg);
    if constexpr (Q >= 3 && Q <= 14) {
      const __m128i tmp = _mm_alignr_epi8(w[Q % 4][l], w[(Q + 3) % 4][l], 4);
      w[(Q + 1) % 4][l] = _mm_sha256msg2_epu32(
          _mm_add_epi32(w[(Q + 1) % 4][l], tmp), w[Q % 4][l]);
    }
    msg = _mm_shuffle_epi32(msg, 0x0E);
    abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], msg);
    if constexpr (Q >= 1 && Q <= 12) {
      w[(Q + 3) % 4][l] = _mm_sha256msg1_epu32(w[(Q + 3) % 4][l], w[Q % 4][l]);
    }
  }
}

// Compresses one 64-byte block per lane (data[l]) into abef/cdgh.
template <std::size_t L, std::size_t... Q>
XCC_SHANI_INLINE void shani_block(__m128i (&abef)[L], __m128i (&cdgh)[L],
                                  const std::uint8_t* const* data,
                                  std::index_sequence<Q...>) {
  __m128i abef_save[L], cdgh_save[L], w[4][L];
#pragma GCC unroll 4
  for (std::size_t l = 0; l < L; ++l) {
    abef_save[l] = abef[l];
    cdgh_save[l] = cdgh[l];
  }
  (shani_quad<Q, L>(abef, cdgh, w, data), ...);
#pragma GCC unroll 4
  for (std::size_t l = 0; l < L; ++l) {
    abef[l] = _mm_add_epi32(abef[l], abef_save[l]);
    cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_save[l]);
  }
}

// The unit keeps the state as ABEF and CDGH; memory holds it as ABCD EFGH.
XCC_SHANI_INLINE void shani_load(const std::uint32_t* state, __m128i& abef,
                                 __m128i& cdgh) {
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  abef = _mm_alignr_epi8(dcba, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
}

// The state words A..D and E..H in memory order.
XCC_SHANI_INLINE void shani_unload(__m128i abef, __m128i cdgh, __m128i& abcd,
                                   __m128i& efgh) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  abcd = _mm_blend_epi16(feba, dchg, 0xF0);
  efgh = _mm_alignr_epi8(dchg, feba, 8);
}

XCC_SHANI void compress_shani(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks) {
  __m128i abef[1], cdgh[1];
  shani_load(state, abef[0], cdgh[0]);
  for (; nblocks > 0; --nblocks, data += 64) {
    shani_block<1>(abef, cdgh, &data, std::make_index_sequence<16>{});
  }
  __m128i abcd, efgh;
  shani_unload(abef[0], cdgh[0], abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), efgh);
}

// Hashes L padded messages of nblocks blocks each, from the initial state.
template <std::size_t L>
XCC_SHANI_INLINE void shani_hash_lanes(const std::uint8_t* blocks,
                                       std::size_t nblocks, Digest* out) {
  __m128i abef[L], cdgh[L];
  const std::uint8_t* data[L];
  for (std::size_t l = 0; l < L; ++l) {
    shani_load(kInit.data(), abef[l], cdgh[l]);
    data[l] = blocks + l * nblocks * 64;
  }
  for (std::size_t b = 0; b < nblocks; ++b) {
    shani_block<L>(abef, cdgh, data, std::make_index_sequence<16>{});
    for (std::size_t l = 0; l < L; ++l) data[l] += 64;
  }
  for (std::size_t l = 0; l < L; ++l) {
    __m128i abcd, efgh;
    shani_unload(abef[l], cdgh[l], abcd, efgh);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[l].data()),
                     bswap_words(abcd));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[l].data() + 16),
                     bswap_words(efgh));
  }
}

XCC_SHANI void hash_padded_shani(const std::uint8_t* blocks, std::size_t n,
                                 std::size_t nblocks, Digest* out) {
  constexpr std::size_t kLanes = 4;
  const std::size_t stride = nblocks * 64;
  for (; n >= kLanes; n -= kLanes) {
    shani_hash_lanes<kLanes>(blocks, nblocks, out);
    blocks += kLanes * stride;
    out += kLanes;
  }
  for (; n > 0; --n) {
    shani_hash_lanes<1>(blocks, nblocks, out);
    blocks += stride;
    ++out;
  }
}

#undef XCC_SHANI_INLINE
#undef XCC_SHANI
#endif  // XCC_SHA256_X86

void store_be64(std::uint8_t* out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(out, &v, sizeof(v));
}

// Pads a message's last `rem` (< 64) bytes, already at `tail`, for a
// message of `total_len` bytes; returns the number of tail blocks.
std::size_t pad_tail(std::uint8_t* tail, std::size_t rem,
                     std::uint64_t total_len) {
  const std::size_t tail_len = padded_blocks(rem) * 64;
  tail[rem] = 0x80;
  std::memset(tail + rem + 1, 0, tail_len - 8 - (rem + 1));
  store_be64(tail + tail_len - 8, total_len * 8);
  return tail_len / 64;
}

}  // namespace

namespace detail {

const Kernel kPortableKernel{&compress_portable, &hash_padded_portable};

const Kernel* shani_kernel() {
#if XCC_SHA256_X86
  static const Kernel kShani{&compress_shani, &hash_padded_shani};
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return &kShani;
  }
#endif
  return nullptr;
}

const Kernel& kernel() {
  static const Kernel& k =
      shani_kernel() != nullptr ? *shani_kernel() : kPortableKernel;
  return k;
}

Digest extract_digest(const std::uint32_t* state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    std::uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(out.data() + 4 * i, &word, sizeof(word));
  }
  return out;
}

}  // namespace detail

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(const void* vdata, std::size_t len) {
  if (len == 0) return;
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  const auto compress = detail::kernel().compress;
  const auto* data = static_cast<const std::uint8_t*>(vdata);
  total_len_ += len;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, std::size_t{64} - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t nblocks = (len - offset) / 64; nblocks > 0) {
    compress(state_.data(), data + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < len) {
    std::memcpy(buffer_.data(), data + offset, len - offset);
    buffer_len_ = len - offset;
  }
}

Digest Sha256::finalize() {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  const auto compress = detail::kernel().compress;
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_.data() + 56, bit_len);
  compress(state_.data(), buffer_.data(), 1);
  const Digest out = detail::extract_digest(state_.data());
  reset();
  return out;
}

Digest sha256(util::BytesView data) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  // Pads into a stack tail block; never touches heap.
  const auto compress = detail::kernel().compress;
  const std::size_t len = data.size();
  std::uint32_t state[8];
  std::memcpy(state, kInit.data(), sizeof(state));
  const std::size_t nblocks = len / 64;
  if (nblocks > 0) compress(state, data.data(), nblocks);
  const std::size_t rem = len - nblocks * 64;

  std::uint8_t tail[128];
  if (rem > 0) std::memcpy(tail, data.data() + nblocks * 64, rem);
  compress(state, tail, pad_tail(tail, rem, len));
  return detail::extract_digest(state);
}

void pad_message(std::uint8_t* blocks, std::size_t len) {
  pad_tail(blocks + len / 64 * 64, len % 64, len);
}

void sha256_padded(const std::uint8_t* blocks, std::size_t n,
                   std::size_t nblocks, Digest* out) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  detail::kernel().hash_padded(blocks, n, nblocks, out);
}

util::Bytes digest_to_bytes(const Digest& d) {
  return util::Bytes(d.begin(), d.end());
}

std::string digest_hex(const Digest& d) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[2 * i] = kHexDigits[d[i] >> 4];
    out[2 * i + 1] = kHexDigits[d[i] & 0x0f];
  }
  return out;
}

std::string digest_short_hex(const Digest& d) {
  return util::to_hex(util::BytesView(d.data(), 8));
}

}  // namespace crypto
