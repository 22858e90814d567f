#include "crypto/sha256.hpp"

#include <cstring>

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

#if XCC_SHA256_X86
// x86 SHA-NI compression (Intel SHA extensions reference flow). Compiled
// with a per-function target attribute so the TU itself needs no -msha;
// only called after __builtin_cpu_supports confirms support.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);                 // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);         // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);              // CDGH

  while (nblocks--) {
    const __m128i abef_save = st0;
    const __m128i cdgh_save = st1;
    __m128i msg, msgtmp;

    // Rounds 0-3
    __m128i msg0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuf);
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 4-7
    __m128i msg1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuf);
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    __m128i msg2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuf);
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    __m128i msg3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuf);
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-19
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 20-23
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 24-27
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 28-31
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 32-35
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 36-39
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 40-43
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 44-47
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, msgtmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 48-51
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, msgtmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, msgtmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msgtmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, msgtmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    st0 = _mm_add_epi32(st0, abef_save);
    st1 = _mm_add_epi32(st1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);                 // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);                 // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);              // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);                 // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}
#endif  // XCC_SHA256_X86

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

CompressFn pick_compress() {
#if XCC_SHA256_X86
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3")) {
    return &compress_shani;
  }
#endif
  return &compress_portable;
}

CompressFn compress_fn() {
  static const CompressFn fn = pick_compress();
  return fn;
}

void store_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (56 - i * 8));
  }
}

Digest extract_digest(const std::uint32_t* state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(const void* vdata, std::size_t len) {
  if (len == 0) return;
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  const auto* data = static_cast<const std::uint8_t*>(vdata);
  total_len_ += len;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, std::size_t{64} - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      compress_fn()(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t nblocks = (len - offset) / 64; nblocks > 0) {
    compress_fn()(state_.data(), data + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < len) {
    std::memcpy(buffer_.data(), data + offset, len - offset);
    buffer_len_ = len - offset;
  }
}

Digest Sha256::finalize() {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress_fn()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_.data() + 56, bit_len);
  compress_fn()(state_.data(), buffer_.data(), 1);
  const Digest out = extract_digest(state_.data());
  reset();
  return out;
}

Digest sha256(util::BytesView data) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kCryptoHash);
  // Pads into a stack tail block; never touches heap.
  const CompressFn fn = compress_fn();
  const std::size_t len = data.size();
  std::uint32_t state[8];
  std::memcpy(state, kInit.data(), sizeof(state));
  const std::size_t nblocks = len / 64;
  if (nblocks > 0) fn(state, data.data(), nblocks);
  const std::size_t rem = len - nblocks * 64;

  std::uint8_t tail[128];
  if (rem > 0) std::memcpy(tail, data.data() + nblocks * 64, rem);
  tail[rem] = 0x80;
  const std::size_t tail_len = (rem + 9 <= 64) ? 64 : 128;
  std::memset(tail + rem + 1, 0, tail_len - 8 - (rem + 1));
  store_be64(tail + tail_len - 8, static_cast<std::uint64_t>(len) * 8);
  fn(state, tail, tail_len / 64);
  return extract_digest(state);
}

bool sha256_hw_accelerated() {
#if XCC_SHA256_X86
  return compress_fn() == &compress_shani;
#else
  return false;
#endif
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
