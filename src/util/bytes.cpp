#include "util/bytes.hpp"

namespace util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return {};
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void append_u64_be(Bytes& dst, std::uint64_t v) {
  const auto b = u64_be(v);
  dst.insert(dst.end(), b.begin(), b.end());
}

void append_u32_be(Bytes& dst, std::uint32_t v) {
  const auto b = u64_be(v);  // a u32's four bytes are the last four
  dst.insert(dst.end(), b.begin() + 4, b.end());
}

std::uint64_t read_u64_be(BytesView data, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v = (v << 8) | data[offset + i];
  }
  return v;
}

std::uint32_t read_u32_be(BytesView data, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v = (v << 8) | data[offset + i];
  }
  return v;
}

}  // namespace util
