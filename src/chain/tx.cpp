#include "chain/tx.hpp"

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"

namespace chain {

namespace {

void append_string(util::Bytes& out, std::string_view s) {
  util::append_u32_be(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void append_bytes_field(util::Bytes& out, util::BytesView b) {
  util::append_u32_be(out, static_cast<std::uint32_t>(b.size()));
  util::append(out, b);
}

bool read_string(util::BytesView data, std::size_t& off, std::string& out) {
  if (off + 4 > data.size()) return false;
  const std::uint32_t len = util::read_u32_be(data, off);
  off += 4;
  if (off + len > data.size()) return false;
  out.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
             data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return true;
}

bool read_bytes(util::BytesView data, std::size_t& off, util::Bytes& out) {
  if (off + 4 > data.size()) return false;
  const std::uint32_t len = util::read_u32_be(data, off);
  off += 4;
  if (off + len > data.size()) return false;
  out.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
             data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return true;
}

bool read_u64(util::BytesView data, std::size_t& off, std::uint64_t& out) {
  if (off + 8 > data.size()) return false;
  out = util::read_u64_be(data, off);
  off += 8;
  return true;
}

}  // namespace

util::Bytes Tx::encode() const {
  std::size_t size = 4 + sender.size() + 3 * 8 + 4 + 4 + memo.size();
  for (const Msg& m : msgs) size += 4 + m.type_url.size() + 4 + m.value.size();
  util::Bytes out;
  out.reserve(size);
  append_string(out, sender);
  util::append_u64_be(out, sequence);
  util::append_u64_be(out, gas_limit);
  util::append_u64_be(out, fee);
  util::append_u32_be(out, static_cast<std::uint32_t>(msgs.size()));
  for (const Msg& m : msgs) {
    append_string(out, m.type_url);
    append_bytes_field(out, m.value);
  }
  append_string(out, memo);
  return out;
}

SealedTx::SealedTx(Key, Tx tx) : Tx(std::move(tx)) {
  const util::Bytes bytes = encode();
  hash_ = crypto::sha256(bytes);
  leaf_ = crypto::leaf_hash(bytes);
}

TxPtr seal(Tx tx) {
  return std::make_shared<const SealedTx>(SealedTx::Key{}, std::move(tx));
}

std::size_t Tx::size_bytes() const {
  std::size_t n = sender.size() + 8 + 8 + 8 + memo.size() + 16;
  for (const Msg& m : msgs) n += m.size_bytes() + 8;
  return n;
}

bool decode_tx(util::BytesView data, Tx& out) {
  std::size_t off = 0;
  if (!read_string(data, off, out.sender)) return false;
  if (!read_u64(data, off, out.sequence)) return false;
  if (!read_u64(data, off, out.gas_limit)) return false;
  if (!read_u64(data, off, out.fee)) return false;
  if (off + 4 > data.size()) return false;
  const std::uint32_t count = util::read_u32_be(data, off);
  off += 4;
  out.msgs.clear();
  out.msgs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Msg m;
    if (!read_string(data, off, m.type_url)) return false;
    if (!read_bytes(data, off, m.value)) return false;
    out.msgs.push_back(std::move(m));
  }
  if (!read_string(data, off, out.memo)) return false;
  return off == data.size();
}

}  // namespace chain
