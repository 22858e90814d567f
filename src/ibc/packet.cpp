#include "ibc/packet.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace ibc {

namespace {
void append_str(util::Bytes& out, std::string_view s) {
  util::append_u32_be(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

bool read_str(util::BytesView data, std::size_t& off, std::string& out) {
  if (off + 4 > data.size()) return false;
  const std::uint32_t len = util::read_u32_be(data, off);
  off += 4;
  if (off + len > data.size()) return false;
  out.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
             data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return true;
}

// Minimal strict parser for the flat string-object JSON that to_json emits.
// Returns false on any deviation (recv validates counterparty input).
bool parse_flat_json(std::string_view s,
                     std::vector<std::pair<std::string, std::string>>& out) {
  out.clear();
  out.reserve(4);
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t')) ++i;
  };
  auto parse_string = [&](std::string& v) -> bool {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    v.clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      v.push_back(s[i]);
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skip_ws();
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < s.size() && s[i] == '}') return ++i, i == s.size();
  for (;;) {
    skip_ws();
    std::string key, value;
    if (!parse_string(key)) return false;
    skip_ws();
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    skip_ws();
    if (!parse_string(value)) return false;
    out.emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  skip_ws();
  if (i >= s.size() || s[i] != '}') return false;
  ++i;
  skip_ws();
  return i == s.size();
}

bool needs_escape(char c) { return c == '"' || c == '\\'; }

std::size_t escaped_size(std::string_view s) {
  return s.size() + static_cast<std::size_t>(
                        std::count_if(s.begin(), s.end(), needs_escape));
}

void append_escaped(util::Bytes& out, std::string_view s) {
  for (char c : s) {
    if (needs_escape(c)) out.push_back('\\');
    out.push_back(static_cast<std::uint8_t>(c));
  }
}

/// Decimal digits std::to_string writes for `v`, sign included.
template <typename Int>
std::size_t decimal_size(Int v) {
  char buf[24];
  return static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, v).ptr -
                                  buf);
}

/// Whether the event carries packet_data (acknowledge and timeout do not).
bool carries_data(PacketEventKind kind) {
  return kind == PacketEventKind::kSend || kind == PacketEventKind::kRecv ||
         kind == PacketEventKind::kWriteAck;
}

Packet without_data_unless_carried(PacketEventKind kind, Packet packet) {
  if (!carries_data(kind)) packet.data = util::Bytes{};
  return packet;
}

/// Encoded size of what PacketEvent::render() returns, without rendering.
std::size_t rendered_size(PacketEventKind kind, const Packet& p,
                          const util::Bytes& ack) {
  std::size_t n = 0;
  const auto add = [&n](std::string_view key, std::size_t value_size) {
    n += chain::attribute_encoded_size(key.size(), value_size);
  };
  add("packet_sequence", decimal_size(p.sequence));
  add("packet_src_port", p.source_port.size());
  add("packet_src_channel", p.source_channel.size());
  add("packet_dst_port", p.destination_port.size());
  add("packet_dst_channel", p.destination_channel.size());
  add("packet_timeout_height", 2 + decimal_size(p.timeout_height));
  add("packet_timeout_timestamp", decimal_size(p.timeout_timestamp));
  add("packet_channel_ordering", std::string_view("ORDER_UNORDERED").size());
  if (carries_data(kind)) add("packet_data", p.data.size());
  if (kind == PacketEventKind::kWriteAck) add("packet_ack", ack.size());
  return n;
}

}  // namespace

util::Bytes Packet::encode() const {
  util::Bytes out;
  out.reserve(8 + 4 * 4 + source_port.size() + source_channel.size() +
              destination_port.size() + destination_channel.size() + 4 +
              data.size() + 8 + 8);
  util::append_u64_be(out, sequence);
  append_str(out, source_port);
  append_str(out, source_channel);
  append_str(out, destination_port);
  append_str(out, destination_channel);
  util::append_u32_be(out, static_cast<std::uint32_t>(data.size()));
  util::append(out, data);
  util::append_u64_be(out, static_cast<std::uint64_t>(timeout_height));
  util::append_u64_be(out, static_cast<std::uint64_t>(timeout_timestamp));
  return out;
}

bool Packet::decode(util::BytesView bytes, Packet& out) {
  std::size_t off = 0;
  if (off + 8 > bytes.size()) return false;
  out.sequence = util::read_u64_be(bytes, off);
  off += 8;
  if (!read_str(bytes, off, out.source_port)) return false;
  if (!read_str(bytes, off, out.source_channel)) return false;
  if (!read_str(bytes, off, out.destination_port)) return false;
  if (!read_str(bytes, off, out.destination_channel)) return false;
  if (off + 4 > bytes.size()) return false;
  const std::uint32_t dlen = util::read_u32_be(bytes, off);
  off += 4;
  if (off + dlen > bytes.size()) return false;
  out.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                  bytes.begin() + static_cast<std::ptrdiff_t>(off + dlen));
  off += dlen;
  if (off + 16 > bytes.size()) return false;
  out.timeout_height = static_cast<std::int64_t>(util::read_u64_be(bytes, off));
  off += 8;
  out.timeout_timestamp =
      static_cast<std::int64_t>(util::read_u64_be(bytes, off));
  off += 8;
  return off == bytes.size();
}

crypto::Digest Packet::commitment() const {
  const crypto::Digest data_hash = crypto::sha256(data);
  std::uint8_t timeouts[16];
  std::ranges::copy(util::u64_be(static_cast<std::uint64_t>(timeout_height)),
                    timeouts);
  std::ranges::copy(
      util::u64_be(static_cast<std::uint64_t>(timeout_timestamp)),
      timeouts + 8);
  crypto::Sha256 h;
  h.update(timeouts, sizeof timeouts);
  h.update(util::BytesView(data_hash.data(), data_hash.size()));
  return h.finalize();
}

util::Bytes FungibleTokenPacketData::to_json() const {
  char digits[24];
  const std::string_view amount_str(
      digits, static_cast<std::size_t>(
                  std::to_chars(digits, digits + sizeof digits, amount).ptr -
                  digits));
  // Each field: the text before its value, then the value, escaped.
  const std::pair<std::string_view, std::string_view> fields[] = {
      {"{\"amount\":\"", amount_str},
      {"\",\"denom\":\"", denom},
      {"\",\"receiver\":\"", receiver},
      {"\",\"sender\":\"", sender}};
  constexpr std::string_view kEnd = "\"}";
  std::size_t size = kEnd.size();
  for (const auto& [text, value] : fields) {
    size += text.size() + escaped_size(value);
  }
  util::Bytes out;
  out.reserve(size);
  for (const auto& [text, value] : fields) {
    out.insert(out.end(), text.begin(), text.end());
    append_escaped(out, value);
  }
  out.insert(out.end(), kEnd.begin(), kEnd.end());
  return out;
}

std::optional<FungibleTokenPacketData> FungibleTokenPacketData::decode(
    util::BytesView json) {
  FungibleTokenPacketData out;
  if (!from_json(json, out)) return std::nullopt;
  return out;
}

bool FungibleTokenPacketData::from_json(util::BytesView json,
                                        FungibleTokenPacketData& out) {
  std::vector<std::pair<std::string, std::string>> kv;
  const std::string_view text(reinterpret_cast<const char*>(json.data()),
                              json.size());
  if (!parse_flat_json(text, kv)) return false;
  bool has_amount = false, has_denom = false, has_recv = false,
       has_sender = false;
  for (auto& [k, v] : kv) {
    if (k == "amount") {
      char* end = nullptr;
      out.amount = std::strtoull(v.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || v.empty()) return false;
      has_amount = true;
    } else if (k == "denom") {
      out.denom = std::move(v);
      has_denom = true;
    } else if (k == "receiver") {
      out.receiver = std::move(v);
      has_recv = true;
    } else if (k == "sender") {
      out.sender = std::move(v);
      has_sender = true;
    } else {
      return false;
    }
  }
  return has_amount && has_denom && has_recv && has_sender;
}

PacketEvent::PacketEvent(
    PacketEventKind event_kind, Packet event_packet, util::Bytes event_ack,
    std::optional<FungibleTokenPacketData> event_transfer_data)
    : kind(event_kind),
      packet(without_data_unless_carried(event_kind, std::move(event_packet))),
      // Acknowledge and timeout events carry no data, so nothing decodes.
      transfer_data(event_transfer_data || !carries_data(event_kind)
                        ? std::move(event_transfer_data)
                        : FungibleTokenPacketData::decode(packet.data)),
      ack(std::move(event_ack)),
      attributes_size(rendered_size(kind, packet, ack)) {}

std::vector<chain::Attribute> PacketEvent::render() const {
  std::vector<chain::Attribute> out = {
      {"packet_sequence", std::to_string(packet.sequence)},
      {"packet_src_port", packet.source_port},
      {"packet_src_channel", packet.source_channel},
      {"packet_dst_port", packet.destination_port},
      {"packet_dst_channel", packet.destination_channel},
      {"packet_timeout_height", "0-" + std::to_string(packet.timeout_height)},
      {"packet_timeout_timestamp", std::to_string(packet.timeout_timestamp)},
      {"packet_channel_ordering", "ORDER_UNORDERED"},
  };
  if (carries_data(kind)) {
    out.emplace_back("packet_data", util::to_string(packet.data));
  }
  if (kind == PacketEventKind::kWriteAck) {
    out.emplace_back("packet_ack", util::to_string(ack));
  }
  return out;
}

chain::Event make_packet_event(
    PacketEventKind kind, Packet packet, util::Bytes ack,
    std::optional<FungibleTokenPacketData> transfer_data) {
  return chain::Event{
      packet_event_type(kind),
      {},
      std::make_shared<const PacketEvent>(kind, std::move(packet),
                                          std::move(ack),
                                          std::move(transfer_data))};
}

const PacketEvent* packet_event(const chain::Event& event) {
  return dynamic_cast<const PacketEvent*>(event.payload.get());
}

std::optional<Packet> packet_from_event(const chain::Event& event) {
  const PacketEvent* payload = packet_event(event);
  if (payload == nullptr) return std::nullopt;
  return payload->packet;
}

util::Bytes Acknowledgement::encode() const {
  util::Bytes out;
  out.push_back(success ? 1 : 0);
  util::append(out, util::to_bytes(error));
  return out;
}

bool Acknowledgement::decode(util::BytesView bytes, Acknowledgement& out) {
  if (bytes.empty()) return false;
  out.success = bytes[0] != 0;
  out.error.assign(bytes.begin() + 1, bytes.end());
  return true;
}

crypto::Digest Acknowledgement::commitment() const {
  return crypto::sha256(encode());
}

}  // namespace ibc
