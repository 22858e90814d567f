#include "ibc/channel.hpp"

#include <algorithm>
#include <deque>

#include "ibc/host.hpp"

namespace ibc {

std::string channel_phase_name(ChannelPhase s) {
  switch (s) {
    case ChannelPhase::kInit: return "INIT";
    case ChannelPhase::kTryOpen: return "TRYOPEN";
    case ChannelPhase::kOpen: return "OPEN";
    case ChannelPhase::kClosed: return "CLOSED";
  }
  return "?";
}

std::string channel_ordering_name(ChannelOrdering o) {
  switch (o) {
    case ChannelOrdering::kUnordered: return "UNORDERED";
    case ChannelOrdering::kOrdered: return "ORDERED";
  }
  return "?";
}

util::Bytes ChannelEnd::encode() const {
  Writer w(2 + Writer::str_size(connection) +
           Writer::str_size(counterparty_port) +
           Writer::str_size(counterparty_channel) + Writer::str_size(version));
  w.u8(static_cast<std::uint8_t>(phase));
  w.u8(static_cast<std::uint8_t>(ordering));
  w.str(connection);
  w.str(counterparty_port);
  w.str(counterparty_channel);
  w.str(version);
  return w.take();
}

bool ChannelEnd::decode(util::BytesView data, ChannelEnd& out) {
  Reader r(data);
  std::uint8_t phase_u8 = 0;
  std::uint8_t ord_u8 = 0;
  if (!r.u8(phase_u8) || !r.u8(ord_u8) || !r.str(out.connection) ||
      !r.str(out.counterparty_port) || !r.str(out.counterparty_channel) ||
      !r.str(out.version)) {
    return false;
  }
  out.phase = static_cast<ChannelPhase>(phase_u8);
  out.ordering = static_cast<ChannelOrdering>(ord_u8);
  return r.done();
}

ChannelId ChannelKeeper::generate_id() {
  return make_channel_id(next_++);
}

void ChannelKeeper::set(const PortId& port, const ChannelId& id,
                        const ChannelEnd& end) {
  store_.set(host::channel_key(port, id), end.encode());
}

util::Result<ChannelEnd> ChannelKeeper::get(const PortId& port,
                                            const ChannelId& id) const {
  const auto raw = store_.get_view(host::channel_key(port, id));
  if (!raw) {
    return util::Status::error(util::ErrorCode::kNotFound,
                               "channel not found: " + port + "/" + id);
  }
  // Decodes by stored bytes, shared by every ChannelKeeper on this thread:
  // a chain's IbcKeeper and the invariant checker read the same ends, and a
  // deployment has few distinct ones (equal ends on two chains share one).
  // Bounded; the oldest decode goes first.
  struct Decoded {
    util::Bytes raw;
    ChannelEnd end;
  };
  constexpr std::size_t kMemoSize = 64;
  thread_local std::deque<Decoded> memo;
  for (const Decoded& d : memo) {
    if (std::ranges::equal(d.raw, *raw)) return d.end;
  }
  ChannelEnd end;
  if (!ChannelEnd::decode(*raw, end)) {
    return util::Status::error(util::ErrorCode::kInternal,
                               "corrupt channel end: " + id);
  }
  if (memo.size() == kMemoSize) memo.pop_front();
  memo.push_back(Decoded{util::Bytes(raw->begin(), raw->end()), end});
  return end;
}

bool ChannelKeeper::exists(const PortId& port, const ChannelId& id) const {
  return store_.contains(host::channel_key(port, id));
}

Sequence ChannelKeeper::read_seq(std::string_view key) const {
  return util::stored_u64(store_.get_view(key));
}

void ChannelKeeper::write_seq(std::string_view key, Sequence s) {
  store_.set(key, util::u64_be(s));
}

Sequence ChannelKeeper::next_sequence_send(const PortId& port,
                                           const ChannelId& id) const {
  return read_seq(host::next_sequence_send_key(port, id));
}
Sequence ChannelKeeper::next_sequence_recv(const PortId& port,
                                           const ChannelId& id) const {
  return read_seq(host::next_sequence_recv_key(port, id));
}
Sequence ChannelKeeper::next_sequence_ack(const PortId& port,
                                          const ChannelId& id) const {
  return read_seq(host::next_sequence_ack_key(port, id));
}
void ChannelKeeper::set_next_sequence_send(const PortId& port,
                                           const ChannelId& id, Sequence s) {
  write_seq(host::next_sequence_send_key(port, id), s);
}
void ChannelKeeper::set_next_sequence_recv(const PortId& port,
                                           const ChannelId& id, Sequence s) {
  write_seq(host::next_sequence_recv_key(port, id), s);
}
void ChannelKeeper::set_next_sequence_ack(const PortId& port,
                                          const ChannelId& id, Sequence s) {
  write_seq(host::next_sequence_ack_key(port, id), s);
}

}  // namespace ibc
