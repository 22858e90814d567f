#pragma once
// Reference renderer and sizes for packet life-cycle events.
//
// Before packet events carried a typed payload, IbcKeeper rendered every one
// as string attributes (packet_event() below; write_acknowledgement appended
// packet_ack to it), and Event / DeliverTxResult summed their encoded sizes
// from those strings. That code no longer exists in src/; these copies are
// kept verbatim as the oracle the payload's rendered attributes and its
// cached sizes are checked against.

#include <cstddef>
#include <string>
#include <vector>

#include "chain/events.hpp"
#include "ibc/packet.hpp"
#include "util/bytes.hpp"

namespace oracle {

/// IbcKeeper::packet_event: attribute boilerplate shared by the life-cycle
/// events.
inline chain::Event packet_event(const std::string& type,
                                 const ibc::Packet& packet, bool include_data) {
  chain::Event ev;
  ev.type = type;
  ev.attributes = {
      {"packet_sequence", std::to_string(packet.sequence)},
      {"packet_src_port", packet.source_port},
      {"packet_src_channel", packet.source_channel},
      {"packet_dst_port", packet.destination_port},
      {"packet_dst_channel", packet.destination_channel},
      {"packet_timeout_height",
       "0-" + std::to_string(packet.timeout_height)},
      {"packet_timeout_timestamp", std::to_string(packet.timeout_timestamp)},
      {"packet_channel_ordering", "ORDER_UNORDERED"},
  };
  if (include_data) {
    ev.attributes.emplace_back("packet_data",
                               util::to_string(packet.data));
  }
  return ev;
}

/// write_acknowledgement as IbcKeeper emitted it.
inline chain::Event write_ack_event(const ibc::Packet& p,
                                    const ibc::Acknowledgement& ack) {
  chain::Event ack_ev = packet_event("write_acknowledgement", p, true);
  ack_ev.attributes.emplace_back("packet_ack", util::to_string(ack.encode()));
  return ack_ev;
}

/// Event::encoded_size over string attributes.
inline std::size_t event_encoded_size(const chain::Event& ev) {
  // {"type":"...","attributes":[{"key":"...","value":"..."},...]}
  std::size_t n = ev.type.size() + 32;
  for (const auto& [k, v] : ev.attributes) {
    n += k.size() + v.size() + 24;
  }
  return n;
}

/// chain::encoded_size(events).
inline std::size_t events_encoded_size(const std::vector<chain::Event>& events) {
  std::size_t n = 2;
  for (const chain::Event& e : events) n += event_encoded_size(e) + 1;
  return n;
}

/// DeliverTxResult::encoded_size.
inline std::size_t result_encoded_size(const std::vector<chain::Event>& events) {
  return 64 + events_encoded_size(events);
}

}  // namespace oracle
