#pragma once
// ABCI events.
//
// DeliverTx emits typed events with string attributes (e.g. `send_packet`
// with packet data). The relayer's Supervisor subscribes to these via the
// RPC WebSocket; their encoded size is what hits the 16 MB frame limit in
// the paper's §V "WebSocket space limit" challenge.
//
// An event either stores its attributes (a generic event) or carries an
// immutable payload, shared by pointer, that renders them on demand and knows
// their encoded size (a typed event: the IBC packet life-cycle events, see
// ibc/packet.hpp). Copying a typed event copies a pointer.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace chain {

using Attribute = std::pair<std::string, std::string>;

/// Typed event body. `chain` knows nothing of what a payload holds: it asks
/// for the packet sequence (the packet-event index key), the encoded size
/// and, for tests and dumps, the attribute strings.
class EventPayload {
 public:
  EventPayload() = default;
  EventPayload(const EventPayload&) = delete;
  EventPayload& operator=(const EventPayload&) = delete;
  virtual ~EventPayload() = default;

  /// The packet_sequence attribute's value.
  virtual std::uint64_t sequence() const = 0;
  /// Encoded size of the attributes render() returns, as Event counts it.
  virtual std::size_t attributes_encoded_size() const = 0;
  /// The attributes, in emission order.
  virtual std::vector<Attribute> render() const = 0;
};

struct Event {
  std::string type;
  /// A generic event's attributes (empty for a typed event).
  std::vector<Attribute> attributes;
  /// A typed event's payload (null for a generic event).
  std::shared_ptr<const EventPayload> payload = nullptr;

  /// First attribute value with the given key, or "" if absent.
  std::string attribute(const std::string& key) const;

  /// The attributes in emission order: the stored ones, or the payload's.
  std::vector<Attribute> rendered_attributes() const;

  /// Approximate JSON-encoded size, used for WebSocket frame accounting.
  std::size_t encoded_size() const;
};

/// Encoded size of one attribute.
constexpr std::size_t attribute_encoded_size(std::size_t key_size,
                                             std::size_t value_size) {
  // {"key":"...","value":"..."},
  return key_size + value_size + 24;
}

/// Total encoded size of an event list.
std::size_t encoded_size(const std::vector<Event>& events);

}  // namespace chain
