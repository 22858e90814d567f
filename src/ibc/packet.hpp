#pragma once
// IBC packets (ICS-04).
//
// A packet is the unit of cross-chain data transfer. The sending chain
// stores a *commitment* (hash of data + timeout) under an ICS-24 path; the
// receiving chain verifies that commitment with a store proof, writes a
// receipt and an acknowledgement; the sending chain finally verifies the
// acknowledgement and deletes its commitment (paper Fig. 2). Timeouts are
// proven by the *absence* of a receipt (paper Fig. 3).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chain/events.hpp"
#include "crypto/sha256.hpp"
#include "ibc/ids.hpp"
#include "util/bytes.hpp"

namespace ibc {

struct Packet {
  Sequence sequence = 0;
  PortId source_port;
  ChannelId source_channel;
  PortId destination_port;
  ChannelId destination_channel;
  util::Bytes data;  // opaque to IBC; ICS-20 puts FungibleTokenPacketData here
  /// Timeout height on the *destination* chain (0 = no height timeout).
  std::int64_t timeout_height = 0;
  /// Timeout timestamp on the destination chain (0 = none), virtual time.
  std::int64_t timeout_timestamp = 0;

  /// Canonical encoding (used in commitments and message payloads).
  util::Bytes encode() const;
  static bool decode(util::BytesView bytes, Packet& out);

  /// The commitment stored on the sending chain:
  /// H(timeout_height || timeout_timestamp || H(data)).
  crypto::Digest commitment() const;

  std::size_t size_bytes() const { return 96 + data.size(); }
};

/// The ICS-20 packet payload, serialized as the canonical JSON object
/// {"amount":"..","denom":"..","receiver":"..","sender":".."} (matching the
/// real wire format, which also keeps simulated event sizes realistic).
struct FungibleTokenPacketData {
  std::string denom;   // full trace path, e.g. "uatom" or
                       // "transfer/channel-0/uatom"
  std::uint64_t amount = 0;
  std::string sender;
  std::string receiver;

  util::Bytes to_json() const;
  static bool from_json(util::BytesView json, FungibleTokenPacketData& out);
  /// from_json() as a value; nullopt when `json` is not ICS-20 data.
  static std::optional<FungibleTokenPacketData> decode(util::BytesView json);

  bool operator==(const FungibleTokenPacketData&) const = default;
};

/// The packet life-cycle events of paper Figs. 2-3.
enum class PacketEventKind { kSend, kRecv, kWriteAck, kAcknowledge, kTimeout };

/// Event type string of a packet life-cycle event ("send_packet", ...).
inline const char* packet_event_type(PacketEventKind kind) {
  constexpr const char* kTypes[] = {"send_packet", "recv_packet",
                                    "write_acknowledgement",
                                    "acknowledge_packet", "timeout_packet"};
  return kTypes[static_cast<int>(kind)];
}

/// The immutable payload of a packet life-cycle event: the packet, its data
/// decoded once as ICS-20, and the acknowledgement. The attribute strings
/// (packet_sequence, ports, channels, timeouts, packet_data, packet_ack) are
/// rendered only on demand; their encoded size is computed once, here.
struct PacketEvent final : chain::EventPayload {
  /// Use make_packet_event().
  PacketEvent(PacketEventKind event_kind, Packet event_packet,
              util::Bytes event_ack,
              std::optional<FungibleTokenPacketData> event_transfer_data);

  const PacketEventKind kind;
  /// Its data is empty for acknowledge/timeout events, which do not carry
  /// packet_data.
  const Packet packet;
  /// The packet data as ICS-20 token data; nullopt when it does not decode.
  const std::optional<FungibleTokenPacketData> transfer_data;
  /// Encoded acknowledgement: the one a write_acknowledgement event
  /// announces, or for a recv_packet event the one written with it in the
  /// same message (empty when the module deferred it).
  const util::Bytes ack;
  /// Encoded size of the attributes render() returns, computed once.
  const std::size_t attributes_size;

  std::uint64_t sequence() const override { return packet.sequence; }
  std::size_t attributes_encoded_size() const override {
    return attributes_size;
  }
  std::vector<chain::Attribute> render() const override;
};

/// Builds a packet life-cycle event; IbcKeeper emits every packet event
/// through this. `ack` is the encoded acknowledgement (write_acknowledgement,
/// and recv_packet when the ack is written in the same message).
/// `transfer_data` is what packet.data encodes, for a caller that has it at
/// hand (send_transfer just encoded it; a write_acknowledgement takes its
/// recv_packet event's); without it packet.data is decoded, for the kinds
/// that carry it.
chain::Event make_packet_event(
    PacketEventKind kind, Packet packet, util::Bytes ack = {},
    std::optional<FungibleTokenPacketData> transfer_data = std::nullopt);

/// The payload of a packet life-cycle event; nullptr for any other event.
const PacketEvent* packet_event(const chain::Event& event);

/// A copy of the packet a packet life-cycle event announces ("send_packet",
/// "recv_packet", "write_acknowledgement", ...); nullopt for any other
/// event.
std::optional<Packet> packet_from_event(const chain::Event& event);

/// Acknowledgement payload: success marker or application error string.
struct Acknowledgement {
  bool success = true;
  std::string error;  // set when success == false

  util::Bytes encode() const;
  static bool decode(util::BytesView bytes, Acknowledgement& out);

  /// Commitment stored under the ack path: H(encoded ack).
  crypto::Digest commitment() const;
};

}  // namespace ibc
