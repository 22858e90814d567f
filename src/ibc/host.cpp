#include "ibc/host.hpp"

namespace ibc::host {

util::Key client_state_key(const ClientId& client) {
  return util::Key("ibc/clients/", client, "/clientState");
}

util::Key consensus_state_key(const ClientId& client, std::int64_t height) {
  return util::Key("ibc/clients/", client, "/consensusStates/", height);
}

util::Key connection_key(const ConnectionId& connection) {
  return util::Key("ibc/connections/", connection);
}

util::Key channel_key(const PortId& port, const ChannelId& channel) {
  return util::Key("ibc/channelEnds/ports/", port, "/channels/", channel);
}

util::Key packet_commitment_key(const PortId& port, const ChannelId& channel,
                                Sequence sequence) {
  util::Key key = packet_commitment_prefix(port, channel);
  key.append(sequence);
  return key;
}

util::Key packet_receipt_key(const PortId& port, const ChannelId& channel,
                             Sequence sequence) {
  return util::Key("ibc/receipts/ports/", port, "/channels/", channel,
                   "/sequences/", sequence);
}

util::Key packet_ack_key(const PortId& port, const ChannelId& channel,
                         Sequence sequence) {
  return util::Key("ibc/acks/ports/", port, "/channels/", channel,
                   "/sequences/", sequence);
}

util::Key next_sequence_send_key(const PortId& port,
                                 const ChannelId& channel) {
  return util::Key("ibc/nextSequenceSend/ports/", port, "/channels/", channel);
}

util::Key next_sequence_recv_key(const PortId& port,
                                 const ChannelId& channel) {
  return util::Key("ibc/nextSequenceRecv/ports/", port, "/channels/", channel);
}

util::Key next_sequence_ack_key(const PortId& port,
                                const ChannelId& channel) {
  return util::Key("ibc/nextSequenceAck/ports/", port, "/channels/", channel);
}

util::Key packet_commitment_prefix(const PortId& port,
                                   const ChannelId& channel) {
  return util::Key("ibc/commitments/ports/", port, "/channels/", channel,
                   "/sequences/");
}

}  // namespace ibc::host
