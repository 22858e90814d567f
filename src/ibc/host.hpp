#pragma once
// ICS-24 host state paths.
//
// IBC state lives in the application store under standardized keys so that
// counterparty chains can verify (non-)existence with store proofs. These
// helpers produce the canonical paths for packet commitments, receipts,
// acknowledgements and sequence counters, built in place (util::Key): each
// path format is written here once.

#include <cstdint>

#include "ibc/ids.hpp"
#include "util/key.hpp"

namespace ibc::host {

util::Key client_state_key(const ClientId& client);
util::Key consensus_state_key(const ClientId& client, std::int64_t height);
util::Key connection_key(const ConnectionId& connection);
util::Key channel_key(const PortId& port, const ChannelId& channel);

util::Key packet_commitment_key(const PortId& port, const ChannelId& channel,
                                Sequence sequence);
util::Key packet_receipt_key(const PortId& port, const ChannelId& channel,
                             Sequence sequence);
util::Key packet_ack_key(const PortId& port, const ChannelId& channel,
                         Sequence sequence);

util::Key next_sequence_send_key(const PortId& port, const ChannelId& channel);
util::Key next_sequence_recv_key(const PortId& port, const ChannelId& channel);
util::Key next_sequence_ack_key(const PortId& port, const ChannelId& channel);

/// Prefix under which all commitments for a channel live (used by packet
/// clearing to enumerate pending packets).
util::Key packet_commitment_prefix(const PortId& port,
                                   const ChannelId& channel);

}  // namespace ibc::host
