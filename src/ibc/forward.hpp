#pragma once
// ICS-20 packet-forward middleware.
//
// Wraps the transfer module on an intermediate chain so a single user
// transfer can traverse a multi-hop route (A -> B -> C ...) without anyone
// holding accounts on the middle chains. The route rides in the packet's
// receiver field as "fwd:<chan1>[/<chan2>...]:<final_receiver>"; each hop
// strips its own channel, delivers the tokens to a local forwarding agent,
// and re-sends them on the next channel with the denom trace extended by
// one hop (so a token forwarded A->B->C is a *different* denom than one
// sent A->C directly — non-fungibility per route, paper §IV-A).
//
// The hop's own acknowledgement is deferred (async ack): it is written only
// once the next hop settles. Success propagates a success ack backwards;
// a failed ack or hop timeout unwinds the local delivery (burn the minted
// voucher / re-escrow the unescrowed token) and propagates an error ack, so
// the origin chain refunds the sender exactly once — the invariant checker
// audits every intermediate step.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ibc/transfer.hpp"

namespace ibc {

/// Account that custodies in-flight tokens on a forwarding chain.
inline const chain::Address kForwardAgent = "ibc-forward-agent";

class ForwardMiddleware : public IbcModule {
 public:
  /// Wraps `inner` (already bound to the transfer port on `ibc`); rebinding
  /// the port routes packet callbacks through this middleware first.
  /// `hop_timeout_blocks` is each forwarded hop's timeout budget, measured
  /// in destination-chain blocks past the next-hop client's latest height.
  ForwardMiddleware(cosmos::CosmosApp& app, IbcKeeper& ibc,
                    TransferModule& inner,
                    std::int64_t hop_timeout_blocks = 60);

  ForwardMiddleware(const ForwardMiddleware&) = delete;
  ForwardMiddleware& operator=(const ForwardMiddleware&) = delete;

  // IbcModule.
  std::optional<Acknowledgement> on_recv_packet(
      const Packet& packet, const FungibleTokenPacketData* data,
      cosmos::MsgContext& ctx) override;
  util::Status on_acknowledgement_packet(const Packet& packet,
                                         const Acknowledgement& ack,
                                         cosmos::MsgContext& ctx) override;
  util::Status on_timeout_packet(const Packet& packet,
                                 cosmos::MsgContext& ctx) override;

  /// Builds the receiver-field route encoding for `hops` (source channels of
  /// each forwarding chain, in traversal order) ending at `final_receiver`.
  static std::string encode_route(const std::vector<ChannelId>& hops,
                                  const std::string& final_receiver);
  /// Parses a receiver field; returns false when it is not a route.
  static bool parse_route(const std::string& receiver,
                          std::vector<ChannelId>& hops,
                          std::string& final_receiver);

  /// True when an ICS-20 receiver field encodes a forward route: receiving
  /// such a packet executes an onward transfer in the same tx, so a relayer
  /// must budget that extra gas into its recv estimate.
  static bool is_forward_route(std::string_view receiver);

  // Statistics surfaced to experiments and tests.
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t forwards_completed() const { return forwards_completed_; }
  std::uint64_t forwards_unwound() const { return forwards_unwound_; }

 private:
  /// Store key holding the original (previous-hop) packet while its onward
  /// hop is in flight, keyed by our outgoing (channel, sequence).
  static util::Key forward_key(const ChannelId& channel, Sequence seq);

  /// Latest height of the light client behind our outgoing channel, for the
  /// hop timeout budget.
  util::Result<std::int64_t> client_height(const ChannelId& channel) const;

  /// Undoes this hop's local delivery of `orig` to the forwarding agent:
  /// burns the voucher we minted, or returns an unescrowed token to escrow.
  util::Status unwind_local_delivery(const Packet& orig,
                                     const FungibleTokenPacketData& data);

  /// Settles the previous hop once our onward packet resolved: refunds the
  /// agent via the inner module (error/timeout only), unwinds the local
  /// delivery and writes the deferred ack on the original packet.
  util::Status settle(const Packet& next_hop_packet, bool success,
                      const std::string& error, cosmos::MsgContext& ctx);

  cosmos::CosmosApp& app_;
  IbcKeeper& ibc_;
  TransferModule& inner_;
  std::int64_t hop_timeout_blocks_;

  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t forwards_completed_ = 0;
  std::uint64_t forwards_unwound_ = 0;
};

}  // namespace ibc
