#pragma once
// IBC application module callbacks (ICS-25/26 style routing).
//
// Port-bound application modules (ICS-20 transfer being the one the paper
// exercises) receive packet life-cycle callbacks from the core IBC keeper.

#include <optional>

#include "cosmos/app.hpp"
#include "ibc/packet.hpp"
#include "util/status.hpp"

namespace ibc {

class IbcModule {
 public:
  virtual ~IbcModule() = default;

  /// Packet delivered to this module's port; returns the acknowledgement to
  /// write (success or application error), or nullopt to defer it — the
  /// module then resolves the packet later via
  /// IbcKeeper::write_acknowledgement (asynchronous acknowledgements, used
  /// by the packet-forward middleware to hold a hop's ack until the next
  /// hop succeeds or unwinds). `data` is packet.data decoded as ICS-20
  /// token data, once, by the keeper (nullptr when it does not decode); the
  /// recv event carries the same decode.
  virtual std::optional<Acknowledgement> on_recv_packet(
      const Packet& packet, const FungibleTokenPacketData* data,
      cosmos::MsgContext& ctx) = 0;

  /// Counterparty acknowledged a packet this module sent.
  virtual util::Status on_acknowledgement_packet(const Packet& packet,
                                                 const Acknowledgement& ack,
                                                 cosmos::MsgContext& ctx) = 0;

  /// A packet this module sent timed out; undo its effects (paper Fig. 3).
  virtual util::Status on_timeout_packet(const Packet& packet,
                                         cosmos::MsgContext& ctx) = 0;
};

}  // namespace ibc
