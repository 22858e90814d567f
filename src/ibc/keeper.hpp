#pragma once
// Core IBC keeper: the message-routing heart of the protocol (ICS-26).
//
// Registered with the Cosmos app as the handler for every IBC type URL. It
// owns the client / connection / channel keepers, implements the packet
// life cycle of Fig. 2 (recv -> ack) and Fig. 3 (timeout), enforces
// exactly-once delivery (redundant relays fail — the mechanism behind the
// paper's two-relayer throughput collapse), and routes packets to
// port-bound application modules.

#include <map>
#include <string>

#include "cosmos/app.hpp"
#include "ibc/channel.hpp"
#include "ibc/client.hpp"
#include "ibc/connection.hpp"
#include "ibc/gas.hpp"
#include "ibc/module.hpp"
#include "ibc/msgs.hpp"

namespace ibc {

/// Test-only fault injection: deliberately broken keeper behaviours used to
/// prove the invariant checker (and the fuzzer) can actually detect protocol
/// bugs. Never enabled in experiments.
struct KeeperFaults {
  /// Bypass the exactly-once replay check in recvPacket: redundant relays
  /// mutate state again (double-mint on ICS-20) instead of failing.
  bool skip_replay_check = false;
  /// Bypass the trusting-period expiry check on client updates and proof
  /// verification: an expired client silently keeps accepting headers (the
  /// pre-fix behaviour; the chaos campaigns must detect this).
  bool skip_expiry_check = false;
};

class IbcKeeper : public cosmos::MsgHandler {
 public:
  /// Creates the keeper and registers it for all IBC message URLs on `app`.
  explicit IbcKeeper(cosmos::CosmosApp& app, GasTable gas = {});

  IbcKeeper(const IbcKeeper&) = delete;
  IbcKeeper& operator=(const IbcKeeper&) = delete;

  /// Binds an application module to a port (ICS-05 simplified).
  void bind_port(const PortId& port, IbcModule* module);

  ClientKeeper& clients() { return clients_; }
  ConnectionKeeper& connections() { return connections_; }
  ChannelKeeper& channels() { return channels_; }
  const GasTable& gas() const { return gas_; }

  // cosmos::MsgHandler.
  util::Status handle(const chain::Msg& msg, cosmos::MsgContext& ctx) override;

  /// Called by application modules to emit a packet (ICS-04 sendPacket).
  /// `sequence` is the channel's next send sequence, which the module read
  /// in this message (channels().next_sequence_send()); the packet takes it.
  /// Stores the commitment, advances the counter and emits the send_packet
  /// event. Returns the sequence. A module that encoded `data` from ICS-20
  /// token data passes that as `transfer_data`, so the event carries it
  /// without decoding `data` back.
  util::Result<Sequence> send_packet(
      const PortId& source_port, const ChannelId& source_channel,
      Sequence sequence, util::Bytes data, std::int64_t timeout_height,
      std::int64_t timeout_timestamp, cosmos::MsgContext& ctx,
      std::optional<FungibleTokenPacketData> transfer_data = std::nullopt);

  /// Called by a module that deferred its acknowledgement (returned nullopt
  /// from on_recv_packet) once the packet's fate is known — ICS-04
  /// writeAcknowledgement. Fails if the packet was never received here or an
  /// acknowledgement was already written.
  util::Status write_acknowledgement(const Packet& packet,
                                     const Acknowledgement& ack,
                                     cosmos::MsgContext& ctx);

  /// Installs test-only fault injection (see KeeperFaults).
  void set_faults(KeeperFaults faults) { faults_ = faults; }

  // Statistics surfaced to the experiments.
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_acknowledged() const { return packets_acknowledged_; }
  std::uint64_t packets_timed_out() const { return packets_timed_out_; }
  std::uint64_t redundant_messages() const { return redundant_messages_; }

 private:
  util::Status handle_create_client(const chain::Msg& msg,
                                    cosmos::MsgContext& ctx);
  util::Status handle_update_client(const chain::Msg& msg,
                                    cosmos::MsgContext& ctx);
  util::Status handle_submit_misbehaviour(const chain::Msg& msg,
                                          cosmos::MsgContext& ctx);
  util::Status handle_recover_client(const chain::Msg& msg,
                                     cosmos::MsgContext& ctx);
  util::Status handle_conn_open_init(const chain::Msg& msg,
                                     cosmos::MsgContext& ctx);
  util::Status handle_conn_open_try(const chain::Msg& msg,
                                    cosmos::MsgContext& ctx);
  util::Status handle_conn_open_ack(const chain::Msg& msg,
                                    cosmos::MsgContext& ctx);
  util::Status handle_conn_open_confirm(const chain::Msg& msg,
                                        cosmos::MsgContext& ctx);
  util::Status handle_chan_open_init(const chain::Msg& msg,
                                     cosmos::MsgContext& ctx);
  util::Status handle_chan_open_try(const chain::Msg& msg,
                                    cosmos::MsgContext& ctx);
  util::Status handle_chan_open_ack(const chain::Msg& msg,
                                    cosmos::MsgContext& ctx);
  util::Status handle_chan_open_confirm(const chain::Msg& msg,
                                        cosmos::MsgContext& ctx);
  util::Status handle_chan_close_init(const chain::Msg& msg,
                                      cosmos::MsgContext& ctx);
  util::Status handle_chan_close_confirm(const chain::Msg& msg,
                                         cosmos::MsgContext& ctx);
  util::Status handle_recv_packet(const chain::Msg& msg,
                                  cosmos::MsgContext& ctx);
  util::Status handle_acknowledgement(const chain::Msg& msg,
                                      cosmos::MsgContext& ctx);
  util::Status handle_timeout(const chain::Msg& msg, cosmos::MsgContext& ctx);

  /// Resolves the client id behind a channel's connection.
  util::Result<ClientId> channel_client(const PortId& port,
                                        const ChannelId& channel) const;

  /// Virtual "now" passed to client expiry checks: the executing block's
  /// time, or 0 (= expiry not evaluated) under the skip-expiry mutation.
  sim::TimePoint verify_now(const cosmos::MsgContext& ctx) const {
    return faults_.skip_expiry_check ? 0 : ctx.block_time;
  }

  IbcModule* module_for(const PortId& port) const;

  cosmos::CosmosApp& app_;
  chain::KvStore& store_;
  GasTable gas_;
  KeeperFaults faults_;
  ClientKeeper clients_;
  ConnectionKeeper connections_;
  ChannelKeeper channels_;
  std::map<PortId, IbcModule*> ports_;

  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_acknowledged_ = 0;
  std::uint64_t packets_timed_out_ = 0;
  std::uint64_t redundant_messages_ = 0;
};

}  // namespace ibc
