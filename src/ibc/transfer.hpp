#pragma once
// ICS-20 fungible token transfer module.
//
// The application the paper's workloads exercise. Sending escrows native
// tokens (or burns returning vouchers); receiving mints path-prefixed
// vouchers (or unescrows returning natives); acknowledgements finalize and
// failed acks / timeouts refund. Tokens arriving through different channels
// get different denominations and are not fungible (paper §IV-A).

#include <string>
#include <string_view>

#include "cosmos/app.hpp"
#include "ibc/gas.hpp"
#include "ibc/keeper.hpp"
#include "ibc/module.hpp"

namespace ibc {

/// Voucher denomination for a trace path: "ibc/" + uppercase hex SHA-256,
/// memoised per path (thread-local, bounded).
std::string voucher_denom(std::string_view trace_path);

/// Escrow account owning tokens locked for a channel,
/// "escrow-<port>-<channel>"; it is also the account's balance-key stem.
util::Key escrow_address(const PortId& port, const ChannelId& channel);

class TransferModule : public IbcModule {
 public:
  /// Registers the MsgTransfer handler on `app` and binds the transfer port
  /// on `ibc`.
  TransferModule(cosmos::CosmosApp& app, IbcKeeper& ibc);
  ~TransferModule() override;  // out-of-line: Handler is incomplete here

  TransferModule(const TransferModule&) = delete;
  TransferModule& operator=(const TransferModule&) = delete;

  // IbcModule.
  std::optional<Acknowledgement> on_recv_packet(
      const Packet& packet, const FungibleTokenPacketData* data,
      cosmos::MsgContext& ctx) override;
  util::Status on_acknowledgement_packet(const Packet& packet,
                                         const Acknowledgement& ack,
                                         cosmos::MsgContext& ctx) override;
  util::Status on_timeout_packet(const Packet& packet,
                                 cosmos::MsgContext& ctx) override;

  /// Escrows/burns and emits the packet for a validated MsgTransfer; returns
  /// the packet's sequence. Exposed so the packet-forward middleware can
  /// originate next-hop sends without fabricating a chain::Msg round trip.
  util::Result<Sequence> send_transfer(const MsgTransfer& m,
                                       cosmos::MsgContext& ctx);

  /// Undoes a send (failed ack or timeout): re-mints a burnt returning
  /// voucher or releases the escrowed local denom. Public for the forward
  /// middleware's mid-route unwinding.
  util::Status refund(const Packet& packet, cosmos::MsgContext& ctx);

  /// True when `denom_path` is a voucher that entered through (port,
  /// channel) — i.e. the trace starts with "port/channel/" — meaning a
  /// transfer back through that channel returns the token to its origin.
  static bool is_returning(std::string_view denom_path, std::string_view port,
                           std::string_view channel);

  /// Denomination held locally for an on-wire trace path: the base denom
  /// itself when the path has no hops, else its voucher hash.
  static std::string local_denom(std::string_view trace_path);

  /// Resolves a denomination trace hash back to its path ("" if unknown).
  std::string trace_path(const std::string& voucher) const;

  std::uint64_t transfers_initiated() const { return transfers_initiated_; }
  std::uint64_t refunds() const { return refunds_; }

 private:
  class Handler;  // MsgTransfer handler (separate object so the keeper can
                  // route by URL without a second dispatch)

  util::Status handle_transfer(const chain::Msg& msg, cosmos::MsgContext& ctx);

  cosmos::CosmosApp& app_;
  IbcKeeper& ibc_;
  std::unique_ptr<Handler> handler_;
  std::uint64_t transfers_initiated_ = 0;
  std::uint64_t refunds_ = 0;
};

}  // namespace ibc
