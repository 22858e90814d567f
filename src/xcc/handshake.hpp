#pragma once
// Channel establishment driver (the Setup module's "hermes create channel").
//
// Drives the full ICS-02/03/04 establishment sequence through real
// transactions: create a light client on each chain, run the four-step
// connection handshake, then the four-step channel handshake — every step
// proven to the counterparty with store proofs and client updates, exactly
// as a relayer would do it (paper §II-B1).

#include <memory>
#include <string>

#include "relayer/relayer.hpp"
#include "relayer/wallet.hpp"
#include "xcc/testbed.hpp"

namespace xcc {

struct ChannelSetupResult {
  bool ok = false;
  std::string error;
  /// Testbed chain indices of the channel's two ends ("A" / "B" below).
  int chain_x = 0;
  int chain_y = 1;
  ibc::ClientId client_on_a;  // client of chain B hosted on A
  ibc::ClientId client_on_b;  // client of chain A hosted on B
  ibc::ConnectionId connection_a;
  ibc::ConnectionId connection_b;
  ibc::ChannelId channel_a;
  ibc::ChannelId channel_b;

  /// Path config for relayer::Relayer.
  relayer::PathConfig path() const;
};

class HandshakeDriver {
 public:
  /// Uses the given relayer wallet index's accounts for handshake txs,
  /// talking to the full nodes on `machine`. `trusting_period` overrides the
  /// created clients' trusting period (0 keeps the ClientState default of 14
  /// days); chaos campaigns shrink it to force client expiry. `chain_x` /
  /// `chain_y` select which testbed chains host the channel's two ends
  /// (defaults reproduce the paper's A/B pair); `ordering` sets the channel
  /// ordering. Invalid chain indices surface as a failed
  /// ChannelSetupResult, never as a silent fallback to chain 0.
  HandshakeDriver(Testbed& testbed, int relayer_wallet = 0,
                  net::MachineId machine = 0,
                  sim::Duration trusting_period = 0, int chain_x = 0,
                  int chain_y = 1,
                  ibc::ChannelOrdering ordering =
                      ibc::ChannelOrdering::kUnordered);
  ~HandshakeDriver();

  HandshakeDriver(const HandshakeDriver&) = delete;
  HandshakeDriver& operator=(const HandshakeDriver&) = delete;

  /// The handshake as a task: it finishes when the channel is OPEN on both
  /// ends (or on the first failure). Both chains must already be producing
  /// blocks.
  sim::Task<ChannelSetupResult> establish_channel();

  /// Convenience: runs establish_channel to completion on the testbed's
  /// scheduler. Returns the result (ok=false on `limit` exceeded).
  ChannelSetupResult establish_channel_blocking(sim::TimePoint limit);

 private:
  sim::Task<util::Status> open(ChannelSetupResult& r);

  Testbed& testbed_;
  net::MachineId machine_;
  sim::Duration trusting_period_ = 0;  // 0 = ClientState default
  int chain_x_ = 0;
  int chain_y_ = 1;
  ibc::ChannelOrdering ordering_ = ibc::ChannelOrdering::kUnordered;
  std::string init_error_;  // set when the chain indices are invalid
  std::unique_ptr<relayer::Wallet> wallet_a_;
  std::unique_ptr<relayer::Wallet> wallet_b_;
};

}  // namespace xcc
