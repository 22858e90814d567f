#pragma once
// Benchmark module: the Cross-chain Workload Connector (paper Fig. 5).
//
// Submits cross-chain fungible token transfers the way the paper does
// through the Hermes CLI: transactions of (up to) 100 MsgTransfer each, one
// in-flight transaction per user account (the CLI waits for commitment
// before reusing an account — the Cosmos sequence-number limitation of
// §III-D), with the input rate controlled by the number of concurrent user
// accounts (rate = accounts * 100 msgs / 5 s block).
//
// Two modes:
//   * rate mode — sustain `requests_per_second` for `duration_blocks`
//     (Figs. 6-11, Table I);
//   * burst mode — submit `total_transfers` spread evenly over
//     `spread_blocks` consecutive blocks (Figs. 12-13, §V).
//
// Each submission is a task: it builds the tx, awaits the account's wallet
// and books the outcome. In rate mode one such task per account loops until
// nothing is left to submit, as one CLI instance per account would; in burst
// mode each block's batch spawns one per account, and a batch that reaches
// an account whose previous tx is unconfirmed queues in its wallet.

#include <cstdint>
#include <memory>

#include "relayer/events.hpp"
#include "util/rng.hpp"
#include "relayer/wallet.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"

namespace xcc {

struct WorkloadConfig {
  /// Rate mode (used when total_transfers == 0).
  double requests_per_second = 100.0;
  int duration_blocks = 50;

  /// Burst mode (enabled when total_transfers > 0).
  std::uint64_t total_transfers = 0;
  int spread_blocks = 1;

  std::size_t msgs_per_tx = 100;
  std::uint64_t transfer_amount = 1;
  /// First user account index to use (lets two workloads — e.g. one per
  /// channel — run concurrently without colliding on account sequences).
  std::size_t account_offset = 0;
  /// Packet timeout: destination height at submission + this offset.
  std::int64_t timeout_height_offset = 100'000;
  net::MachineId machine = 0;
  double gas_price = 0.01;

  // --- open-loop mode (OpenLoopWorkload; the bench_scale_* family) -------
  /// Selects OpenLoopWorkload in run_experiment(): fire-and-forget
  /// submission at `open_loop_tx_rate`, senders drawn Zipf-distributed
  /// from `open_loop_accounts` accounts, `total_transfers` in total.
  bool open_loop = false;
  /// Size of the account population senders are drawn from.
  std::size_t open_loop_accounts = 1000;
  /// Zipf exponent for account selection; 0 = uniform. Real user activity
  /// is heavy-tailed, which concentrates sequence chains on hot accounts.
  double zipf_exponent = 1.0;
  /// Transactions (not transfers) submitted per virtual second.
  double open_loop_tx_rate = 40.0;
};

/// Deterministic Zipf(s) sampler over {0..n-1} via a precomputed CDF table
/// and binary search. rank probability ~ 1/(rank+1)^s; s = 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);
  std::size_t sample(util::Rng& rng) const;
  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  std::vector<double> cdf_;  // empty when exponent == 0 (uniform)
};

/// One tx's worth of ICS-20 transfers as the CLI builds it: `count`
/// MsgTransfer of `amount` native tokens from `sender` to `receiver` over
/// `channel`, timing out at destination height `timeout_height`, and the
/// gas budgeted for them (ante base + per-transfer gas with ~1% jitter
/// headroom).
struct TransferBatch {
  std::vector<chain::Msg> msgs;
  std::uint64_t gas = 0;
};
TransferBatch transfer_batch(const ibc::ChannelId& channel,
                             const chain::Address& sender,
                             const chain::Address& receiver,
                             std::uint64_t amount, std::uint64_t count,
                             std::int64_t timeout_height);

/// Reads the committed tx `hash` back from `server` and logs a
/// transfer-broadcast step at `broadcast_time` for each packet it sent over
/// `channel`: the CLI learns the assigned packet sequences only from the
/// committed transaction's events (this post-hoc query is itself part of the
/// paper's tooling overhead, §V "Transaction data collection").
sim::Task<> backfill_broadcast_records(rpc::Server& server,
                                       net::MachineId machine,
                                       chain::TxHash hash,
                                       ibc::ChannelId channel,
                                       sim::TimePoint broadcast_time,
                                       relayer::StepLog& log);

class TransferWorkload {
 public:
  TransferWorkload(Testbed& testbed, const ChannelSetupResult& channel,
                   WorkloadConfig config, relayer::StepLog* step_log);
  ~TransferWorkload();

  TransferWorkload(const TransferWorkload&) = delete;
  TransferWorkload& operator=(const TransferWorkload&) = delete;

  /// Begins submission; returns the virtual start time.
  sim::TimePoint start();

  /// All requested transfers have been submitted (successfully or not) and
  /// their confirmation outcomes resolved.
  bool finished() const;

  struct Stats {
    std::uint64_t requested = 0;        // transfers handed to the connector
    std::uint64_t broadcast = 0;        // accepted into the mempool
    std::uint64_t committed = 0;        // committed on the source chain
    std::uint64_t failed_submission = 0;  // rejected / never confirmed
  };
  const Stats& stats() const { return stats_; }
  sim::TimePoint start_time() const { return start_time_; }

  /// Wallet-level error counters summed over all submission accounts (the
  /// paper's "account sequence mismatch" / "failed tx: no confirmation").
  std::uint64_t sequence_mismatch_errors() const;
  std::uint64_t no_confirmation_errors() const;
  std::uint64_t rpc_unavailable_errors() const;

 private:
  void submit_burst_batches();
  /// Submits a tx of `count` transfers from `account` and books its
  /// outcome; in rate mode the account goes on until nothing is left.
  sim::Task<> send(std::size_t account, std::uint64_t count);

  Testbed& testbed_;
  ChannelSetupResult channel_;
  WorkloadConfig config_;
  relayer::StepLog* step_log_;
  rpc::Server* server_a_;

  std::vector<std::unique_ptr<relayer::Wallet>> wallets_;  // one per account
  std::uint64_t remaining_ = 0;      // transfers not yet submitted
  std::uint64_t outstanding_ = 0;    // txs awaiting final outcome
  bool started_ = false;
  sim::TimePoint start_time_ = 0;

  // Burst mode bookkeeping.
  int batches_left_ = 0;
  std::uint64_t per_batch_ = 0;
  chain::Height last_batch_height_ = 0;
  rpc::Server::SubscriptionId sub_ = 0;

  Stats stats_;
};

/// Open-loop submission harness for the scale benches: transactions are
/// broadcast fire-and-forget at a fixed virtual-time rate (no per-account
/// wait-for-commit), with senders drawn from a Zipf-distributed account
/// population and per-account sequence numbers tracked locally — the
/// mempool admits consecutive sequences, so hot accounts build chains.
/// Inclusion is counted from committed blocks via the consensus engine's
/// block subscription. If the mempool overflows, rejected transfers are
/// counted as failed (that is the open-loop contract) and the sender's
/// local sequence resyncs when no later submission raced past it.
class OpenLoopWorkload {
 public:
  OpenLoopWorkload(Testbed& testbed, const ChannelSetupResult& channel,
                   WorkloadConfig config);

  OpenLoopWorkload(const OpenLoopWorkload&) = delete;
  OpenLoopWorkload& operator=(const OpenLoopWorkload&) = delete;

  sim::TimePoint start();

  /// Everything submitted and every outcome known (committed, failed on
  /// delivery, or rejected at broadcast).
  bool finished() const;

  const TransferWorkload::Stats& stats() const;
  std::uint64_t blocks_with_inclusions() const {
    return counts_->blocks_with_inclusions;
  }

 private:
  // Shared with the engine block subscription, which cannot be
  // unsubscribed and may outlive this workload within a run.
  struct LiveCounts {
    std::uint64_t included = 0;         // transfers in successful txs
    std::uint64_t included_failed = 0;  // transfers in failed-delivery txs
    std::uint64_t blocks_with_inclusions = 0;
  };

  /// Submits one tx per tick until every transfer is submitted.
  sim::Task<> tick_loop();
  void submit_next();

  Testbed& testbed_;
  ChannelSetupResult channel_;
  WorkloadConfig config_;
  util::Rng rng_;
  ZipfSampler zipf_;
  std::vector<std::uint64_t> next_sequence_;  // per account-population index
  std::shared_ptr<LiveCounts> counts_;
  std::uint64_t remaining_ = 0;
  std::uint64_t outstanding_ = 0;  // broadcasts awaiting admission outcome
  std::uint64_t submit_index_ = 0;
  std::uint64_t rejected_msgs_ = 0;
  bool started_ = false;
  sim::TimePoint start_time_ = 0;
  mutable TransferWorkload::Stats stats_;
};

}  // namespace xcc
