#include "xcc/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ibc/msgs.hpp"

namespace xcc {

TransferBatch transfer_batch(const ibc::ChannelId& channel,
                             const chain::Address& sender,
                             const chain::Address& receiver,
                             std::uint64_t amount, std::uint64_t count,
                             std::int64_t timeout_height) {
  TransferBatch batch;
  batch.msgs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ibc::MsgTransfer t;
    t.source_port = ibc::kTransferPort;
    t.source_channel = channel;
    t.denom = cosmos::kNativeDenom;
    t.amount = amount;
    t.sender = sender;
    t.receiver = receiver;
    t.timeout_height = timeout_height;
    batch.msgs.push_back(t.to_msg());
  }
  batch.gas = static_cast<std::uint64_t>(
      std::ceil((69'000.0 + 36'000.0 * static_cast<double>(count)) * 1.10));
  return batch;
}

sim::Task<> backfill_broadcast_records(rpc::Server& server,
                                       net::MachineId machine,
                                       chain::TxHash hash,
                                       ibc::ChannelId channel,
                                       sim::TimePoint broadcast_time,
                                       relayer::StepLog& log) {
  const auto res = co_await server.query_tx(machine, hash);
  if (!res.is_ok()) co_return;
  for (const chain::Event& ev : res.value().result->events) {
    const ibc::PacketEvent* pe = ibc::packet_event(ev);
    if (pe == nullptr || pe->kind != ibc::PacketEventKind::kSend ||
        pe->packet.source_channel != channel) {
      continue;
    }
    log.record(relayer::Step::kTransferBroadcast, pe->packet.sequence,
               broadcast_time);
  }
}

TransferWorkload::TransferWorkload(Testbed& testbed,
                                   const ChannelSetupResult& channel,
                                   WorkloadConfig config,
                                   relayer::StepLog* step_log)
    : testbed_(testbed),
      channel_(channel),
      config_(config),
      step_log_(step_log),
      server_a_(testbed.chain_a()
                    .servers[static_cast<std::size_t>(config.machine)]
                    .get()) {}

TransferWorkload::~TransferWorkload() {
  if (sub_ != 0) server_a_->unsubscribe(sub_);
}

sim::TimePoint TransferWorkload::start() {
  assert(!started_);
  started_ = true;
  start_time_ = testbed_.scheduler().now();

  const bool burst = config_.total_transfers > 0;
  std::size_t accounts_needed;
  if (burst) {
    remaining_ = config_.total_transfers;
    batches_left_ = std::max(config_.spread_blocks, 1);
    per_batch_ = (config_.total_transfers +
                  static_cast<std::uint64_t>(batches_left_) - 1) /
                 static_cast<std::uint64_t>(batches_left_);
    accounts_needed = static_cast<std::size_t>(
        (per_batch_ + config_.msgs_per_tx - 1) / config_.msgs_per_tx);
  } else {
    // rate * block_interval transfers per block, msgs_per_tx per account.
    const double per_block = config_.requests_per_second *
                             sim::to_seconds(testbed_.config().min_block_interval);
    accounts_needed = static_cast<std::size_t>(std::ceil(
        per_block / static_cast<double>(config_.msgs_per_tx)));
    accounts_needed = std::max<std::size_t>(accounts_needed, 1);
    remaining_ = static_cast<std::uint64_t>(
        std::llround(per_block * config_.duration_blocks));
  }
  stats_.requested = remaining_;

  const auto& users = testbed_.user_accounts();
  assert(config_.account_offset + accounts_needed <= users.size() &&
         "testbed has too few user accounts for this input rate");

  relayer::WalletConfig wc;
  wc.optimistic_sequencing = false;  // CLI waits for commitment (§III-D)
  wc.gas_price = config_.gas_price;
  wc.confirm_timeout = sim::seconds(150);
  wallets_.reserve(accounts_needed);
  for (std::size_t i = 0; i < accounts_needed; ++i) {
    wc.accounts = {users[config_.account_offset + i]};
    wallets_.push_back(std::make_unique<relayer::Wallet>(
        testbed_.scheduler(), *server_a_, config_.machine, wc));
  }

  if (burst) {
    // Batch 0 now; each later batch when the next block is announced.
    sub_ = server_a_->subscribe_new_block(
        config_.machine, [this](const rpc::NewBlockFrame& frame) {
          if (batches_left_ > 0 && frame.height > last_batch_height_) {
            last_batch_height_ = frame.height;
            submit_burst_batches();
          }
        });
    submit_burst_batches();
  } else {
    for (std::size_t i = 0; i < wallets_.size() && remaining_ > 0; ++i) {
      sim::spawn(
          send(i, std::min<std::uint64_t>(remaining_, config_.msgs_per_tx)));
    }
  }
  return start_time_;
}

bool TransferWorkload::finished() const {
  return started_ && remaining_ == 0 && outstanding_ == 0;
}

std::uint64_t TransferWorkload::sequence_mismatch_errors() const {
  std::uint64_t n = 0;
  for (const auto& w : wallets_) n += w->sequence_mismatch_errors();
  return n;
}

std::uint64_t TransferWorkload::no_confirmation_errors() const {
  std::uint64_t n = 0;
  for (const auto& w : wallets_) n += w->no_confirmation_errors();
  return n;
}

std::uint64_t TransferWorkload::rpc_unavailable_errors() const {
  std::uint64_t n = 0;
  for (const auto& w : wallets_) n += w->rpc_unavailable_errors();
  return n;
}

void TransferWorkload::submit_burst_batches() {
  if (batches_left_ <= 0) return;
  --batches_left_;
  std::uint64_t batch = std::min<std::uint64_t>(per_batch_, remaining_);
  std::size_t account = 0;
  while (batch > 0 && account < wallets_.size()) {
    const std::uint64_t count =
        std::min<std::uint64_t>(batch, config_.msgs_per_tx);
    sim::spawn(send(account, count));
    batch -= count;
    ++account;
  }
}

sim::Task<> TransferWorkload::send(std::size_t account, std::uint64_t count) {
  const bool rate_mode = config_.total_transfers == 0;
  for (;;) {
    assert(count > 0 && remaining_ >= count);
    remaining_ -= count;
    ++outstanding_;
    const chain::Address& sender =
        testbed_.user_accounts()[config_.account_offset + account];
    TransferBatch batch = transfer_batch(
        channel_.channel_a, sender, "recv-" + sender, config_.transfer_amount,
        count,
        testbed_.chain_b().ledger->height() + config_.timeout_height_offset);
    sim::TimePoint broadcast_time = 0;
    auto on_broadcast = [this, count, &broadcast_time] {
      stats_.broadcast += count;
      broadcast_time = testbed_.scheduler().now();
    };
    const relayer::Wallet::SubmitOutcome out =
        co_await wallets_[account]->submit(std::move(batch.msgs), batch.gas,
                                           on_broadcast);
    --outstanding_;
    if (out.status.is_ok()) {
      stats_.committed += count;
      if (step_log_) {
        sim::spawn(backfill_broadcast_records(*server_a_, config_.machine,
                                              out.hash, channel_.channel_a,
                                              broadcast_time, *step_log_));
      }
    } else {
      stats_.failed_submission += count;
    }
    if (!rate_mode || remaining_ == 0) co_return;
    count = std::min<std::uint64_t>(remaining_, config_.msgs_per_tx);
  }
}

// --- ZipfSampler -----------------------------------------------------------

ZipfSampler::ZipfSampler(std::size_t n, double exponent) : n_(n) {
  if (n_ == 0) n_ = 1;
  if (exponent <= 0.0) return;  // uniform: no table needed
  cdf_.resize(n_);
  double total = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  if (cdf_.empty()) {
    return static_cast<std::size_t>(rng.next_below(n_));
  }
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

// --- OpenLoopWorkload --------------------------------------------------------

OpenLoopWorkload::OpenLoopWorkload(Testbed& testbed,
                                   const ChannelSetupResult& channel,
                                   WorkloadConfig config)
    : testbed_(testbed),
      channel_(channel),
      config_(config),
      rng_(testbed.config().seed ^ 0x5ca1ab1e00000000ULL),
      zipf_(config.open_loop_accounts, config.zipf_exponent),
      next_sequence_(zipf_.size(), 0),
      counts_(std::make_shared<LiveCounts>()) {}

sim::TimePoint OpenLoopWorkload::start() {
  assert(!started_);
  started_ = true;
  start_time_ = testbed_.scheduler().now();
  remaining_ = config_.total_transfers;
  stats_.requested = remaining_;

  assert(config_.account_offset + zipf_.size() <=
             testbed_.user_accounts().size() &&
         "testbed has too few user accounts for the open-loop population");

  // Inclusion accounting from committed blocks: only workload senders
  // (user-*) count; handshake/relayer traffic is excluded. The shared
  // counts block keeps the un-unsubscribable engine callback safe if it
  // outlives this object.
  std::shared_ptr<LiveCounts> counts = counts_;
  testbed_.chain_a().engine->subscribe_block(
      [counts](const chain::Block& block,
               const std::vector<chain::DeliverTxResult>& results) {
        bool any = false;
        for (std::size_t i = 0; i < block.txs.size(); ++i) {
          const chain::Tx& tx = *block.txs[i];
          if (tx.sender.rfind("user-", 0) != 0) continue;
          const auto msgs = static_cast<std::uint64_t>(tx.msgs.size());
          if (results[i].status.is_ok()) {
            counts->included += msgs;
            any = true;
          } else {
            counts->included_failed += msgs;
          }
        }
        if (any) ++counts->blocks_with_inclusions;
      });

  sim::spawn(tick_loop());
  return start_time_;
}

sim::Task<> OpenLoopWorkload::tick_loop() {
  const double rate = std::max(config_.open_loop_tx_rate, 1e-3);
  const sim::Duration step =
      std::max<sim::Duration>(1, sim::seconds(1.0 / rate));
  while (remaining_ > 0) {
    co_await sim::delay(testbed_.scheduler(), step);
    submit_next();
  }
}

void OpenLoopWorkload::submit_next() {
  if (remaining_ == 0) return;
  const std::uint64_t count =
      std::min<std::uint64_t>(remaining_, config_.msgs_per_tx);
  remaining_ -= count;
  ++outstanding_;

  const std::size_t pick = zipf_.sample(rng_);
  const chain::Address& sender =
      testbed_.user_accounts()[config_.account_offset + pick];

  const TransferBatch batch = transfer_batch(
      channel_.channel_a, sender, "recv-" + sender, config_.transfer_amount,
      count,
      testbed_.chain_b().ledger->height() + config_.timeout_height_offset);
  chain::Tx tx;
  tx.sender = sender;
  tx.sequence = next_sequence_[pick]++;
  // Sealed from a copy, as the wallet seals: the ledger keeps these msgs for
  // the rest of the run, and one copying pass packs them together instead of
  // among the temporaries built above (moving them in raised
  // scale-1m-accounts' peak RSS by 1.4 MiB).
  tx.msgs = batch.msgs;
  tx.gas_limit = batch.gas;
  tx.fee = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(tx.gas_limit) * config_.gas_price));

  // Round-robin the submissions over the machines' full nodes: one serial
  // RPC queue would otherwise become the artificial bottleneck.
  const auto& servers = testbed_.chain_a().servers;
  const std::size_t m = (static_cast<std::size_t>(config_.machine) +
                         submit_index_++) %
                        servers.size();
  const std::uint64_t seq = tx.sequence;
  sim::spawn(
      servers[m]->broadcast_tx_sync(static_cast<net::MachineId>(m),
                                    chain::seal(std::move(tx))),
      [this, count, pick, seq](const util::Status& status) {
        --outstanding_;
        if (status.is_ok()) {
          stats_.broadcast += count;
        } else {
          rejected_msgs_ += count;
          // Resync the local sequence when no later submission for this
          // account raced past the rejected one; otherwise the gap drains
          // as further rejections (open-loop overload behaviour).
          if (next_sequence_[pick] == seq + 1) next_sequence_[pick] = seq;
        }
      });
}

bool OpenLoopWorkload::finished() const {
  if (!started_ || remaining_ != 0 || outstanding_ != 0) return false;
  return counts_->included + counts_->included_failed + rejected_msgs_ >=
         stats_.requested;
}

const TransferWorkload::Stats& OpenLoopWorkload::stats() const {
  stats_.committed = counts_->included;
  stats_.failed_submission = rejected_msgs_ + counts_->included_failed;
  return stats_;
}

}  // namespace xcc
