// Pinned wallet paths: the CLI wallet's submission ladder above Table I's
// cliff (sequence mismatches, lost confirmations, a full RPC queue) and a
// spread burst whose submissions queue behind unconfirmed ones. Each run's
// whole outcome is pinned to constants, as the PinnedSchedule* tests pin the
// relayer's: the executed DES event count, an FNV-1a hash of the step log,
// the workload's and its wallets' counters and both chains' store roots.

#include <gtest/gtest.h>

#include <array>
#include <iostream>

#include "crypto/sha256.hpp"
#include "xcc/handshake.hpp"
#include "xcc/workload.hpp"

namespace {

struct WalletPin {
  std::uint64_t events = 0;
  std::uint64_t step_log_fnv = 0;
  /// requested, broadcast, committed, failed_submission, sequence
  /// mismatches, no-confirmation errors, RPC-unavailable errors.
  std::array<std::uint64_t, 7> counters{};
  std::string root_a;
  std::string root_b;
  bool operator==(const WalletPin&) const = default;
};

std::uint64_t fnv1a(const relayer::StepLog& log) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const relayer::StepRecord& r : log.records()) {
    mix(static_cast<std::uint64_t>(r.time));
    mix(static_cast<std::uint64_t>(r.step));
    mix(r.sequence);
    mix(r.hop);
  }
  return h;
}

/// Boots `cfg`, opens the channel, starts `relayers` relayer instances on
/// machine 0 (instance 0 logs steps), submits `wl` with the step log and
/// runs a fixed `run_for` of virtual time.
WalletPin run_wallet_pin(xcc::TestbedConfig cfg, xcc::WorkloadConfig wl,
                         int relayers, sim::Duration run_for) {
  xcc::Testbed tb(cfg);
  tb.start_chains();
  EXPECT_TRUE(tb.run_until_height(2, sim::seconds(120)));
  xcc::HandshakeDriver driver(tb);
  const xcc::ChannelSetupResult channel =
      driver.establish_channel_blocking(tb.scheduler().now() +
                                        sim::seconds(600));
  EXPECT_TRUE(channel.ok) << channel.error;
  relayer::StepLog steps;
  std::vector<std::unique_ptr<relayer::Relayer>> fleet;
  for (int k = 0; k < relayers; ++k) {
    relayer::ChainHandle ha{tb.chain_a().servers[0].get(), tb.chain_a().id,
                            {tb.relayer_account_a(k)}};
    relayer::ChainHandle hb{tb.chain_b().servers[0].get(), tb.chain_b().id,
                            {tb.relayer_account_b(k)}};
    fleet.push_back(std::make_unique<relayer::Relayer>(
        tb.scheduler(), ha, hb, channel.path(), relayer::RelayerConfig{},
        k == 0 ? &steps : nullptr));
    fleet.back()->start();
  }
  xcc::TransferWorkload workload(tb, channel, wl, &steps);
  workload.start();
  tb.run_until(tb.scheduler().now() + run_for);

  WalletPin got;
  got.events = tb.scheduler().executed_events();
  got.step_log_fnv = fnv1a(steps);
  const xcc::TransferWorkload::Stats& s = workload.stats();
  got.counters = {s.requested,
                  s.broadcast,
                  s.committed,
                  s.failed_submission,
                  workload.sequence_mismatch_errors(),
                  workload.no_confirmation_errors(),
                  workload.rpc_unavailable_errors()};
  got.root_a = crypto::digest_hex(tb.chain_a().app->store().root());
  got.root_b = crypto::digest_hex(tb.chain_b().app->store().root());
  for (auto& r : fleet) r->stop();
  return got;
}

void expect_pinned(const WalletPin& got, const WalletPin& want) {
  EXPECT_EQ(got, want);
  if (got == want) return;
  // The actual outcome as a constant, for re-pinning a deliberate change.
  std::cout << "actual: {" << got.events << "ULL, " << got.step_log_fnv
            << "ULL, {";
  for (std::size_t i = 0; i < got.counters.size(); ++i) {
    std::cout << (i ? ", " : "") << got.counters[i];
  }
  std::cout << "}, \"" << got.root_a << "\", \"" << got.root_b << "\"}\n";
}

TEST(WalletPinned, OverloadedInclusion) {
  // Table I's 11,000 RPS row: 550 wait-for-commit accounts overload the
  // source chain's RPC node, whose request queue is cut to 256 so that the
  // run stays short. Broadcasts find the queue full and retry,
  // confirmations time out, and an account whose lost tx commits late
  // answers its next broadcast with a sequence mismatch.
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 560;
  cfg.rpc_cost.request_queue_capacity = 256;
  xcc::WorkloadConfig wl;
  wl.requests_per_second = 11'000;
  wl.duration_blocks = 3;
  expect_pinned(
      run_wallet_pin(cfg, wl, 0, sim::seconds(400)),
      {705140ULL, 6734893120071068290ULL,
       {165000, 83300, 30300, 134700, 476, 530, 2743},
       "f5dd9b06c9c1ca5af32a8aa0aee979d7f1dc6d8253c36b06993a90b8f90abe24",
       "ecedee95f94a5c2c9b95b5c25fb5f610be8604c8e99f5b444d8f3156cfdae494"});
}

TEST(WalletPinned, SpreadBurstStepLog) {
  // 1,000 transfers spread over 4 blocks from one account per wallet: each
  // block's batch reaches an account while its previous tx is still
  // unconfirmed, so the submission queues behind it, and every committed tx
  // is read back for the step log before the queued one is broadcast.
  xcc::WorkloadConfig wl;
  wl.total_transfers = 1'000;
  wl.spread_blocks = 4;
  expect_pinned(
      run_wallet_pin({}, wl, 1, sim::seconds(240)),
      {16395ULL, 7604263793665004986ULL, {1000, 1000, 1000, 0, 0, 0, 0},
       "780b75048de91360a3bf493b0bcda39fd2ddef49da14129d7967681043ff0d86",
       "79048e045ec496a1f0f1ce24b3a4f839fa6a5aedb81c92124e8616b03d694cf9"});
}

}  // namespace
