// Scale-layer tests: bulk genesis byte-identity, the Zipf account sampler,
// and an end-to-end open-loop workload smoke run (the bench_scale_transfers
// harness in miniature).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cosmos/app.hpp"
#include "util/rng.hpp"
#include "xcc/experiment.hpp"
#include "xcc/workload.hpp"

namespace {

// add_genesis_accounts must produce the same state — and therefore the same
// app hash — as the per-account loop it replaces, including when some
// accounts were already funded (the supply delta is a read-modify-write),
// when the bulk list names an account twice, and when the amount is 0 (the
// balance write erases).
TEST(BulkGenesisTest, MatchesPerAccountFunding) {
  std::vector<chain::Address> addrs;
  for (int i = 0; i < 500; ++i) addrs.push_back("user-" + std::to_string(i));
  addrs.push_back("user-7");   // duplicates, one of them pre-funded
  addrs.push_back("user-3");
  addrs.push_back("user-499");

  for (const std::uint64_t amount : {std::uint64_t{1'000}, std::uint64_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "amount " << amount);
    cosmos::CosmosApp bulk("chain-bulk");
    bulk.add_genesis_account("user-3", 77);  // pre-existing balance
    bulk.add_genesis_accounts(addrs, amount);

    cosmos::CosmosApp loop("chain-bulk");
    loop.add_genesis_account("user-3", 77);
    for (const chain::Address& a : addrs) loop.add_genesis_account(a, amount);

    EXPECT_EQ(bulk.store().root(), loop.store().root());
    EXPECT_EQ(bulk.store().size(), loop.store().size());
    EXPECT_EQ(bulk.bank().supply(cosmos::kNativeDenom),
              loop.bank().supply(cosmos::kNativeDenom));
    EXPECT_EQ(bulk.bank().balance("user-3", cosmos::kNativeDenom), amount);
    EXPECT_EQ(bulk.bank().supply(cosmos::kNativeDenom), 500 * amount);
    EXPECT_TRUE(bulk.auth().account_exists("user-499"));
    EXPECT_EQ(bulk.auth().sequence("user-7"), 0u);
  }
}

TEST(ZipfSamplerTest, DeterministicAndInRange) {
  xcc::ZipfSampler zipf(1'000, 1.0);
  util::Rng a(42), b(42);
  for (int i = 0; i < 2'000; ++i) {
    const std::size_t x = zipf.sample(a);
    EXPECT_EQ(x, zipf.sample(b));
    EXPECT_LT(x, zipf.size());
  }
}

TEST(ZipfSamplerTest, SkewConcentratesOnLowRanks) {
  xcc::ZipfSampler zipf(10'000, 1.0);
  util::Rng rng(7);
  std::map<std::size_t, int> counts;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  // Zipf(1.0) over 10^4 ranks: rank 0 carries ~1/H(10^4) ~ 10% of the mass.
  EXPECT_GT(counts[0], n / 20);
  int top10 = 0;
  for (std::size_t r = 0; r < 10; ++r) top10 += counts[r];
  EXPECT_GT(top10, n / 5);  // top-10 ranks ~ 29% expected
}

TEST(ZipfSamplerTest, ZeroExponentIsUniform) {
  xcc::ZipfSampler uniform(100, 0.0);
  util::Rng rng(11);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50'000; ++i) ++counts[uniform.sample(rng)];
  for (const auto& [rank, count] : counts) {
    EXPECT_LT(rank, 100u);
    EXPECT_GT(count, 250);  // expectation 500; uniform has no heavy head
    EXPECT_LT(count, 1'000);
  }
}

// End-to-end smoke: a small open-loop run through run_experiment commits
// every submitted transfer and reports consistent open-loop stats.
TEST(OpenLoopWorkloadTest, SmokeRunCommitsAllTransfers) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = 0;
  cfg.collect_steps = false;
  cfg.measure_blocks = 5;
  cfg.wait_for_workload = true;
  cfg.testbed.seed = 0xD5A7000ULL;
  cfg.workload.open_loop = true;
  cfg.workload.total_transfers = 2'000;
  cfg.workload.msgs_per_tx = 100;
  cfg.workload.open_loop_accounts = 500;
  cfg.workload.zipf_exponent = 1.0;
  cfg.workload.open_loop_tx_rate = 10.0;
  cfg.max_sim_time = sim::seconds(600);

  const xcc::ExperimentResult res = xcc::run_experiment(cfg);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.workload.requested, 2'000u);
  EXPECT_EQ(res.workload.broadcast, 2'000u);
  EXPECT_EQ(res.workload.committed, 2'000u);
  EXPECT_EQ(res.workload.failed_submission, 0u);
  EXPECT_GT(res.sim_seconds, 0.0);

  // Same seed, same virtual outcome: the open-loop path obeys the
  // simulator-wide determinism contract.
  const xcc::ExperimentResult rerun = xcc::run_experiment(cfg);
  ASSERT_TRUE(rerun.ok);
  EXPECT_EQ(rerun.workload.committed, res.workload.committed);
  EXPECT_DOUBLE_EQ(rerun.sim_seconds, res.sim_seconds);
  EXPECT_EQ(rerun.events_executed, res.events_executed);
}

}  // namespace
