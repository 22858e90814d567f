// Consensus engine tests: block production cadence, tx inclusion, proposer
// failure handling, execution-time coupling (the Fig. 7 mechanism).

#include <gtest/gtest.h>

#include "consensus/engine.hpp"
#include "cosmos/app.hpp"

namespace {

struct Harness {
  sim::Scheduler sched;
  net::Network network{sched, net::NetworkConfig{}};
  cosmos::CosmosApp app{"test-chain"};
  chain::Ledger ledger{"test-chain"};
  chain::Mempool mempool{app, 10'000};
  std::unique_ptr<consensus::Engine> engine;

  explicit Harness(consensus::EngineConfig cfg = {}) {
    engine = std::make_unique<consensus::Engine>(
        sched, network, chain::ValidatorSet::make("t", 5, 5), app, mempool,
        ledger, cfg);
  }
  ~Harness() { engine->stop(); }
};

TEST(ConsensusTest, ProducesBlocksAtMinInterval) {
  Harness h;
  h.engine->start();
  h.sched.run_until(sim::seconds(26));
  // First block ~5s, then every ~5s: expect 5 blocks by t=26 (empty blocks
  // commit fast).
  EXPECT_EQ(h.ledger.height(), 5);
  const auto intervals = h.ledger.block_intervals_seconds();
  for (double iv : intervals) {
    EXPECT_GE(iv, 4.9);
    EXPECT_LT(iv, 6.5);
  }
}

TEST(ConsensusTest, BlockTimestampsIncrease) {
  Harness h;
  h.engine->start();
  h.sched.run_until(sim::seconds(30));
  for (chain::Height i = 2; i <= h.ledger.height(); ++i) {
    EXPECT_GT(h.ledger.block_at(i)->header.time,
              h.ledger.block_at(i - 1)->header.time);
  }
}

TEST(ConsensusTest, IncludesMempoolTransactions) {
  Harness h;
  h.app.add_genesis_account("alice", 1'000'000);
  h.engine->start();

  chain::Tx tx;
  tx.sender = "alice";
  tx.sequence = 0;
  tx.gas_limit = 70'000;
  tx.fee = 700;
  tx.msgs.push_back(chain::Msg{"/nope", {}});
  const chain::TxPtr sealed = chain::seal(std::move(tx));
  ASSERT_TRUE(h.mempool.add(sealed).is_ok());

  h.sched.run_until(sim::seconds(12));
  ASSERT_GE(h.ledger.height(), 1);
  EXPECT_NE(h.ledger.find_tx(sealed->hash()), nullptr);
  EXPECT_EQ(h.mempool.size(), 0u);  // removed after commit
}

TEST(ConsensusTest, HeaderChainsAndCommitsAreWellFormed) {
  Harness h;
  h.engine->start();
  h.sched.run_until(sim::seconds(30));
  ASSERT_GE(h.ledger.height(), 3);
  for (chain::Height i = 2; i <= h.ledger.height(); ++i) {
    const chain::Block* cur = h.ledger.block_at(i);
    const chain::Block* prev = h.ledger.block_at(i - 1);
    EXPECT_EQ(cur->header.last_block_id.hash, prev->header.hash());
    // LastCommit refers to the previous block with quorum power.
    EXPECT_EQ(cur->last_commit.height, i - 1);
    EXPECT_EQ(cur->last_commit.block_id.hash, prev->header.hash());
    EXPECT_GE(cur->last_commit.committed_power(h.engine->validators()),
              h.engine->validators().quorum_power());
    // The stored seen-commit verifies against the block id.
    const chain::Commit* seen = h.ledger.seen_commit(i);
    ASSERT_NE(seen, nullptr);
    EXPECT_EQ(seen->block_id.hash, cur->header.hash());
    const util::Bytes sign_bytes = chain::vote_sign_bytes(
        cur->header.chain_id, i, seen->round, seen->block_id);
    for (const chain::CommitSig& sig : seen->signatures) {
      if (sig.flag != chain::BlockIdFlag::kCommit) continue;
      EXPECT_TRUE(crypto::verify(sig.validator, sign_bytes, sig.signature));
    }
  }
}

TEST(ConsensusTest, SubscribersSeeEveryBlockInOrder) {
  Harness h;
  std::vector<chain::Height> seen;
  h.engine->subscribe_block(
      [&](const chain::Block& b, const std::vector<chain::DeliverTxResult>&) {
        seen.push_back(b.header.height);
      });
  h.engine->start();
  h.sched.run_until(sim::seconds(30));
  ASSERT_GE(seen.size(), 3u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<chain::Height>(i + 1));
  }
}

TEST(ConsensusTest, DownProposerTriggersRoundAdvance) {
  consensus::EngineConfig cfg;
  cfg.round_timeout = sim::seconds(2);
  Harness h(cfg);
  // Validator for height 1 round 0 is index 1; take it down.
  h.engine->set_validator_live(1, false);
  h.engine->start();
  h.sched.run_until(sim::seconds(40));
  EXPECT_GE(h.ledger.height(), 3);
  EXPECT_GE(h.engine->failed_rounds(), 1u);
  // Heights where validator 1 would propose take one extra round timeout.
  const auto intervals = h.ledger.block_intervals_seconds();
  bool saw_slow = false;
  for (double iv : intervals) {
    if (iv > 6.5) saw_slow = true;
  }
  EXPECT_TRUE(saw_slow);
}

TEST(ConsensusTest, ChainHaltsWithoutQuorum) {
  consensus::EngineConfig cfg;
  cfg.round_timeout = sim::seconds(2);
  Harness h(cfg);
  // 2 of 5 validators down -> only 3 < quorum(4) can vote.
  h.engine->set_validator_live(0, false);
  h.engine->set_validator_live(1, false);
  h.engine->start();
  h.sched.run_until(sim::seconds(60));
  EXPECT_EQ(h.ledger.height(), 0);
  EXPECT_GT(h.engine->failed_rounds(), 3u);
}

TEST(ConsensusTest, RecoversWhenValidatorComesBack) {
  consensus::EngineConfig cfg;
  cfg.round_timeout = sim::seconds(2);
  Harness h(cfg);
  h.engine->set_validator_live(0, false);
  h.engine->set_validator_live(1, false);
  h.engine->start();
  h.sched.run_until(sim::seconds(30));
  EXPECT_EQ(h.ledger.height(), 0);
  h.engine->set_validator_live(0, true);
  h.sched.run_until(sim::seconds(60));
  EXPECT_GE(h.ledger.height(), 2);
}

TEST(ConsensusTest, ExecutionTimeStretchesBlockInterval) {
  // Load enough gas-heavy transactions that execution exceeds the 5 s
  // pacing: the interval after the heavy block must stretch (Fig. 7).
  consensus::EngineConfig cfg;
  cfg.max_block_gas = 10'000'000'000'000ULL;  // all heavy txs in one block
  Harness h(cfg);
  cosmos::AppConfig acfg;
  EXPECT_GT(h.app.config().exec_nanos_per_gas, 0.0);
  h.engine->start();
  h.sched.run_until(sim::seconds(7));  // block 1 committed

  for (int u = 0; u < 40; ++u) {
    const std::string user = "heavy-" + std::to_string(u);
    h.app.add_genesis_account(user, 1'000'000'000'000ULL);
    chain::Tx tx;
    tx.sender = user;
    tx.sequence = 0;
    tx.gas_limit = 300'000'000;  // very heavy
    tx.fee = 3'000'000;
    tx.msgs.push_back(chain::Msg{"/nope", {}});
    ASSERT_TRUE(h.mempool.add(chain::seal(std::move(tx))).is_ok());
  }
  h.sched.run_until(sim::seconds(80));
  const auto intervals = h.ledger.block_intervals_seconds();
  double max_interval = 0;
  for (double iv : intervals) max_interval = std::max(max_interval, iv);
  // 40 txs x 300M gas x 2.5 ns/gas = 30 s execution -> a >> 5 s interval.
  EXPECT_GT(max_interval, 10.0);
}

TEST(ConsensusTest, EmptyBlockCounter) {
  Harness h;
  h.engine->start();
  h.sched.run_until(sim::seconds(30));
  // Every committed block was empty; at most one extra in-flight proposal
  // may have been counted but not yet committed.
  EXPECT_GE(h.engine->empty_blocks(),
            static_cast<std::uint64_t>(h.ledger.height()));
  EXPECT_LE(h.engine->empty_blocks(),
            static_cast<std::uint64_t>(h.ledger.height()) + 1);
}

TEST(ConsensusTest, StopHaltsProduction) {
  Harness h;
  h.engine->start();
  h.sched.run_until(sim::seconds(12));
  const chain::Height at_stop = h.ledger.height();
  EXPECT_GE(at_stop, 1);
  h.engine->stop();
  h.sched.run_until(sim::seconds(60));
  EXPECT_LE(h.ledger.height(), at_stop + 1);  // at most the in-flight height
}

}  // namespace
