// Wallet tests: optimistic vs wait-for-commit sequencing, confirmation
// polling, sequence-mismatch recovery, "failed tx: no confirmation".

#include <gtest/gtest.h>

#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "relayer/wallet.hpp"

namespace {

// A live single-chain stack: app + consensus + rpc, so wallet confirmation
// paths run against real block production.
struct WalletFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched, net::NetworkConfig{}};
  cosmos::CosmosApp app{"w-chain"};
  chain::Ledger ledger{"w-chain"};
  chain::Mempool mempool{app, 10'000};
  std::unique_ptr<consensus::Engine> engine;
  std::unique_ptr<rpc::Server> server;

  // No-op message handler so txs succeed.
  struct Noop : cosmos::MsgHandler {
    util::Status handle(const chain::Msg&, cosmos::MsgContext& ctx) override {
      ctx.gas_used += 1'000;
      return util::Status::ok();
    }
  } noop;

  void SetUp() override {
    app.register_handler("/noop", &noop);
    app.add_genesis_account("wallet-acct", 10'000'000'000ULL);
    app.add_genesis_account("wallet-acct-2", 10'000'000'000ULL);
    engine = std::make_unique<consensus::Engine>(
        sched, network, chain::ValidatorSet::make("w", 5, 5), app, mempool,
        ledger, consensus::EngineConfig{});
    server = std::make_unique<rpc::Server>(sched, network, 0, ledger, mempool,
                                           app, rpc::CostModel{});
    engine->subscribe_block([this](const chain::Block& b,
                                   const std::vector<chain::DeliverTxResult>&) {
      server->on_block_committed(b);
    });
    engine->start();
  }
  void TearDown() override { engine->stop(); }

  relayer::WalletConfig config(bool optimistic) {
    relayer::WalletConfig wc;
    wc.accounts = {"wallet-acct"};
    wc.optimistic_sequencing = optimistic;
    return wc;
  }

  std::vector<chain::Msg> msgs(int n = 1) {
    return std::vector<chain::Msg>(n, chain::Msg{"/noop", {}});
  }
};

TEST_F(WalletFixture, SubmitsAndConfirms) {
  relayer::Wallet wallet(sched, *server, 0, config(false));
  relayer::Wallet::SubmitOutcome outcome;
  bool done = false;
  sim::spawn(wallet.submit(msgs(), 200'000),
             [&](const relayer::Wallet::SubmitOutcome& o) {
               outcome = o;
               done = true;
             });
  sched.run_until(sim::seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
  EXPECT_TRUE(outcome.committed);
  EXPECT_GE(outcome.height, 1);
  EXPECT_EQ(wallet.txs_committed(), 1u);
}

TEST_F(WalletFixture, WaitForCommitAllowsOneTxPerBlock) {
  // Two submissions on one wait-for-commit account land in different blocks
  // (the paper's §III-D account-sequence limitation).
  relayer::Wallet wallet(sched, *server, 0, config(false));
  std::vector<chain::Height> heights;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(wallet.submit(msgs(), 200'000),
               [&](const relayer::Wallet::SubmitOutcome& o) {
                 ASSERT_TRUE(o.status.is_ok());
                 heights.push_back(o.height);
               });
  }
  sched.run_until(sim::seconds(40));
  ASSERT_EQ(heights.size(), 2u);
  EXPECT_GT(heights[1], heights[0]);
}

TEST_F(WalletFixture, OptimisticSequencingFitsManyTxsInOneBlock) {
  relayer::Wallet wallet(sched, *server, 0, config(true));
  std::vector<chain::Height> heights;
  for (int i = 0; i < 4; ++i) {
    sim::spawn(wallet.submit(msgs(), 200'000),
               [&](const relayer::Wallet::SubmitOutcome& o) {
                 ASSERT_TRUE(o.status.is_ok()) << o.status.to_string();
                 heights.push_back(o.height);
               });
  }
  sched.run_until(sim::seconds(40));
  ASSERT_EQ(heights.size(), 4u);
  EXPECT_EQ(heights[0], heights[3]);  // all in the same block
}

TEST_F(WalletFixture, MultipleAccountsSubmitInParallel) {
  relayer::WalletConfig wc;
  wc.accounts = {"wallet-acct", "wallet-acct-2"};
  wc.optimistic_sequencing = false;
  relayer::Wallet wallet(sched, *server, 0, wc);
  std::vector<chain::Height> heights;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(wallet.submit(msgs(), 200'000),
               [&](const relayer::Wallet::SubmitOutcome& o) {
                 ASSERT_TRUE(o.status.is_ok());
                 heights.push_back(o.height);
               });
  }
  sched.run_until(sim::seconds(30));
  ASSERT_EQ(heights.size(), 2u);
  EXPECT_EQ(heights[0], heights[1]);  // distinct accounts share a block
}

TEST_F(WalletFixture, RecoversFromExternalSequenceBump) {
  // Another client uses the same account behind the wallet's back; the
  // wallet must hit "account sequence mismatch", refresh and retry.
  relayer::Wallet wallet(sched, *server, 0, config(true));

  // First tx through the wallet: sequence 0.
  bool first_done = false;
  sim::spawn(wallet.submit(msgs(), 200'000),
             [&](const relayer::Wallet::SubmitOutcome& o) {
               ASSERT_TRUE(o.status.is_ok());
               first_done = true;
             });
  sched.run_until(sim::seconds(30));
  ASSERT_TRUE(first_done);

  // External tx with sequence 1 (direct mempool injection).
  chain::Tx external;
  external.sender = "wallet-acct";
  external.sequence = 1;
  external.gas_limit = 200'000;
  external.fee = 2'000;
  external.msgs = msgs();
  ASSERT_TRUE(mempool.add(chain::seal(std::move(external))).is_ok());
  sched.run_until(sched.now() + sim::seconds(10));

  // Wallet still believes the next sequence is 1 -> mismatch -> retry.
  bool second_done = false;
  sim::spawn(wallet.submit(msgs(), 200'000),
             [&](const relayer::Wallet::SubmitOutcome& o) {
               EXPECT_TRUE(o.status.is_ok()) << o.status.to_string();
               second_done = true;
             });
  sched.run_until(sched.now() + sim::seconds(30));
  EXPECT_TRUE(second_done);
  EXPECT_GE(wallet.sequence_mismatch_errors(), 1u);
}

TEST_F(WalletFixture, NoConfirmationTimeout) {
  // Stop the chain so nothing ever commits: the wallet must give up with
  // the paper's "failed tx: no confirmation".
  engine->stop();
  sched.run_until(sim::seconds(20));  // let the in-flight height finish

  relayer::WalletConfig wc = config(true);
  wc.confirm_timeout = sim::seconds(10);
  relayer::Wallet wallet(sched, *server, 0, wc);
  util::Status status;
  bool done = false;
  sim::spawn(wallet.submit(msgs(), 200'000),
             [&](const relayer::Wallet::SubmitOutcome& o) {
               status = o.status;
               done = true;
             });
  sched.run_until(sched.now() + sim::seconds(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(wallet.no_confirmation_errors(), 1u);
}

TEST_F(WalletFixture, ReportsDeliverTxFailure) {
  // A message with no handler commits but fails in DeliverTx; the wallet
  // must surface that failure.
  relayer::Wallet wallet(sched, *server, 0, config(false));
  util::Status status;
  bool done = false;
  sim::spawn(wallet.submit({chain::Msg{"/unknown.Msg", {}}}, 200'000),
             [&](const relayer::Wallet::SubmitOutcome& o) {
               status = o.status;
               done = o.committed;
             });
  sched.run_until(sim::seconds(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST_F(WalletFixture, BroadcastCallbackFiresBeforeCommit) {
  relayer::Wallet wallet(sched, *server, 0, config(false));
  sim::TimePoint broadcast_at = 0, commit_at = 0;
  sim::spawn(
      wallet.submit(msgs(), 200'000, [&] { broadcast_at = sched.now(); }),
      [&](const relayer::Wallet::SubmitOutcome&) { commit_at = sched.now(); });
  sched.run_until(sim::seconds(30));
  EXPECT_GT(broadcast_at, 0);
  EXPECT_GT(commit_at, broadcast_at + sim::seconds(1));
}

TEST_F(WalletFixture, QueuesBeyondAccountCapacity) {
  relayer::Wallet wallet(sched, *server, 0, config(false));
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(wallet.submit(msgs(), 200'000),
               [&](const relayer::Wallet::SubmitOutcome& o) {
                 EXPECT_TRUE(o.status.is_ok());
                 ++completed;
               });
  }
  EXPECT_GE(wallet.queued(), 1u);
  sched.run_until(sim::seconds(60));
  EXPECT_EQ(completed, 3);
}

}  // namespace
