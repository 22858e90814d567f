// Wallet edge cases: broadcast retry when the RPC queue rejects, and
// dynamic ServiceQueue behaviour backing it.

#include <gtest/gtest.h>

#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "relayer/wallet.hpp"
#include "sim/service_queue.hpp"

namespace {

TEST(ServiceQueueDynamics, RaisingServersDrainsBacklogFaster) {
  sim::Scheduler sched;
  sim::ServiceQueue q(sched);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    q.enqueue(sim::seconds(1), [&] { ++done; });
  }
  sched.run_until(sim::seconds(2));
  EXPECT_EQ(done, 2);  // serialized: 1 per second
  q.set_servers(4);    // the parallel-RPC ablation switch, mid-flight
  sched.run_until(sim::seconds(4));
  EXPECT_EQ(done, 8);  // remaining 6 drained in ~2 rounds of 4
}

struct OverloadFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched, net::NetworkConfig{}};
  cosmos::CosmosApp app{"ov-chain"};
  chain::Ledger ledger{"ov-chain"};
  chain::Mempool mempool{app, 10'000};
  std::unique_ptr<rpc::Server> server;

  struct Noop : cosmos::MsgHandler {
    util::Status handle(const chain::Msg&, cosmos::MsgContext& ctx) override {
      ctx.gas_used += 1'000;
      return util::Status::ok();
    }
  } noop;

  void SetUp() override {
    app.register_handler("/noop", &noop);
    app.add_genesis_account("acct", 10'000'000'000ULL);
    rpc::CostModel cost;
    cost.request_queue_capacity = 1;   // overloads trivially
    cost.lookup_service = sim::seconds(2);  // status requests hog the server
    cost.service_jitter = 0.0;
    server = std::make_unique<rpc::Server>(sched, network, 0, ledger, mempool,
                                           app, cost);
  }
};

TEST_F(OverloadFixture, BroadcastRetriesAfterQueueRejection) {
  // Entrench two slow status requests (one serving until t=2 s, one
  // pending until t=4 s) before the wallet acts: its broadcast is rejected
  // deterministically, then the retry loop succeeds once the queue drains.
  const auto ignore = [](const util::Result<rpc::Server::StatusInfo>&) {};
  sim::spawn(server->status(0), ignore);
  sim::spawn(server->status(0), ignore);
  sched.run_until(sim::millis(10));  // both are now occupying the server

  relayer::WalletConfig wc;
  wc.accounts = {"acct"};
  wc.optimistic_sequencing = true;
  wc.confirm_timeout = sim::seconds(12);  // no blocks here: it will time out
  wc.max_broadcast_retries = 20;  // keep retrying until the queue drains
  relayer::Wallet wallet(sched, *server, 0, wc);

  bool resolved = false;
  sim::spawn(wallet.submit({chain::Msg{"/noop", {}}}, 200'000, [&] {}),
             [&](const relayer::Wallet::SubmitOutcome&) { resolved = true; });
  sched.run_until(sim::seconds(60));
  // The first attempt was rejected; a retry got the tx into the mempool.
  EXPECT_GE(wallet.rpc_unavailable_errors(), 1u);
  EXPECT_EQ(mempool.size(), 1u);
  EXPECT_TRUE(resolved);  // resolved as no-confirmation after the timeout
  EXPECT_EQ(wallet.no_confirmation_errors(), 1u);
}

TEST_F(OverloadFixture, ExhaustedRetriesSurfaceUnavailable) {
  // One status serves until t=2 s; a dense refill keeps the pending slot
  // occupied throughout, so every broadcast attempt within the first two
  // seconds is rejected and the wallet gives up.
  const auto ignore = [](const util::Result<rpc::Server::StatusInfo>&) {};
  sim::spawn(server->status(0), ignore);
  sim::TimePoint stop_flood = sim::seconds(1'500) / 1'000;  // 1.5 s
  std::function<void()> refill = [&] {
    if (sched.now() > stop_flood) return;
    sim::spawn(server->status(0), ignore);
    sched.schedule_after(sim::micros(200), refill);
  };
  refill();
  sched.run_until(sim::millis(10));

  relayer::WalletConfig wc;
  wc.accounts = {"acct"};
  wc.max_broadcast_retries = 2;
  wc.broadcast_retry_backoff = sim::millis(300);
  relayer::Wallet wallet(sched, *server, 0, wc);

  util::Status status;
  bool resolved = false;
  sim::spawn(wallet.submit({chain::Msg{"/noop", {}}}, 200'000),
             [&](const relayer::Wallet::SubmitOutcome& o) {
               status = o.status;
               resolved = true;
             });
  sched.run_until(sim::seconds(10));
  ASSERT_TRUE(resolved);
  EXPECT_EQ(status.code(), util::ErrorCode::kUnavailable);
  EXPECT_GE(wallet.rpc_unavailable_errors(), 3u);  // initial + 2 retries
  EXPECT_EQ(mempool.size(), 0u);
}

}  // namespace
