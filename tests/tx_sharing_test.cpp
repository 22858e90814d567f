// Sealed-tx sharing: the one immutable tx a wallet seals is the object the
// mempool, the proposal, the ledger and every query response hold, and
// responses and WebSocket frames point into the ledger's per-block results
// instead of copying them.

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "ibc/packet.hpp"
#include "relayer/wallet.hpp"

namespace {

struct TxSharing : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched, net::NetworkConfig{}};
  cosmos::CosmosApp app{"s-chain"};
  chain::Ledger ledger{"s-chain"};
  chain::Mempool mempool{app, 10'000};
  std::unique_ptr<consensus::Engine> engine;
  std::unique_ptr<rpc::Server> server;
  std::vector<rpc::NewBlockFrame> frames;

  // Each "/ack" message emits a write_acknowledgement event for the next
  // packet sequence (1, 2, ...).
  struct AckEmitter : cosmos::MsgHandler {
    std::uint64_t next_seq = 1;
    util::Status handle(const chain::Msg&, cosmos::MsgContext& ctx) override {
      ibc::Packet p;
      p.sequence = next_seq++;
      p.source_port = p.destination_port = ibc::kTransferPort;
      p.source_channel = p.destination_channel = "channel-0";
      p.data = util::to_bytes(std::string(64, 'd'));
      p.timeout_height = 1'000;
      ctx.events->push_back(ibc::make_packet_event(
          ibc::PacketEventKind::kWriteAck, std::move(p),
          ibc::Acknowledgement{}.encode()));
      ctx.gas_used += 1'000;
      return util::Status::ok();
    }
  } emitter;

  void SetUp() override {
    app.register_handler("/ack", &emitter);
    app.add_genesis_account("acct", 10'000'000'000ULL);
    engine = std::make_unique<consensus::Engine>(
        sched, network, chain::ValidatorSet::make("s", 4, 5), app, mempool,
        ledger, consensus::EngineConfig{});
    server = std::make_unique<rpc::Server>(sched, network, 0, ledger, mempool,
                                           app, rpc::CostModel{});
    engine->subscribe_block(
        [this](const chain::Block& b,
               const std::vector<chain::DeliverTxResult>&) {
          server->on_block_committed(b);
        });
    server->subscribe_new_block(
        0, [this](const rpc::NewBlockFrame& f) { frames.push_back(f); });
    engine->start();
  }
  void TearDown() override { engine->stop(); }

  relayer::WalletConfig config() {
    relayer::WalletConfig wc;
    wc.accounts = {"acct"};
    return wc;
  }

  /// Runs the scheduler until `done` holds.
  template <typename Done>
  void run_until(Done&& done) {
    while (!done()) ASSERT_TRUE(sched.step());
  }
};

TEST_F(TxSharing, WalletSealedTxIsTheOneEveryLayerHolds) {
  // The censor hook sees each tx the mempool is asked to admit, as the
  // object the RPC server handed it: the wallet's sealed tx.
  const chain::Tx* broadcast = nullptr;
  mempool.set_censor([&](const chain::Tx& tx) {
    broadcast = &tx;
    return false;
  });
  relayer::Wallet wallet(sched, *server, 0, config());
  std::optional<relayer::Wallet::SubmitOutcome> outcome;
  sim::spawn(
      wallet.submit(std::vector<chain::Msg>(3, chain::Msg{"/ack", {}}),
                    200'000),
      [&](const relayer::Wallet::SubmitOutcome& o) { outcome = o; });

  // Admitted: the pool holds it, and reap() (what fills a proposal's
  // Block::txs) hands out the same pointer.
  run_until([&] { return mempool.size() == 1; });
  ASSERT_NE(broadcast, nullptr);
  const std::vector<chain::TxPtr> proposal =
      mempool.reap(std::numeric_limits<std::uint64_t>::max(),
                   std::numeric_limits<std::size_t>::max());
  ASSERT_EQ(proposal.size(), 1u);
  EXPECT_EQ(proposal[0].get(), broadcast);
  const chain::TxHash hash = proposal[0]->hash();

  // Committed: the ledger's block holds it.
  run_until([&] { return outcome.has_value(); });
  ASSERT_TRUE(outcome->status.is_ok()) << outcome->status.to_string();
  const chain::TxLocation* loc = ledger.find_tx(hash);
  ASSERT_NE(loc, nullptr);
  const chain::Block* block = ledger.block_at(loc->height);
  EXPECT_EQ(block->txs[loc->index].get(), broadcast);
  const chain::DeliverTxResult* stored =
      &(*ledger.results_at(loc->height))[loc->index];
  EXPECT_EQ(stored->events.size(), 3u);

  // query_tx and a tx_search page: the ledger's tx and a pointer into the
  // ledger's results for that height.
  std::optional<util::Result<rpc::TxResponse>> by_hash;
  sim::spawn(server->query_tx(0, hash),
             [&](util::Result<rpc::TxResponse> r) { by_hash = std::move(r); });
  std::optional<util::Result<rpc::TxSearchPage>> page;
  sim::spawn(server->tx_search_height(0, loc->height, 1, 100),
             [&](util::Result<rpc::TxSearchPage> r) {
               page = std::move(r);
             });
  run_until([&] { return by_hash.has_value() && page.has_value(); });
  ASSERT_TRUE(by_hash->is_ok());
  EXPECT_EQ(by_hash->value().tx.get(), broadcast);
  EXPECT_EQ(by_hash->value().result.get(), stored);
  ASSERT_TRUE(page->is_ok());
  ASSERT_EQ(page->value().txs.size(), block->txs.size());
  const rpc::TxResponse& entry = page->value().txs[loc->index];
  EXPECT_EQ(entry.tx.get(), broadcast);
  EXPECT_EQ(entry.result.get(), stored);

  // The frame for that height carries the ledger's results allocation.
  run_until([&] { return !frames.empty() && frames.back().height >= loc->height; });
  bool framed = false;
  for (const rpc::NewBlockFrame& f : frames) {
    if (f.height != loc->height) continue;
    framed = true;
    EXPECT_TRUE(f.events_ok);
    EXPECT_EQ(f.results, ledger.shared_results_at(loc->height));
    EXPECT_EQ(f.results.get(), ledger.results_at(loc->height));
  }
  EXPECT_TRUE(framed);
}

TEST_F(TxSharing, TamperedPageChangesOnlyThatPage) {
  relayer::Wallet wallet(sched, *server, 0, config());
  std::optional<relayer::Wallet::SubmitOutcome> outcome;
  sim::spawn(
      wallet.submit(std::vector<chain::Msg>(2, chain::Msg{"/ack", {}}),
                    200'000),
      [&](const relayer::Wallet::SubmitOutcome& o) { outcome = o; });
  run_until([&] { return outcome.has_value(); });
  ASSERT_TRUE(outcome->status.is_ok());
  const chain::Height h = outcome->height;
  const chain::TxLocation* loc = ledger.find_tx(outcome->hash);
  ASSERT_NE(loc, nullptr);
  const chain::DeliverTxResult& stored = (*ledger.results_at(h))[loc->index];
  const util::Bytes good_ack = ibc::Acknowledgement{}.encode();

  // Corrupt the first page only, the way a test's tamper hook does: each
  // entry gets its own copy of the result with empty ack bytes.
  bool tampered = false;
  server->set_query_tamper([&](rpc::TxSearchPage& p) {
    if (tampered) return util::Status::ok();
    tampered = true;
    for (rpc::TxResponse& r : p.txs) {
      auto copy = std::make_shared<chain::DeliverTxResult>(*r.result);
      for (chain::Event& ev : copy->events) {
        const ibc::PacketEvent* pe = ibc::packet_event(ev);
        ev = ibc::make_packet_event(pe->kind, pe->packet, {});
      }
      r.result = std::move(copy);
    }
    return util::Status::ok();
  });
  std::vector<rpc::TxSearchPage> pages;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(
        server->query_packet_events(0, h, "write_acknowledgement", 1, 2),
        [&](util::Result<rpc::TxSearchPage> r) {
          ASSERT_TRUE(r.is_ok());
          pages.push_back(r.take());
        });
  }
  run_until([&] { return pages.size() == 2; });
  ASSERT_TRUE(tampered);

  const auto acks = [](const chain::DeliverTxResult& r) {
    std::vector<util::Bytes> out;
    for (const chain::Event& ev : r.events) {
      out.push_back(ibc::packet_event(ev)->ack);
    }
    return out;
  };
  const std::vector<util::Bytes> intact(2, good_ack);
  ASSERT_EQ(pages[0].txs.size(), 1u);
  EXPECT_NE(pages[0].txs[0].result.get(), &stored);
  EXPECT_EQ(acks(*pages[0].txs[0].result),
            std::vector<util::Bytes>(2, util::Bytes{}));
  // The ledger and the later page still hold the intact acks.
  EXPECT_EQ(acks(stored), intact);
  ASSERT_EQ(pages[1].txs.size(), 1u);
  EXPECT_EQ(pages[1].txs[0].result.get(), &stored);
  EXPECT_EQ(acks(*pages[1].txs[0].result), intact);
}

}  // namespace
