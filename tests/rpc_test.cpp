// RPC server tests: serialized request processing (the paper's core
// bottleneck), endpoint behaviour, queue overflow, and the 16 MB WebSocket
// frame limit (§V).

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <utility>

#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "ibc/packet.hpp"
#include "packet_scan_oracle.hpp"
#include "rpc/server.hpp"
#include "util/rng.hpp"

namespace {

/// (height, tx index) pairs, in page order.
using TxLocations = std::vector<std::pair<chain::Height, std::uint32_t>>;

struct RpcFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched, [] {
                         net::NetworkConfig c;
                         c.jitter_fraction = 0.0;
                         return c;
                       }()};
  cosmos::CosmosApp app{"rpc-chain"};
  chain::Ledger ledger{"rpc-chain"};
  chain::Mempool mempool{app, 10'000};
  rpc::CostModel cost;
  std::unique_ptr<rpc::Server> server;

  void SetUp() override {
    app.add_genesis_account("alice", 1'000'000'000);
    cost.service_jitter = 0.0;  // deterministic service times for assertions
    server = std::make_unique<rpc::Server>(sched, network, /*machine=*/0,
                                           ledger, mempool, app, cost);
  }

  chain::TxPtr make_tx(std::uint64_t seq, std::size_t msgs = 1) {
    chain::Tx tx;
    tx.sender = "alice";
    tx.sequence = seq;
    tx.gas_limit = 100'000;
    tx.fee = 1'000;
    for (std::size_t i = 0; i < msgs; ++i) {
      tx.msgs.push_back(chain::Msg{"/x", util::to_bytes("m")});
    }
    return chain::seal(std::move(tx));
  }

  /// A packet event of `kind` announcing sequence `seq`, built by the
  /// keeper's constructor and padded with `pad` bytes of packet data (the
  /// events that carry packet_data).
  static chain::Event packet_event(ibc::PacketEventKind kind,
                                   std::uint64_t seq, std::size_t pad) {
    ibc::Packet p;
    p.sequence = seq;
    p.source_port = p.destination_port = ibc::kTransferPort;
    p.source_channel = p.destination_channel = "channel-0";
    p.data = util::Bytes(pad, static_cast<std::uint8_t>('x'));
    p.timeout_height = 1'000;
    return ibc::make_packet_event(kind, std::move(p));
  }

  /// Commits a block with the given txs and per-tx events directly into the
  /// ledger (no consensus needed for RPC tests).
  void commit_block(std::vector<chain::TxPtr> txs,
                    std::size_t event_bytes_per_tx = 200) {
    chain::Block block;
    block.header.chain_id = "rpc-chain";
    block.header.height = ledger.height() + 1;
    block.header.time = sched.now();
    std::vector<chain::DeliverTxResult> results;
    for (std::size_t i = 0; i < txs.size(); ++i) {
      chain::DeliverTxResult r;
      r.events.push_back(packet_event(ibc::PacketEventKind::kSend, i + 1,
                                      event_bytes_per_tx));
      results.push_back(std::move(r));
    }
    block.txs = std::move(txs);
    ledger.append(std::move(block), std::move(results), app.store().root(),
                  chain::Commit{});
    server->on_block_committed(*ledger.block_at(ledger.height()));
  }

  /// Commits a block of `txs` distinct txs with a random event mix: packet
  /// events of the two queried types, a packet event type nobody queries,
  /// generic decoys of those types without a packet, several events per tx
  /// and repeated sequences within a block.
  void commit_mixed_block(util::Rng& rng, std::uint64_t txs) {
    static constexpr ibc::PacketEventKind kKinds[] = {
        ibc::PacketEventKind::kSend, ibc::PacketEventKind::kWriteAck,
        ibc::PacketEventKind::kTimeout};
    chain::Block block;
    block.header.chain_id = "rpc-chain";
    block.header.height = ledger.height() + 1;
    block.header.time = sched.now();
    std::vector<chain::DeliverTxResult> results(txs);
    for (std::uint64_t t = 0; t < txs; ++t) {
      block.txs.push_back(make_tx(next_tx_seq_++));
      const std::uint64_t events = rng.next_below(4);
      for (std::uint64_t e = 0; e < events; ++e) {
        const ibc::PacketEventKind kind = kKinds[rng.next_below(3)];
        const std::uint64_t seq = 1 + rng.next_below(12);
        const std::size_t pad = rng.next_below(3'000);
        results[t].events.push_back(
            rng.chance(0.8)
                ? packet_event(kind, seq, pad)
                : chain::Event{ibc::packet_event_type(kind),
                               {{"pad", std::string(pad, 'x')}}});
      }
    }
    ledger.append(std::move(block), std::move(results), app.store().root(),
                  chain::Commit{});
  }

  /// Replaces the server with one whose cost model prices packet-event
  /// queries off the index (`indexed`) or off the full block scan.
  void use_cost_mode(bool indexed) {
    cost.indexed_tx_search = indexed;
    server = std::make_unique<rpc::Server>(sched, network, /*machine=*/0,
                                           ledger, mempool, app, cost);
  }

  /// Sends requests, runs the scheduler until all are answered and returns
  /// the service time the server charged meanwhile.
  template <typename Send>
  sim::Duration charged_by(Send&& send) {
    const sim::Duration before = server->busy_time();
    send();
    sched.run_until(sched.now() + sim::seconds(600));
    return server->busy_time() - before;
  }

  /// Event bytes of the txs a page returns.
  std::size_t event_bytes_of(const TxLocations& locs) const {
    std::size_t bytes = 0;
    for (const auto& [h, i] : locs) {
      bytes += (*ledger.results_at(h))[i].encoded_size();
    }
    return bytes;
  }

  /// What a packet-event query over `probed` blocks holding
  /// `scanned_bytes` of events, returning `locs`, is charged.
  sim::Duration packet_query_charge(std::size_t probed,
                                    std::size_t scanned_bytes,
                                    const TxLocations& locs) const {
    const sim::Duration lookup =
        cost.indexed_tx_search ? cost.indexed_scan_cost(probed, locs.size())
                               : cost.scan_cost(scanned_bytes);
    return cost.base_service + lookup + cost.marshal_cost(event_bytes_of(locs));
  }

  std::uint64_t next_tx_seq_ = 1'000;
};

/// The txs a result page carries.
TxLocations locations_of(const rpc::TxSearchPage& page) {
  TxLocations out;
  for (const rpc::TxResponse& r : page.txs) out.emplace_back(r.height, r.index);
  return out;
}

/// The reference scan's answer for blocks [lo, hi], in (height, tx) order.
TxLocations scan_range(const chain::Ledger& ledger, chain::Height lo,
                       chain::Height hi, const std::string& type,
                       std::uint64_t seq_lo, std::uint64_t seq_hi) {
  TxLocations out;
  for (chain::Height h = lo; h <= hi; ++h) {
    for (std::uint32_t i :
         oracle::scan_packet_txs(ledger, h, type, seq_lo, seq_hi)) {
      out.emplace_back(h, i);
    }
  }
  return out;
}

TEST_F(RpcFixture, BroadcastAdmitsValidTx) {
  util::Status result = util::Status::error(util::ErrorCode::kInternal, "no cb");
  sim::spawn(server->broadcast_tx_sync(0, make_tx(0)),
             [&](util::Status s) { result = s; });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(result.is_ok());
  EXPECT_EQ(mempool.size(), 1u);
}

TEST_F(RpcFixture, BroadcastRejectsBadSequence) {
  util::Status result;
  sim::spawn(server->broadcast_tx_sync(0, make_tx(9)),
             [&](util::Status s) { result = s; });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(result.code(), util::ErrorCode::kSequenceMismatch);
}

TEST_F(RpcFixture, RequestsAreServicedSerially) {
  // Two expensive queries on a block: the second completes a full service
  // time after the first (single-threaded RPC).
  std::vector<chain::TxPtr> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(make_tx(i, 100));
  commit_block(std::move(txs), 20'000);

  std::vector<sim::TimePoint> done;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(server->tx_search_height(0, 1, 1, 30),
               [&](util::Result<rpc::TxSearchPage>) {
                 done.push_back(sched.now());
               });
  }
  sched.run_until(sim::seconds(60));
  ASSERT_EQ(done.size(), 2u);
  const sim::Duration gap = done[1] - done[0];
  // The gap must be at least the scan cost of the block (not just network).
  EXPECT_GT(gap, cost.scan_cost(ledger.block_event_bytes(1)) / 2);
}

TEST_F(RpcFixture, ParallelAblationOverlapsRequests) {
  std::vector<chain::TxPtr> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(make_tx(i, 100));
  commit_block(std::move(txs), 20'000);
  server->set_query_workers(8);

  std::vector<sim::TimePoint> done;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(server->tx_search_height(0, 1, 1, 30),
               [&](util::Result<rpc::TxSearchPage>) {
                 done.push_back(sched.now());
               });
  }
  sched.run_until(sim::seconds(60));
  ASSERT_EQ(done.size(), 2u);
  EXPECT_LT(done[1] - done[0], sim::millis(5));
}

TEST_F(RpcFixture, QueryTxFindsCommittedTx) {
  const chain::TxPtr tx = make_tx(0);
  commit_block({tx});
  bool found = false;
  sim::spawn(server->query_tx(0, tx->hash()),
             [&](util::Result<rpc::TxResponse> res) {
               ASSERT_TRUE(res.is_ok());
               EXPECT_EQ(res.value().height, 1);
               EXPECT_EQ(res.value().tx, tx);
               found = true;
             });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(found);
}

TEST_F(RpcFixture, QueryTxNotFound) {
  bool called = false;
  sim::spawn(server->query_tx(0, crypto::sha256(util::to_bytes("nope"))),
             [&](util::Result<rpc::TxResponse> res) {
               EXPECT_EQ(res.status().code(), util::ErrorCode::kNotFound);
               called = true;
             });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
}

TEST_F(RpcFixture, TxSearchPagination) {
  std::vector<chain::TxPtr> txs;
  for (int i = 0; i < 75; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs));

  std::vector<std::size_t> page_sizes;
  std::uint32_t total = 0;
  for (std::uint32_t page = 1; page <= 3; ++page) {
    sim::spawn(server->tx_search_height(0, 1, page, 30),
               [&](util::Result<rpc::TxSearchPage> res) {
                 ASSERT_TRUE(res.is_ok());
                 page_sizes.push_back(res.value().txs.size());
                 total = res.value().total_count;
               });
  }
  sched.run_until(sim::seconds(60));
  EXPECT_EQ(page_sizes, (std::vector<std::size_t>{30, 30, 15}));
  EXPECT_EQ(total, 75u);
}

TEST_F(RpcFixture, PacketEventQueryFiltersBySequenceRange) {
  std::vector<chain::TxPtr> txs;
  for (int i = 0; i < 10; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs));  // packet_sequence attributes 1..10

  std::size_t matches = 0;
  sim::spawn(server->query_packet_events(0, 1, "send_packet", 3, 7),
             [&](util::Result<rpc::TxSearchPage> res) {
               ASSERT_TRUE(res.is_ok());
               matches = res.value().txs.size();
             });
  sched.run_until(sim::seconds(30));
  EXPECT_EQ(matches, 5u);
}

TEST_F(RpcFixture, PacketEventRangeQueryScansMultipleBlocks) {
  commit_block({make_tx(0)});
  commit_block({make_tx(1)});
  commit_block({make_tx(2)});
  std::size_t matches = 0;
  sim::spawn(server->query_packet_events_range(0, 1, 3, "send_packet", 1, 100),
             [&](util::Result<rpc::TxSearchPage> res) {
               ASSERT_TRUE(res.is_ok());
               matches = res.value().txs.size();
             });
  sched.run_until(sim::seconds(60));
  EXPECT_EQ(matches, 3u);
}

TEST_F(RpcFixture, AbciQueryReturnsValueAndProof) {
  app.store().set("some/key", util::to_bytes("payload"));
  bool called = false;
  sim::spawn(server->abci_query(0, "some/key", true),
             [&](util::Result<rpc::Server::AbciQueryResult> res) {
               ASSERT_TRUE(res.is_ok());
               EXPECT_TRUE(res.value().exists);
               EXPECT_EQ(util::to_string(res.value().value), "payload");
               EXPECT_TRUE(chain::verify_store_proof(
                   res.value().proof, app.store().root()));
               called = true;
             });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
}

TEST_F(RpcFixture, AbciQueryNonExistence) {
  bool called = false;
  sim::spawn(server->abci_query(0, "missing", true),
             [&](util::Result<rpc::Server::AbciQueryResult> res) {
               ASSERT_TRUE(res.is_ok());
               EXPECT_FALSE(res.value().exists);
               EXPECT_FALSE(res.value().proof.exists);
               called = true;
             });
  sched.run_until(sim::seconds(1));
  EXPECT_TRUE(called);
}

TEST_F(RpcFixture, PrefixQueryListsKeys) {
  app.store().set("pre/a", {});
  app.store().set("pre/b", {});
  app.store().set("other", {});
  std::vector<std::string> keys;
  sim::spawn(server->abci_query_prefix(0, "pre/"),
             [&](util::Result<std::vector<std::string>> k) {
               ASSERT_TRUE(k.is_ok());
               keys = k.value();
             });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(keys, (std::vector<std::string>{"pre/a", "pre/b"}));
}

TEST_F(RpcFixture, StatusReportsHeight) {
  commit_block({make_tx(0)});
  chain::Height h = 0;
  sim::spawn(server->status(0),
             [&](util::Result<rpc::Server::StatusInfo> info) {
               ASSERT_TRUE(info.is_ok());
               h = info.value().height;
             });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(h, 1);
}

TEST_F(RpcFixture, QueueOverflowRejects) {
  // Shrink the queue and flood it with expensive queries; late requests get
  // UNAVAILABLE (the Table I submission-collapse mechanism).
  cost.request_queue_capacity = 4;
  server = std::make_unique<rpc::Server>(sched, network, 0, ledger, mempool,
                                         app, cost);
  std::vector<chain::TxPtr> txs;
  for (int i = 0; i < 20; ++i) txs.push_back(make_tx(i, 100));
  commit_block(std::move(txs), 50'000);

  int ok = 0, rejected = 0;
  const auto count = [&](const util::Status& status) {
    if (status.is_ok()) ++ok;
    else if (status.code() == util::ErrorCode::kUnavailable) ++rejected;
  };
  for (int i = 0; i < 20; ++i) {
    sim::spawn(server->tx_search_height(0, 1, 1, 30),
               [&](util::Result<rpc::TxSearchPage> res) {
                 count(res.status());
               });
  }
  // Status and prefix queries sent into the full queue report it the same
  // way; neither answers as a chain at height 0 or a prefix with no keys
  // would.
  sched.run_until(sched.now() + sim::millis(1));
  std::vector<util::Result<rpc::Server::StatusInfo>> heads;
  std::vector<util::Result<std::vector<std::string>>> key_lists;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(server->status(0),
               [&](util::Result<rpc::Server::StatusInfo> res) {
                 count(res.status());
                 heads.push_back(std::move(res));
               });
    sim::spawn(server->abci_query_prefix(0, "pre/"),
               [&](util::Result<std::vector<std::string>> res) {
                 count(res.status());
                 key_lists.push_back(std::move(res));
               });
  }
  sched.run_until(sim::seconds(600));
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + rejected, 24);
  EXPECT_EQ(server->requests_rejected(), static_cast<std::uint64_t>(rejected));
  ASSERT_EQ(heads.size(), 2u);
  ASSERT_EQ(key_lists.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(heads[i].status().code(), util::ErrorCode::kUnavailable);
    EXPECT_EQ(key_lists[i].status().code(), util::ErrorCode::kUnavailable);
  }
}

TEST_F(RpcFixture, DuplicatedFramesAreServedAndAnsweredOnce) {
  // The network delivers every frame twice, but RPC runs over a reliable
  // stream: the server serves each request once and each caller hears back
  // once. Ten requests over all nine endpoints fill the server (one in
  // service, nine queued); an eleventh finds the queue full.
  cost.request_queue_capacity = 9;
  server = std::make_unique<rpc::Server>(sched, network, 0, ledger, mempool,
                                         app, cost);
  const chain::TxPtr tx = make_tx(0);
  commit_block({tx});
  app.store().set("pre/a", {});
  network.set_fault_profile({.duplicate_probability = 1.0});

  std::array<int, 10> answers{};
  sim::spawn(server->broadcast_tx_sync(0, make_tx(0)),
             [&](util::Status) { ++answers[0]; });
  sim::spawn(server->query_tx(0, tx->hash()),
             [&](util::Result<rpc::TxResponse>) { ++answers[1]; });
  sim::spawn(server->query_tx(0, crypto::sha256(util::to_bytes("nope"))),
             [&](util::Result<rpc::TxResponse>) { ++answers[2]; });
  sim::spawn(server->tx_search_height(0, 1, 1, 30),
             [&](util::Result<rpc::TxSearchPage>) { ++answers[3]; });
  sim::spawn(server->query_packet_events(0, 1, "send_packet", 1, 10),
             [&](util::Result<rpc::TxSearchPage>) { ++answers[4]; });
  sim::spawn(server->query_packet_events_range(0, 1, 1, "send_packet", 1,
                                               10),
             [&](util::Result<rpc::TxSearchPage>) { ++answers[5]; });
  sim::spawn(server->abci_query(0, "pre/a", true),
             [&](util::Result<rpc::Server::AbciQueryResult>) {
               ++answers[6];
             });
  sim::spawn(server->abci_query_prefix(0, "pre/"),
             [&](util::Result<std::vector<std::string>>) { ++answers[7]; });
  sim::spawn(server->query_header(0, 1),
             [&](util::Result<rpc::Server::HeaderInfo>) {
               ++answers[8];
             });
  sim::spawn(server->status(0),
             [&](util::Result<rpc::Server::StatusInfo>) { ++answers[9]; });
  sched.run_until(sched.now() + sim::millis(1));
  ASSERT_EQ(server->queue_depth(), 10u);

  std::vector<util::ErrorCode> rejected;
  sim::spawn(server->query_tx(0, tx->hash()),
             [&](util::Result<rpc::TxResponse> res) {
               rejected.push_back(res.status().code());
             });
  sched.run_until(sched.now() + sim::seconds(10));

  EXPECT_GT(network.messages_duplicated(), 0u);
  EXPECT_EQ(answers, (std::array<int, 10>{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(rejected,
            std::vector<util::ErrorCode>{util::ErrorCode::kUnavailable});
  EXPECT_EQ(server->requests_served(), 10u);
  EXPECT_EQ(server->requests_rejected(), 1u);
}

TEST_F(RpcFixture, WebSocketDeliversEventFrames) {
  std::vector<rpc::NewBlockFrame> frames;
  server->subscribe_new_block(0, [&](const rpc::NewBlockFrame& f) {
    frames.push_back(f);
  });
  commit_block({make_tx(0), make_tx(1)});
  sched.run_until(sim::seconds(2));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].events_ok);
  EXPECT_EQ(frames[0].height, 1);
  EXPECT_EQ(frames[0].tx_count, 2u);
  ASSERT_EQ(frames[0].results, ledger.shared_results_at(1));
  EXPECT_EQ(frames[0].results->size(), 2u);
}

TEST_F(RpcFixture, WebSocketSixteenMegabyteLimit) {
  std::vector<rpc::NewBlockFrame> frames;
  server->subscribe_new_block(0, [&](const rpc::NewBlockFrame& f) {
    frames.push_back(f);
  });
  // 200 txs x 100 KB of events ≈ 20 MB > 16 MB.
  std::vector<chain::TxPtr> txs;
  for (int i = 0; i < 200; ++i) txs.push_back(make_tx(i));
  commit_block(std::move(txs), 100'000);
  sched.run_until(sim::seconds(10));
  ASSERT_EQ(frames.size(), 1u);
  // Paper §V: "Failed to collect events" — header arrives, events do not.
  EXPECT_FALSE(frames[0].events_ok);
  EXPECT_EQ(frames[0].results, nullptr);
  EXPECT_EQ(server->frames_dropped_oversize(), 1u);
}

TEST_F(RpcFixture, UnsubscribeStopsFrames) {
  int count = 0;
  const auto id = server->subscribe_new_block(
      0, [&](const rpc::NewBlockFrame&) { ++count; });
  commit_block({make_tx(0)});
  sched.run_until(sim::seconds(2));
  EXPECT_EQ(count, 1);
  server->unsubscribe(id);
  commit_block({make_tx(1)});
  sched.run_until(sim::seconds(4));
  EXPECT_EQ(count, 1);
}

TEST_F(RpcFixture, RemoteClientPaysNetworkLatency) {
  commit_block({make_tx(0)});
  sim::TimePoint local_done = 0, remote_done = 0;
  const sim::TimePoint t0 = sched.now();
  sim::spawn(server->status(0),
             [&](const util::Result<rpc::Server::StatusInfo>&) {
               local_done = sched.now();
             });
  sched.run_until(sched.now() + sim::seconds(5));
  const sim::TimePoint t1 = sched.now();
  sim::spawn(server->status(1),
             [&](const util::Result<rpc::Server::StatusInfo>&) {
               remote_done = sched.now();
             });
  sched.run_until(sched.now() + sim::seconds(5));
  const sim::Duration local_rtt = local_done - t0;
  const sim::Duration remote_rtt = remote_done - t1;
  EXPECT_GT(remote_rtt, local_rtt + sim::millis(150));
}

// --- packet-event queries: what a page holds and what it is charged --------

TEST_F(RpcFixture, PacketEventQueryPagesMatchScanAndChargeTheCostModel) {
  util::Rng rng(0x9AC4E7ULL);
  static const char* kQueried[] = {"send_packet", "write_acknowledgement"};
  for (const bool indexed : {false, true}) {
    use_cost_mode(indexed);
    std::size_t nonempty_pages = 0;
    for (int round = 0; round < 4; ++round) {
      // Appends and queries interleave: some blocks are first queried right
      // after they commit, some several commits later.
      for (int b = 0; b < 2; ++b) commit_mixed_block(rng, rng.next_below(12));
      for (int q = 0; q < 12; ++q) {
        // Heights 0 and tip + 1 hold no block.
        const auto h = static_cast<chain::Height>(
            rng.next_below(static_cast<std::uint64_t>(ledger.height()) + 2));
        const std::string type = kQueried[rng.next_below(2)];
        const std::uint64_t lo = 1 + rng.next_below(12);
        const std::uint64_t hi = lo + rng.next_below(6);
        std::optional<util::Result<rpc::TxSearchPage>> got;
        const sim::Duration charged = charged_by([&] {
          sim::spawn(server->query_packet_events(0, h, type, lo, hi),
                     [&](util::Result<rpc::TxSearchPage> res) {
                       got = std::move(res);
                     });
        });
        ASSERT_TRUE(got.has_value());
        const TxLocations want = scan_range(ledger, h, h, type, lo, hi);
        const std::string where = "indexed=" + std::to_string(indexed) +
                                  " h=" + std::to_string(h) + " " + type +
                                  " [" + std::to_string(lo) + "," +
                                  std::to_string(hi) + "]";
        if (ledger.block_at(h) == nullptr) {
          EXPECT_EQ(got->status().code(), util::ErrorCode::kNotFound) << where;
        } else {
          ASSERT_TRUE(got->is_ok()) << where;
          EXPECT_EQ(locations_of(got->value()), want) << where;
          EXPECT_EQ(got->value().total_count, want.size()) << where;
          for (const rpc::TxResponse& r : got->value().txs) {
            EXPECT_EQ(r.tx, ledger.block_at(r.height)->txs[r.index]) << where;
          }
          nonempty_pages += want.empty() ? 0 : 1;
        }
        EXPECT_EQ(charged,
                  packet_query_charge(1, ledger.block_event_bytes(h), want))
            << where;
      }
    }
    EXPECT_GE(nonempty_pages, 10u) << "indexed=" << indexed;
  }
}

TEST_F(RpcFixture, PacketEventRangeQueryPagesMatchScanAndChargeTheCostModel) {
  util::Rng rng(0x4A46E5ULL);
  for (const bool indexed : {false, true}) {
    use_cost_mode(indexed);
    std::size_t multi_block_pages = 0;
    for (int round = 0; round < 4; ++round) {
      for (int b = 0; b < 2; ++b) commit_mixed_block(rng, rng.next_below(12));
      for (int q = 0; q < 20; ++q) {
        // Ranges may start at 0, run past the tip, or be empty (lo > hi).
        const auto h_lo = static_cast<chain::Height>(
            rng.next_below(static_cast<std::uint64_t>(ledger.height()) + 1));
        const auto h_hi = static_cast<chain::Height>(
            h_lo + static_cast<chain::Height>(rng.next_below(7)) - 1);
        const std::string type =
            rng.chance(0.5) ? "send_packet" : "write_acknowledgement";
        const std::uint64_t lo = 1 + rng.next_below(12);
        const std::uint64_t hi = lo + rng.next_below(6);
        std::optional<util::Result<rpc::TxSearchPage>> got;
        const sim::Duration charged = charged_by([&] {
          sim::spawn(
              server->query_packet_events_range(0, h_lo, h_hi, type, lo, hi),
              [&](util::Result<rpc::TxSearchPage> res) {
                got = std::move(res);
              });
        });
        const chain::Height first = std::max<chain::Height>(h_lo, 1);
        const chain::Height last = std::min(h_hi, ledger.height());
        const auto want = scan_range(ledger, first, last, type, lo, hi);
        std::size_t scanned = 0;
        for (chain::Height h = first; h <= last; ++h) {
          scanned += ledger.block_event_bytes(h);
        }
        const std::size_t probed =
            last >= first ? static_cast<std::size_t>(last - first + 1) : 0;
        const std::string where = "indexed=" + std::to_string(indexed) +
                                  " heights [" + std::to_string(h_lo) + "," +
                                  std::to_string(h_hi) + "] " + type;
        ASSERT_TRUE(got.has_value() && got->is_ok()) << where;
        EXPECT_EQ(locations_of(got->value()), want) << where;
        EXPECT_EQ(got->value().total_count, want.size()) << where;
        for (const rpc::TxResponse& r : got->value().txs) {
          EXPECT_EQ(r.tx, ledger.block_at(r.height)->txs[r.index]) << where;
        }
        EXPECT_EQ(charged, packet_query_charge(probed, scanned, want)) << where;
        multi_block_pages +=
            !want.empty() && want.front().first != want.back().first ? 1 : 0;
      }
    }
    EXPECT_GE(multi_block_pages, 5u) << "indexed=" << indexed;
  }
}

TEST_F(RpcFixture, PacketQueryChargeIsFixedAtAdmissionAndPageReadAtCompletion) {
  // A block committed while its query is in service is charged as absent
  // (the cost is computed when the request is admitted) but is in the page
  // (the page is read when service completes).
  for (const bool indexed : {false, true}) {
    use_cost_mode(indexed);
    const chain::Height h = ledger.height() + 1;
    std::optional<util::Result<rpc::TxSearchPage>> got;
    const sim::Duration charged = charged_by([&] {
      sim::spawn(server->query_packet_events(0, h, "send_packet", 2, 3),
                 [&](util::Result<rpc::TxSearchPage> res) {
                   got = std::move(res);
                 });
      while (server->queue_depth() == 0) ASSERT_TRUE(sched.step());
      commit_block({make_tx(next_tx_seq_++), make_tx(next_tx_seq_++),
                    make_tx(next_tx_seq_++), make_tx(next_tx_seq_++)});
    });
    ASSERT_TRUE(got.has_value() && got->is_ok());
    const TxLocations want = {{h, 1}, {h, 2}};
    EXPECT_EQ(locations_of(got->value()), want);
    EXPECT_EQ(charged, packet_query_charge(1, 0, {}));
  }
}

TEST_F(RpcFixture, EveryResponseCarriesTheHashOfItsTx) {
  util::Rng rng(0x7A5ULL);
  commit_mixed_block(rng, 9);
  commit_mixed_block(rng, 5);
  std::vector<rpc::TxResponse> seen;
  auto keep_page = [&](util::Result<rpc::TxSearchPage> res) {
    ASSERT_TRUE(res.is_ok());
    for (rpc::TxResponse& r : res.value().txs) seen.push_back(std::move(r));
  };
  for (chain::Height h = 1; h <= ledger.height(); ++h) {
    sim::spawn(server->tx_search_height(0, h, 1, 100), keep_page);
    for (const chain::TxPtr& tx : ledger.block_at(h)->txs) {
      sim::spawn(server->query_tx(0, tx->hash()),
                 [&](util::Result<rpc::TxResponse> res) {
                   ASSERT_TRUE(res.is_ok());
                   seen.push_back(res.take());
                 });
    }
  }
  sim::spawn(server->query_packet_events(0, 1, "send_packet", 1, 100),
             keep_page);
  sim::spawn(server->query_packet_events_range(0, 1, 2,
                                               "write_acknowledgement", 1, 100),
             keep_page);
  sched.run_until(sched.now() + sim::seconds(600));
  ASSERT_GE(seen.size(), 2u * 14u);
  for (const rpc::TxResponse& r : seen) {
    EXPECT_EQ(r.tx->hash(), crypto::sha256(r.tx->encode()));
    EXPECT_EQ(r.tx, ledger.block_at(r.height)->txs[r.index]);
    EXPECT_EQ(r.result.get(), &(*ledger.results_at(r.height))[r.index]);
  }
}

}  // namespace
