// Focused relayer behaviour tests: event filtering, the two concurrent work
// lanes, sticky vs non-sticky WebSocket failure, clearing of stalled
// packets, stop() semantics, fee accounting, and pinned event schedules.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <iostream>

#include "crypto/sha256.hpp"
#include "ibc/host.hpp"
#include "xcc/analysis.hpp"
#include "xcc/handshake.hpp"
#include "xcc/workload.hpp"

namespace {

/// Empties the ack bytes of every write_acknowledgement event on `page`
/// (decoding fails on empty bytes); true when there was one. The payloads
/// are shared with the ledger, so each event gets a corrupted copy.
bool corrupt_acks(rpc::TxSearchPage& page) {
  bool corrupted = false;
  for (auto& tx : page.txs) {
    for (auto& ev : tx.result.events) {
      const ibc::PacketEvent* pe = ibc::packet_event(ev);
      if (pe == nullptr || pe->kind != ibc::PacketEventKind::kWriteAck) {
        continue;
      }
      ev = ibc::make_packet_event(pe->kind, pe->packet, {});
      corrupted = true;
    }
  }
  return corrupted;
}

struct RelayerFixture : ::testing::Test {
  std::unique_ptr<xcc::Testbed> tb;
  xcc::ChannelSetupResult channel;

  void boot(xcc::TestbedConfig cfg = {}) {
    cfg.user_accounts = std::max(cfg.user_accounts, 12);
    tb = std::make_unique<xcc::Testbed>(cfg);
    tb->start_chains();
    ASSERT_TRUE(tb->run_until_height(2, sim::seconds(120)));
    xcc::HandshakeDriver driver(*tb);
    channel = driver.establish_channel_blocking(tb->scheduler().now() +
                                                sim::seconds(600));
    ASSERT_TRUE(channel.ok) << channel.error;
  }

  std::unique_ptr<relayer::Relayer> make_relayer(relayer::RelayerConfig rc = {},
                                                 relayer::StepLog* log = nullptr) {
    relayer::ChainHandle ha{tb->chain_a().servers[0].get(), tb->chain_a().id,
                            {tb->relayer_account_a(0)}};
    relayer::ChainHandle hb{tb->chain_b().servers[0].get(), tb->chain_b().id,
                            {tb->relayer_account_b(0)}};
    auto r = std::make_unique<relayer::Relayer>(tb->scheduler(), ha, hb,
                                                channel.path(), rc, log);
    r->start();
    return r;
  }

  std::uint64_t run_transfers(std::uint64_t n, relayer::Relayer& r,
                              sim::Duration budget = sim::seconds(600)) {
    xcc::WorkloadConfig wl;
    wl.total_transfers = n;
    xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
    workload.start();
    const sim::TimePoint limit = tb->scheduler().now() + budget;
    while (tb->scheduler().now() < limit && r.stats().packets_completed < n) {
      if (!tb->scheduler().step()) break;
    }
    return r.stats().packets_completed;
  }

  // --- Pinned schedule (the PinnedSchedule* tests) -------------------------
  //
  // A small run whose whole outcome is pinned to constants: the executed DES
  // event count, an FNV-1a hash of the step log, every Relayer::Stats field
  // of every instance and both chains' store roots. A relayer change that
  // adds, drops or moves one scheduled event (an RPC round trip, a build
  // delay, the lane-pump deferral, a parity event) or changes any packet's
  // fate fails these tests.
  struct Pinned {
    std::uint64_t events = 0;
    std::uint64_t step_log_fnv = 0;
    std::vector<std::array<std::uint64_t, 14>> stats;  // one row per relayer
    std::string root_a;
    std::string root_b;
  };

  static std::array<std::uint64_t, 14> stats_row(
      const relayer::Relayer::Stats& s) {
    return {s.packets_relayed,       s.packets_completed,
            s.packets_timed_out,     s.redundant_errors,
            s.frames_failed,         s.recv_txs_failed,
            s.ack_txs_failed,        s.chunk_queries,
            s.chunk_queries_skipped, s.pull_query_failures,
            s.ack_decode_failures,   s.abandoned_packets,
            s.coordination_skipped,  s.routing_skipped};
  }

  static std::uint64_t fnv1a(const relayer::StepLog& log) {
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

  /// Boots `cfg`, starts `relayers` uncoordinated instances (instance k on
  /// machine k), submits `wl` and runs a fixed 240 s of virtual time. A
  /// `script`, when given, drives instance 0 first (it may step the
  /// scheduler; the run still ends 240 s after the workload started).
  Pinned run_pinned(
      xcc::TestbedConfig cfg, relayer::RelayerConfig rc, int relayers,
      xcc::WorkloadConfig wl,
      const std::function<void(relayer::Relayer&)>& script = {}) {
    boot(cfg);
    relayer::StepLog steps;
    std::vector<std::unique_ptr<relayer::Relayer>> fleet;
    for (int k = 0; k < relayers; ++k) {
      const auto m = static_cast<std::size_t>(k);
      relayer::ChainHandle ha{tb->chain_a().servers[m].get(),
                              tb->chain_a().id, {tb->relayer_account_a(k)}};
      relayer::ChainHandle hb{tb->chain_b().servers[m].get(),
                              tb->chain_b().id, {tb->relayer_account_b(k)}};
      rc.machine = static_cast<net::MachineId>(m);
      fleet.push_back(std::make_unique<relayer::Relayer>(
          tb->scheduler(), ha, hb, channel.path(), rc,
          k == 0 ? &steps : nullptr));
      fleet.back()->start();
    }
    xcc::TransferWorkload workload(*tb, channel, wl, &steps);
    workload.start();
    const sim::TimePoint end = tb->scheduler().now() + sim::seconds(240);
    if (script) script(*fleet.front());
    tb->run_until(end);

    Pinned got;
    got.events = tb->scheduler().executed_events();
    got.step_log_fnv = fnv1a(steps);
    for (const auto& r : fleet) got.stats.push_back(stats_row(r->stats()));
    got.root_a = crypto::digest_hex(tb->chain_a().app->store().root());
    got.root_b = crypto::digest_hex(tb->chain_b().app->store().root());
    for (auto& r : fleet) r->stop();
    return got;
  }

  static void expect_pinned(const Pinned& got, const Pinned& want) {
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.step_log_fnv, want.step_log_fnv);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(got.root_a, want.root_a);
    EXPECT_EQ(got.root_b, want.root_b);
    if (!::testing::Test::HasFailure()) return;
    // The actual outcome as a constant, for re-pinning a deliberate change.
    std::cout << "actual: {" << got.events << "ULL, " << got.step_log_fnv
              << "ULL, {";
    for (const auto& row : got.stats) {
      std::cout << "{";
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::cout << (i ? ", " : "") << row[i];
      }
      std::cout << "}, ";
    }
    std::cout << "}, \"" << got.root_a << "\", \"" << got.root_b << "\"}\n";
  }
};

TEST_F(RelayerFixture, NonStickyFailureRecoversOnNextFrame) {
  xcc::TestbedConfig cfg;
  cfg.rpc_cost.websocket_max_frame_bytes = 64 * 1024;
  boot(cfg);

  relayer::RelayerConfig rc;
  rc.websocket_failure_sticky = false;  // model a fixed Hermes
  rc.clear_interval = 0;
  auto r = make_relayer(rc);

  // First burst trips the frame limit and is lost (no clearing)...
  xcc::WorkloadConfig big;
  big.total_transfers = 300;
  xcc::TransferWorkload burst(*tb, channel, big, nullptr);
  burst.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(40));
  EXPECT_GT(r->stats().frames_failed, 0u);
  EXPECT_EQ(r->stats().packets_completed, 0u);

  // ...but because the failure is not sticky, a later small batch IS seen
  // and relayed.
  xcc::WorkloadConfig small;
  small.total_transfers = 20;
  xcc::TransferWorkload follow(*tb, channel, small, nullptr);
  follow.start();
  const sim::TimePoint limit = tb->scheduler().now() + sim::seconds(300);
  while (tb->scheduler().now() < limit && r->stats().packets_completed < 20) {
    if (!tb->scheduler().step()) break;
  }
  EXPECT_EQ(r->stats().packets_completed, 20u);
  r->stop();
}

TEST_F(RelayerFixture, StickyFailureBlocksLaterTransfers) {
  xcc::TestbedConfig cfg;
  cfg.rpc_cost.websocket_max_frame_bytes = 64 * 1024;
  boot(cfg);

  relayer::RelayerConfig rc;
  rc.websocket_failure_sticky = true;  // §V behaviour
  rc.clear_interval = 0;
  auto r = make_relayer(rc);

  xcc::WorkloadConfig big;
  big.total_transfers = 300;
  xcc::TransferWorkload burst(*tb, channel, big, nullptr);
  burst.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(40));
  ASSERT_GT(r->stats().frames_failed, 0u);

  xcc::WorkloadConfig small;
  small.total_transfers = 20;
  xcc::TransferWorkload follow(*tb, channel, small, nullptr);
  follow.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(200));
  // "...not only prevents transactions that failed to be collected from
  // being completed, but also impacts future transactions" (§V).
  EXPECT_EQ(r->stats().packets_completed, 0u);
  r->stop();
}

TEST_F(RelayerFixture, LanesOverlapRecvAndAckWork) {
  boot();
  relayer::StepLog steps;
  auto r = make_relayer({}, &steps);

  // Two waves: the second wave's transfer pulls (lane 0) should overlap the
  // first wave's ack work (lane 1) in virtual time.
  xcc::WorkloadConfig wl;
  wl.total_transfers = 400;
  wl.spread_blocks = 4;
  xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
  workload.start();
  const sim::TimePoint limit = tb->scheduler().now() + sim::seconds(900);
  while (tb->scheduler().now() < limit && r->stats().packets_completed < 400) {
    if (!tb->scheduler().step()) break;
  }
  ASSERT_EQ(r->stats().packets_completed, 400u);

  const auto pulls =
      steps.completion_times_seconds(relayer::Step::kTransferDataPull);
  const auto acks = steps.completion_times_seconds(relayer::Step::kAckBuild);
  ASSERT_FALSE(pulls.empty());
  ASSERT_FALSE(acks.empty());
  // Some transfer pull completed AFTER some ack build: the lanes ran
  // concurrently rather than strictly phase-by-phase.
  EXPECT_GT(pulls.back(), acks.front());
  r->stop();
}

TEST_F(RelayerFixture, ClearingRetriesStalledPackets) {
  boot();
  // Sabotage: wedge the relayer's A-side event source by making the first
  // workload oversized... simpler: start the relayer AFTER the transfers
  // committed, so it never saw the events; only clearing can find them.
  xcc::WorkloadConfig wl;
  wl.total_transfers = 150;
  xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
  workload.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(30));

  relayer::RelayerConfig rc;
  rc.clear_interval = 2;
  auto r = make_relayer(rc);
  const sim::TimePoint limit = tb->scheduler().now() + sim::seconds(900);
  while (tb->scheduler().now() < limit && r->stats().packets_completed < 150) {
    if (!tb->scheduler().step()) break;
  }
  EXPECT_EQ(r->stats().packets_completed, 150u);
  r->stop();
}

TEST_F(RelayerFixture, StopHaltsRelaying) {
  boot();
  auto r = make_relayer();
  xcc::WorkloadConfig wl;
  wl.total_transfers = 200;
  xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
  workload.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(8));
  r->stop();
  const auto completed_at_stop = r->stats().packets_completed;
  tb->run_until(tb->scheduler().now() + sim::seconds(120));
  EXPECT_EQ(r->stats().packets_completed, completed_at_stop);
  // Nothing (or almost nothing) completed on chain either.
  xcc::Analyzer analyzer(*tb, channel);
  EXPECT_LT(analyzer.completion_breakdown(200).completed, 200u);
}

TEST_F(RelayerFixture, RelayerPaysFeesFromItsWallets) {
  boot();
  const std::uint64_t a_before = tb->chain_a().app->bank().balance(
      tb->relayer_account_a(0), cosmos::kNativeDenom);
  const std::uint64_t b_before = tb->chain_b().app->bank().balance(
      tb->relayer_account_b(0), cosmos::kNativeDenom);
  auto r = make_relayer();
  ASSERT_EQ(run_transfers(100, *r), 100u);
  // recv txs paid from the B wallet, ack txs from the A wallet.
  EXPECT_LT(tb->chain_b().app->bank().balance(tb->relayer_account_b(0),
                                              cosmos::kNativeDenom),
            b_before);
  EXPECT_LT(tb->chain_a().app->bank().balance(tb->relayer_account_a(0),
                                              cosmos::kNativeDenom),
            a_before);
  r->stop();
}

TEST_F(RelayerFixture, SkipSatisfiedChunksCutsRideAlongQueries) {
  // Workload txs bundle 100 transfers, so a 50-sequence chunk query returns
  // whole transactions covering the next chunk's sequences too; Hermes still
  // issues those redundant queries (the paper's Fig. 12 pull times include
  // them). The opt-in mitigation must skip them without losing packets.
  boot();
  auto baseline = make_relayer({});
  ASSERT_EQ(run_transfers(300, *baseline), 300u);
  const std::uint64_t baseline_queries = baseline->stats().chunk_queries;
  EXPECT_EQ(baseline->stats().chunk_queries_skipped, 0u);
  EXPECT_GT(baseline_queries, 0u);
  baseline->stop();

  boot();  // fresh testbed, same seed: identical workload layout
  relayer::RelayerConfig rc;
  rc.skip_satisfied_chunks = true;
  auto mitigated = make_relayer(rc);
  ASSERT_EQ(run_transfers(300, *mitigated), 300u);
  EXPECT_GT(mitigated->stats().chunk_queries_skipped, 0u);
  EXPECT_LT(mitigated->stats().chunk_queries, baseline_queries);
}

TEST_F(RelayerFixture, CachedRelayerStillCompletesEveryTransfer) {
  boot();
  relayer::RelayerConfig rc;
  rc.query_cache.enabled = true;
  auto r = make_relayer(rc);
  ASSERT_EQ(run_transfers(150, *r), 150u);
  // The cache actually served repeated pulls (headers at the same proof
  // height, at minimum) without costing correctness.
  EXPECT_GT(r->query_cache().stats().hits, 0u);
  r->stop();
}

TEST_F(RelayerFixture, PullQueryFailuresAreCountedAndRecovered) {
  boot();
  relayer::RelayerConfig rc;
  rc.clear_interval = 2;  // clearing re-finds the packets the failed pull lost
  auto r = make_relayer(rc);

  int failures_left = 2;
  tb->chain_a().servers[0]->set_query_tamper(
      [&failures_left](rpc::TxSearchPage&) {
        if (failures_left > 0) {
          --failures_left;
          return util::Status::error(util::ErrorCode::kUnavailable,
                                     "injected query fault");
        }
        return util::Status::ok();
      });

  ASSERT_EQ(run_transfers(100, *r, sim::seconds(900)), 100u);
  // The failed chunk queries used to vanish silently; now they are counted.
  EXPECT_GE(r->stats().pull_query_failures, 1u);
  EXPECT_EQ(r->stats().abandoned_packets, 0u);
  r->stop();
}

TEST_F(RelayerFixture, BoundedRetriesAbandonUndeliverablePackets) {
  boot();
  relayer::RelayerConfig rc;
  rc.gas_headroom = 0.3;  // every recv tx runs out of gas at DeliverTx
  rc.clear_interval = 2;  // clearing keeps rebuilding the failed packets
  rc.max_submit_failures = 2;
  auto r = make_relayer(rc);

  xcc::WorkloadConfig wl;
  wl.total_transfers = 30;
  xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
  workload.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(600));

  // A persistent fault used to loop through clearing forever; the bound
  // gives up and surfaces the packets instead. The invariant checker
  // (fail-fast, on by default) ran the whole time.
  EXPECT_EQ(r->stats().packets_completed, 0u);
  EXPECT_GT(r->stats().recv_txs_failed, 0u);
  EXPECT_EQ(r->stats().abandoned_packets, 30u);
  // Bounded: at most (cap + 1) submit failures per packet, batched 100/tx.
  EXPECT_LE(r->stats().recv_txs_failed,
            30u * (static_cast<std::uint64_t>(rc.max_submit_failures) + 1));
  r->stop();
}

TEST_F(RelayerFixture, MalformedAckIsCountedAndRecovered) {
  boot();
  relayer::RelayerConfig rc;
  rc.ack_repull_backoff = sim::seconds(2);
  auto r = make_relayer(rc);

  // Corrupt the first ack pull's ack bytes (decode fails on empty bytes);
  // later pulls return intact pages.
  bool corrupted = false;
  tb->chain_b().servers[0]->set_query_tamper(
      [&corrupted](rpc::TxSearchPage& page) {
        if (corrupted) return util::Status::ok();
        corrupted = corrupt_acks(page);
        return util::Status::ok();
      });

  ASSERT_EQ(run_transfers(60, *r, sim::seconds(900)), 60u);
  EXPECT_TRUE(corrupted);
  EXPECT_GE(r->stats().ack_decode_failures, 1u);
  EXPECT_EQ(r->stats().abandoned_packets, 0u);
  r->stop();
}

TEST_F(RelayerFixture, PersistentAckCorruptionAbandonsAfterBoundedRepulls) {
  boot();
  relayer::RelayerConfig rc;
  rc.ack_repull_backoff = sim::seconds(2);
  rc.max_submit_failures = 2;
  auto r = make_relayer(rc);

  tb->chain_b().servers[0]->set_query_tamper([](rpc::TxSearchPage& page) {
    corrupt_acks(page);
    return util::Status::ok();
  });

  xcc::WorkloadConfig wl;
  wl.total_transfers = 40;
  xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
  workload.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(300));

  // recvs commit on B but no ack can ever be decoded: every packet must end
  // abandoned after the bounded re-pulls, not spin on the ack lane forever.
  EXPECT_EQ(r->stats().packets_relayed, 40u);
  EXPECT_EQ(r->stats().packets_completed, 0u);
  EXPECT_GE(r->stats().ack_decode_failures, 3u);
  EXPECT_EQ(r->stats().abandoned_packets, 40u);
  r->stop();
}

TEST_F(RelayerFixture, IgnoresPacketsFromOtherChannels) {
  boot();
  relayer::StepLog steps;
  // Point the relayer at a non-existent channel id: it must ignore all the
  // real channel's events and relay nothing.
  xcc::ChannelSetupResult other = channel;
  other.channel_a = "channel-77";
  other.channel_b = "channel-77";
  relayer::ChainHandle ha{tb->chain_a().servers[0].get(), tb->chain_a().id,
                          {tb->relayer_account_a(0)}};
  relayer::ChainHandle hb{tb->chain_b().servers[0].get(), tb->chain_b().id,
                          {tb->relayer_account_b(0)}};
  relayer::Relayer r(tb->scheduler(), ha, hb, other.path(), {}, &steps);
  r.start();

  xcc::WorkloadConfig wl;
  wl.total_transfers = 100;
  xcc::TransferWorkload workload(*tb, channel, wl, nullptr);
  workload.start();
  tb->run_until(tb->scheduler().now() + sim::seconds(60));
  EXPECT_EQ(r.stats().packets_completed, 0u);
  EXPECT_TRUE(steps.records().empty());
  r.stop();
}

// The pinned runs cover paths the benchmark workloads never take. Each burst
// is 250 transfers in one block, so both directions cross the 100-msg tx cut.

TEST_F(RelayerFixture, PinnedScheduleBurst) {
  xcc::WorkloadConfig wl;
  wl.total_transfers = 250;
  expect_pinned(
      run_pinned({}, {}, 1, wl),
      {9201ULL, 12942132560927968269ULL,
       {{250, 250, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0}},
       "be9615e956055b0bd05288a9db00c0bce0d665994aa190530cdc553d145a6997",
       "08ac83e7bf44801329271553f07bdda88824f5574c94958a5c70ad0e9d496e2f"});
}

TEST_F(RelayerFixture, PinnedScheduleRacingRelayers) {
  // Two uncoordinated instances deliver the same packets: redundant-packet
  // failures and the bounded rebuild-and-resubmit retries.
  xcc::WorkloadConfig wl;
  wl.total_transfers = 250;
  expect_pinned(
      run_pinned({}, {}, 2, wl),
      {12789ULL, 4026742439495917187ULL,
       {{0, 250, 0, 250, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0},
        {250, 0, 0, 500, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0}},
       "9ea24e301aba2d09b233206e2108dd5fb2650151f5d060bb355c846f6ffdfa22",
       "ce4b0245b714318a15df9f876033e91a2c1421c243d452ce60b73b81aed4305a"});
}

TEST_F(RelayerFixture, PinnedScheduleTimeouts) {
  // Packets expire 2 destination blocks after submission, before the
  // relayer can deliver them: one timeout batch refunds all 250, with its
  // uncached non-existence proofs.
  xcc::WorkloadConfig wl;
  wl.total_transfers = 250;
  wl.timeout_height_offset = 2;
  expect_pinned(
      run_pinned({}, {}, 1, wl),
      {8879ULL, 18444286763067483070ULL,
       {{0, 0, 250, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0}},
       "96a0db0df083c80f5c1cfaed02fdab5b6679e168812c7d85ca7ea4a9e15dc24b",
       "27718c5376bc9bf4900efce1c34aaa5ec63f5330da78c6d3b33a492d8d9c009c"});
}

TEST_F(RelayerFixture, PinnedScheduleWedgedFrames) {
  // The burst's event frames exceed the WebSocket limit and wedge both event
  // sources (sticky): clearing finds the packets, and acks are driven from
  // the committed recv txs instead of the destination's frames.
  xcc::TestbedConfig cfg;
  cfg.rpc_cost.websocket_max_frame_bytes = 64 * 1024;
  relayer::RelayerConfig rc;
  rc.clear_interval = 2;
  xcc::WorkloadConfig wl;
  wl.total_transfers = 250;
  expect_pinned(
      run_pinned(cfg, rc, 1, wl),
      {9303ULL, 9304343334774632508ULL,
       {{250, 250, 0, 0, 3, 0, 0, 5, 0, 0, 0, 0, 0, 0}},
       "be9615e956055b0bd05288a9db00c0bce0d665994aa190530cdc553d145a6997",
       "08ac83e7bf44801329271553f07bdda88824f5574c94958a5c70ad0e9d496e2f"});
}

TEST_F(RelayerFixture, PinnedScheduleCrashRestart) {
  // The relayer crashes as soon as both lanes hold an op (its startup
  // re-scan) and restarts 30 s later, when the burst has committed unseen:
  // the re-scan has to recover all of it. Then it is bounced again within
  // one RPC round trip, so the continuations of the op in flight resume
  // into the new run and the lane epoch guard drops that op's completion.
  relayer::RelayerConfig rc;
  rc.startup_rescan = true;
  rc.clear_interval = 2;
  xcc::WorkloadConfig wl;
  wl.total_transfers = 250;
  const auto script = [this](relayer::Relayer& r) {
    sim::Scheduler& sched = tb->scheduler();
    const sim::TimePoint limit = sched.now() + sim::seconds(60);
    while (r.lane_depth(0) == 0 || r.lane_depth(1) == 0) {
      ASSERT_LT(sched.now(), limit);
      ASSERT_TRUE(sched.step());
    }
    r.stop();
    tb->run_until(sched.now() + sim::seconds(30));
    r.start();
    while (r.lane_depth(0) == 0 && r.lane_depth(1) == 0) {
      ASSERT_LT(sched.now(), limit);
      ASSERT_TRUE(sched.step());
    }
    r.stop();
    r.start();
  };
  expect_pinned(
      run_pinned({}, rc, 1, wl, script),
      {9294ULL, 12501402442099287266ULL,
       {{250, 250, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0}},
       "8601a0bc065da8656532360c6724f06fcb2135bcb7dd6118805b8d9436ffb52a",
       "624aeecaa7cd4ff7d27e3a0bcbc4edb9e20c8638c517ec86be38182df63cab18"});
}

// The channel handshake's schedule: the executed DES event count, the
// virtual time at which both ends are OPEN, and the six ids it created.
struct HandshakePin {
  std::uint64_t events = 0;
  sim::TimePoint now = 0;
  std::array<std::string, 6> ids;
  bool operator==(const HandshakePin&) const = default;
};

HandshakePin run_handshake(int chain_x, int chain_y,
                           ibc::ChannelOrdering ordering) {
  xcc::Testbed tb({});
  tb.start_chains();
  EXPECT_TRUE(tb.run_until_height(2, sim::seconds(120)));
  xcc::HandshakeDriver driver(tb, 0, 0, 0, chain_x, chain_y, ordering);
  const xcc::ChannelSetupResult ch = driver.establish_channel_blocking(
      tb.scheduler().now() + sim::seconds(600));
  EXPECT_TRUE(ch.ok) << ch.error;
  return {tb.scheduler().executed_events(),
          tb.scheduler().now(),
          {ch.client_on_a, ch.client_on_b, ch.connection_a, ch.connection_b,
           ch.channel_a, ch.channel_b}};
}

void expect_handshake(const HandshakePin& got, const HandshakePin& want) {
  EXPECT_EQ(got, want);
  if (got == want) return;
  std::cout << "actual: {" << got.events << "ULL, " << got.now << ", {";
  for (std::size_t i = 0; i < got.ids.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << got.ids[i] << '"';
  }
  std::cout << "}}\n";
}

TEST(HandshakePinned, DefaultPair) {
  expect_handshake(run_handshake(0, 1, ibc::ChannelOrdering::kUnordered),
                   {1744ULL, 60290651,
                    {"07-tendermint-0", "07-tendermint-0", "connection-0",
                     "connection-0", "channel-0", "channel-0"}});
}

TEST(HandshakePinned, OrderedReversedPair) {
  expect_handshake(run_handshake(1, 0, ibc::ChannelOrdering::kOrdered),
                   {1744ULL, 60290988,
                    {"07-tendermint-0", "07-tendermint-0", "connection-0",
                     "connection-0", "channel-0", "channel-0"}});
}

}  // namespace
