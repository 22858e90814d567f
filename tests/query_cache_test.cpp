// Unit tests for relayer::QueryCache (paper §VI's proposed mitigation):
// disabled pass-through, hit/miss accounting, hit latency, ABCI staleness
// invalidation on height advance, the LRU byte budget, and the telemetry
// counters the ablation bench reports.

#include <gtest/gtest.h>

#include "relayer/query_cache.hpp"
#include "xcc/testbed.hpp"

namespace {

struct QueryCacheFixture : ::testing::Test {
  std::unique_ptr<xcc::Testbed> tb;

  void boot(chain::Height height = 4, bool telemetry = false) {
    xcc::TestbedConfig cfg;
    cfg.telemetry = telemetry;
    tb = std::make_unique<xcc::Testbed>(cfg);
    tb->start_chains();
    ASSERT_TRUE(tb->run_until_height(height, sim::seconds(600)));
  }

  rpc::Server& server() { return *tb->chain_a().servers[0]; }

  /// Issues a header query through `cache` and steps the simulation until
  /// the callback delivers; returns the virtual time the response took.
  sim::Duration timed_header_query(relayer::QueryCache& cache,
                                   chain::Height height) {
    const sim::TimePoint start = tb->scheduler().now();
    sim::TimePoint finish = start;
    bool done = false;
    sim::spawn(cache.query_header(server(), /*client=*/0, height),
               [&](util::Result<rpc::Server::HeaderInfo> res) {
                 EXPECT_TRUE(res.is_ok()) << res.status().to_string();
                 if (res.is_ok()) {
                   EXPECT_EQ(res.value().header.height, height);
                 }
                 finish = tb->scheduler().now();
                 done = true;
               });
    while (!done && tb->scheduler().step()) {
    }
    EXPECT_TRUE(done);
    return finish - start;
  }

  void page_query(relayer::QueryCache& cache, chain::Height height,
                  std::uint64_t lo, std::uint64_t hi) {
    bool done = false;
    sim::spawn(cache.query_packet_events(server(), /*client=*/0, height,
                                         "send_packet", lo, hi),
               [&](util::Result<rpc::TxSearchPage> res) {
                 EXPECT_TRUE(res.is_ok());
                 done = true;
               });
    while (!done && tb->scheduler().step()) {
    }
    EXPECT_TRUE(done);
  }

  chain::Height proof_query(relayer::QueryCache& cache,
                            const std::string& key) {
    chain::Height answered = 0;
    bool done = false;
    sim::spawn(cache.abci_query(server(), /*client=*/0, key, /*prove=*/true),
               [&](util::Result<rpc::Server::AbciQueryResult> res) {
                 ASSERT_TRUE(res.is_ok());
                 answered = res.value().height;
                 done = true;
               });
    while (!done && tb->scheduler().step()) {
    }
    EXPECT_TRUE(done);
    return answered;
  }
};

TEST_F(QueryCacheFixture, DisabledIsPassThrough) {
  boot();
  relayer::QueryCache cache(tb->scheduler(), {});  // enabled = false
  const std::uint64_t before = server().requests_served();
  timed_header_query(cache, 2);
  timed_header_query(cache, 2);
  // Both identical queries reached the server; no cache state moved.
  EXPECT_EQ(server().requests_served(), before + 2);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST_F(QueryCacheFixture, RepeatQueryHitsWithoutTouchingServer) {
  boot();
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);

  const std::uint64_t before = server().requests_served();
  const sim::Duration miss_latency = timed_header_query(cache, 2);
  EXPECT_EQ(server().requests_served(), before + 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);

  const sim::Duration hit_latency = timed_header_query(cache, 2);
  // The hit never reached the server's request queue and cost exactly the
  // modeled local lookup, far below the RPC round trip.
  EXPECT_EQ(server().requests_served(), before + 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(hit_latency, server().cost_model().cache_hit_cost);
  EXPECT_LT(hit_latency, miss_latency);
}

TEST_F(QueryCacheFixture, PacketEventPagesAreKeyedByRange) {
  boot();
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);

  const std::uint64_t before = server().requests_served();
  page_query(cache, 2, 1, 50);
  page_query(cache, 2, 1, 50);  // identical chunk: served from cache
  EXPECT_EQ(server().requests_served(), before + 1);
  EXPECT_EQ(cache.stats().hits, 1u);

  page_query(cache, 2, 51, 100);  // different range: distinct key
  page_query(cache, 3, 1, 50);    // different height: distinct key
  EXPECT_EQ(server().requests_served(), before + 3);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST_F(QueryCacheFixture, ProofEntriesInvalidateOnHeightAdvance) {
  boot();
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);

  const std::uint64_t before = server().requests_served();
  const chain::Height answered = proof_query(cache, "commitments/test");
  ASSERT_GT(answered, 0u);
  EXPECT_EQ(server().requests_served(), before + 1);

  // Same key again: a hit, while the cached answer is still fresh.
  EXPECT_EQ(proof_query(cache, "commitments/test"), answered);
  EXPECT_EQ(server().requests_served(), before + 1);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Seeing a block the cached proof does not commit to must drop the entry:
  // ABCI queries answer at the latest height.
  cache.on_height_advance(server(), answered + 1);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  const chain::Height reanswered = proof_query(cache, "commitments/test");
  EXPECT_EQ(server().requests_served(), before + 2);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Advancing to a height the entry already answers at keeps it cached.
  cache.on_height_advance(server(), reanswered);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST_F(QueryCacheFixture, LateAbciResponseIsNotCachedPastTheWatermark) {
  boot();
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);

  // Launch the query, then observe a newer height BEFORE the response lands
  // — exactly the reorder window the RPC worker pool widens: with several
  // queries in service at once, a response priced before a commit can
  // complete after the relayer already saw the next block's frame.
  chain::Height answered = 0;
  bool done = false;
  sim::spawn(cache.abci_query(server(), /*client=*/0, "commitments/late",
                              /*prove=*/true),
             [&](util::Result<rpc::Server::AbciQueryResult> res) {
               ASSERT_TRUE(res.is_ok());
               answered = res.value().height;
               done = true;
             });
  cache.on_height_advance(server(), tb->chain_a().ledger->height() + 3);
  while (!done && tb->scheduler().step()) {
  }
  ASSERT_TRUE(done);
  ASSERT_GT(answered, 0u);

  // The stale response was delivered to the caller but NOT cached: caching
  // it would pin a proof the chain has moved past until the next advance.
  EXPECT_EQ(cache.stats().stale_rejections, 1u);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // The follow-up query must therefore miss (fresh server round trip), not
  // serve the rejected stale payload.
  const std::uint64_t misses_before = cache.stats().misses;
  proof_query(cache, "commitments/late");
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(QueryCacheFixture, FreshInsertSurvivesEarlierWatermark) {
  boot();
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);

  // A watermark at (or below) the response height must not reject the
  // insert: only responses the chain has strictly moved past are stale.
  cache.on_height_advance(server(), 2);
  const chain::Height answered = proof_query(cache, "commitments/fresh");
  ASSERT_GE(answered, 2u);
  EXPECT_EQ(cache.stats().stale_rejections, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  proof_query(cache, "commitments/fresh");
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(QueryCacheFixture, WatermarksAreTrackedPerServer) {
  boot();
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);
  rpc::Server& other = *tb->chain_b().servers[0];

  // Advancing chain B's watermark far ahead must not poison inserts for
  // chain A's server: the two-chain relayer drives both through one cache.
  cache.on_height_advance(other, 1'000);
  proof_query(cache, "commitments/per-server");
  EXPECT_EQ(cache.stats().stale_rejections, 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST_F(QueryCacheFixture, PageHitsStayConsistentUnderWorkerPool) {
  boot();
  server().set_query_workers(4);
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);

  // Two distinct page queries in flight at once (the pool serves them
  // concurrently), then re-issue both: each must hit, and the pages served
  // from cache must match what the server returned — committed blocks are
  // immutable, so height-keyed pages never go stale.
  std::vector<std::uint32_t> first_counts;
  int pending = 2;
  for (chain::Height h = 2; h <= 3; ++h) {
    sim::spawn(cache.query_packet_events(server(), /*client=*/0, h,
                                         "send_packet", 1, 100),
               [&](util::Result<rpc::TxSearchPage> res) {
                 ASSERT_TRUE(res.is_ok());
                 first_counts.push_back(res.value().total_count);
                 --pending;
               });
  }
  while (pending > 0 && tb->scheduler().step()) {
  }
  ASSERT_EQ(pending, 0);
  EXPECT_EQ(cache.stats().misses, 2u);

  std::vector<std::uint32_t> again_counts;
  pending = 2;
  for (chain::Height h = 2; h <= 3; ++h) {
    sim::spawn(cache.query_packet_events(server(), /*client=*/0, h,
                                         "send_packet", 1, 100),
               [&](util::Result<rpc::TxSearchPage> res) {
                 ASSERT_TRUE(res.is_ok());
                 again_counts.push_back(res.value().total_count);
                 --pending;
               });
  }
  while (pending > 0 && tb->scheduler().step()) {
  }
  ASSERT_EQ(pending, 0);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(first_counts, again_counts);
}

TEST_F(QueryCacheFixture, LruEvictionKeepsBytesUnderBudget) {
  boot(8);
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  // Roughly two headers' worth (512 + 128 per commit signature each):
  // filling with six distinct heights must evict from the cold end.
  qc.max_bytes = 2'500;
  relayer::QueryCache cache(tb->scheduler(), qc);

  for (chain::Height h = 2; h <= 7; ++h) timed_header_query(cache, h);
  EXPECT_EQ(cache.stats().insertions, 6u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().bytes, qc.max_bytes);

  // The hottest entry survived; the coldest was evicted.
  const std::uint64_t hits_before = cache.stats().hits;
  timed_header_query(cache, 7);
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  const std::uint64_t misses_before = cache.stats().misses;
  timed_header_query(cache, 2);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST_F(QueryCacheFixture, TelemetryCountersMirrorStats) {
  boot(4, /*telemetry=*/true);
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(tb->scheduler(), qc);
  cache.set_telemetry(tb->hub(), "r0");

  timed_header_query(cache, 2);
  timed_header_query(cache, 2);

  const telemetry::Registry& reg = tb->hub()->registry();
  const telemetry::Counter* hits = reg.find_counter("r0.query_cache.hits");
  const telemetry::Counter* misses = reg.find_counter("r0.query_cache.misses");
  const telemetry::Gauge* bytes = reg.find_gauge("r0.query_cache.bytes");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(hits->value(), cache.stats().hits);
  EXPECT_EQ(misses->value(), cache.stats().misses);
  EXPECT_EQ(bytes->value(), static_cast<double>(cache.stats().bytes));
  EXPECT_GT(bytes->value(), 0.0);
  // Read-only lookup never registers.
  EXPECT_EQ(reg.find_counter("r0.query_cache.nope"), nullptr);
  // The repeated query's hit is also a span on the query_cache trace track.
  const std::string trace = tb->hub()->trace_sink().to_json();
  EXPECT_NE(trace.find("\"name\":\"hit_header\""), std::string::npos);
}

}  // namespace
