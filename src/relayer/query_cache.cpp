#include "relayer/query_cache.hpp"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

namespace relayer {

namespace {

std::size_t page_bytes(const rpc::TxSearchPage& page) {
  // Estimated wire footprint: per-tx envelope + raw tx + event payload.
  std::size_t total = 256;
  for (const rpc::TxResponse& tx : page.txs) {
    total += 128 + tx.tx->size_bytes() + tx.event_bytes();
  }
  return total;
}

std::size_t header_bytes(const rpc::Server::HeaderInfo& info) {
  // Header + one commit signature per validator; a flat-rate stand-in is
  // fine since headers are small and uniform.
  return 512 + 128 * info.commit.signatures.size();
}

std::size_t abci_bytes(const rpc::Server::AbciQueryResult& res) {
  return 256 + res.value.size() + res.proof.key.size() +
         res.proof.value.size();
}

// The Registry counter mirroring each Stats counter, named under
// `<name>.query_cache.`.
constexpr struct {
  std::uint64_t QueryCache::Stats::*field;
  const char* name;
} kStatMetrics[] = {
    {&QueryCache::Stats::hits, "hits"},
    {&QueryCache::Stats::misses, "misses"},
    {&QueryCache::Stats::insertions, "insertions"},
    {&QueryCache::Stats::evictions, "evictions"},
    {&QueryCache::Stats::invalidations, "invalidations"},
    {&QueryCache::Stats::stale_rejections, "stale_rejections"},
};

}  // namespace

void QueryCache::set_telemetry(telemetry::Hub* hub, const std::string& name) {
  hub_ = hub;
  if (auto* t = telemetry::tracer(hub_)) {
    track_ = t->track(name, "query_cache");
  }
  if (auto* m = telemetry::metrics(hub_)) {
    static_assert(std::size(kStatMetrics) ==
                  std::extent_v<decltype(stat_ctr_)>);
    for (std::size_t i = 0; i < std::size(kStatMetrics); ++i) {
      stat_ctr_[i] = m->counter(name + ".query_cache." + kStatMetrics[i].name);
    }
    bytes_gauge_ = m->gauge(name + ".query_cache.bytes");
  }
}

void QueryCache::bump(std::uint64_t Stats::*field) {
  ++(stats_.*field);
  for (std::size_t i = 0; i < std::size(kStatMetrics); ++i) {
    if (kStatMetrics[i].field != field) continue;
    if (stat_ctr_[i]) stat_ctr_[i]->add();
    return;
  }
}

const QueryCache::Entry* QueryCache::lookup(const Key& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to hot end
  return &*it->second;
}

void QueryCache::insert(Key key, Payload payload, std::size_t bytes) {
  if (bytes > config_.max_bytes) return;  // would purge the whole cache
  if (index_.contains(key)) return;       // duplicate in-flight misses
  lru_.push_front(Entry{std::move(key), bytes, std::move(payload)});
  index_[lru_.front().key] = lru_.begin();
  stats_.bytes += bytes;
  bump(&Stats::insertions);
  while (stats_.bytes > config_.max_bytes) evict_coldest();
  if (bytes_gauge_) bytes_gauge_->set(static_cast<double>(stats_.bytes));
}

QueryCache::Index::iterator QueryCache::erase(Index::iterator it) {
  stats_.bytes -= it->second->bytes;
  lru_.erase(it->second);
  const auto next = index_.erase(it);
  if (bytes_gauge_) bytes_gauge_->set(static_cast<double>(stats_.bytes));
  return next;
}

void QueryCache::evict_coldest() {
  if (lru_.empty()) return;
  bump(&Stats::evictions);
  if (auto* t = telemetry::tracer(hub_)) {
    t->instant(track_, "evict", sched_.now());
  }
  erase(index_.find(lru_.back().key));
}

sim::Duration QueryCache::book_hit(const rpc::Server& server,
                                   const char* what) {
  bump(&Stats::hits);
  const sim::Duration cost = server.cost_model().cache_hit_cost;
  if (auto* t = telemetry::tracer(hub_)) {
    t->complete(track_, what, sched_.now(), cost);
  }
  return cost;
}

sim::Task<util::Result<rpc::TxSearchPage>> QueryCache::query_packet_events(
    rpc::Server& server, net::MachineId client, chain::Height height,
    std::string event_type, std::uint64_t seq_begin, std::uint64_t seq_end) {
  if (!config_.enabled) {
    return server.query_packet_events(client, height, std::move(event_type),
                                      seq_begin, seq_end);
  }
  return cached_packet_events(server, client, height, std::move(event_type),
                              seq_begin, seq_end);
}

sim::Task<util::Result<rpc::Server::HeaderInfo>> QueryCache::query_header(
    rpc::Server& server, net::MachineId client, chain::Height height) {
  if (!config_.enabled) return server.query_header(client, height);
  return cached_header(server, client, height);
}

sim::Task<util::Result<rpc::Server::AbciQueryResult>> QueryCache::abci_query(
    rpc::Server& server, net::MachineId client, std::string key, bool prove) {
  if (!config_.enabled) {
    return server.abci_query(client, std::move(key), prove);
  }
  return cached_abci(server, client, std::move(key), prove);
}

sim::Task<util::Result<rpc::TxSearchPage>> QueryCache::cached_packet_events(
    rpc::Server& server, net::MachineId client, chain::Height height,
    std::string event_type, std::uint64_t seq_begin, std::uint64_t seq_end) {
  Key key{&server, Kind::kPage, height, seq_begin, seq_end, false, event_type};
  if (const Entry* e = lookup(key)) {
    // A copy, taken now: the entry may be evicted while the hit is served.
    rpc::TxSearchPage page = std::get<rpc::TxSearchPage>(e->payload);
    co_await sim::delay(sched_, book_hit(server, "hit_page"));
    co_return std::move(page);
  }
  bump(&Stats::misses);
  util::Result<rpc::TxSearchPage> res = co_await server.query_packet_events(
      client, height, std::move(event_type), seq_begin, seq_end);
  if (res.is_ok()) {
    insert(std::move(key), res.value(), page_bytes(res.value()));
  }
  co_return std::move(res);
}

sim::Task<util::Result<rpc::Server::HeaderInfo>> QueryCache::cached_header(
    rpc::Server& server, net::MachineId client, chain::Height height) {
  Key key{&server, Kind::kHeader, height, 0, 0, false, {}};
  if (const Entry* e = lookup(key)) {
    rpc::Server::HeaderInfo info =
        std::get<rpc::Server::HeaderInfo>(e->payload);
    co_await sim::delay(sched_, book_hit(server, "hit_header"));
    co_return std::move(info);
  }
  bump(&Stats::misses);
  util::Result<rpc::Server::HeaderInfo> res =
      co_await server.query_header(client, height);
  if (res.is_ok()) {
    insert(std::move(key), res.value(), header_bytes(res.value()));
  }
  co_return std::move(res);
}

sim::Task<util::Result<rpc::Server::AbciQueryResult>> QueryCache::cached_abci(
    rpc::Server& server, net::MachineId client, std::string key_str,
    bool prove) {
  // Store queries answer at the latest committed height, so kAbci entries
  // key at height 0; the answer height rides in the cached payload itself
  // and on_height_advance judges staleness from it.
  Key probe{&server, Kind::kAbci, 0, 0, 0, prove, key_str};
  if (const Entry* e = lookup(probe)) {
    rpc::Server::AbciQueryResult res =
        std::get<rpc::Server::AbciQueryResult>(e->payload);
    co_await sim::delay(sched_, book_hit(server, "hit_proof"));
    co_return std::move(res);
  }
  bump(&Stats::misses);
  util::Result<rpc::Server::AbciQueryResult> res =
      co_await server.abci_query(client, std::move(key_str), prove);
  if (res.is_ok()) {
    // Guard against caching a response the chain has already moved past:
    // when this query was queued the height watermark may have advanced
    // (the worker pool reorders completions freely), and on_height_advance
    // has already swept — a late insert would pin a stale proof until the
    // next advance.
    const auto seen = observed_height_.find(&server);
    if (seen != observed_height_.end() && res.value().height < seen->second) {
      bump(&Stats::stale_rejections);
    } else {
      insert(std::move(probe), res.value(), abci_bytes(res.value()));
    }
  }
  co_return std::move(res);
}

void QueryCache::on_height_advance(const rpc::Server& server,
                                   chain::Height height) {
  if (!config_.enabled) return;
  chain::Height& seen = observed_height_[&server];
  seen = std::max(seen, height);
  for (auto it = index_.begin(); it != index_.end();) {
    const Key& k = it->first;
    if (k.kind == Kind::kAbci && k.server == &server &&
        std::get<rpc::Server::AbciQueryResult>(it->second->payload).height <
            height) {
      bump(&Stats::invalidations);
      it = erase(it);
    } else {
      ++it;
    }
  }
}

void QueryCache::invalidate_page(const rpc::Server& server,
                                 chain::Height height,
                                 const std::string& event_type,
                                 std::uint64_t seq_begin,
                                 std::uint64_t seq_end) {
  if (!config_.enabled) return;
  const Key key{&server, Kind::kPage, height, seq_begin, seq_end, false,
                event_type};
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bump(&Stats::invalidations);
  erase(it);
}

}  // namespace relayer
