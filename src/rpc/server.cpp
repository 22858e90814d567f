#include "rpc/server.hpp"

#include <algorithm>
#include <cassert>

#include "telemetry/profiler.hpp"

namespace rpc {

Server::Server(sim::Scheduler& sched, net::Network& network,
               net::MachineId machine, chain::Ledger& ledger,
               chain::Mempool& mempool, cosmos::CosmosApp& app, CostModel cost,
               std::uint64_t seed)
    : sched_(sched),
      network_(network),
      machine_(machine),
      ledger_(ledger),
      mempool_(mempool),
      app_(app),
      cost_(cost),
      rng_(seed ^ (static_cast<std::uint64_t>(machine) << 32)),
      queue_(sched, cost.request_queue_capacity) {}

void Server::set_telemetry(telemetry::Hub* hub, const std::string& track_name) {
  hub_ = hub;
  flight_name_ = track_name;
  queue_.set_telemetry(hub, track_name);
  if (auto* m = telemetry::metrics(hub)) {
    frames_pushed_ctr_ = m->counter(track_name + ".ws_frames");
    frames_oversize_ctr_ = m->counter(track_name + ".ws_frames_oversize");
  }
}

sim::Duration Server::jittered(sim::Duration base) {
  if (cost_.service_jitter <= 0.0 || base <= 0) return base;
  const double f =
      rng_.uniform(1.0 - cost_.service_jitter, 1.0 + cost_.service_jitter);
  return static_cast<sim::Duration>(static_cast<double>(base) * f);
}

template <typename R, typename Cost, typename Respond>
sim::Task<R> Server::roundtrip(net::MachineId client,
                               std::uint64_t request_bytes, Cost service_cost,
                               std::uint64_t response_bytes, const char* label,
                               Respond respond) {
  // RPC runs over a reliable stream (TCP) in the real deployment, so even
  // when the fault-injected network duplicates a frame, the server handles
  // each request once and the client each response once: a leg's second
  // arrival calls a sim::Resume that has already fired. Duplication
  // therefore only reaches gossip and WebSocket push traffic end to end.
  co_await sim::callback([&](sim::Resume<> arrived) {
    network_.send(client, machine_, request_bytes, std::move(arrived));
  });
  // Service cost is priced when the request is enqueued; for ledger-reading
  // queries that is immaterial, because `respond` reads at completion time.
  const sim::Duration service = jittered(service_cost());
  bool accepted = false;
  co_await sim::callback([&](sim::Resume<> served) {
    accepted = queue_.enqueue(service, served, label);
    if (auto* f = telemetry::flight(hub_)) {
      // Journal the admission decision (the interesting outcome): a rejected
      // request is the overload signature the post-mortem needs to show.
      f->record(sched_.now(), "rpc",
                flight_name_ + " " + (label ? label : "request") +
                    (accepted ? " accepted" : " rejected"));
    }
    if (!accepted) served();
  });
  co_await sim::callback([&](sim::Resume<> answered) {
    network_.send(machine_, client, accepted ? response_bytes : 128,
                  std::move(answered));
  });
  if (!accepted) {
    co_return util::Status::error(util::ErrorCode::kUnavailable,
                                  "RPC request queue full");
  }
  // Reading the ledger and building the response is the RPC path's host-side
  // cost; the scope closes before the caller resumes.
  R response = [&] {
    telemetry::ProfileScope prof(telemetry::ProfileKey::kRpcService);
    return respond();
  }();
  co_return std::move(response);
}

sim::Task<util::Status> Server::broadcast_tx_sync(net::MachineId client,
                                                  chain::TxPtr tx) {
  const std::uint64_t req_bytes = tx->size_bytes();
  const sim::Duration service =
      cost_.broadcast_base +
      cost_.broadcast_per_msg * static_cast<sim::Duration>(tx->msgs.size());
  // Admission happens at service completion: CheckTx against the
  // then-current committed state.
  return roundtrip<util::Status>(
      client, req_bytes, [service] { return service; }, 256,
      "broadcast_tx_sync",
      [this, tx = std::move(tx)] { return mempool_.add(tx); });
}

TxResponse Server::make_response(chain::Height height,
                                 std::uint32_t index) const {
  const chain::Block* block = ledger_.block_at(height);
  const chain::BlockResults& results = ledger_.shared_results_at(height);
  assert(block && results && index < block->txs.size());
  return TxResponse{height, index, block->txs[index],
                    {results, &(*results)[index]}};
}

sim::Task<util::Result<TxResponse>> Server::query_tx(net::MachineId client,
                                                     chain::TxHash hash) {
  return roundtrip<util::Result<TxResponse>>(
      client, 128, [this] { return cost_.lookup_service; }, 2048, "query_tx",
      [this, hash]() -> util::Result<TxResponse> {
        const chain::TxLocation* loc = ledger_.find_tx(hash);
        if (!loc) {
          return util::Status::error(
              util::ErrorCode::kNotFound,
              "tx not found: " + util::to_hex(util::BytesView(hash.data(), 8)));
        }
        return make_response(loc->height, loc->index);
      });
}

sim::Task<util::Result<TxSearchPage>> Server::tx_search_height(
    net::MachineId client, chain::Height height, std::uint32_t page,
    std::uint32_t per_page) {
  // Service cost: scan the block's whole event payload; marshal one page.
  auto service = [this, height, per_page]() -> sim::Duration {
    const std::size_t block_bytes = ledger_.block_event_bytes(height);
    const chain::Block* block = ledger_.block_at(height);
    const std::size_t n = block ? block->txs.size() : 0;
    const std::size_t page_txs = std::min<std::size_t>(per_page, n);
    // Marshalled bytes ~ proportional share of the block's event payload.
    const std::size_t page_bytes =
        n > 0 ? block_bytes * page_txs / n : 0;
    return cost_.base_service + cost_.scan_cost(block_bytes) +
           cost_.marshal_cost(page_bytes);
  };
  const std::uint64_t resp_hint =
      std::min<std::uint64_t>(ledger_.block_event_bytes(height), 4 << 20);
  return roundtrip<util::Result<TxSearchPage>>(
      client, 192, service, resp_hint, "tx_search",
      [this, height, page, per_page]() -> util::Result<TxSearchPage> {
        const chain::Block* block = ledger_.block_at(height);
        if (!block) {
          return util::Status::error(
              util::ErrorCode::kNotFound,
              "no block at height " + std::to_string(height));
        }
        TxSearchPage out;
        out.total_count = static_cast<std::uint32_t>(block->txs.size());
        const std::size_t begin =
            static_cast<std::size_t>(page - 1) * per_page;
        const std::size_t end =
            std::min<std::size_t>(begin + per_page, block->txs.size());
        for (std::size_t i = begin; i < end; ++i) {
          out.txs.push_back(make_response(height, static_cast<std::uint32_t>(i)));
        }
        return out;
      });
}

Server::TxLocations Server::packet_matches(chain::Height height_begin,
                                           chain::Height height_end,
                                           const std::string& event_type,
                                           std::uint64_t seq_begin,
                                           std::uint64_t seq_end) const {
  TxLocations out;
  for (chain::Height h = std::max<chain::Height>(height_begin, 1);
       h <= std::min(height_end, ledger_.height()); ++h) {
    for (std::uint32_t i :
         ledger_.indexed_packet_txs(h, event_type, seq_begin, seq_end)) {
      out.emplace_back(h, i);
    }
  }
  return out;
}

std::size_t Server::event_bytes(const TxLocations& locs) const {
  std::size_t bytes = 0;
  for (const auto& [h, i] : locs) {
    bytes += (*ledger_.results_at(h))[i].encoded_size();
  }
  return bytes;
}

util::Result<TxSearchPage> Server::make_page(const TxLocations& locs) const {
  TxSearchPage out;
  out.total_count = static_cast<std::uint32_t>(locs.size());
  out.txs.reserve(locs.size());
  for (const auto& [h, i] : locs) out.txs.push_back(make_response(h, i));
  if (tamper_) {
    util::Status st = tamper_(out);
    if (!st.is_ok()) return st;
  }
  return out;
}

sim::Task<util::Result<TxSearchPage>> Server::query_packet_events(
    net::MachineId client, chain::Height height, std::string event_type,
    std::uint64_t seq_begin, std::uint64_t seq_end) {
  // Tendermint's indexer evaluates the query against every event in the
  // block, then marshals only the matching transactions. That scan is what
  // the query is charged (with the indexed-tx_search mitigation, an index
  // probe plus a per-match price instead); the host finds the matches in the
  // ledger's packet-event index either way.
  auto service = [this, height, event_type, seq_begin,
                  seq_end]() -> sim::Duration {
    const TxLocations locs =
        packet_matches(height, height, event_type, seq_begin, seq_end);
    const sim::Duration scan =
        cost_.indexed_tx_search
            ? cost_.indexed_scan_cost(1, locs.size())
            : cost_.scan_cost(ledger_.block_event_bytes(height));
    return cost_.base_service + scan + cost_.marshal_cost(event_bytes(locs));
  };
  return roundtrip<util::Result<TxSearchPage>>(
      client, 256, service, 1 << 20, "query_packet_events",
      [this, height, event_type = std::move(event_type), seq_begin,
       seq_end]() -> util::Result<TxSearchPage> {
        if (!ledger_.block_at(height)) {
          return util::Status::error(
              util::ErrorCode::kNotFound,
              "no block at height " + std::to_string(height));
        }
        return make_page(
            packet_matches(height, height, event_type, seq_begin, seq_end));
      });
}

sim::Task<util::Result<TxSearchPage>> Server::query_packet_events_range(
    net::MachineId client, chain::Height height_begin, chain::Height height_end,
    std::string event_type, std::uint64_t seq_begin, std::uint64_t seq_end) {
  auto service = [this, height_begin, height_end, event_type, seq_begin,
                  seq_end]() -> sim::Duration {
    const chain::Height lo = std::max<chain::Height>(height_begin, 1);
    const chain::Height hi = std::min(height_end, ledger_.height());
    const TxLocations locs =
        packet_matches(lo, hi, event_type, seq_begin, seq_end);
    sim::Duration scan = sim::kDurationZero;
    if (cost_.indexed_tx_search) {
      const std::size_t probed =
          hi >= lo ? static_cast<std::size_t>(hi - lo + 1) : 0;
      scan = cost_.indexed_scan_cost(probed, locs.size());
    } else {
      std::size_t scanned = 0;
      for (chain::Height h = lo; h <= hi; ++h) {
        scanned += ledger_.block_event_bytes(h);
      }
      scan = cost_.scan_cost(scanned);
    }
    return cost_.base_service + scan + cost_.marshal_cost(event_bytes(locs));
  };
  return roundtrip<util::Result<TxSearchPage>>(
      client, 256, service, 1 << 20, "query_packet_events_range",
      [this, height_begin, height_end, event_type = std::move(event_type),
       seq_begin, seq_end] {
        return make_page(packet_matches(height_begin, height_end, event_type,
                                        seq_begin, seq_end));
      });
}

sim::Task<util::Result<Server::AbciQueryResult>> Server::abci_query(
    net::MachineId client, std::string key, bool prove) {
  const sim::Duration service =
      cost_.abci_query_service + (prove ? cost_.proof_generation : sim::kDurationZero);
  return roundtrip<util::Result<AbciQueryResult>>(
      client, 192, [service] { return service; }, 2048, "abci_query",
      [this, key = std::move(key), prove]() -> util::Result<AbciQueryResult> {
        AbciQueryResult out;
        out.height = ledger_.height();
        const auto value = app_.store().get(key);
        out.exists = value.has_value();
        if (value) out.value = *value;
        if (prove) out.proof = app_.store().prove(key);
        return out;
      });
}

sim::Task<util::Result<std::vector<std::string>>> Server::abci_query_prefix(
    net::MachineId client, std::string prefix) {
  return roundtrip<util::Result<std::vector<std::string>>>(
      client, 192, [this] { return cost_.abci_query_service; }, 64 << 10,
      "abci_query_prefix", [this, prefix = std::move(prefix)] {
        return util::Result<std::vector<std::string>>(
            app_.store().keys_with_prefix(prefix));
      });
}

sim::Task<util::Result<Server::HeaderInfo>> Server::query_header(
    net::MachineId client, chain::Height height) {
  return roundtrip<util::Result<HeaderInfo>>(
      client, 96, [this] { return cost_.lookup_service; }, 2048,
      "query_header", [this, height]() -> util::Result<HeaderInfo> {
        const chain::Block* block = ledger_.block_at(height);
        const chain::Commit* commit = ledger_.seen_commit(height);
        const crypto::Digest* app_hash = ledger_.app_hash_after(height);
        if (!block || !commit || !app_hash) {
          return util::Status::error(
              util::ErrorCode::kNotFound,
              "no header at height " + std::to_string(height));
        }
        HeaderInfo info;
        info.header = block->header;
        info.commit = *commit;
        info.app_hash_after = *app_hash;
        return info;
      });
}

sim::Task<util::Result<Server::StatusInfo>> Server::status(
    net::MachineId client) {
  return roundtrip<util::Result<StatusInfo>>(
      client, 64, [this] { return cost_.lookup_service; }, 512, "status",
      [this] {
        StatusInfo info;
        info.height = ledger_.height();
        const chain::Block* b = ledger_.block_at(info.height);
        info.block_time = b ? b->header.time : 0;
        return util::Result<StatusInfo>(info);
      });
}

Server::SubscriptionId Server::subscribe_new_block(net::MachineId client,
                                                   FrameCallback cb) {
  subscriptions_.push_back(Subscription{next_subscription_, client, std::move(cb)});
  return next_subscription_++;
}

void Server::unsubscribe(SubscriptionId id) {
  std::erase_if(subscriptions_,
                [id](const Subscription& s) { return s.id == id; });
}

void Server::on_block_committed(const chain::Block& block) {
  if (subscriptions_.empty()) return;

  NewBlockFrame frame;
  frame.height = block.header.height;
  frame.block_time = block.header.time;
  frame.tx_count = block.txs.size();

  frame.frame_bytes = ledger_.block_event_bytes(frame.height) + 1024;

  if (frame.frame_bytes > cost_.websocket_max_frame_bytes) {
    // Paper §V: "Failed to collect events" — the subscriber receives the
    // block header notification but no event payload.
    frame.events_ok = false;
    ++frames_dropped_oversize_;
    if (frames_oversize_ctr_) frames_oversize_ctr_->add();
    frame.frame_bytes = 1024;
  } else {
    frame.events_ok = true;
    frame.results = ledger_.shared_results_at(frame.height);
  }

  // Pushing the frame costs the server marshal time (serialized with other
  // requests), then ships per subscriber.
  const sim::Duration service =
      cost_.base_service +
      cost_.websocket_marshal_cost(frame.events_ok ? frame.frame_bytes : 0);
  if (frames_pushed_ctr_) frames_pushed_ctr_->add();
  auto shared = std::make_shared<NewBlockFrame>(std::move(frame));
  queue_.enqueue(
      service,
      [this, shared]() {
        for (const Subscription& sub : subscriptions_) {
          auto cb = sub.cb;
          network_.send(machine_, sub.client, shared->frame_bytes,
                        [cb, shared]() { cb(*shared); });
        }
      },
      "ws_push");
}

}  // namespace rpc
