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

void Server::roundtrip(net::MachineId client, std::uint64_t request_bytes,
                       std::function<sim::Duration()> service_cost,
                       std::uint64_t response_bytes_hint,
                       std::function<void()> deliver,
                       std::function<void()> on_reject, const char* label) {
  // RPC runs over a reliable stream (TCP) in the real deployment, so even
  // when the fault-injected network duplicates a frame, the server handles
  // each request once and the client handles each response once. Duplication
  // therefore only reaches gossip and WebSocket push traffic end to end;
  // RPC callers still see at-most-once callbacks.
  auto served = std::make_shared<bool>(false);
  auto delivered = std::make_shared<bool>(false);
  // Inbound leg.
  network_.send(client, machine_, request_bytes, [this, client, served,
                                                  delivered,
                                                  service_cost =
                                                      std::move(service_cost),
                                                  response_bytes_hint,
                                                  deliver = std::move(deliver),
                                                  on_reject =
                                                      std::move(on_reject),
                                                  label]() mutable {
    if (*served) return;
    *served = true;
    // Service cost is computed when service *starts*... more precisely when
    // the request is enqueued; for ledger-reading queries the difference is
    // immaterial because reads happen in `deliver` at completion time.
    const sim::Duration st = jittered(service_cost());
    const bool accepted = queue_.enqueue(
        st, [this, client, response_bytes_hint, delivered,
             deliver = std::move(deliver)]() mutable {
          // Outbound leg.
          network_.send(machine_, client, response_bytes_hint,
                        [delivered, deliver = std::move(deliver)]() mutable {
                          if (*delivered) return;
                          *delivered = true;
                          // `deliver` reads the ledger and builds the
                          // response — the RPC path's host-side cost.
                          telemetry::ProfileScope prof(
                              telemetry::ProfileKey::kRpcService);
                          deliver();
                        });
        },
        label);
    if (auto* f = telemetry::flight(hub_)) {
      // Journal the admission decision (the interesting outcome): a rejected
      // request is the overload signature the post-mortem needs to show.
      f->record(sched_.now(), "rpc",
                flight_name_ + " " + (label ? label : "request") +
                    (accepted ? " accepted" : " rejected"));
    }
    if (!accepted && on_reject) {
      network_.send(machine_, client, 128,
                    [delivered, on_reject = std::move(on_reject)]() mutable {
                      if (*delivered) return;
                      *delivered = true;
                      on_reject();
                    });
    }
  });
}

void Server::broadcast_tx_sync(net::MachineId client, chain::TxPtr tx,
                               std::function<void(util::Status)> cb) {
  const std::uint64_t req_bytes = tx->size_bytes();
  const sim::Duration service =
      cost_.broadcast_base +
      cost_.broadcast_per_msg * static_cast<sim::Duration>(tx->msgs.size());
  roundtrip(
      client, req_bytes, [service] { return service; }, 256,
      [this, tx = std::move(tx), cb]() {
        // Admission happens at service completion: CheckTx against the
        // then-current committed state.
        cb(mempool_.add(tx));
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "broadcast_tx_sync");
}

TxResponse Server::make_response(chain::Height height,
                                 std::uint32_t index) const {
  const chain::Block* block = ledger_.block_at(height);
  const chain::BlockResults& results = ledger_.shared_results_at(height);
  assert(block && results && index < block->txs.size());
  return TxResponse{height, index, block->txs[index],
                    {results, &(*results)[index]}};
}

void Server::query_tx(net::MachineId client, chain::TxHash hash,
                      std::function<void(util::Result<TxResponse>)> cb) {
  roundtrip(
      client, 128, [this] { return cost_.lookup_service; }, 2048,
      [this, hash, cb]() {
        const chain::TxLocation* loc = ledger_.find_tx(hash);
        if (!loc) {
          cb(util::Status::error(util::ErrorCode::kNotFound,
                                 "tx not found: " + util::to_hex(util::BytesView(
                                                       hash.data(), 8))));
          return;
        }
        cb(make_response(loc->height, loc->index));
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "query_tx");
}

void Server::tx_search_height(
    net::MachineId client, chain::Height height, std::uint32_t page,
    std::uint32_t per_page,
    std::function<void(util::Result<TxSearchPage>)> cb) {
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
  roundtrip(
      client, 192, service, resp_hint,
      [this, height, page, per_page, cb]() {
        const chain::Block* block = ledger_.block_at(height);
        if (!block) {
          cb(util::Status::error(util::ErrorCode::kNotFound,
                                 "no block at height " +
                                     std::to_string(height)));
          return;
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
        cb(std::move(out));
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "tx_search");
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

void Server::deliver_page(
    const TxLocations& locs,
    const std::function<void(util::Result<TxSearchPage>)>& cb) const {
  TxSearchPage out;
  out.total_count = static_cast<std::uint32_t>(locs.size());
  out.txs.reserve(locs.size());
  for (const auto& [h, i] : locs) out.txs.push_back(make_response(h, i));
  if (tamper_) {
    const util::Status st = tamper_(out);
    if (!st.is_ok()) {
      cb(st);
      return;
    }
  }
  cb(std::move(out));
}

void Server::query_packet_events(
    net::MachineId client, chain::Height height, const std::string& event_type,
    std::uint64_t seq_begin, std::uint64_t seq_end,
    std::function<void(util::Result<TxSearchPage>)> cb) {
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

  roundtrip(
      client, 256, service, 1 << 20,
      [this, height, event_type, seq_begin, seq_end, cb]() {
        if (!ledger_.block_at(height)) {
          cb(util::Status::error(util::ErrorCode::kNotFound,
                                 "no block at height " +
                                     std::to_string(height)));
          return;
        }
        deliver_page(
            packet_matches(height, height, event_type, seq_begin, seq_end),
            cb);
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "query_packet_events");
}

void Server::query_packet_events_range(
    net::MachineId client, chain::Height height_begin, chain::Height height_end,
    const std::string& event_type, std::uint64_t seq_begin,
    std::uint64_t seq_end, std::function<void(util::Result<TxSearchPage>)> cb) {
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

  roundtrip(
      client, 256, service, 1 << 20,
      [this, height_begin, height_end, event_type, seq_begin, seq_end, cb]() {
        deliver_page(packet_matches(height_begin, height_end, event_type,
                                    seq_begin, seq_end),
                     cb);
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "query_packet_events_range");
}

void Server::abci_query(
    net::MachineId client, const std::string& key, bool prove,
    std::function<void(util::Result<AbciQueryResult>)> cb) {
  const sim::Duration service =
      cost_.abci_query_service + (prove ? cost_.proof_generation : sim::kDurationZero);
  roundtrip(
      client, 192, [service] { return service; }, 2048,
      [this, key, prove, cb]() {
        AbciQueryResult out;
        out.height = ledger_.height();
        const auto value = app_.store().get(key);
        out.exists = value.has_value();
        if (value) out.value = *value;
        if (prove) out.proof = app_.store().prove(key);
        cb(std::move(out));
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "abci_query");
}

void Server::abci_query_prefix(net::MachineId client, const std::string& prefix,
                               std::function<void(std::vector<std::string>)> cb) {
  roundtrip(
      client, 192, [this] { return cost_.abci_query_service; }, 64 << 10,
      [this, prefix, cb]() { cb(app_.store().keys_with_prefix(prefix)); },
      [cb]() { cb({}); }, "abci_query_prefix");
}

void Server::query_header(net::MachineId client, chain::Height height,
                          std::function<void(util::Result<HeaderInfo>)> cb) {
  roundtrip(
      client, 96, [this] { return cost_.lookup_service; }, 2048,
      [this, height, cb]() {
        const chain::Block* block = ledger_.block_at(height);
        const chain::Commit* commit = ledger_.seen_commit(height);
        const crypto::Digest* app_hash = ledger_.app_hash_after(height);
        if (!block || !commit || !app_hash) {
          cb(util::Status::error(util::ErrorCode::kNotFound,
                                 "no header at height " +
                                     std::to_string(height)));
          return;
        }
        HeaderInfo info;
        info.header = block->header;
        info.commit = *commit;
        info.app_hash_after = *app_hash;
        cb(std::move(info));
      },
      [cb]() {
        cb(util::Status::error(util::ErrorCode::kUnavailable,
                               "RPC request queue full"));
      },
      "query_header");
}

void Server::status(net::MachineId client, std::function<void(StatusInfo)> cb) {
  roundtrip(
      client, 64, [this] { return cost_.lookup_service; }, 512,
      [this, cb]() {
        StatusInfo info;
        info.height = ledger_.height();
        const chain::Block* b = ledger_.block_at(info.height);
        info.block_time = b ? b->header.time : 0;
        cb(info);
      },
      [cb]() { cb(StatusInfo{}); }, "status");
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
