#pragma once
// Tendermint-style RPC server for one full node.
//
// All request handlers run through a single-server sim::ServiceQueue —
// Tendermint cannot execute queries in parallel, and that serialization is
// the paper's central bottleneck. Every call models client->server and
// server->client network latency (loopback when the client is colocated,
// exactly the paper's recommended production deployment).
//
// Endpoints mirror the subset of the Tendermint RPC + Cosmos LCD surface the
// Hermes relayer and the paper's measurement tool exercise:
//   broadcast_tx_sync, tx (by hash), tx_search (by height, paginated),
//   packet-event queries (chunked, what Hermes data pulls use),
//   abci_query (store reads with proofs), status, and a WebSocket
//   new-block event subscription with the 16 MB frame limit.
//
// Each request endpoint is one sim::Task: `co_await server.query_tx(...)`
// from a task, or sim::spawn(server.query_tx(...), on_done) from plain code.
// The request runs as one coroutine over three awaited legs (inbound frame,
// queue admission and service, outbound frame). RPC rides a reliable stream,
// so a frame the fault-injected network duplicates is served once and
// answered once: each leg resumes through a sim::Resume, which counts only
// its first call. The WebSocket subscription stays a callback: it is a push
// stream, not a round trip.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "chain/app.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "cosmos/app.hpp"
#include "net/network.hpp"
#include "rpc/cost_model.hpp"
#include "sim/scheduler.hpp"
#include "sim/service_queue.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace rpc {

/// A transaction as returned by query endpoints: its location, the sealed tx
/// and its execution result, both shared with the ledger.
struct TxResponse {
  chain::Height height = 0;
  std::uint32_t index = 0;
  chain::TxPtr tx;
  /// Points into the ledger's results for `height`. Immutable like the
  /// ledger's: a page edited through the tamper hook gets its own copy.
  std::shared_ptr<const chain::DeliverTxResult> result;

  /// Event payload size of this entry (drives marshal cost); cached in the
  /// ledger's result.
  std::size_t event_bytes() const { return result->encoded_size(); }
};

/// Result page for tx_search.
struct TxSearchPage {
  std::vector<TxResponse> txs;
  std::uint32_t total_count = 0;  // matches across all pages
};

/// One frame pushed on the new-block WebSocket subscription.
struct NewBlockFrame {
  chain::Height height = 0;
  sim::TimePoint block_time = 0;
  std::size_t tx_count = 0;
  /// False => the frame exceeded the 16 MB limit and the subscriber got
  /// "Failed to collect events" instead of the event list (paper §V).
  bool events_ok = true;
  std::size_t frame_bytes = 0;
  /// The block's DeliverTx results, whose events the frame announces: the
  /// ledger's allocation (null when events_ok is false).
  chain::BlockResults results;
};

class Server {
 public:
  Server(sim::Scheduler& sched, net::Network& network, net::MachineId machine,
         chain::Ledger& ledger, chain::Mempool& mempool, cosmos::CosmosApp& app,
         CostModel cost = {}, std::uint64_t seed = 0x59C0FFEE);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  net::MachineId machine() const { return machine_; }
  const CostModel& cost_model() const { return cost_; }

  /// Wires telemetry. `track_name` names this server's trace track (e.g.
  /// "src.m0.rpc"); every endpoint's queue-wait and service time lands there,
  /// labelled by endpoint. Also registers websocket frame counters.
  void set_telemetry(telemetry::Hub* hub, const std::string& track_name);

  /// Concurrent-RPC mitigation: a pool of N query workers draining the
  /// shared FIFO (the paper's bottleneck is N=1 — Tendermint serializes
  /// query execution). Worker assignment is deterministic (lowest free
  /// index), so N=1 is byte-identical to the original serialized queue.
  void set_query_workers(std::size_t n) { queue_.set_servers(n); }
  std::size_t query_workers() const { return queue_.servers(); }

  /// Per-worker utilisation (completed jobs + busy time) for worker `w` in
  /// [0, query_workers()).
  sim::ServiceQueue::WorkerStats worker_stats(std::size_t w) const {
    return queue_.worker_stats(w);
  }

  /// Fault-injection hook for tests: runs on every packet-event query
  /// response (single-block and range form) after the page is assembled but
  /// before delivery. The hook may mutate the page (e.g. point an entry's
  /// result at a copy with a corrupt ack event; results and payloads are
  /// shared with the ledger and never written) or return an error, which is
  /// delivered to the client in place of the page. Unset (the default) costs
  /// nothing.
  using QueryTamper = std::function<util::Status(TxSearchPage&)>;
  void set_query_tamper(QueryTamper tamper) { tamper_ = std::move(tamper); }

  // --- transaction submission -------------------------------------------
  // Each request endpoint is a task that finishes with the response at the
  // client; a request the full queue turns away finishes with kUnavailable.
  // Parameters are taken by value: the task runs long after the call.

  /// CheckTx + mempool admission of the sealed `tx`, which the mempool then
  /// holds as is. Answers the admission status;
  /// kResourceExhausted/kUnavailable indicate an overloaded server.
  sim::Task<util::Status> broadcast_tx_sync(net::MachineId client,
                                            chain::TxPtr tx);

  // --- queries ------------------------------------------------------------
  /// Single transaction by hash (confirmation checks).
  sim::Task<util::Result<TxResponse>> query_tx(net::MachineId client,
                                               chain::TxHash hash);

  /// All transactions in block `height`, paginated (`page` is 1-based).
  /// Models `tx_search tx.height=H` — the expensive full-data query the
  /// paper's data collection uses (§V).
  sim::Task<util::Result<TxSearchPage>> tx_search_height(
      net::MachineId client, chain::Height height, std::uint32_t page,
      std::uint32_t per_page);

  /// Chunked packet-event query: the Hermes "data pull". Returns the txs in
  /// block `height` that contain events of `event_type` whose packet
  /// sequence attribute falls in [seq_begin, seq_end]. Service cost
  /// scans the whole block's events and marshals the matches; the host looks
  /// the matches up in the ledger's packet-event index.
  sim::Task<util::Result<TxSearchPage>> query_packet_events(
      net::MachineId client, chain::Height height, std::string event_type,
      std::uint64_t seq_begin, std::uint64_t seq_end);

  /// Range variant used by packet clearing: scans every block in
  /// [height_begin, height_end] for matching packet events. Far more
  /// expensive than the single-block form — the indexer walks each block's
  /// event payload.
  sim::Task<util::Result<TxSearchPage>> query_packet_events_range(
      net::MachineId client, chain::Height height_begin,
      chain::Height height_end, std::string event_type,
      std::uint64_t seq_begin, std::uint64_t seq_end);

  /// ABCI store query at the latest committed height; optionally with an
  /// existence proof. The result also carries the height the data/proof
  /// commits to.
  struct AbciQueryResult {
    chain::Height height = 0;
    bool exists = false;
    util::Bytes value;
    chain::StoreProof proof;  // populated when prove=true
  };
  sim::Task<util::Result<AbciQueryResult>> abci_query(net::MachineId client,
                                                      std::string key,
                                                      bool prove);

  /// Keys under a store prefix (paginated upstream; full list here, the
  /// relayer chunks downstream). Used for packet clearing.
  sim::Task<util::Result<std::vector<std::string>>> abci_query_prefix(
      net::MachineId client, std::string prefix);

  /// Block header + the commit that finalized it + the post-execution app
  /// hash — everything a relayer needs to build a light-client update.
  struct HeaderInfo {
    chain::BlockHeader header;
    chain::Commit commit;
    crypto::Digest app_hash_after{};
  };
  sim::Task<util::Result<HeaderInfo>> query_header(net::MachineId client,
                                                   chain::Height height);

  /// Node status: latest height and block time.
  struct StatusInfo {
    chain::Height height = 0;
    sim::TimePoint block_time = 0;
  };
  sim::Task<util::Result<StatusInfo>> status(net::MachineId client);

  // --- WebSocket subscription ---------------------------------------------
  using SubscriptionId = std::uint64_t;
  using FrameCallback = std::function<void(const NewBlockFrame&)>;

  /// Subscribes to new-block event frames. Frames are pushed over the
  /// network to `client` as blocks commit.
  SubscriptionId subscribe_new_block(net::MachineId client, FrameCallback cb);
  void unsubscribe(SubscriptionId id);

  /// Wire this to consensus::Engine::subscribe_block: `block` is the
  /// ledger's newest. The frame carries the ledger's results for it, and
  /// its size is the ledger's cached block_event_bytes.
  void on_block_committed(const chain::Block& block);

  // --- statistics ----------------------------------------------------------
  std::uint64_t requests_served() const { return queue_.completed(); }
  std::uint64_t requests_rejected() const { return queue_.rejected(); }
  sim::Duration busy_time() const { return queue_.total_busy_time(); }
  /// Requests currently held by this server: waiting in the FIFO plus in
  /// service — the sampler's per-endpoint queue-depth probe.
  std::size_t queue_depth() const {
    return queue_.queued() + queue_.in_service();
  }
  std::uint64_t frames_dropped_oversize() const {
    return frames_dropped_oversize_;
  }

 private:
  /// Round-trips a request: the client->server leg, admission to the
  /// serialized queue (its service time, `service_cost()`, priced when the
  /// request arrives), the server->client leg, then `respond()` builds the
  /// response at the client. A request the full queue turns away is answered
  /// kUnavailable instead. `label` (string literal) names the service span
  /// in traces.
  template <typename R, typename Cost, typename Respond>
  sim::Task<R> roundtrip(net::MachineId client, std::uint64_t request_bytes,
                         Cost service_cost, std::uint64_t response_bytes,
                         const char* label, Respond respond);

  TxResponse make_response(chain::Height height, std::uint32_t index) const;

  /// (height, tx index) pairs of a packet-event query's matches.
  using TxLocations = std::vector<std::pair<chain::Height, std::uint32_t>>;
  /// Matches in the committed blocks of [height_begin, height_end], in
  /// (height, tx) order, from the ledger's packet-event index.
  TxLocations packet_matches(chain::Height height_begin,
                             chain::Height height_end,
                             const std::string& event_type,
                             std::uint64_t seq_begin,
                             std::uint64_t seq_end) const;
  /// Event bytes the responses for `locs` carry (drives marshal cost).
  std::size_t event_bytes(const TxLocations& locs) const;
  /// Builds the page for `locs` and passes it through the tamper hook, whose
  /// error replaces the page.
  util::Result<TxSearchPage> make_page(const TxLocations& locs) const;

  sim::Scheduler& sched_;
  net::Network& network_;
  net::MachineId machine_;
  chain::Ledger& ledger_;
  chain::Mempool& mempool_;
  cosmos::CosmosApp& app_;
  CostModel cost_;
  util::Rng rng_;
  sim::ServiceQueue queue_;

  /// Applies the configured service-time jitter to a base cost.
  sim::Duration jittered(sim::Duration base);

  struct Subscription {
    SubscriptionId id;
    net::MachineId client;
    FrameCallback cb;
  };
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_subscription_ = 1;
  QueryTamper tamper_;
  std::uint64_t frames_dropped_oversize_ = 0;
  telemetry::Hub* hub_ = nullptr;  // flight-recorder journaling only
  std::string flight_name_;        // this endpoint's journal tag
  telemetry::Counter* frames_pushed_ctr_ = nullptr;
  telemetry::Counter* frames_oversize_ctr_ = nullptr;
};

}  // namespace rpc
