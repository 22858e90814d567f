#pragma once
// Hermes-like IBC relayer (paper §II-C, Fig. 4).
//
// Architecture mirrors Hermes v1:
//   * the Supervisor subscribes to new-block event frames from both chains'
//     full nodes (WebSocket) and dispatches work per channel;
//   * a PathWorker per direction plays the roles of Packet Command Worker +
//     Packet Workers: it schedules operations — data pulls, message builds,
//     broadcasts, timeouts, clearing — and executes them sequentially
//     (Hermes handles blocks sequentially; the paper's Fig. 12 pipeline is a
//     direct consequence);
//   * ChainEndpoints are the wallet + RPC client pairs through which all
//     chain interaction flows. The relayer NEVER touches chain internals
//     directly — every read is an RPC query against the (serialized) full
//     node, which is precisely where the paper finds 69% of the time going.
//
// Relayers are deliberately unaware of each other (ICS-18 gives them no
// coordination protocol); running two on one channel duplicates deliveries
// and burns fees — the "packet messages are redundant" failures of §IV-A.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <variant>

#include "ibc/gas.hpp"
#include "ibc/msgs.hpp"
#include "relayer/coordination.hpp"
#include "relayer/events.hpp"
#include "relayer/query_cache.hpp"
#include "relayer/wallet.hpp"
#include "rpc/server.hpp"
#include "sim/task.hpp"

namespace relayer {

/// One side of the relay path.
struct ChainHandle {
  rpc::Server* server = nullptr;     // full node this relayer queries
  chain::ChainId chain_id;
  std::vector<chain::Address> wallet_accounts;  // funded relayer wallet(s)
};

/// Channel topology (established during setup).
struct PathConfig {
  ibc::PortId port = ibc::kTransferPort;
  ibc::ChannelId channel_a;     // channel id on chain A
  ibc::ChannelId channel_b;     // channel id on chain B
  ibc::ClientId client_on_a;    // client of B hosted on A
  ibc::ClientId client_on_b;    // client of A hosted on B
};

struct RelayerConfig {
  net::MachineId machine = 0;
  /// Gas headroom multiplier over the estimated message gas.
  double gas_headroom = 1.15;
  double gas_price = 0.01;
  /// Clear (re-scan commitments for unrelayed packets) every N source
  /// blocks; 0 disables clearing — with a failed WebSocket frame this is
  /// what leaves packets permanently stuck (paper §V).
  std::int64_t clear_interval = 0;
  /// Paper §V: after a "Failed to collect events" frame, Hermes's event
  /// source enters a bad state and later transactions are not delivered
  /// either ("...but also impacts future transactions"). true reproduces
  /// that: event extraction from the failed chain stays disabled (height
  /// tracking and clearing still work). false models a fixed relayer.
  bool websocket_failure_sticky = true;
  /// Memoize data-pull responses (paper §VI's proposed mitigation). Off by
  /// default: the paper measured an uncached Hermes and the golden figures
  /// depend on every pull paying the serial-RPC scan cost.
  QueryCacheConfig query_cache;
  /// Skip chunk queries whose every sequence was already satisfied by
  /// ride-along events from an earlier whole-transaction response. Off by
  /// default: real Hermes issues the redundant queries, and the paper's
  /// Fig. 12 pull times were measured with them — this is a mitigation
  /// knob (exercised with the cache ablation), not a faithful behaviour.
  bool skip_satisfied_chunks = false;
  /// Non-redundant submit failures (and malformed-ack re-pulls) tolerated
  /// per packet per direction before the relayer gives up on it; abandoned
  /// packets surface in Stats::abandoned_packets instead of looping through
  /// clearing forever.
  int max_submit_failures = 3;
  /// Delay before re-pulling ack data after a malformed packet_ack event
  /// (decode failure); the fresh query usually returns an intact payload.
  sim::Duration ack_repull_backoff = sim::seconds(5);
  /// Crash-recovery: on start(), re-hydrate pending work from queryable
  /// chain state instead of assuming a clean slate. The relayer's packet
  /// table is in-memory only, so a restarted instance has lost every
  /// in-flight packet; with this on, start() scans the source chain's
  /// outstanding commitments (a clear pass) and the destination chain's
  /// recent write_acknowledgement events (over the last 1,000 blocks) to
  /// rebuild it. Off by default: a first start has nothing to recover and
  /// the extra queries would shift every seeded timeline.
  bool startup_rescan = false;
  /// Fleet coordination (mitigation for Fig. 9's redundant-work loss):
  /// partitions packet ownership across relayer instances. kNone by default
  /// — ICS-18 relayers race, exactly as the paper measured.
  CoordinationConfig coordination;
  /// Mesh routing/placement policy: source-channel ids (on chain A) this
  /// instance relays packets for. Empty = serve every channel on the path
  /// (the single-channel behaviour).
  std::set<ibc::ChannelId> served_channels;
  /// Maximum fee (gas * gas_price) this instance will pay for a single
  /// recv-packet message; 0 = unlimited. A hop whose estimated relay fee
  /// exceeds the budget is left for better-funded instances.
  double per_hop_fee_budget = 0;
  /// Route-hop index this instance's 13-step records are tagged with (0 =
  /// the classic single-hop lane; hop h of a multi-hop route gets its own
  /// telemetry lane in the StepLog CSV and trace spans).
  std::uint16_t telemetry_hop = 0;
  WalletConfig wallet;  // accounts are filled per chain from ChainHandle
};

/// The MsgUpdateClient that moves `client_id` to the header a full node
/// served (relayer client updates and the channel handshake's proofs).
chain::Msg update_client_msg(const ibc::ClientId& client_id,
                             const rpc::Server::HeaderInfo& info);

/// Outcome of a chunked data pull (Relayer::pull_chunks).
enum class PullResult : std::uint8_t {
  kComplete,        // every chunk was queried (or skipped as satisfied)
  kNothingToPull,   // degenerate empty sequence list — no query was issued
  kPartialFailure,  // at least one chunk query returned an error
};

class Relayer {
 public:
  Relayer(sim::Scheduler& sched, ChainHandle a, ChainHandle b, PathConfig path,
          RelayerConfig config, StepLog* step_log);
  ~Relayer();

  Relayer(const Relayer&) = delete;
  Relayer& operator=(const Relayer&) = delete;

  /// Subscribes to both chains and begins relaying.
  void start();
  void stop();

  /// Wires telemetry. Each worker lane gets a trace track under process
  /// `name` ("recv" and "ack/timeout"); every queued operation becomes a
  /// complete span covering assemble-through-submit, so relayer batch growth
  /// under load (paper Fig. 8) is visible on the timeline. Also registers
  /// per-op counters and batch-size histograms.
  void set_telemetry(telemetry::Hub* hub, const std::string& name);

  struct Stats {
    std::uint64_t packets_relayed = 0;       // recv committed on dst
    std::uint64_t packets_completed = 0;     // ack committed on src
    std::uint64_t packets_timed_out = 0;     // timeout committed on src
    std::uint64_t redundant_errors = 0;      // "packet messages are redundant"
    std::uint64_t frames_failed = 0;         // "Failed to collect events"
    std::uint64_t recv_txs_failed = 0;
    std::uint64_t ack_txs_failed = 0;
    std::uint64_t chunk_queries = 0;          // paid data-pull chunk queries
    std::uint64_t chunk_queries_skipped = 0;  // satisfied by ride-alongs
    std::uint64_t pull_query_failures = 0;    // chunk queries that errored
    std::uint64_t ack_decode_failures = 0;    // malformed packet_ack payloads
    std::uint64_t abandoned_packets = 0;      // gave up after bounded retries
    std::uint64_t coordination_skipped = 0;   // packets owned by a peer
    std::uint64_t routing_skipped = 0;        // unserved channel / over budget
  };
  const Stats& stats() const { return stats_; }
  Wallet& wallet_a() { return *wallet_a_; }
  Wallet& wallet_b() { return *wallet_b_; }
  const QueryCache& query_cache() const { return cache_; }

  /// Pending-table occupancy by lifecycle stage — the sampler's per-stage
  /// probe columns (paper Fig. 8's backlog, split by where packets sit).
  struct StageCounts {
    std::size_t extracted = 0;
    std::size_t pulled = 0;
    std::size_t recv_in_flight = 0;
    std::size_t recv_done = 0;
    std::size_t ack_in_flight = 0;
    std::size_t done = 0;
    std::size_t timed_out = 0;
    std::size_t abandoned = 0;
    /// Entries still moving through the pipeline (non-terminal stages).
    std::size_t in_flight() const {
      return extracted + pulled + recv_in_flight + recv_done + ack_in_flight;
    }
  };
  StageCounts stage_counts() const;
  /// Operations held by worker lane 0 (recv) or 1 (ack/timeout): queued
  /// plus the one executing. A wedged lane shows as a depth that never
  /// drains.
  std::size_t lane_depth(int lane) const;
  /// Source-block age of the oldest packet still in flight (0 when the
  /// table has no non-terminal entry) — the stalled-packet watchdog input.
  chain::Height oldest_pending_blocks() const;

 private:
  // The relayer tracks each packet through these stages.
  enum class Stage : std::uint8_t {
    kExtracted,    // seen in a send_packet event
    kPulled,       // packet data retrieved
    kRecvInFlight, // recv tx broadcast
    kRecvDone,     // recv committed on dst
    kAckInFlight,  // ack tx broadcast
    kDone,         // ack committed on src (transfer complete)
    kTimedOut,     // MsgTimeout committed on src (refunded)
    kAbandoned,    // gave up after bounded retries (terminal; counted)
  };

  struct PacketState {
    Stage stage = Stage::kExtracted;
    chain::Height src_height = 0;   // block containing the send_packet event
    std::optional<ibc::Packet> packet;
    std::optional<ibc::Acknowledgement> ack;
    // Bounded-retry bookkeeping (per direction; see RelayerConfig caps).
    std::uint8_t recv_retries = 0;     // redundant-batch rebuilds
    std::uint8_t ack_retries = 0;
    std::uint8_t recv_failures = 0;    // non-redundant submit failures
    std::uint8_t ack_repulls = 0;      // malformed-ack re-pull attempts
    bool ack_decode_failed = false;    // last pull had an undecodable ack
    bool ack_tx_failed = false;        // ack broadcast failed; clear redrives
  };

  // Operations executed sequentially by the path worker, one payload type
  // per kind. The alternative fixes the op's worker lane, its trace span
  // name and its `<name>.ops.<kind>` counter (kOps in relayer.cpp).
  struct RelayBatchOp {
    chain::Height src_height;
    std::vector<ibc::Sequence> seqs;
  };
  struct AckBatchOp {
    chain::Height dst_height;
    std::vector<ibc::Sequence> seqs;
  };
  struct TimeoutBatchOp {
    std::vector<ibc::Sequence> seqs;
  };
  struct ClearOp {
    chain::Height scan_from;
    chain::Height scan_to;
  };
  struct RetryRecvOp {
    std::vector<ibc::Sequence> seqs;
  };
  struct RetryAckOp {
    std::vector<ibc::Sequence> seqs;
  };
  struct AckScanOp {  // height window of dst write_acknowledgement events
    chain::Height scan_from;
    chain::Height scan_to;
  };
  using Op = std::variant<RelayBatchOp, AckBatchOp, TimeoutBatchOp, ClearOp,
                          RetryRecvOp, RetryAckOp, AckScanOp>;

  /// One assembled packet message waiting for its transaction.
  struct BuiltMsg {
    ibc::Sequence seq;
    chain::Height proof_height;  // the client update the message needs
    chain::Msg msg;
    std::uint64_t gas;  // estimated execution gas, before headroom
  };

  /// What one direction of the build-and-submit pipeline needs: the recv
  /// leg proves commitments on A and submits to B, the ack leg proves acks
  /// on B and submits to A (timeouts share its client update and wallet).
  struct Leg {
    rpc::Server* server;  // proofs and client-update headers come from here
    std::string (*proof_key)(const ibc::PortId&, const ibc::ChannelId&,
                             ibc::Sequence);
    ibc::ChannelId proof_channel;  // the channel end proof_key names
    Wallet* wallet;                // submits on the other chain
    ibc::ClientId client;          // that chain's client of `server`'s chain
    Stage ready;                   // packets are built from this stage...
    Stage in_flight;               // ...and move here when broadcast
    Step build;
    Step broadcast;
    bool needs_ack;  // the message carries the decoded acknowledgement
    // Per direction: the message constructor and the commit bookkeeping.
    BuiltMsg (Relayer::*make_msg)(const PacketState&,
                                  const rpc::Server::AbciQueryResult&) const;
    void (Relayer::*committed)(const std::vector<ibc::Sequence>&,
                               const Wallet::SubmitOutcome&);
  };

  // Frame handling (Supervisor).
  void on_frame_a(const rpc::NewBlockFrame& frame);
  void on_frame_b(const rpc::NewBlockFrame& frame);

  /// Admission of a packet this instance has not tracked yet: the routing
  /// policy (served_channels membership + per-hop fee budget), then fleet
  /// coordination at source height `height`. Counts the skip on refusal.
  bool admits(ibc::Sequence seq, chain::Height height);

  // Worker loops. Hermes runs separate packet workers per direction of
  // work; we model that as two sequential pumps running concurrently: the
  // recv path (queries chain A, submits to B) and the ack/timeout path
  // (queries chain B, submits to A). Each pump is internally sequential —
  // blocks are handled in order, as the paper observes. An op runs as one
  // task, which stops wherever it finds the relayer stopped.
  void enqueue(Op op);
  void pump(int lane);
  /// Runs `op` to completion, then frees `lane` for its next op.
  sim::Task<> run_op(int lane, Op op);
  // One handler per op kind; run_op() dispatches on the alternative.
  sim::Task<> run(RelayBatchOp op);
  sim::Task<> run(AckBatchOp op);
  sim::Task<> run(TimeoutBatchOp op);
  sim::Task<> run(ClearOp op);
  sim::Task<> run(RetryRecvOp op);
  sim::Task<> run(RetryAckOp op);
  /// Startup re-scan (RelayerConfig::startup_rescan): walks the destination
  /// chain's write_acknowledgement events over a height window and restores
  /// packets that were delivered but not yet acknowledged when the previous
  /// instance crashed, then drives their acks.
  sim::Task<> run(AckScanOp op);

  /// The relay and ack batches' data pull: one packet-event query per chunk
  /// of `seqs`, in order.
  sim::Task<PullResult> pull_chunks(rpc::Server* server, chain::Height height,
                                    const std::string& event_type,
                                    const std::vector<ibc::Sequence>& seqs);

  /// True when every tracked sequence in seqs[begin, end) already has the
  /// data this pull is after (ride-along events from an earlier chunk's
  /// whole-transaction response).
  bool chunk_satisfied(const std::string& event_type,
                       const std::vector<ibc::Sequence>& seqs,
                       std::size_t begin, std::size_t end) const;

  /// Terminal give-up after bounded retries: counts, logs, and parks the
  /// packet in Stage::kAbandoned so no lane touches it again.
  void abandon_packet(ibc::Sequence seq, PacketState& ps, const char* why);

  /// A transaction ready for a wallet: the client updates, then the packet
  /// messages, and the gas limit that covers them.
  struct TxPlan {
    std::vector<chain::Msg> msgs;
    std::uint64_t gas = 0;
  };

  // The build-and-submit pipeline, as Hermes' packet worker runs it for
  // either direction: prove each packet still in leg.ready, cut txs of at
  // most kMaxMsgsPerTx messages, and submit each behind one client update
  // per proof height (with_client_updates, which timeouts use too).
  sim::Task<> build_and_submit(const Leg& leg, std::vector<ibc::Sequence> seqs);
  sim::Task<> send_txs(const Leg& leg, std::vector<BuiltMsg> msgs);
  sim::Task<TxPlan> with_client_updates(const Leg& leg,
                                        std::vector<BuiltMsg> msgs);
  BuiltMsg recv_msg(const PacketState& ps,
                    const rpc::Server::AbciQueryResult& proof) const;
  BuiltMsg ack_msg(const PacketState& ps,
                   const rpc::Server::AbciQueryResult& proof) const;
  void recv_committed(const std::vector<ibc::Sequence>& seqs,
                      const Wallet::SubmitOutcome& out);
  void ack_committed(const std::vector<ibc::Sequence>& seqs,
                     const Wallet::SubmitOutcome& out);
  /// The packet data a leg's message carries is at hand.
  static bool has_msg_data(const Leg& leg, const PacketState& ps) {
    return ps.packet && (ps.ack || !leg.needs_ack);
  }

  void record(Step step, ibc::Sequence seq);
  void check_timeouts();
  /// The one increment site of a Stats field and its Registry mirror.
  void bump(std::uint64_t Stats::*field);
  /// The members of `seqs` whose tracked packet sits in `stage`.
  std::vector<ibc::Sequence> in_stage(const std::vector<ibc::Sequence>& seqs,
                                      Stage stage) const;
  /// First height of the startup re-scan window ending at `to`.
  static chain::Height rescan_from(chain::Height to);

  /// The zero-delay event the build, send, submit and timeout loops each
  /// schedule where they end (see relayer.cpp).
  void parity_event();

  /// Gas limit for a tx of `updates` client updates plus packet messages
  /// whose gas sums to `msgs_gas`.
  std::uint64_t estimate_gas(std::size_t updates, std::uint64_t msgs_gas) const;

  sim::Scheduler& sched_;
  ChainHandle a_;
  ChainHandle b_;
  PathConfig path_;
  RelayerConfig config_;
  StepLog* step_log_;
  ibc::GasTable gas_;

  telemetry::Hub* hub_ = nullptr;
  telemetry::TrackId lane_track_[2] = {0, 0};
  telemetry::Counter* op_ctr_[std::variant_size_v<Op>] = {};
  // Registry mirrors of the Stats fields (kStatMetrics order), so metrics.csv
  // and the virtual-time sampler see them (Stats itself is only read at the
  // end of a run).
  telemetry::Counter* stat_ctr_[sizeof(Stats) / sizeof(std::uint64_t)] = {};
  telemetry::Histogram* relay_batch_hist_ = nullptr;
  telemetry::Histogram* ack_batch_hist_ = nullptr;
  std::string flight_name_;  // journal tag for the flight recorder

  QueryCache cache_;
  std::unique_ptr<Wallet> wallet_a_;
  std::unique_ptr<Wallet> wallet_b_;
  Leg recv_leg_{};
  Leg ack_leg_{};

  std::map<ibc::Sequence, PacketState> packets_;
  std::deque<Op> ops_[2];        // lane 0: relay/clear; lane 1: ack/timeout
  bool op_running_[2] = {false, false};
  // Bumped on every start(): a stop() mid-op abandons the op's task, so
  // restart must clear op_running_ itself — and an op task of the previous
  // life that resumes into the new one must not unlock a lane the new life
  // is using when it finishes.
  std::uint64_t lane_epoch_ = 0;
  bool running_ = false;
  CoordinationPolicy coordination_;
  bool serves_path_ = true;  // path_.channel_a in served_channels (or empty)
  bool fee_ok_ = true;       // estimated recv fee within per_hop_fee_budget
  rpc::Server::SubscriptionId sub_a_ = 0;
  rpc::Server::SubscriptionId sub_b_ = 0;
  chain::Height last_seen_a_height_ = 0;
  chain::Height last_seen_b_height_ = 0;
  chain::Height last_clear_height_ = 0;
  bool ws_wedged_a_ = false;  // §V sticky event-collection failure
  bool ws_wedged_b_ = false;
  std::set<ibc::Sequence> timeout_candidates_;

  Stats stats_;
};

}  // namespace relayer
