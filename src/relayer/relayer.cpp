#include "relayer/relayer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <type_traits>

#include "ibc/forward.hpp"
#include "ibc/host.hpp"
#include "telemetry/profiler.hpp"
#include "util/log.hpp"

namespace relayer {

namespace {

// Indexed by Op alternative: the op's span + counter name and its worker
// lane (0 = recv, 1 = ack/timeout).
constexpr struct {
  const char* name;
  int lane;
} kOps[] = {{"relay_batch", 0}, {"ack_batch", 1},  {"timeout_batch", 1},
            {"clear", 0},       {"retry_recv", 0}, {"retry_ack", 1},
            {"ack_scan", 1}};

// The Registry counter mirroring each Stats field, named under the
// relayer's telemetry name.
constexpr struct {
  std::uint64_t Relayer::Stats::*field;
  const char* name;
} kStatMetrics[] = {
    {&Relayer::Stats::packets_relayed, ".packets_relayed"},
    {&Relayer::Stats::packets_completed, ".packets_completed"},
    {&Relayer::Stats::packets_timed_out, ".packets_timed_out"},
    {&Relayer::Stats::redundant_errors, ".redundant_errors"},
    {&Relayer::Stats::frames_failed, ".frames_failed"},
    {&Relayer::Stats::recv_txs_failed, ".recv_txs_failed"},
    {&Relayer::Stats::ack_txs_failed, ".ack_txs_failed"},
    {&Relayer::Stats::chunk_queries, ".pull.chunk_queries"},
    {&Relayer::Stats::chunk_queries_skipped, ".pull.chunks_skipped"},
    {&Relayer::Stats::pull_query_failures, ".pull.query_failures"},
    {&Relayer::Stats::ack_decode_failures, ".pull.ack_decode_failures"},
    {&Relayer::Stats::abandoned_packets, ".abandoned_packets"},
    {&Relayer::Stats::coordination_skipped, ".coordination_skipped"},
    {&Relayer::Stats::routing_skipped, ".routing_skipped"},
};

// Hermes bundles at most 100 messages per transaction (§III-D).
constexpr std::size_t kMaxMsgsPerTx = 100;
// Packet-event queries are chunked by sequence ranges of this size.
constexpr std::size_t kEventQueryChunk = 50;
// CPU time to assemble one IBC message (proof decoding, encoding).
constexpr sim::Duration kBuildCpuPerMsg = sim::micros(1'500);
// Rebuild-and-resubmit retries per packet per direction after a "redundant
// packet" batch failure (Hermes retries a failed batch once, §IV-A). The
// rebuilt batch re-enters its lane at once, as in Hermes.
constexpr std::uint8_t kMaxPacketRetries = 1;
// How many destination blocks the startup ack re-scan walks back.
constexpr chain::Height kStartupRescanDepth = 1'000;

}  // namespace

Relayer::Relayer(sim::Scheduler& sched, ChainHandle a, ChainHandle b,
                 PathConfig path, RelayerConfig config, StepLog* step_log)
    : sched_(sched),
      a_(std::move(a)),
      b_(std::move(b)),
      path_(std::move(path)),
      config_(std::move(config)),
      step_log_(step_log),
      cache_(sched, config_.query_cache),
      coordination_(config_.coordination) {
  serves_path_ = config_.served_channels.empty() ||
                 config_.served_channels.count(path_.channel_a) > 0;
  fee_ok_ = config_.per_hop_fee_budget <= 0 ||
            static_cast<double>(estimate_gas(1, gas_.recv_packet)) *
                    config_.gas_price <=
                config_.per_hop_fee_budget;
  const auto make_wallet = [this](const ChainHandle& h) {
    WalletConfig wc = config_.wallet;
    wc.accounts = h.wallet_accounts;
    wc.gas_price = config_.gas_price;
    wc.optimistic_sequencing = true;
    return std::make_unique<Wallet>(sched_, *h.server, config_.machine, wc);
  };
  wallet_a_ = make_wallet(a_);
  wallet_b_ = make_wallet(b_);
  recv_leg_ = Leg{a_.server, &ibc::host::packet_commitment_key,
                  path_.channel_a, wallet_b_.get(), path_.client_on_b,
                  Stage::kPulled, Stage::kRecvInFlight,
                  Step::kRecvBuild, Step::kRecvBroadcast,
                  /*needs_ack=*/false, &Relayer::recv_msg,
                  &Relayer::recv_committed};
  ack_leg_ = Leg{b_.server, &ibc::host::packet_ack_key,
                 path_.channel_b, wallet_a_.get(), path_.client_on_a,
                 Stage::kRecvDone, Stage::kAckInFlight,
                 Step::kAckBuild, Step::kAckBroadcast,
                 /*needs_ack=*/true, &Relayer::ack_msg,
                 &Relayer::ack_committed};
}

Relayer::~Relayer() {
  stop();
}

void Relayer::start() {
  assert(!running_);
  running_ = true;
  // A fresh process has a fresh event source: a wedge inherited from a
  // previous life would be a bug, not §V behaviour.
  ws_wedged_a_ = false;
  ws_wedged_b_ = false;
  // Likewise a fresh op queue: a stop() mid-op dropped that op's done()
  // continuation, so op_running_ would stay true forever and the lane would
  // never pump again (the startup rescan below would sit queued behind it).
  ++lane_epoch_;
  for (int lane = 0; lane < 2; ++lane) {
    ops_[lane].clear();
    op_running_[lane] = false;
  }
  // Nothing is genuinely in flight after a restart: every op and wallet
  // submission of the previous life dropped its continuation. Surviving table
  // entries parked in transient stages would otherwise be skipped by both
  // the clear pass and the ack scan and strand forever.
  for (auto& [seq, ps] : packets_) {
    (void)seq;
    switch (ps.stage) {
      case Stage::kRecvInFlight:
        // Recv outcome unknown; re-relaying is safe (redundant at worst).
        ps.stage = Stage::kPulled;
        break;
      case Stage::kAckInFlight:
        ps.stage = Stage::kRecvDone;
        ps.ack_tx_failed = true;  // clear redrives; no-op if ack committed
        break;
      case Stage::kRecvDone:
        if (ps.packet && ps.ack) ps.ack_tx_failed = true;
        break;
      default:
        break;
    }
  }
  sub_a_ = a_.server->subscribe_new_block(
      config_.machine, [this](const rpc::NewBlockFrame& f) {
        if (running_) on_frame_a(f);
      });
  sub_b_ = b_.server->subscribe_new_block(
      config_.machine, [this](const rpc::NewBlockFrame& f) {
        if (running_) on_frame_b(f);
      });
  if (!config_.startup_rescan) return;
  // Crash recovery: the packet table is in-memory only, so everything
  // in flight when the previous instance died is gone. Rebuild it from
  // queryable chain state — outstanding commitments on the source (a clear
  // pass over a bounded window) and recent write_acknowledgement events on
  // the destination (packets delivered but never acknowledged).
  // A node too busy to answer leaves nothing to re-scan, as a chain at
  // height 0 does.
  sim::spawn(a_.server->status(config_.machine),
             [this](util::Result<rpc::Server::StatusInfo> info) {
               if (!running_ || !info.is_ok()) return;
               const chain::Height h = info.value().height;
               if (h == 0) return;
               last_clear_height_ = h;
               enqueue(ClearOp{rescan_from(h), h});
             });
  sim::spawn(b_.server->status(config_.machine),
             [this](util::Result<rpc::Server::StatusInfo> info) {
               if (!running_ || !info.is_ok()) return;
               const chain::Height h = info.value().height;
               if (h == 0) return;
               last_seen_b_height_ = std::max(last_seen_b_height_, h);
               enqueue(AckScanOp{rescan_from(h), h});
             });
}

void Relayer::stop() {
  if (!running_) return;
  running_ = false;
  a_.server->unsubscribe(sub_a_);
  b_.server->unsubscribe(sub_b_);
}

void Relayer::set_telemetry(telemetry::Hub* hub, const std::string& name) {
  static_assert(std::size(kOps) == std::variant_size_v<Op>);
  static_assert(std::size(kStatMetrics) == std::extent_v<decltype(stat_ctr_)>);
  hub_ = hub;
  if (auto* t = telemetry::tracer(hub_)) {
    lane_track_[0] = t->track(name, "recv");
    lane_track_[1] = t->track(name, "ack/timeout");
  }
  if (auto* m = telemetry::metrics(hub_)) {
    for (std::size_t i = 0; i < std::size(kOps); ++i) {
      op_ctr_[i] = m->counter(name + ".ops." + kOps[i].name);
    }
    for (std::size_t i = 0; i < std::size(kStatMetrics); ++i) {
      stat_ctr_[i] = m->counter(name + kStatMetrics[i].name);
    }
    const std::vector<double> bounds = {1, 2, 5, 10, 20, 50, 100, 200};
    relay_batch_hist_ = m->histogram(name + ".relay_batch_size", bounds);
    ack_batch_hist_ = m->histogram(name + ".ack_batch_size", bounds);
  }
  flight_name_ = name;
  cache_.set_telemetry(hub, name);
}

Relayer::StageCounts Relayer::stage_counts() const {
  StageCounts c;
  for (const auto& [seq, ps] : packets_) {
    switch (ps.stage) {
      case Stage::kExtracted: ++c.extracted; break;
      case Stage::kPulled: ++c.pulled; break;
      case Stage::kRecvInFlight: ++c.recv_in_flight; break;
      case Stage::kRecvDone: ++c.recv_done; break;
      case Stage::kAckInFlight: ++c.ack_in_flight; break;
      case Stage::kDone: ++c.done; break;
      case Stage::kTimedOut: ++c.timed_out; break;
      case Stage::kAbandoned: ++c.abandoned; break;
    }
  }
  return c;
}

std::size_t Relayer::lane_depth(int lane) const {
  return ops_[lane].size() + (op_running_[lane] ? 1 : 0);
}

chain::Height Relayer::oldest_pending_blocks() const {
  chain::Height oldest = 0;
  for (const auto& [seq, ps] : packets_) {
    if (ps.stage == Stage::kDone || ps.stage == Stage::kTimedOut ||
        ps.stage == Stage::kAbandoned) {
      continue;
    }
    if (ps.src_height > 0 && last_seen_a_height_ >= ps.src_height) {
      oldest = std::max(oldest, last_seen_a_height_ - ps.src_height);
    }
  }
  return oldest;
}

void Relayer::record(Step step, ibc::Sequence seq) {
  if (step_log_)
    step_log_->record(step, seq, sched_.now(), config_.telemetry_hop);
  if (auto* f = telemetry::flight(hub_)) {
    // Every per-packet lifecycle transition funnels through here, so this
    // one site journals the relayer's recent history for the flight dump.
    f->record(sched_.now(), "relayer",
              flight_name_ + " " + std::string(step_name(step)) +
                  " seq=" + std::to_string(seq));
  }
}

void Relayer::bump(std::uint64_t Stats::*field) {
  ++(stats_.*field);
  for (std::size_t i = 0; i < std::size(kStatMetrics); ++i) {
    if (kStatMetrics[i].field != field) continue;
    if (stat_ctr_[i]) stat_ctr_[i]->add();
    return;
  }
}

std::vector<ibc::Sequence> Relayer::in_stage(
    const std::vector<ibc::Sequence>& seqs, Stage stage) const {
  std::vector<ibc::Sequence> out;
  for (ibc::Sequence s : seqs) {
    const auto it = packets_.find(s);
    if (it != packets_.end() && it->second.stage == stage) out.push_back(s);
  }
  return out;
}

chain::Height Relayer::rescan_from(chain::Height to) {
  return to > kStartupRescanDepth ? to - kStartupRescanDepth + 1 : 1;
}

// The build, send, submit and timeout loops each schedule one zero-delay
// event where they end: the event that released a finished closure chain
// when the relayer was written that way. It does no work, but the perfbench
// digests and the PinnedSchedule* constants count it, so it stays until the
// next benchmark change drops it and re-records them.
void Relayer::parity_event() {
  sched_.schedule_after(0, [] {});
}

chain::Msg update_client_msg(const ibc::ClientId& client_id,
                             const rpc::Server::HeaderInfo& info) {
  ibc::MsgUpdateClient update;
  update.client_id = client_id;
  update.header.chain_id = info.header.chain_id;
  update.header.height = info.header.height;
  update.header.time = info.header.time;
  update.header.app_hash_after = info.app_hash_after;
  update.header.validators_hash = info.header.validators_hash;
  update.header.block_id = chain::BlockId{info.header.hash()};
  update.header.commit = info.commit;
  return update.to_msg();
}

// --- Supervisor: frame handling ---------------------------------------------

bool Relayer::admits(ibc::Sequence seq, chain::Height height) {
  if (!serves_path_ || !fee_ok_) {
    // Routing policy: this instance does not serve the channel (or the
    // hop's fee exceeds its budget) — another placement covers it.
    bump(&Stats::routing_skipped);
    return false;
  }
  if (!coordination_.owns(path_.channel_a, seq, height)) {
    // A coordinated peer owns this packet; never enter it in the table so
    // no lane (pull, recv, ack, timeout, retry) ever touches it.
    bump(&Stats::coordination_skipped);
    return false;
  }
  return true;
}

void Relayer::on_frame_a(const rpc::NewBlockFrame& frame) {
  // Chain A advanced: cached latest-height store responses (commitment
  // proofs) against its full node are stale. No-op when caching is off.
  cache_.on_height_advance(*a_.server, frame.height);
  last_seen_a_height_ = std::max(last_seen_a_height_, frame.height);
  if (!frame.events_ok) {
    // Paper §V: "Failed to collect events" — the event payload exceeded the
    // WebSocket frame limit. The packets in this block are invisible to the
    // relayer until (if ever) a clear pass rediscovers them; with the
    // sticky-failure behaviour the event source stays broken afterwards.
    bump(&Stats::frames_failed);
    if (config_.websocket_failure_sticky) ws_wedged_a_ = true;
    IBC_LOG(kWarn, "relayer") << "failed to collect events at height "
                              << frame.height;
  }

  // A wedged event source extracts nothing; the block-height bookkeeping
  // below still runs, so clearing can rediscover the packets.
  std::vector<ibc::Sequence> new_seqs;
  if (!ws_wedged_a_ && frame.results) {
    for (const chain::DeliverTxResult& res : *frame.results) {
      for (const chain::Event& ev : res.events) {
        const ibc::PacketEvent* pe = ibc::packet_event(ev);
        if (pe == nullptr) continue;
        const bool sent = pe->kind == ibc::PacketEventKind::kSend;
        if (!sent && pe->kind != ibc::PacketEventKind::kAcknowledge) continue;
        if (pe->packet.source_channel != path_.channel_a) continue;
        const std::uint64_t seq = pe->packet.sequence;
        if (!sent) {
          record(Step::kAckExtraction, seq);
        } else if (!packets_.contains(seq) && admits(seq, frame.height)) {
          PacketState st;
          st.src_height = frame.height;
          packets_.emplace(seq, std::move(st));
          record(Step::kTransferExtraction, seq);
          new_seqs.push_back(seq);
        }
      }
    }
  }

  if (!new_seqs.empty()) {
    // Confirm the transfers committed (one status round trip covers the
    // batch — near-instant in Fig. 12). The answer's content is not needed,
    // so a busy node's refusal confirms them just the same.
    sim::spawn(a_.server->status(config_.machine),
               [this, h = frame.height, seqs = std::move(new_seqs)](
                   const util::Result<rpc::Server::StatusInfo>&) {
                 if (!running_) return;
                 for (ibc::Sequence s : seqs) {
                   record(Step::kTransferConfirmation, s);
                 }
                 enqueue(RelayBatchOp{h, seqs});
               });
  }

  check_timeouts();

  if (config_.clear_interval > 0 &&
      frame.height - last_clear_height_ >= config_.clear_interval) {
    last_clear_height_ = frame.height;
    enqueue(ClearOp{1, frame.height});
  }
}

void Relayer::on_frame_b(const rpc::NewBlockFrame& frame) {
  cache_.on_height_advance(*b_.server, frame.height);
  last_seen_b_height_ = std::max(last_seen_b_height_, frame.height);
  if (!frame.events_ok) {
    bump(&Stats::frames_failed);
    if (config_.websocket_failure_sticky) ws_wedged_b_ = true;
  }
  // A wedged source extracts nothing (the commit bookkeeping still drives
  // acks for our own recv txs); an oversized frame carries no events.
  if (ws_wedged_b_ || !frame.results) return;

  std::vector<ibc::Sequence> ack_seqs;
  for (const chain::DeliverTxResult& res : *frame.results) {
    for (const chain::Event& ev : res.events) {
      const ibc::PacketEvent* pe = ibc::packet_event(ev);
      if (pe == nullptr || pe->kind != ibc::PacketEventKind::kWriteAck) {
        continue;
      }
      if (pe->packet.source_channel != path_.channel_a) continue;
      const std::uint64_t seq = pe->packet.sequence;
      const auto it = packets_.find(seq);
      if (it == packets_.end()) continue;  // not a packet we are tracking
      PacketState& st = it->second;
      if (st.stage == Stage::kAckInFlight || st.stage == Stage::kDone ||
          st.stage == Stage::kTimedOut || st.stage == Stage::kAbandoned) {
        continue;
      }
      record(Step::kRecvExtraction, seq);
      st.stage = Stage::kRecvDone;
      ack_seqs.push_back(seq);
    }
  }

  if (!ack_seqs.empty()) enqueue(AckBatchOp{frame.height, std::move(ack_seqs)});
}

void Relayer::check_timeouts() {
  // A packet expires once chain B reaches its timeout height, so none can
  // have expired below the lowest one.
  if (last_seen_b_height_ == 0 || last_seen_b_height_ < min_timeout_height_) {
    return;
  }
  std::vector<ibc::Sequence> expired;
  for (auto& [seq, st] : packets_) {
    if (st.stage != Stage::kPulled) continue;
    if (!st.packet || st.packet->timeout_height == 0) continue;
    if (last_seen_b_height_ >= st.packet->timeout_height &&
        !timeout_candidates_.contains(seq)) {
      timeout_candidates_.insert(seq);
      expired.push_back(seq);
    }
  }
  if (!expired.empty()) enqueue(TimeoutBatchOp{std::move(expired)});
}

void Relayer::adopt_packet(PacketState& st, const ibc::PacketEvent& pe) {
  st.packet = pe.packet;
  st.forward = pe.transfer_data && ibc::ForwardMiddleware::is_forward_route(
                                       pe.transfer_data->receiver);
  if (pe.packet.timeout_height != 0) {
    min_timeout_height_ =
        std::min(min_timeout_height_, pe.packet.timeout_height);
  }
}

// --- Worker loop ----------------------------------------------------------------

void Relayer::enqueue(Op op) {
  const int lane = kOps[op.index()].lane;
  ops_[lane].push_back(std::move(op));
  pump(lane);
}

void Relayer::abandon_packet(ibc::Sequence seq, PacketState& ps,
                             const char* why) {
  ps.stage = Stage::kAbandoned;
  bump(&Stats::abandoned_packets);
  timeout_candidates_.erase(seq);
  IBC_LOG(kWarn, "relayer")
      << "abandoning packet " << seq << " after bounded retries (" << why
      << ")";
  if (auto* f = telemetry::flight(hub_)) {
    f->record(sched_.now(), "relayer",
              flight_name_ + " abandon seq=" + std::to_string(seq) + " (" +
                  why + ")");
  }
  // An abandoned packet is a terminal failure: emit the post-mortem dump
  // (first trigger wins; disabled builds fold this away entirely).
  if (telemetry::metrics(hub_) != nullptr) {
    hub_->trigger_flight_dump("abandoned-packet", sched_.now());
  }
}

void Relayer::pump(int lane) {
  if (op_running_[lane] || ops_[lane].empty() || !running_) return;
  op_running_[lane] = true;
  Op op = std::move(ops_[lane].front());
  ops_[lane].pop_front();
  if (op_ctr_[op.index()]) op_ctr_[op.index()]->add();
  sim::spawn(run_op(lane, std::move(op)));
}

sim::Task<> Relayer::run_op(int lane, Op op) {
  const std::uint64_t epoch = lane_epoch_;
  const std::size_t kind = op.index();
  const sim::TimePoint start = sched_.now();
  co_await std::visit([this](auto& o) { return run(std::move(o)); }, op);
  if (auto* t = telemetry::tracer(hub_)) {
    // Span covers the whole op, queries and submission included — emitted at
    // completion (trace viewers sort by ts, so out-of-order append is fine).
    t->complete(lane_track_[lane], kOps[kind].name, start,
                sched_.now() - start);
  }
  // An op of a previous life that resumed into this one must not unlock
  // the lane this life is using.
  if (epoch != lane_epoch_) co_return;
  op_running_[lane] = false;
  // Defer through the scheduler so deep op chains do not recurse.
  sched_.schedule_after(0, [this, lane] { pump(lane); });
}

// --- Data pulls -------------------------------------------------------------------

bool Relayer::chunk_satisfied(const std::string& event_type,
                              const std::vector<ibc::Sequence>& seqs,
                              std::size_t begin, std::size_t end) const {
  for (std::size_t i = begin; i < end; ++i) {
    const auto it = packets_.find(seqs[i]);
    if (it == packets_.end()) continue;  // untracked: a pull can't use it
    const PacketState& st = it->second;
    if (event_type == "send_packet") {
      if (st.stage == Stage::kExtracted) return false;
    } else {  // write_acknowledgement
      if (st.stage == Stage::kRecvDone && !st.ack.has_value()) return false;
    }
  }
  return true;
}

sim::Task<PullResult> Relayer::pull_chunks(
    rpc::Server* server, chain::Height height, const std::string& event_type,
    const std::vector<ibc::Sequence>& seqs) {
  const Step pull_step = event_type == "send_packet" ? Step::kTransferDataPull
                                                     : Step::kRecvDataPull;
  bool failed = false;
  for (std::size_t begin = 0;; begin += kEventQueryChunk) {
    if (config_.skip_satisfied_chunks) {
      // Chunk queries return whole transactions, so one response often
      // covers sequences of later chunks; Hermes still issues those queries
      // (the redundancy the paper's Fig. 12 pull times include) — skipping
      // them is an opt-in mitigation.
      while (begin < seqs.size() &&
             chunk_satisfied(event_type, seqs, begin,
                             std::min(begin + kEventQueryChunk, seqs.size()))) {
        bump(&Stats::chunk_queries_skipped);
        begin += kEventQueryChunk;
      }
    }
    if (begin >= seqs.size()) break;
    const std::size_t end = std::min(begin + kEventQueryChunk, seqs.size());
    const ibc::Sequence lo = seqs[begin];
    const ibc::Sequence hi = seqs[end - 1];

    bump(&Stats::chunk_queries);
    const auto res = co_await cache_.query_packet_events(
        *server, config_.machine, height, event_type, lo, hi);
    if (!running_) co_await sim::abandon();
    // Host-side pull cost: scanning returned pages for packet events.
    telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerPull);
    if (!res.is_ok()) {
      // A failed chunk query used to vanish silently, leaving its packets
      // stuck with no trace; count and log it, and report the pull as
      // partial so callers can tell.
      failed = true;
      bump(&Stats::pull_query_failures);
      IBC_LOG(kWarn, "relayer")
          << event_type << " pull chunk [" << lo << ", " << hi
          << "] at height " << height
          << " failed: " << res.status().to_string();
      continue;
    }
    for (const rpc::TxResponse& tx : res.value().txs) {
      for (const chain::Event& ev : tx.result->events) {
        if (ev.type != event_type) continue;
        const ibc::PacketEvent* pe = ibc::packet_event(ev);
        if (!pe || pe->packet.source_channel != path_.channel_a) continue;
        const ibc::Packet& pkt = pe->packet;
        const auto it = packets_.find(pkt.sequence);
        if (it == packets_.end()) continue;
        PacketState& st = it->second;
        // A chunk query returns whole transactions, so events for sequences
        // outside the chunk ride along; process (and log) each packet's
        // pull exactly once.
        if (event_type == "send_packet") {
          if (st.stage == Stage::kExtracted) {
            record(pull_step, pkt.sequence);
            adopt_packet(st, *pe);
            st.stage = Stage::kPulled;
          }
        } else {  // write_acknowledgement
          if (st.ack.has_value()) continue;
          if (!st.packet) adopt_packet(st, *pe);
          ibc::Acknowledgement ack;
          if (ibc::Acknowledgement::decode(pe->ack, ack)) {
            record(pull_step, pkt.sequence);
            st.ack = std::move(ack);
            st.ack_decode_failed = false;
          } else {
            // Malformed packet_ack payload: without the decoded ack this
            // packet cannot be acknowledged. Count it, drop any cached copy
            // of the bad page, and let the ack batch's completion handler
            // schedule a bounded re-pull.
            bump(&Stats::ack_decode_failures);
            st.ack_decode_failed = true;
            cache_.invalidate_page(*server, height, event_type, lo, hi);
            IBC_LOG(kWarn, "relayer")
                << "undecodable packet_ack for sequence " << pkt.sequence
                << " at height " << height;
          }
        }
      }
    }
  }
  co_return seqs.empty() ? PullResult::kNothingToPull
         : failed        ? PullResult::kPartialFailure
                         : PullResult::kComplete;
}

// --- Gas ------------------------------------------------------------------------

std::uint64_t Relayer::estimate_gas(std::size_t updates,
                                    std::uint64_t msgs_gas) const {
  const double raw = 69'000.0 +
                     static_cast<double>(updates) *
                         static_cast<double>(gas_.update_client) +
                     static_cast<double>(msgs_gas);
  return static_cast<std::uint64_t>(std::ceil(raw * config_.gas_headroom));
}

// --- Relay and ack batches ---------------------------------------------------

sim::Task<> Relayer::run(RelayBatchOp op) {
  const std::vector<ibc::Sequence> seqs =
      in_stage(op.seqs, Stage::kExtracted);
  if (seqs.empty()) co_return;
  if (relay_batch_hist_) {
    relay_batch_hist_->observe(static_cast<double>(seqs.size()));
  }
  const PullResult pr =
      co_await pull_chunks(a_.server, op.src_height, "send_packet", seqs);
  std::vector<ibc::Sequence> pulled = in_stage(seqs, Stage::kPulled);
  if (pr == PullResult::kPartialFailure) {
    // Per-chunk errors were already counted/logged; packets left in
    // kExtracted are rediscovered by the next clear pass.
    IBC_LOG(kWarn, "relayer")
        << "relay batch pull incomplete: " << pulled.size() << "/"
        << seqs.size() << " packets pulled";
  }
  if (!pulled.empty()) co_await build_and_submit(recv_leg_, std::move(pulled));
}

sim::Task<> Relayer::run(AckBatchOp op) {
  const std::vector<ibc::Sequence> seqs = in_stage(op.seqs, Stage::kRecvDone);
  if (seqs.empty()) co_return;
  if (ack_batch_hist_) {
    ack_batch_hist_->observe(static_cast<double>(seqs.size()));
  }
  const PullResult pr = co_await pull_chunks(b_.server, op.dst_height,
                                             "write_acknowledgement", seqs);
  std::vector<ibc::Sequence> ready;
  std::vector<ibc::Sequence> repull;
  for (ibc::Sequence s : seqs) {
    const auto it = packets_.find(s);
    if (it == packets_.end()) continue;
    PacketState& ps = it->second;
    if (ps.stage == Stage::kRecvDone && ps.packet && ps.ack) {
      ready.push_back(s);
    } else if (ps.stage == Stage::kRecvDone && ps.ack_decode_failed) {
      // The write_ack event came back with an undecodable packet_ack;
      // re-pull after a backoff (a fresh query usually delivers an intact
      // payload) instead of stranding the packet until timeout scan.
      if (++ps.ack_repulls >
          static_cast<std::uint8_t>(config_.max_submit_failures)) {
        abandon_packet(s, ps, "undecodable packet_ack");
      } else {
        repull.push_back(s);
      }
    }
  }
  if (pr == PullResult::kPartialFailure) {
    IBC_LOG(kWarn, "relayer") << "ack batch pull incomplete: " << ready.size()
                              << "/" << seqs.size() << " acks pulled";
  }
  if (!repull.empty()) {
    sched_.schedule_after(config_.ack_repull_backoff,
                          [this, dst_height = op.dst_height,
                           repull = std::move(repull)] {
                            if (!running_) return;
                            enqueue(AckBatchOp{dst_height, repull});
                          });
  }
  if (!ready.empty()) co_await build_and_submit(ack_leg_, std::move(ready));
}

sim::Task<> Relayer::run(RetryRecvOp op) {
  return build_and_submit(recv_leg_, std::move(op.seqs));
}

sim::Task<> Relayer::run(RetryAckOp op) {
  return build_and_submit(ack_leg_, std::move(op.seqs));
}

// --- Build and submit (both legs) --------------------------------------------

sim::Task<> Relayer::build_and_submit(const Leg& leg,
                                      std::vector<ibc::Sequence> seqs) {
  // Stage 1: per-packet proof queries (sequential — the RPC node serves one
  // request at a time anyway) + per-message CPU.
  std::vector<BuiltMsg> msgs;
  for (auto next = seqs.begin();; ++next) {
    if (!running_) co_await sim::abandon();
    if (next == seqs.end()) break;
    const ibc::Sequence seq = *next;
    const auto it = packets_.find(seq);
    if (it == packets_.end() || it->second.stage != leg.ready ||
        !has_msg_data(leg, it->second)) {
      continue;
    }
    const auto res = co_await cache_.abci_query(
        *leg.server, config_.machine,
        leg.proof_key(path_.port, leg.proof_channel, seq).str(),
        /*prove=*/true);
    if (!running_) co_await sim::abandon();
    {
      telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBuild);
      const auto it2 = packets_.find(seq);
      if (!res.is_ok() || !res.value().exists || it2 == packets_.end() ||
          !has_msg_data(leg, it2->second)) {
        // Proven state gone (acked/timed out already) or query failed.
        continue;
      }
      msgs.push_back((this->*leg.make_msg)(it2->second, res.value()));
    }
    // Per-message assembly CPU, then the next packet.
    co_await sim::delay(sched_, kBuildCpuPerMsg);
    record(leg.build, seq);
  }
  parity_event();
  // Stage 2: group into transactions and submit.
  if (!msgs.empty()) co_await send_txs(leg, std::move(msgs));
}

sim::Task<> Relayer::send_txs(const Leg& leg, std::vector<BuiltMsg> msgs) {
  for (std::size_t begin = 0; begin < msgs.size();) {
    if (!running_) co_await sim::abandon();
    const std::size_t end = std::min(begin + kMaxMsgsPerTx, msgs.size());
    std::vector<BuiltMsg> tx;
    std::vector<ibc::Sequence> tx_seqs;
    for (std::size_t i = begin; i < end; ++i) {
      tx_seqs.push_back(msgs[i].seq);
      tx.push_back(std::move(msgs[i]));
    }
    begin = end;
    TxPlan plan = co_await with_client_updates(leg, std::move(tx));
    // The pipeline advances to the next tx as soon as this one is in the
    // mempool (optimistic submission), so the submission forks: its commit
    // bookkeeping runs as a task of its own, which advances the pipeline
    // itself if the broadcast fails.
    co_await sim::callback([&](sim::Resume<> advance) {
      telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerBroadcast);
      auto on_broadcast = [this, &leg, tx_seqs, advance] {
        for (ibc::Sequence s : tx_seqs) {
          record(leg.broadcast, s);
          const auto it = packets_.find(s);
          if (it != packets_.end() && it->second.stage == leg.ready) {
            it->second.stage = leg.in_flight;
          }
        }
        advance();
      };
      sim::spawn(
          leg.wallet->submit(std::move(plan.msgs), plan.gas, on_broadcast),
          [this, &leg, tx_seqs, advance](const Wallet::SubmitOutcome& out) {
            if (!running_) return;
            (this->*leg.committed)(tx_seqs, out);
            advance();
          });
    });
  }
  parity_event();
}

sim::Task<Relayer::TxPlan> Relayer::with_client_updates(
    const Leg& leg, std::vector<BuiltMsg> msgs) {
  std::vector<chain::Height> heights;  // distinct proof heights, ascending
  for (const BuiltMsg& m : msgs) heights.push_back(m.proof_height);
  std::sort(heights.begin(), heights.end());
  heights.erase(std::unique(heights.begin(), heights.end()), heights.end());
  TxPlan plan;
  for (const chain::Height height : heights) {
    // Headers are immutable once committed — ideal cache fodder: every tx in
    // a batch containing the same proof height re-fetches the same header.
    const auto res =
        co_await cache_.query_header(*leg.server, config_.machine, height);
    if (res.is_ok()) {
      telemetry::ProfileScope prof(telemetry::ProfileKey::kRelayerPull);
      plan.msgs.push_back(update_client_msg(leg.client, res.value()));
    }
  }
  parity_event();
  const std::size_t updates = plan.msgs.size();
  std::uint64_t msgs_gas = 0;
  for (BuiltMsg& m : msgs) {
    msgs_gas += m.gas;
    plan.msgs.push_back(std::move(m.msg));
  }
  plan.gas = estimate_gas(updates, msgs_gas);
  co_return std::move(plan);
}

// --- Per-direction message constructors and commit bookkeeping ---------------

Relayer::BuiltMsg Relayer::recv_msg(
    const PacketState& ps, const rpc::Server::AbciQueryResult& proof) const {
  ibc::MsgRecvPacket msg;
  msg.packet = *ps.packet;
  msg.proof_commitment = proof.proof;
  msg.proof_height = proof.height;
  // A packet whose receiver encodes a forward route executes an onward
  // transfer inside the destination's recv handler; without budgeting it
  // the tx runs out of gas on every middle-chain hop.
  const std::uint64_t forward_gas = ps.forward ? gas_.transfer : 0;
  return {msg.packet.sequence, proof.height, msg.to_msg(),
          gas_.recv_packet + forward_gas};
}

Relayer::BuiltMsg Relayer::ack_msg(
    const PacketState& ps, const rpc::Server::AbciQueryResult& proof) const {
  ibc::MsgAcknowledgementMsg msg;
  msg.packet = *ps.packet;
  msg.ack = *ps.ack;
  msg.proof_ack = proof.proof;
  msg.proof_height = proof.height;
  return {msg.packet.sequence, proof.height, msg.to_msg(), gas_.acknowledge};
}

void Relayer::recv_committed(const std::vector<ibc::Sequence>& seqs,
                             const Wallet::SubmitOutcome& out) {
  std::vector<ibc::Sequence> recv_done;
  std::vector<ibc::Sequence> retry_seqs;
  for (ibc::Sequence s : seqs) {
    const auto it = packets_.find(s);
    if (it == packets_.end()) continue;
    PacketState& ps = it->second;
    if (out.status.is_ok()) {
      record(Step::kRecvConfirmation, s);
      bump(&Stats::packets_relayed);
      if (ps.stage == Stage::kRecvInFlight) {
        ps.stage = Stage::kRecvDone;
        recv_done.push_back(s);
      }
    } else if (out.status.code() == util::ErrorCode::kRedundantPacket) {
      bump(&Stats::redundant_errors);
      if (ps.stage != Stage::kRecvInFlight) continue;
      if (ps.recv_retries < kMaxPacketRetries) {
        // Hermes retries the failed batch, rebuilding the proofs and
        // resubmitting (wasted work when another relayer actually delivered
        // the packets); the cap bounds what used to be a one-shot set.
        ++ps.recv_retries;
        ps.stage = Stage::kPulled;
        retry_seqs.push_back(s);
      } else {
        // Retries exhausted: treat as delivered elsewhere; the
        // destination's write_ack event drives the ack.
        ps.stage = Stage::kRecvDone;
      }
    } else if (out.status.code() == util::ErrorCode::kTimeout &&
               out.committed) {
      // Packet expired before delivery: the timeout path picks it up.
      if (ps.stage == Stage::kRecvInFlight) ps.stage = Stage::kPulled;
    } else {
      bump(&Stats::recv_txs_failed);
      IBC_LOG(kWarn, "relayer") << "recv tx failed: " << out.status.to_string();
      if (ps.stage != Stage::kRecvInFlight) continue;
      // Clearing rebuilds and resubmits kPulled packets; a persistent fault
      // (e.g. chronic under-gassing) used to loop forever through that
      // path. Bound it.
      if (++ps.recv_failures >
          static_cast<std::uint8_t>(config_.max_submit_failures)) {
        abandon_packet(s, ps, "recv submit failures");
      } else {
        ps.stage = Stage::kPulled;  // retried by clearing
      }
    }
  }
  // Normally the destination's WebSocket frame announces the write_acks
  // (batched per block, as Hermes sees them); the committed recv tx's own
  // events are the fallback when that event stream is broken (oversized
  // frames, §V).
  if (ws_wedged_b_ && !recv_done.empty()) {
    enqueue(AckBatchOp{out.height, std::move(recv_done)});
  }
  if (!retry_seqs.empty()) enqueue(RetryRecvOp{std::move(retry_seqs)});
}

void Relayer::ack_committed(const std::vector<ibc::Sequence>& seqs,
                            const Wallet::SubmitOutcome& out) {
  std::vector<ibc::Sequence> retry_seqs;
  for (ibc::Sequence s : seqs) {
    const auto it = packets_.find(s);
    if (it == packets_.end()) continue;
    PacketState& ps = it->second;
    if (out.status.is_ok()) {
      record(Step::kAckConfirmation, s);
      bump(&Stats::packets_completed);
      ps.stage = Stage::kDone;
    } else if (out.status.code() == util::ErrorCode::kRedundantPacket) {
      bump(&Stats::redundant_errors);
      if (ps.stage == Stage::kAckInFlight &&
          ps.ack_retries < kMaxPacketRetries) {
        ++ps.ack_retries;
        ps.stage = Stage::kRecvDone;  // rebuild + resubmit
        retry_seqs.push_back(s);
      } else {
        // Most likely another relayer completed it — but a single
        // genuinely-redundant msg fails the whole tx, so batch-mates may NOT
        // be acked yet. Park at kRecvDone flagged for clearing: the clear
        // pass only sees still-outstanding commitments, so truly completed
        // packets drop out and stragglers get a clean redrive.
        ps.stage = Stage::kRecvDone;
        ps.ack_tx_failed = true;
      }
    } else {
      bump(&Stats::ack_txs_failed);
      IBC_LOG(kWarn, "relayer") << "ack tx failed: " << out.status.to_string();
      // A censored/unreachable mempool fails submit before broadcast,
      // leaving the stage at kRecvDone; flag both shapes so the clear pass
      // redrives the ack either way.
      if (ps.stage == Stage::kAckInFlight) ps.stage = Stage::kRecvDone;
      if (ps.stage == Stage::kRecvDone) ps.ack_tx_failed = true;
    }
  }
  if (!retry_seqs.empty()) enqueue(RetryAckOp{std::move(retry_seqs)});
}

// --- Timeouts --------------------------------------------------------------------

sim::Task<> Relayer::run(TimeoutBatchOp op) {
  // Timeouts keep their own proof loop: the non-existence proofs are never
  // cached, cost no build CPU, all go into one tx, and the op ends only when
  // that tx commits. Timeout volume is small in practice.
  std::vector<BuiltMsg> msgs;
  for (auto next = op.seqs.begin();; ++next) {
    if (!running_) co_await sim::abandon();
    if (next == op.seqs.end()) break;
    const ibc::Sequence seq = *next;
    const auto it = packets_.find(seq);
    if (it == packets_.end() || it->second.stage != Stage::kPulled ||
        !it->second.packet) {
      continue;
    }
    // Non-existence proof of the receipt on the destination chain. Never
    // cached: a receipt can appear at any commit, and a stale "not received"
    // answer would produce a doomed MsgTimeout (timeouts are rare, so there
    // is no win to chase either).
    const auto res = co_await b_.server->abci_query(
        config_.machine,
        ibc::host::packet_receipt_key(path_.port, path_.channel_b, seq).str(),
        /*prove=*/true);
    if (!running_) co_await sim::abandon();
    const auto it2 = packets_.find(seq);
    if (res.is_ok() && !res.value().exists && it2 != packets_.end() &&
        it2->second.packet) {
      ibc::MsgTimeout msg;
      msg.packet = *it2->second.packet;
      msg.proof_unreceived = res.value().proof;
      msg.proof_height = res.value().height;
      msgs.push_back({msg.packet.sequence, res.value().height, msg.to_msg(),
                      gas_.timeout});
    }
  }
  parity_event();
  if (msgs.empty()) co_return;
  std::vector<ibc::Sequence> tx_seqs;
  for (const BuiltMsg& m : msgs) tx_seqs.push_back(m.seq);
  TxPlan plan = co_await with_client_updates(ack_leg_, std::move(msgs));
  const auto out =
      co_await ack_leg_.wallet->submit(std::move(plan.msgs), plan.gas);
  if (!running_) co_await sim::abandon();
  for (ibc::Sequence s : tx_seqs) {
    const auto it = packets_.find(s);
    if (it == packets_.end()) continue;
    if (out.status.is_ok()) {
      bump(&Stats::packets_timed_out);
      it->second.stage = Stage::kTimedOut;
    } else if (out.status.code() == util::ErrorCode::kRedundantPacket) {
      bump(&Stats::redundant_errors);
      it->second.stage = Stage::kTimedOut;
    }
    timeout_candidates_.erase(s);
  }
}

// --- Clearing ---------------------------------------------------------------------

sim::Task<> Relayer::run(ClearOp op) {
  // 1. Enumerate outstanding commitments on the source chain.
  const std::string prefix =
      ibc::host::packet_commitment_prefix(path_.port, path_.channel_a).str();
  const auto keys = co_await a_.server->abci_query_prefix(config_.machine,
                                                          prefix);
  if (!running_) co_await sim::abandon();
  // A node too busy to list them leaves nothing to clear this pass.
  if (!keys.is_ok()) co_return;
  std::vector<ibc::Sequence> unknown;
  std::vector<ibc::Sequence> stuck_acks;
  bool ackless = false;
  for (const std::string& key : keys.value()) {
    const ibc::Sequence seq =
        std::strtoull(key.c_str() + prefix.size(), nullptr, 10);
    if (seq == 0) continue;
    const auto it = packets_.find(seq);
    if (it == packets_.end()) {
      // Never seen (e.g. lost in an oversized WebSocket frame). Under
      // coordination, only adopt strays this instance owns — the owning
      // peer's own clear pass covers the rest.
      if (!admits(seq, last_seen_a_height_)) continue;
      packets_.emplace(seq, PacketState{});
      unknown.push_back(seq);
    } else if (it->second.stage == Stage::kPulled ||
               it->second.stage == Stage::kExtracted) {
      // kPulled: stalled after a failed submit — retry relay.
      // kExtracted: seen in a frame but the data pull never delivered
      // (every chunk query for it errored); without this the packet was
      // stuck forever while its commitment sat on chain.
      unknown.push_back(seq);
    } else if (it->second.stage == Stage::kRecvDone && it->second.packet &&
               it->second.ack && it->second.ack_tx_failed) {
      // Recv committed but the ack tx failed (e.g. censored or unreachable
      // source mempool) and nothing re-drives it: the write_ack event fires
      // exactly once. The commitment is still outstanding, so clearing
      // redelivers the ack — Hermes' clear sweeps unreceived acks for the
      // same reason. The ack_tx_failed gate matters: kRecvDone with
      // packet+ack is also the transient state of a healthy ack mid-build
      // (stage only advances at broadcast), and redriving those duplicates
      // work on every clear pass without bound.
      it->second.ack_tx_failed = false;
      stuck_acks.push_back(seq);
    } else if (it->second.stage == Stage::kRecvDone && !it->second.ack) {
      // Recv committed but the write_ack event was missed (crash window,
      // dropped frame, or another relayer delivered it while this one was
      // down) so the ack value was never pulled. It is sitting on the
      // destination chain — recover it with an ack scan, same as the
      // startup path.
      ackless = true;
    }
  }
  if (ackless) {
    const chain::Height to = last_seen_b_height_ > 0 ? last_seen_b_height_ : 1;
    enqueue(AckScanOp{rescan_from(to), to});
  }
  if (!unknown.empty()) {
    std::sort(unknown.begin(), unknown.end());
    // 2. Recover packet data with an (expensive) height-range scan.
    const auto res = co_await a_.server->query_packet_events_range(
        config_.machine, op.scan_from, op.scan_to, "send_packet",
        unknown.front(), unknown.back());
    if (!running_) co_await sim::abandon();
    if (!res.is_ok()) {
      // Same defect class as the chunked pulls: a failed recovery scan used
      // to disappear without a trace.
      bump(&Stats::pull_query_failures);
      IBC_LOG(kWarn, "relayer")
          << "clear range scan failed: " << res.status().to_string();
    } else {
      for (const rpc::TxResponse& tx : res.value().txs) {
        for (const chain::Event& ev : tx.result->events) {
          if (ev.type != "send_packet") continue;
          const ibc::PacketEvent* pe = ibc::packet_event(ev);
          if (!pe || pe->packet.source_channel != path_.channel_a) continue;
          const auto it = packets_.find(pe->packet.sequence);
          if (it != packets_.end() && it->second.stage == Stage::kExtracted) {
            it->second.src_height = tx.height;
            adopt_packet(it->second, *pe);
            it->second.stage = Stage::kPulled;
          }
        }
      }
    }
    std::vector<ibc::Sequence> ready = in_stage(unknown, Stage::kPulled);
    if (!ready.empty()) co_await build_and_submit(recv_leg_, std::move(ready));
  }
  // Stuck acks are redriven after the packets to relay.
  if (!stuck_acks.empty()) {
    std::sort(stuck_acks.begin(), stuck_acks.end());
    co_await build_and_submit(ack_leg_, std::move(stuck_acks));
  }
}

// --- Startup ack re-scan ----------------------------------------------------------

sim::Task<> Relayer::run(AckScanOp op) {
  // Packets whose recv committed before the crash left a
  // write_acknowledgement event on the destination but no ack on the
  // source — and a restarted relayer has no in-memory PacketState for them,
  // so clearing would resubmit the recv (failing as redundant) instead of
  // the ack. Walk the window once and restore them to kRecvDone with their
  // decoded ack, then drive the acks.
  const auto res = co_await b_.server->query_packet_events_range(
      config_.machine, op.scan_from, op.scan_to, "write_acknowledgement",
      /*seq_begin=*/1, /*seq_end=*/std::numeric_limits<std::uint64_t>::max());
  if (!running_) co_await sim::abandon();
  if (!res.is_ok()) {
    bump(&Stats::pull_query_failures);
    IBC_LOG(kWarn, "relayer")
        << "startup ack scan failed: " << res.status().to_string();
    co_return;
  }
  std::vector<ibc::Sequence> ready;
  for (const rpc::TxResponse& tx : res.value().txs) {
    for (const chain::Event& ev : tx.result->events) {
      if (ev.type != "write_acknowledgement") continue;
      const ibc::PacketEvent* pe = ibc::packet_event(ev);
      if (!pe || pe->packet.source_channel != path_.channel_a) continue;
      const ibc::Sequence seq = pe->packet.sequence;
      // An unseen packet this instance does not admit is a peer's to
      // acknowledge.
      if (!packets_.contains(seq) && !admits(seq, last_seen_a_height_)) {
        continue;
      }
      PacketState& st = packets_[seq];  // inserts when unseen
      if (st.stage == Stage::kAckInFlight || st.stage == Stage::kDone ||
          st.stage == Stage::kTimedOut || st.stage == Stage::kAbandoned ||
          st.ack.has_value()) {
        continue;
      }
      ibc::Acknowledgement ack;
      if (!ibc::Acknowledgement::decode(pe->ack, ack)) {
        bump(&Stats::ack_decode_failures);
        continue;
      }
      adopt_packet(st, *pe);
      st.ack = std::move(ack);
      st.stage = Stage::kRecvDone;
      ready.push_back(seq);
    }
  }
  if (ready.empty()) co_return;
  std::sort(ready.begin(), ready.end());
  co_await build_and_submit(ack_leg_, std::move(ready));
}

}  // namespace relayer
