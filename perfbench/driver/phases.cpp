#include "driver/phases.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>

#include "check/invariant.hpp"
#include "crypto/sha256.hpp"
#include "xcc/analysis.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"
#include "xcc/workload.hpp"

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Same sizing rule as run_experiment() (private there): sender accounts the
/// workload needs, so the testbed's genesis matches.
int accounts_needed(const xcc::WorkloadConfig& wl,
                    sim::Duration block_interval) {
  if (wl.open_loop) return static_cast<int>(wl.open_loop_accounts);
  if (wl.total_transfers > 0) {
    const auto spread =
        static_cast<std::uint64_t>(std::max(wl.spread_blocks, 1));
    const std::uint64_t per_batch = (wl.total_transfers + spread - 1) / spread;
    return static_cast<int>((per_batch + wl.msgs_per_tx - 1) / wl.msgs_per_tx);
  }
  const double per_block =
      wl.requests_per_second * sim::to_seconds(block_interval);
  return static_cast<int>(
      std::ceil(per_block / static_cast<double>(wl.msgs_per_tx)));
}

std::string unsupported(const xcc::ExperimentConfig& c) {
  if (c.parallel_rpc_requests != 1) return "parallel_rpc_requests";
  if (c.telemetry || c.testbed.telemetry) return "telemetry";
  if (!c.trace_path.empty()) return "trace_path";
  if (!c.metrics_csv_path.empty()) return "metrics_csv_path";
  if (c.sample_interval > 0 || !c.series_csv_path.empty()) return "sampling";
  if (!c.flight_dump_path.empty()) return "flight_dump_path";
  if (c.testbed.topology.chain_count != 2) return "topology";
  return "";
}

/// Drives the scheduler. Untraced, every call goes straight to the
/// testbed's and scheduler's own loops, so the scored runs time the
/// program's path. Traced, the loops run one step at a time and each step
/// is timed and billed to the layer whose public counter moved during it.
class Stepper {
 public:
  Stepper(xcc::Testbed& tb, StepTrace* trace) : tb_(tb), trace_(trace) {}

  void watch_relayers(
      const std::vector<std::unique_ptr<relayer::Relayer>>* relayers,
      const relayer::StepLog* steps) {
    relayers_ = relayers;
    steps_ = steps;
  }
  void set_workload_phase(bool on) { workload_phase_ = on; }
  /// Starts a fresh span at the next step (phase boundaries).
  void break_span() { span_break_ = true; }
  std::uint64_t markers() const { return markers_; }

  bool step() {
    if (trace_ == nullptr) return tb_.scheduler().step();
    const Snapshot before = snapshot();
    const bool marker_before = marker_fired_;
    step_check_ns_ = 0;
    const std::uint64_t t0 = now_ns();
    const bool ran = tb_.scheduler().step();
    const std::uint64_t t1 = now_ns();
    if (ran && marker_fired_ == marker_before) {
      record(before, snapshot(), t0, t1);
    }
    return ran;
  }

  /// Testbed::run_until_height(); traced, one step() at a time.
  bool run_until_height(chain::Height height, sim::TimePoint limit) {
    if (trace_ == nullptr) return tb_.run_until_height(height, limit);
    const auto all_at = [&] {
      return tb_.chain_a().ledger->height() >= height &&
             tb_.chain_b().ledger->height() >= height;
    };
    while (tb_.scheduler().now() < limit) {
      if (all_at()) return true;
      if (!step()) return false;
    }
    return all_at();
  }

  /// Testbed::run_until(t); traced, one step() at a time. The scheduler
  /// cannot be asked for its next event time, so a marker event at `t` is
  /// scheduled; once it fires, another marker is queued behind any events
  /// the last pass scheduled at `t`, until a marker fires with nothing
  /// before it. That runs exactly the events at or before `t`, in the same
  /// order, and leaves now() at `t`. Markers are excluded from event counts.
  void run_until(sim::TimePoint t) {
    if (trace_ == nullptr) {
      tb_.run_until(t);
      return;
    }
    sim::Scheduler& sched = tb_.scheduler();
    if (t < sched.now()) return;
    for (;;) {
      const bool fired_before = marker_fired_;
      sched.schedule_at(t, [this] { marker_fired_ = !marker_fired_; });
      ++markers_;
      const std::uint64_t start = sched.executed_events();
      while (marker_fired_ == fired_before) step();
      if (sched.executed_events() - start == 1) return;
    }
  }

  /// Commit-callback brackets around the invariant checker (traced only).
  void check_begin() { check_start_ns_ = now_ns(); }
  void check_end() {
    const std::uint64_t end = now_ns();
    const std::uint64_t d = end - check_start_ns_;
    step_check_ns_ += d;
    trace_->marks.push_back({"check", check_start_ns_, d});
    if (workload_phase_) {
      trace_->check_ns.push_back(d);
      trace_->check_total_ns += d;
    } else {
      trace_->setup_check_ns += d;
    }
  }

 private:
  struct Snapshot {
    std::uint64_t heights = 0;
    std::uint64_t txs = 0;
    std::uint64_t rpc_served = 0;
    std::array<std::uint64_t, 4> relayer{};
  };

  Snapshot snapshot() const {
    Snapshot s;
    for (int c = 0; c < 2; ++c) {
      xcc::ChainDeployment& d = tb_.chain(c);
      s.heights += static_cast<std::uint64_t>(d.ledger->height());
      s.txs += d.ledger->total_txs();
      for (const auto& server : d.servers) {
        s.rpc_served += server->requests_served();
      }
    }
    if (relayers_ != nullptr) {
      for (const auto& r : *relayers_) {
        const relayer::Relayer::Stats& st = r->stats();
        s.relayer[0] += st.packets_relayed + st.packets_completed +
                        st.packets_timed_out + st.redundant_errors +
                        st.frames_failed + st.recv_txs_failed +
                        st.ack_txs_failed + st.chunk_queries +
                        st.chunk_queries_skipped + st.pull_query_failures +
                        st.ack_decode_failures + st.abandoned_packets +
                        st.coordination_skipped + st.routing_skipped;
        s.relayer[1] += r->lane_depth(0);
        s.relayer[2] += r->lane_depth(1);
      }
    }
    if (steps_ != nullptr) s.relayer[3] = steps_->records().size();
    return s;
  }

  void record(const Snapshot& before, const Snapshot& after,
              std::uint64_t t0, std::uint64_t t1) {
    Layer layer = Layer::kOther;
    if (after.heights != before.heights) {
      layer = Layer::kConsensus;
    } else if (after.rpc_served != before.rpc_served) {
      layer = Layer::kRpc;
    } else if (after.relayer != before.relayer) {
      layer = Layer::kRelayer;
    }
    const std::uint64_t d = t1 - t0;
    if (workload_phase_) {
      const auto l = static_cast<std::size_t>(layer);
      const std::uint64_t self = d - std::min(d, step_check_ns_);
      trace_->step_ns.push_back(d);
      trace_->layer_ns[l] += self;
      if (layer == Layer::kConsensus) {
        trace_->commit_ns.push_back(self);
        trace_->commit_txs += after.txs - before.txs;
      }
    }
    auto& spans = trace_->spans;
    if (!spans.empty() && spans.back().layer == layer && !span_break_) {
      spans.back().dur_ns = t1 - spans.back().start_ns;
      ++spans.back().steps;
    } else {
      spans.push_back({layer, t0, d, 1});
    }
    span_break_ = false;
  }

  xcc::Testbed& tb_;
  StepTrace* trace_;
  const std::vector<std::unique_ptr<relayer::Relayer>>* relayers_ = nullptr;
  const relayer::StepLog* steps_ = nullptr;
  bool workload_phase_ = false;
  bool marker_fired_ = false;
  bool span_break_ = true;
  std::uint64_t markers_ = 0;
  std::uint64_t check_start_ns_ = 0;
  std::uint64_t step_check_ns_ = 0;
};

void read_counts(xcc::Testbed& tb, check::InvariantChecker* checker,
                 LayerCounts& c) {
  c.net_messages = tb.network().messages_sent();
  c.net_bytes = tb.network().bytes_sent();
  for (int i = 0; i < 2; ++i) {
    xcc::ChainDeployment& d = tb.chain(i);
    c.blocks += static_cast<std::uint64_t>(d.ledger->height());
    c.txs_ok += d.app->txs_succeeded();
    c.txs_failed += d.app->txs_failed();
    c.ledger_txs += d.ledger->total_txs();
    c.mempool_rejected += d.mempool->rejected_full() +
                          d.mempool->rejected_checktx() +
                          d.mempool->censored();
    // Every admitted tx is committed, evicted on recheck or still pooled.
    c.mempool_admitted += d.ledger->total_txs() +
                          d.mempool->evicted_recheck() + d.mempool->size();
    c.store_keys += d.app->store().size();
    c.packets_received += d.ibc->packets_received();
    c.packets_acknowledged += d.ibc->packets_acknowledged();
    c.redundant_messages += d.ibc->redundant_messages();
    for (const auto& s : d.servers) {
      c.rpc_requests += s->requests_served();
      c.rpc_rejected += s->requests_rejected();
      c.rpc_busy_seconds += sim::to_seconds(s->busy_time());
    }
  }
  c.check_blocks = checker != nullptr ? checker->blocks_checked() : 0;
}

}  // namespace

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::kConsensus: return "consensus";
    case Layer::kRpc: return "rpc";
    case Layer::kRelayer: return "relayer";
    case Layer::kOther: return "other";
  }
  return "other";
}

PhasedRun run_phased(const xcc::ExperimentConfig& config, StepTrace* trace,
                     bool setup_only) {
  PhasedRun run;
  if (const std::string bad = unsupported(config); !bad.empty()) {
    run.error = "unsupported config: " + bad;
    return run;
  }
  if (trace != nullptr) telemetry::profiler::start();
  const auto finish_trace = [&] {
    if (trace != nullptr) trace->profile = telemetry::profiler::stop();
  };

  xcc::TestbedConfig tb_cfg = config.testbed;
  tb_cfg.user_accounts = std::max(
      tb_cfg.user_accounts,
      accounts_needed(config.workload, tb_cfg.min_block_interval) + 4);
  tb_cfg.relayer_wallets =
      std::max(tb_cfg.relayer_wallets, std::max(config.relayer_count, 1));
  // The benchmark builds the checker itself so that a traced run can put it
  // between two commit callbacks of its own and bracket its time. Its
  // constructor only subscribes, so this keeps its place in the callback
  // order.
  const bool checks = tb_cfg.invariant_checks;
  tb_cfg.invariant_checks = false;

  try {
    const std::uint64_t t_genesis = now_ns();
    xcc::Testbed tb(tb_cfg);
    Stepper stepper(tb, trace);
    std::unique_ptr<check::InvariantChecker> checker;
    if (checks) {
      for (int c = 0; c < 2 && trace != nullptr; ++c) {
        tb.chain(c).engine->subscribe_block(
            [&stepper](const chain::Block&,
                       const std::vector<chain::DeliverTxResult>&) {
              stepper.check_begin();
            });
      }
      check::CheckerConfig cc;
      cc.fail_fast = tb_cfg.invariant_fail_fast;
      checker = std::make_unique<check::InvariantChecker>(
          check::ChainHandles{tb.chain_a().id, tb.chain_a().app.get(),
                              tb.chain_a().engine.get()},
          check::ChainHandles{tb.chain_b().id, tb.chain_b().app.get(),
                              tb.chain_b().engine.get()},
          cc);
      for (int c = 0; c < 2 && trace != nullptr; ++c) {
        tb.chain(c).engine->subscribe_block(
            [&stepper](const chain::Block&,
                       const std::vector<chain::DeliverTxResult>&) {
              stepper.check_end();
            });
      }
    }
    const std::uint64_t t_start = now_ns();
    run.genesis_s = seconds_between(t_genesis, t_start);

    // --- Setup: start chains, open the channel -------------------------------
    tb.start_chains();
    const sim::TimePoint hard_limit = config.max_sim_time;
    if (!stepper.run_until_height(2, hard_limit)) {
      run.error = "chains failed to start";
      finish_trace();
      return run;
    }
    xcc::HandshakeDriver handshake(tb, /*relayer_wallet=*/0, /*machine=*/0);
    const std::uint64_t t_handshake = now_ns();
    const xcc::ChannelSetupResult channel =
        handshake.establish_channel_blocking(hard_limit);
    const std::uint64_t t_open = now_ns();
    run.handshake_s = seconds_between(t_start, t_open);
    run.setup_s = seconds_between(t_genesis, t_open);
    run.counts.setup_events = tb.scheduler().executed_events() -
                              stepper.markers();
    if (trace != nullptr) {
      trace->marks.push_back({"setup.genesis", t_genesis, t_start - t_genesis});
      trace->marks.push_back(
          {"setup.start_chains", t_start, t_handshake - t_start});
      trace->marks.push_back(
          {"setup.handshake", t_handshake, t_open - t_handshake});
    }
    if (!channel.ok) {
      run.error = "channel setup failed: " + channel.error;
      finish_trace();
      return run;
    }
    if (setup_only) {
      run.ok = true;
      finish_trace();
      return run;
    }
    stepper.set_workload_phase(true);
    stepper.break_span();

    // --- Relayers -------------------------------------------------------------
    relayer::StepLog steps;
    std::vector<std::unique_ptr<relayer::Relayer>> relayers;
    for (int k = 0; k < config.relayer_count; ++k) {
      const auto machine = static_cast<std::size_t>(k % tb_cfg.machines);
      relayer::ChainHandle ha{tb.chain_a().servers[machine].get(),
                              tb.chain_a().id, {tb.relayer_account_a(k)}};
      relayer::ChainHandle hb{tb.chain_b().servers[machine].get(),
                              tb.chain_b().id, {tb.relayer_account_b(k)}};
      relayer::RelayerConfig rc = config.relayer;
      rc.machine = static_cast<net::MachineId>(machine);
      rc.coordination.relayer_index = k;
      rc.coordination.relayer_count = config.relayer_count;
      relayer::StepLog* log =
          (k == 0 && config.collect_steps) ? &steps : nullptr;
      relayers.push_back(std::make_unique<relayer::Relayer>(
          tb.scheduler(), ha, hb, channel.path(), rc, log));
      relayers.back()->set_telemetry(tb.hub(), "relayer" + std::to_string(k));
      relayers.back()->start();
    }
    stepper.watch_relayers(&relayers, config.collect_steps ? &steps : nullptr);

    // --- Workload window --------------------------------------------------------
    xcc::WorkloadConfig wl_cfg = config.workload;
    if (wl_cfg.total_transfers == 0) {
      wl_cfg.duration_blocks = config.measure_blocks;
    }
    std::unique_ptr<xcc::TransferWorkload> closed;
    std::unique_ptr<xcc::OpenLoopWorkload> open;
    if (wl_cfg.open_loop) {
      open = std::make_unique<xcc::OpenLoopWorkload>(tb, channel, wl_cfg);
    } else {
      closed = std::make_unique<xcc::TransferWorkload>(
          tb, channel, wl_cfg, config.collect_steps ? &steps : nullptr);
    }
    const auto wl_finished = [&] {
      return open ? open->finished() : closed->finished();
    };
    const auto wl_stats = [&]() -> const xcc::TransferWorkload::Stats& {
      return open ? open->stats() : closed->stats();
    };
    const chain::Height start_height = tb.chain_a().ledger->height();
    if (open) {
      open->start();
    } else {
      closed->start();
    }
    // wall_s is cut into segments: one per block of the window, one per
    // kStepsPerSegment events of the workload tail, one per drain chunk.
    // The simulation is deterministic, so segment k does the same work in
    // every run of a config.
    std::uint64_t segment_start = t_open;
    const auto cut_segment = [&](std::uint64_t at) {
      run.segments_s.push_back(seconds_between(segment_start, at));
      segment_start = at;
    };
    const chain::Height window_end = start_height + config.measure_blocks;
    for (chain::Height h = start_height + 1; h <= window_end; ++h) {
      stepper.run_until_height(h, hard_limit);
      cut_segment(now_ns());
    }

    xcc::ExperimentResult& result = run.result;
    xcc::Analyzer analyzer(tb, channel);
    result.window_breakdown =
        analyzer.completion_breakdown(wl_stats().requested);
    result.window_seconds = analyzer.window_seconds(
        start_height, std::min(window_end, tb.chain_a().ledger->height()));
    if (result.window_seconds > 0) {
      result.tfps = static_cast<double>(result.window_breakdown.completed) /
                    result.window_seconds;
      result.inclusion_tfps =
          static_cast<double>(
              analyzer.included_transfers(start_height, window_end)) /
          result.window_seconds;
    }
    result.block_intervals =
        analyzer.block_intervals(start_height, window_end);
    if (!result.block_intervals.empty()) {
      double sum = 0;
      for (double v : result.block_intervals) sum += v;
      result.avg_block_interval =
          sum / static_cast<double>(result.block_intervals.size());
    }
    result.empty_blocks = tb.chain_a().engine->empty_blocks();

    if (config.wait_for_workload) {
      constexpr std::uint64_t kStepsPerSegment = 256;
      std::uint64_t n = 0;
      while (!wl_finished() && tb.scheduler().now() < hard_limit) {
        if (!stepper.step()) break;
        if (++n % kStepsPerSegment == 0) cut_segment(now_ns());
      }
    }

    // --- Drain --------------------------------------------------------------------
    if (config.wait_for_drain) {
      sim::TimePoint last_progress = tb.scheduler().now();
      xcc::CompletionBreakdown last =
          analyzer.completion_breakdown(wl_stats().requested);
      std::size_t last_steps = steps.records().size();
      while (tb.scheduler().now() < hard_limit) {
        stepper.run_until(tb.scheduler().now() + sim::seconds(5));
        cut_segment(now_ns());
        const xcc::CompletionBreakdown now =
            analyzer.completion_breakdown(wl_stats().requested);
        const bool all_resolved =
            now.partial == 0 && now.initiated_only == 0 && wl_finished();
        if (now.completed != last.completed || now.partial != last.partial ||
            now.initiated_only != last.initiated_only ||
            now.timed_out != last.timed_out ||
            steps.records().size() != last_steps) {
          last_progress = tb.scheduler().now();
          last = now;
          last_steps = steps.records().size();
        }
        if (all_resolved) break;
        if (tb.scheduler().now() - last_progress >
            config.drain_no_progress_limit) {
          break;
        }
      }
    }
    result.final_breakdown =
        analyzer.completion_breakdown(wl_stats().requested);
    const std::uint64_t t_end = now_ns();
    cut_segment(t_end);
    run.wall_s = seconds_between(t_open, t_end);
    stepper.set_workload_phase(false);

    // --- Collect ------------------------------------------------------------------
    for (auto& r : relayers) {
      result.relayers.push_back(r->stats());
      result.query_cache.merge(r->query_cache().stats());
      result.sequence_mismatch_errors +=
          r->wallet_a().sequence_mismatch_errors() +
          r->wallet_b().sequence_mismatch_errors();
      result.no_confirmation_errors += r->wallet_a().no_confirmation_errors() +
                                       r->wallet_b().no_confirmation_errors();
      result.rpc_unavailable_errors += r->wallet_a().rpc_unavailable_errors() +
                                       r->wallet_b().rpc_unavailable_errors();
      r->stop();
    }
    result.workload = wl_stats();
    if (closed) {
      result.sequence_mismatch_errors += closed->sequence_mismatch_errors();
      result.no_confirmation_errors += closed->no_confirmation_errors();
      result.rpc_unavailable_errors += closed->rpc_unavailable_errors();
    }
    result.steps = std::move(steps);
    const auto broadcasts = result.steps.completion_times_seconds(
        relayer::Step::kTransferBroadcast);
    const double last_ack =
        result.steps.step_finish_seconds(relayer::Step::kAckConfirmation);
    if (!broadcasts.empty() && last_ack > 0) {
      result.completion_latency_seconds = last_ack - broadcasts.front();
    }
    result.rpc_busy_seconds_a =
        sim::to_seconds(tb.chain_a().servers[0]->busy_time());
    result.rpc_busy_seconds_b =
        sim::to_seconds(tb.chain_b().servers[0]->busy_time());
    result.sim_seconds = sim::to_seconds(tb.scheduler().now());
    result.events_executed =
        tb.scheduler().executed_events() - stepper.markers();

    finish_trace();
    read_counts(tb, checker.get(), run.counts);
    run.counts.workload_events =
        result.events_executed - run.counts.setup_events;
    run.app_hash_a = crypto::digest_hex(tb.chain_a().app->store().root());
    run.app_hash_b = crypto::digest_hex(tb.chain_b().app->store().root());
    result.ok = true;
    run.ok = true;
  } catch (const std::exception& e) {
    // InvariantViolation (fail-fast checker) lands here too.
    finish_trace();
    run.ok = false;
    run.error = e.what();
  }
  return run;
}

namespace {

util::json::Value breakdown_json(const xcc::CompletionBreakdown& b) {
  util::json::Value v = util::json::Value::object();
  v.set("requested", b.requested);
  v.set("uncommitted", b.uncommitted);
  v.set("initiated_only", b.initiated_only);
  v.set("partial", b.partial);
  v.set("completed", b.completed);
  v.set("timed_out", b.timed_out);
  return v;
}

/// FNV-1a over the step log's records: the log of a burst holds ~65 k
/// records, too many to carry in the record itself.
std::string step_log_hash(const relayer::StepLog& log) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const relayer::StepRecord& r : log.records()) {
    mix(static_cast<std::uint64_t>(r.time));
    mix(static_cast<std::uint64_t>(r.step));
    mix(r.sequence);
    mix(r.hop);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

util::json::Value virtual_results(const xcc::ExperimentResult& r) {
  using util::json::Value;
  Value v = Value::object();
  v.set("window_breakdown", breakdown_json(r.window_breakdown));
  v.set("tfps", r.tfps);
  v.set("inclusion_tfps", r.inclusion_tfps);
  v.set("window_seconds", r.window_seconds);
  util::json::Array intervals(r.block_intervals.begin(),
                              r.block_intervals.end());
  v.set("block_intervals", Value(std::move(intervals)));
  v.set("avg_block_interval", r.avg_block_interval);
  v.set("empty_blocks", r.empty_blocks);
  v.set("final_breakdown", breakdown_json(r.final_breakdown));
  v.set("completion_latency_seconds", r.completion_latency_seconds);
  v.set("step_records", static_cast<std::uint64_t>(r.steps.records().size()));
  v.set("step_log_fnv", step_log_hash(r.steps));
  Value wl = Value::object();
  wl.set("requested", r.workload.requested);
  wl.set("broadcast", r.workload.broadcast);
  wl.set("committed", r.workload.committed);
  wl.set("failed_submission", r.workload.failed_submission);
  v.set("workload", std::move(wl));
  Value relayers = Value::array();
  for (const relayer::Relayer::Stats& s : r.relayers) {
    Value o = Value::object();
    o.set("packets_relayed", s.packets_relayed);
    o.set("packets_completed", s.packets_completed);
    o.set("packets_timed_out", s.packets_timed_out);
    o.set("redundant_errors", s.redundant_errors);
    o.set("frames_failed", s.frames_failed);
    o.set("recv_txs_failed", s.recv_txs_failed);
    o.set("ack_txs_failed", s.ack_txs_failed);
    o.set("chunk_queries", s.chunk_queries);
    o.set("chunk_queries_skipped", s.chunk_queries_skipped);
    o.set("pull_query_failures", s.pull_query_failures);
    o.set("ack_decode_failures", s.ack_decode_failures);
    o.set("abandoned_packets", s.abandoned_packets);
    o.set("coordination_skipped", s.coordination_skipped);
    o.set("routing_skipped", s.routing_skipped);
    relayers.push_back(std::move(o));
  }
  v.set("relayers", std::move(relayers));
  v.set("query_cache_hits", r.query_cache.hits);
  v.set("query_cache_misses", r.query_cache.misses);
  v.set("sequence_mismatch_errors", r.sequence_mismatch_errors);
  v.set("no_confirmation_errors", r.no_confirmation_errors);
  v.set("rpc_unavailable_errors", r.rpc_unavailable_errors);
  v.set("rpc_busy_seconds_a", r.rpc_busy_seconds_a);
  v.set("rpc_busy_seconds_b", r.rpc_busy_seconds_b);
  v.set("sim_seconds", r.sim_seconds);
  v.set("events_executed", r.events_executed);
  return v;
}

util::json::Value virtual_record(const PhasedRun& run) {
  using util::json::Value;
  Value v = Value::object();
  v.set("results", virtual_results(run.result));
  v.set("app_hash_a", run.app_hash_a);
  v.set("app_hash_b", run.app_hash_b);
  const LayerCounts& c = run.counts;
  Value counts = Value::object();
  counts.set("setup_events", c.setup_events);
  counts.set("net_messages", c.net_messages);
  counts.set("net_bytes", c.net_bytes);
  counts.set("blocks", c.blocks);
  counts.set("txs_ok", c.txs_ok);
  counts.set("txs_failed", c.txs_failed);
  counts.set("ledger_txs", c.ledger_txs);
  counts.set("mempool_admitted", c.mempool_admitted);
  counts.set("mempool_rejected", c.mempool_rejected);
  counts.set("store_keys", c.store_keys);
  counts.set("packets_received", c.packets_received);
  counts.set("packets_acknowledged", c.packets_acknowledged);
  counts.set("redundant_messages", c.redundant_messages);
  counts.set("rpc_requests", c.rpc_requests);
  counts.set("rpc_rejected", c.rpc_rejected);
  counts.set("rpc_busy_seconds", c.rpc_busy_seconds);
  counts.set("check_blocks", c.check_blocks);
  v.set("counts", std::move(counts));
  return v;
}

bool write_chrome_trace(const StepTrace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~0ULL;
  for (const auto& m : trace.marks) origin = std::min(origin, m.start_ns);
  for (const auto& s : trace.spans) origin = std::min(origin, s.start_ns);
  if (origin == ~0ULL) origin = 0;
  const auto us = [origin](std::uint64_t ns) {
    return static_cast<double>(ns - origin) / 1e3;
  };
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  // tid 1: setup phases and steps; checker calls nest inside commit steps.
  for (const auto& m : trace.marks) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 static_cast<int>(m.name.size()), m.name.data(),
                 us(m.start_ns), static_cast<double>(m.dur_ns) / 1e3);
  }
  for (const auto& s : trace.spans) {
    const std::string_view name = layer_name(s.layer);
    sep();
    std::fprintf(f,
                 "{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"steps\":%u}}",
                 static_cast<int>(name.size()), name.data(), us(s.start_ns),
                 static_cast<double>(s.dur_ns) / 1e3, s.steps);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
