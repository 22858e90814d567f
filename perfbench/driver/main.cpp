// Benchmark driver: runs one workload config for a host-time budget and
// prints one JSON line per measured run, for perfbench/run.py to aggregate.
//
//   perfbench --seconds S --trace 0|1 [--spans FILE] key=value...
//   perfbench --once key=value...   one untraced run (recording digests)
//
// The keys are the generated workload config (see apply() below); the
// benchmark's seed reaches the program only as the testbed seed in it. One
// simulation runs at a time, on the calling thread.
//
// Output lines:
//   {"kind":"host", ...}   CPU model and hardware threads
//   {"kind":"rep", ...}    full runs: host times, virtual record, and, for a
//                          traced run, the per-layer metrics. The first is a
//                          warm-up ("scored": false): checked, not timed.
//   {"kind":"setup", ...}  set-up-only runs that sample setup_s, after
//                          each untraced full run where set-up is cheap
//   {"kind":"end", ...}    peak RSS of the process

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "driver/phases.hpp"
#include "xcc/bench_report.hpp"

namespace {

using util::json::Value;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Applies one generated config key; false for an unknown key or a value
/// that is not a non-negative number.
bool apply(xcc::ExperimentConfig& c, const std::string& key,
           const std::string& value) {
  char* end = nullptr;
  const double d = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !(d >= 0) || d > 1e18) return false;
  const auto u = static_cast<std::uint64_t>(
      d < 1e18 ? std::strtoull(value.c_str(), nullptr, 10) : 0);
  const bool flag = d != 0;
  if (key == "seed") {
    c.testbed.seed = u;
  } else if (key == "relayers") {
    c.relayer_count = static_cast<int>(u);
  } else if (key == "rps") {
    c.workload.requests_per_second = d;
  } else if (key == "rtt_ms") {
    c.testbed.rtt = sim::millis(static_cast<std::int64_t>(u));
  } else if (key == "measure_blocks") {
    c.measure_blocks = static_cast<int>(u);
  } else if (key == "collect_steps") {
    c.collect_steps = flag;
  } else if (key == "wait_for_drain") {
    c.wait_for_drain = flag;
  } else if (key == "wait_for_workload") {
    c.wait_for_workload = flag;
  } else if (key == "drain_limit_s") {
    c.drain_no_progress_limit = sim::seconds(static_cast<std::int64_t>(u));
  } else if (key == "max_sim_s") {
    c.max_sim_time = sim::seconds(static_cast<std::int64_t>(u));
  } else if (key == "total_transfers") {
    c.workload.total_transfers = u;
  } else if (key == "spread_blocks") {
    c.workload.spread_blocks = static_cast<int>(u);
  } else if (key == "open_loop") {
    c.workload.open_loop = flag;
  } else if (key == "accounts") {
    c.workload.open_loop_accounts = static_cast<std::size_t>(u);
  } else if (key == "zipf") {
    c.workload.zipf_exponent = d;
  } else if (key == "tx_rate") {
    c.workload.open_loop_tx_rate = d;
  } else if (key == "msgs_per_tx") {
    c.workload.msgs_per_tx = static_cast<std::size_t>(u);
  } else {
    return false;
  }
  return true;
}

Value layer_metrics(const perfbench::PhasedRun& run,
                    const perfbench::StepTrace& t) {
  using perfbench::Layer;
  const perfbench::LayerCounts& c = run.counts;
  const xcc::ExperimentResult& r = run.result;
  const auto ns = [&t](Layer l) {
    return static_cast<double>(t.layer_ns[static_cast<std::size_t>(l)]);
  };
  const double wall_ns = run.wall_s * 1e9;
  double step_total = 0;
  for (std::uint64_t s : t.step_ns) step_total += static_cast<double>(s);
  std::uint64_t relayed = 0, completed = 0, chunks = 0, skipped = 0;
  for (const auto& s : r.relayers) {
    relayed += s.packets_relayed;
    completed += s.packets_completed;
    chunks += s.chunk_queries;
    skipped += s.chunk_queries_skipped;
  }
  const auto& hash = t.profile.entry(telemetry::ProfileKey::kCryptoHash);
  const auto& store = t.profile.entry(telemetry::ProfileKey::kKvStore);
  const double requested = static_cast<double>(r.workload.requested);
  const double packet_msgs = static_cast<double>(
      c.packets_received + c.packets_acknowledged + c.redundant_messages);

  Value m = Value::object();
  m.set("sim.events", c.workload_events);
  m.set("sim.ns_per_event",
        ratio(step_total, static_cast<double>(c.workload_events)));
  m.set("sim.step_ns_p50", percentile(t.step_ns, 0.50));
  m.set("sim.step_ns_p99", percentile(t.step_ns, 0.99));
  m.set("sim.other_share", ratio(ns(Layer::kOther), wall_ns));
  m.set("net.messages", c.net_messages);
  m.set("net.bytes", c.net_bytes);
  m.set("consensus.blocks", c.blocks);
  m.set("consensus.commit_ms_p50", percentile(t.commit_ns, 0.50) / 1e6);
  m.set("consensus.commit_ms_p99", percentile(t.commit_ns, 0.99) / 1e6);
  m.set("consensus.commit_ns_per_tx",
        ratio(ns(Layer::kConsensus), static_cast<double>(t.commit_txs)));
  m.set("consensus.share", ratio(ns(Layer::kConsensus), wall_ns));
  m.set("cosmos.txs_ok", c.txs_ok);
  m.set("cosmos.txs_failed", c.txs_failed);
  m.set("chain.ledger.txs", c.ledger_txs);
  m.set("chain.mempool.rejected", c.mempool_rejected);
  m.set("chain.mempool.admit_frac",
        ratio(static_cast<double>(c.mempool_admitted),
              static_cast<double>(c.mempool_admitted + c.mempool_rejected)));
  m.set("chain.store.keys", c.store_keys);
  m.set("crypto.hash_calls", hash.calls);
  m.set("crypto.ns_per_hash", ratio(static_cast<double>(hash.nanos),
                                    static_cast<double>(hash.calls)));
  m.set("chain.store.ops", store.calls);
  m.set("chain.store.ns_per_op", ratio(static_cast<double>(store.nanos),
                                       static_cast<double>(store.calls)));
  m.set("ibc.packets_received", c.packets_received);
  m.set("ibc.packets_acknowledged", c.packets_acknowledged);
  m.set("ibc.redundant_frac",
        ratio(static_cast<double>(c.redundant_messages), packet_msgs));
  m.set("rpc.requests", c.rpc_requests);
  m.set("rpc.rejected", c.rpc_rejected);
  m.set("rpc.busy_virtual_s", c.rpc_busy_seconds);
  m.set("rpc.step_ns_per_request",
        ratio(ns(Layer::kRpc), static_cast<double>(c.rpc_requests)));
  m.set("rpc.share", ratio(ns(Layer::kRpc), wall_ns));
  m.set("relayer.packets_relayed", relayed);
  m.set("relayer.packets_completed", completed);
  m.set("relayer.chunk_queries", chunks);
  m.set("relayer.chunk_skip_frac",
        ratio(static_cast<double>(skipped), static_cast<double>(chunks + skipped)));
  m.set("relayer.step_ns_per_packet",
        ratio(ns(Layer::kRelayer), static_cast<double>(relayed)));
  m.set("relayer.share", ratio(ns(Layer::kRelayer), wall_ns));
  m.set("check.blocks", c.check_blocks);
  m.set("check.ms_per_block_p50", percentile(t.check_ns, 0.50) / 1e6);
  m.set("check.ms_per_block_p99", percentile(t.check_ns, 0.99) / 1e6);
  m.set("check.share",
        ratio(static_cast<double>(t.check_total_ns), wall_ns));
  m.set("check.setup_share",
        ratio(static_cast<double>(t.setup_check_ns), run.setup_s * 1e9));
  m.set("xcc.setup.genesis_s", run.genesis_s);
  m.set("xcc.setup.handshake_s", run.handshake_s);
  m.set("xcc.setup.events", c.setup_events);
  m.set("xcc.committed_frac",
        ratio(static_cast<double>(r.workload.committed), requested));
  m.set("xcc.completed_frac",
        ratio(static_cast<double>(r.final_breakdown.completed), requested));
  m.set("telemetry.attributed_frac",
        ratio(ns(Layer::kConsensus) + ns(Layer::kRpc) + ns(Layer::kRelayer) +
                  static_cast<double>(t.check_total_ns),
              wall_ns));
  return m;
}

/// CPU brand string from CPUID (no file reads), "unknown" elsewhere.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand.resize(brand.find('\0') == std::string::npos ? brand.size()
                                                        : brand.find('\0'));
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

Value rep_line(const perfbench::PhasedRun& run, bool traced, bool scored) {
  Value v = Value::object();
  v.set("kind", "rep");
  v.set("traced", traced);
  v.set("scored", scored);
  v.set("ok", run.ok);
  v.set("error", run.error);
  v.set("setup_s", run.setup_s);
  v.set("wall_s", run.wall_s);
  v.set("segments_s", Value(util::json::Array(run.segments_s.begin(),
                                              run.segments_s.end())));
  if (run.ok) v.set("record", perfbench::virtual_record(run));
  return v;
}

void emit(const Value& v) { std::cout << v.dump(0) << std::endl; }

int usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --seconds S --trace 0|1 [--spans FILE] "
               "key=value...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xcc::ExperimentConfig config;
  double seconds = 0;
  int trace = -1;
  std::string spans_path;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
      continue;
    }
    if ((arg == "--seconds" || arg == "--trace" || arg == "--spans") &&
        i + 1 < argc) {
      const std::string value = argv[++i];
      if (arg == "--seconds") seconds = std::atof(value.c_str());
      if (arg == "--trace") trace = std::atoi(value.c_str());
      if (arg == "--spans") spans_path = value;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos ||
        !apply(config, arg.substr(0, eq), arg.substr(eq + 1))) {
      return usage("bad argument: " + arg);
    }
  }
  Value end = Value::object();
  end.set("kind", "end");
  if (once) {
    emit(rep_line(perfbench::run_phased(config, nullptr), false, true));
    end.set("peak_rss_mib",
            static_cast<double>(xcc::peak_rss_bytes()) / (1024.0 * 1024.0));
    emit(end);
    return 0;
  }
  if (seconds <= 0) return usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  Value host = Value::object();
  host.set("kind", "host");
  host.set("cpu_model", cpu_model());
  host.set("hardware_threads",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  emit(host);

  // Warm-up: the first run of a process pays page faults and cold caches
  // that later runs do not (a burst's first run takes twice as long). Its
  // results are checked; its times are not scored.
  const perfbench::PhasedRun warm = perfbench::run_phased(config, nullptr);
  emit(rep_line(warm, false, false));

  // Where set-up is cheap (under 1 % of a run), each untraced run is
  // followed by set-up-only samples, so setup_s is scored over many samples
  // spread across the whole budget rather than over one stretch of it.
  const int setup_samples = warm.setup_s * 100 < warm.wall_s ? 5 : 0;
  const auto sample_setup = [&] {
    for (int n = 0; n < setup_samples; ++n) {
      const perfbench::PhasedRun run =
          perfbench::run_phased(config, nullptr, /*setup_only=*/true);
      Value v = Value::object();
      v.set("kind", "setup");
      v.set("ok", run.ok);
      v.set("error", run.error);
      v.set("setup_s", run.setup_s);
      emit(v);
    }
  };

  // Full runs until the budget is spent: a run starts only if a typical run
  // still fits. Traced: half the budget untraced, half traced, so the
  // tracing overhead compares runs of the same process.
  const auto run_for = [&](double until, bool traced, int min_reps) {
    std::vector<double> durations;
    for (;;) {
      const double now = now_s();
      if (static_cast<int>(durations.size()) >= min_reps &&
          now + median(durations) > until) {
        break;
      }
      perfbench::StepTrace st;
      const perfbench::PhasedRun run =
          perfbench::run_phased(config, traced ? &st : nullptr);
      Value v = rep_line(run, traced, true);
      if (traced && run.ok) {
        v.set("layers", layer_metrics(run, st));
        if (!spans_path.empty()) {
          v.set("spans_written", perfbench::write_chrome_trace(st, spans_path));
        }
      }
      emit(v);
      if (!traced) sample_setup();
      durations.push_back(now_s() - now);
    }
  };
  const double start = now_s();
  if (trace == 0) {
    run_for(start + seconds, false, 2);
  } else {
    run_for(start + seconds / 2, false, 1);
    run_for(start + seconds, true, 1);
  }

  end.set("peak_rss_mib",
          static_cast<double>(xcc::peak_rss_bytes()) / (1024.0 * 1024.0));
  emit(end);
  return 0;
}
