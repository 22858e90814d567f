#pragma once
// Shared helpers for the bench binaries.
//
// Every binary accepts:
//   --full         run the paper's full sweep (20 executions per point);
//                  default is a trimmed grid so `for b in build/bench/*`
//                  finishes quickly
//   --reps N       override the executions per point
//   --csv PATH     also write the table as CSV (default: <bench>.csv in cwd);
//                  a sweep family (bench_inclusion_sweep, bench_relayer_sweep)
//                  writes its figure CSVs into directory PATH (default: cwd)
//   --jobs N       worker threads for the sweep (default: hardware
//                  concurrency). Every repetition is an independent,
//                  seed-deterministic simulation, so results — and the CSV —
//                  are byte-identical for any N.
//   --trace FILE   enable telemetry on the sweep's FIRST experiment and
//                  write its Chrome trace-event JSON (open in Perfetto) to
//                  FILE, plus the metrics snapshot to FILE.metrics.csv.
//                  One experiment only, so the output is a single
//                  deterministic file (byte-identical across runs).
//   --json PATH    write a machine-readable bench report (see
//                  xcc/bench_report.hpp): the result table and metrics in a
//                  deterministic "virtual" section, wall time / events-per-
//                  second / profiler breakdown in a nondeterministic "host"
//                  section. Also arms the host-time profiler for the run.
//                  Unlike --trace it does NOT force step collection, so the
//                  virtual results are identical to a plain run.
//   --series FILE  sample the first experiment's metrics + component probes
//                  over virtual time (one row per source block interval)
//                  and write the time-series CSV to FILE; with --json the
//                  report gains a virtual `series` summary section.
//   --flight FILE  arm the flight recorder on the first experiment; the
//                  first failure trigger (invariant violation, abandoned
//                  packet) dumps journal + metrics + series to FILE
//                  (render with tools/run_report).
//
// Unknown options are an error (usage + exit 1): a typoed flag must not
// silently fall back to default behaviour. Bench-specific flags register a
// FlagSpec so parse_options can accept them and list them under --help.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/table.hpp"
#include "xcc/bench_report.hpp"
#include "xcc/experiment.hpp"
#include "xcc/parallel.hpp"

namespace bench {

struct Options {
  bool full = false;
  int reps = 0;  // 0 = per-bench default
  int jobs = 0;  // 0 = hardware concurrency
  std::string csv;
  std::string trace;   // --trace FILE: trace the sweep's first experiment
  std::string json;    // --json PATH: write the machine-readable report
  std::string series;  // --series FILE: time-series CSV, first experiment
  std::string flight;  // --flight FILE: flight-dump path, first experiment
  /// Bench id: the default CSV name minus ".csv", or a sweep family's id.
  std::string bench;
  /// Bench-specific flags actually passed, in command-line order; value-less
  /// flags record "true". Embedded in the report's config section.
  std::vector<std::pair<std::string, std::string>> extra;
};

/// A bench-specific flag parse_options should accept (and --help list).
struct FlagSpec {
  std::string name;  // "--smoke"
  bool takes_value = false;
  std::string help;
};

namespace detail {

/// Accumulated report state for this binary (one bench per process): sweep
/// utilisation, merged profiler output and the first experiment's metrics.
struct ReportState {
  xcc::ProfileCollector profiler;
  xcc::SweepStats sweep{};
  telemetry::MetricsSnapshot metrics;
  bool have_metrics = false;
  telemetry::SeriesSnapshot series;
  std::vector<telemetry::WatchdogWarning> warnings;
  bool have_series = false;

  void add_sweep(const xcc::SweepStats& s) {
    sweep.workers = std::max(sweep.workers, s.workers);
    sweep.jobs += s.jobs;
    sweep.wall_seconds += s.wall_seconds;
    sweep.aggregate_seconds += s.aggregate_seconds;
  }
};

inline ReportState g_report;

}  // namespace detail

/// `default_csv` names the bench's CSV ("fig12_latency_breakdown.csv"). A
/// bare id without the suffix ("relayer_sweep") marks a sweep family that
/// writes one CSV per figure: `--csv` then names their directory, and the
/// default is the working directory.
inline Options parse_options(int argc, char** argv,
                             const std::string& default_csv,
                             const std::vector<FlagSpec>& extra_flags = {}) {
  const bool one_csv = default_csv.size() > 4 &&
                       default_csv.rfind(".csv") == default_csv.size() - 4;
  const bool family = !default_csv.empty() && !one_csv;
  Options opt;
  opt.csv = family ? "" : default_csv;
  opt.bench = one_csv ? default_csv.substr(0, default_csv.size() - 4)
                      : default_csv;

  const auto usage = [&](std::ostream& os) {
    os << "usage: " << (argc > 0 ? argv[0] : "bench") << " [options]\n"
       << "  --full        run the paper's full sweep\n"
       << "  --reps N      executions per sweep point\n"
       << "  --jobs N      worker threads (default: hardware concurrency)\n";
    if (family) {
      os << "  --csv DIR     directory for the figure CSVs (default: cwd)\n";
    } else {
      os << "  --csv PATH    write the result table as CSV (default: "
         << (default_csv.empty() ? "none" : default_csv) << ")\n";
    }
    os << "  --trace FILE  telemetry on the first experiment: Chrome trace\n"
       << "                JSON to FILE + metrics CSV to FILE.metrics.csv\n"
       << "                (forces step collection — observer effect)\n"
       << "  --json PATH   write the machine-readable bench report (virtual\n"
       << "                + host sections); arms the host-time profiler\n"
       << "  --series FILE sample the first experiment over virtual time;\n"
       << "                time-series CSV to FILE\n"
       << "  --flight FILE arm the flight recorder on the first experiment;\n"
       << "                a failure dumps journal+metrics+series to FILE\n"
       << "  --help        show this help\n";
    for (const FlagSpec& f : extra_flags) {
      os << "  " << f.name << (f.takes_value ? " V" : "") << "  " << f.help
         << "\n";
    }
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    const auto take_value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 < argc) return argv[++i];
      std::cerr << "option " << arg << " requires a value\n";
      usage(std::cerr);
      std::exit(1);
    };

    if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--reps") {
      opt.reps = std::atoi(take_value().c_str());
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(take_value().c_str());
    } else if (arg == "--csv") {
      opt.csv = take_value();
    } else if (arg == "--trace") {
      opt.trace = take_value();
    } else if (arg == "--json") {
      opt.json = take_value();
    } else if (arg == "--series") {
      opt.series = take_value();
    } else if (arg == "--flight") {
      opt.flight = take_value();
    } else if (arg == "--help") {
      usage(std::cout);
      std::exit(0);
    } else {
      bool matched = false;
      for (const FlagSpec& f : extra_flags) {
        if (f.name == arg) {
          opt.extra.emplace_back(arg, f.takes_value ? take_value() : "true");
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::cerr << "unknown option: " << argv[i] << "\n";
        usage(std::cerr);
        std::exit(1);
      }
    }
  }
  return opt;
}

/// True when the bench-specific flag `name` was passed, in any spelling
/// parse_options accepts ("--smoke" or "--smoke=1").
inline bool has_flag(const Options& opt, const std::string& name) {
  return std::any_of(opt.extra.begin(), opt.extra.end(),
                     [&](const auto& flag) { return flag.first == name; });
}

inline int reps_or(const Options& opt, int trimmed, int full) {
  if (opt.reps > 0) return opt.reps;
  return opt.full ? full : trimmed;
}

/// Worker-thread count for a sweep (--jobs, default hardware concurrency).
inline int jobs_or_default(const Options& opt) {
  return opt.jobs > 0 ? opt.jobs : xcc::default_workers();
}

/// Seeds: one deterministic seed per repetition.
inline std::uint64_t seed_for(int rep) {
  return 0xD5A7000ULL + static_cast<std::uint64_t>(rep) * 7919;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "== " << title << " ==\n";
  std::cout << "paper reference: " << paper << "\n\n";
}

/// Header variant that also announces the parallel configuration.
inline void print_header(const std::string& title, const std::string& paper,
                         const Options& opt) {
  std::cout << "== " << title << " ==\n";
  std::cout << "paper reference: " << paper << "\n";
  std::cout << "parallel sweep: up to " << jobs_or_default(opt)
            << " worker(s)\n\n";
}

/// Prints the utilisation of a finished sweep (the achieved speedup over a
/// serial execution of the same points).
inline void print_sweep_summary(const xcc::SweepStats& stats) {
  std::cout << "[sweep] " << stats.jobs << " run(s) on " << stats.workers
            << " worker(s): wall " << util::fmt_double(stats.wall_seconds, 1)
            << " s, aggregate "
            << util::fmt_double(stats.aggregate_seconds, 1) << " s, speedup "
            << util::fmt_double(stats.speedup(), 2) << "x\n\n";
}

/// Applies --trace/--series/--flight to a sweep: the FIRST experiment gets
/// telemetry and writes the requested artifacts. Only one experiment, so
/// every output stays a single byte-identical file regardless of --jobs.
inline void apply_trace(const Options& opt,
                        std::vector<xcc::ExperimentConfig>& configs) {
  if (configs.empty()) return;
  if (!opt.trace.empty()) {
    configs.front().trace_path = opt.trace;
    configs.front().metrics_csv_path = opt.trace + ".metrics.csv";
  }
  if (!opt.series.empty()) configs.front().series_csv_path = opt.series;
  if (!opt.flight.empty()) configs.front().flight_dump_path = opt.flight;
}

/// Prints the outcome of the --trace/--series/--flight artifacts (all taken
/// from the sweep's first result).
inline void print_trace_summary(const Options& opt,
                                const std::vector<xcc::ExperimentResult>& rs) {
  if (rs.empty() ||
      (opt.trace.empty() && opt.series.empty() && opt.flight.empty())) {
    return;
  }
  const xcc::ExperimentResult& first = rs.front();
  if (!first.telemetry_error.empty()) {
    std::cout << "[telemetry] FAILED: " << first.telemetry_error << "\n";
  }
  if (!opt.trace.empty() && first.telemetry_error.empty()) {
    std::cout << "[trace] wrote " << opt.trace << " and " << opt.trace
              << ".metrics.csv (" << first.metrics.size() << " metrics)\n";
  }
  if (!opt.series.empty()) {
    std::cout << "[series] wrote " << opt.series << " ("
              << first.series.samples() << " samples, "
              << first.series.columns.size() << " columns)\n";
    for (const auto& w : first.warnings) {
      std::cout << "[watchdog] " << w.rule << " on " << w.column << " at t="
                << w.t << "us: " << w.detail << "\n";
    }
  }
  if (!opt.flight.empty()) {
    if (first.flight_dump_triggers > 0) {
      std::cout << "[flight] dump written to " << opt.flight << " ("
                << first.flight_dump_triggers << " trigger(s))\n";
    } else {
      std::cout << "[flight] armed, no failure trigger (no dump)\n";
    }
  }
  std::cout << "\n";
}

/// Runs a whole sweep through the parallel pool (submission order ==
/// result order) and prints the utilisation summary. Honors --trace; under
/// --json the first experiment also snapshots its metrics registry (pure
/// observation: unlike --trace nothing forces step collection, so the
/// virtual results are unchanged) and the host-time profiler is armed.
inline std::vector<xcc::ExperimentResult> run_sweep(
    const Options& opt, std::vector<xcc::ExperimentConfig> configs) {
  apply_trace(opt, configs);
  const bool reporting = !opt.json.empty();
  if (reporting && !configs.empty()) configs.front().telemetry = true;
  xcc::SweepStats stats;
  auto results =
      xcc::run_experiments(configs, jobs_or_default(opt), &stats,
                           reporting ? &detail::g_report.profiler : nullptr);
  if (reporting) {
    detail::g_report.add_sweep(stats);
    if (!detail::g_report.have_metrics && !results.empty() &&
        results.front().ok) {
      detail::g_report.metrics = results.front().metrics;
      detail::g_report.have_metrics = true;
    }
    if (!detail::g_report.have_series && !opt.series.empty() &&
        !results.empty() && results.front().ok) {
      detail::g_report.series = results.front().series;
      detail::g_report.warnings = results.front().warnings;
      detail::g_report.have_series = true;
    }
  }
  print_sweep_summary(stats);
  print_trace_summary(opt, results);
  return results;
}

/// Runs a sweep family's run set — every distinct run its figures read,
/// keyed by what identifies a run in that family — once each, in key order,
/// so the first key is the run --trace/--series/--flight capture. Returns
/// each run's result under its key.
template <typename Key>
std::map<Key, xcc::ExperimentResult> run_keyed(
    const Options& opt, const std::map<Key, xcc::ExperimentConfig>& runs) {
  std::vector<xcc::ExperimentConfig> configs;
  for (const auto& run : runs) configs.push_back(run.second);
  std::vector<xcc::ExperimentResult> results = run_sweep(opt, configs);
  std::map<Key, xcc::ExperimentResult> by_key;
  auto result = results.begin();
  for (const auto& run : runs) by_key.emplace(run.first, std::move(*result++));
  return by_key;
}

/// A (mean) count as the figure tables print it: truncated, with thousands
/// separators ("1,050,000").
inline std::string fmt_count(double v) {
  return util::fmt_int(static_cast<long long>(v));
}

/// Prints one figure of a sweep family and writes its CSV as `name` in the
/// --csv directory, creating it if needed (best effort, like write_csv).
inline void write_figure(const Options& opt, const std::string& title,
                         const std::string& paper, const std::string& name,
                         const util::Table& table) {
  std::error_code ignored;
  if (!opt.csv.empty()) std::filesystem::create_directories(opt.csv, ignored);
  const std::string path = (std::filesystem::path(opt.csv) / name).string();
  print_header(title, paper);
  table.print(std::cout);
  table.write_csv(path);
  std::cout << "CSV written to " << path << "\n\n";
}

/// Runs custom scenario jobs (benches not built on run_experiment) through
/// the same pool, with the same summary and --json profiling.
inline void run_scenarios(const Options& opt,
                          std::vector<std::function<void()>>& jobs) {
  const bool reporting = !opt.json.empty();
  xcc::SweepStats stats;
  xcc::run_jobs(jobs, jobs_or_default(opt), &stats,
                reporting ? &detail::g_report.profiler : nullptr);
  if (reporting) detail::g_report.add_sweep(stats);
  print_sweep_summary(stats);
}

/// Writes the BENCH_*.json report for this run (no-op without --json).
/// `table` is the bench's CSV table — its cells become the deterministic
/// virtual points. Call once, after the last sweep. `host_extras` are
/// injected as additional keys of the report's host section (schema v1
/// allows extra host keys); use them for bench-specific host measurements
/// such as per-tier RSS so bench_compare noise-checks them too.
inline void write_report(
    const Options& opt, const util::Table& table,
    std::vector<std::pair<std::string, util::json::Value>> host_extras = {}) {
  if (opt.json.empty()) return;
  xcc::BenchReportInputs in;
  in.bench = opt.bench;
  in.full = opt.full;
  in.reps = opt.reps;
  in.jobs = opt.jobs;
  in.trace = !opt.trace.empty();
  in.flags = opt.extra;
  in.seed_base = seed_for(0);
  in.table = &table;
  in.metrics = detail::g_report.metrics;
  in.have_series = detail::g_report.have_series;
  in.series = detail::g_report.series;
  in.warnings = detail::g_report.warnings;
  in.sweep = detail::g_report.sweep;
  in.profile = detail::g_report.profiler.merged();
  auto report = xcc::build_bench_report(in);
  if (!host_extras.empty()) {
    for (auto& member : report.members()) {
      if (member.first != "host") continue;
      for (auto& [key, value] : host_extras) {
        member.second.set(key, std::move(value));
      }
    }
  }
  const util::Status st = xcc::write_json_file(opt.json, report);
  if (!st.is_ok()) {
    std::cerr << "[json] FAILED: " << st.to_string() << "\n";
    std::exit(1);  // a requested report that was not produced must be loud
  }
  std::cout << "[json] wrote " << opt.json << "\n";
}

/// Config for one inclusion-only run (Figs. 6-7 / Table I): submits at
/// `rps` for `blocks` blocks with no relayer. Only the measurement window
/// is waited for; Table I sets `wait_for_workload` on top.
inline xcc::ExperimentConfig inclusion_config(double rps, int rep,
                                              int blocks = 15) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = 0;
  cfg.collect_steps = false;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = blocks;
  cfg.testbed.seed = seed_for(rep);
  cfg.max_sim_time = sim::seconds(8'000);
  return cfg;
}

/// Config for one relayer-throughput run (Figs. 8-11): `relayers`
/// instances, 50-block window, given RTT.
inline xcc::ExperimentConfig relayer_config(double rps, int relayers,
                                            sim::Duration rtt, int rep,
                                            int blocks = 50) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = relayers;
  cfg.collect_steps = false;
  cfg.workload.requests_per_second = rps;
  cfg.measure_blocks = blocks;
  cfg.testbed.rtt = rtt;
  cfg.testbed.seed = seed_for(rep);
  cfg.max_sim_time = sim::seconds(4'000);
  return cfg;
}

}  // namespace bench
