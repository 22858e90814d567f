// The relayer-throughput family — Figs. 8-11 — as one sweep. Every run is
// a 50-block window of cross-chain transfers at a fixed input rate, relayed
// by one or two Hermes-like relayers at 0 ms or 200 ms network latency.
// Each figure reads its own rates and repetitions from one shared set of
// runs, so a (relayers, latency, rate, rep) point several figures need is
// simulated once.
//
// Figure 8: completed transfers per second with ONE relayer, 20-300 RPS.
// Paper shape: throughput tracks the input rate at low rates (14 TFPS at
// 20 RPS), peaks around 140 RPS (~90 TFPS at 0 ms / ~80 at 200 ms), then
// declines with further input (50-56 TFPS at 300 RPS) as the serialized
// RPC data pulls grow with block fullness.
//
// Figure 9: the same with TWO independent relayers on one channel.
// Counter-intuitively two relayers are SLOWER than one — peak throughput
// drops by 14% (0 ms) / 33% (200 ms) versus Fig. 8 — because ICS-18 gives
// relayers no way to coordinate, so both deliver the same packets and the
// loser burns fees on "packet messages are redundant" failures (23,020 such
// errors at 100 RPS in the paper's logs).
//
// Figures 10/11: completion status of the transfers submitted within the
// window, 200 ms latency, one / two relayers: completed (transfer + receive
// + ack), partially completed (transfer + receive), only initiated
// (transfer), and not committed. Paper shape: >99.9% committed up to
// 160 RPS; from 180 RPS onward a growing share ends the window only
// partially completed or initiated because the relayer falls behind — and
// with two relayers that share is larger even at rates where everything
// commits, because redundant deliveries waste both relayers' time.

#include <map>

#include "common.hpp"

namespace {

struct Run {
  int relayers;
  sim::Duration rtt;
  double rps;
  int rep;
  auto operator<=>(const Run&) const = default;
};

/// One (relayers, latency, rate) point summed over its successful reps;
/// each figure averages or normalises the sums as the paper does.
struct Point {
  util::Sample tfps;
  double requested = 0, completed = 0, partial = 0, initiated = 0,
         uncommitted = 0, redundant = 0;
  int n = 0;
};

const std::vector<std::pair<std::string, sim::Duration>> kLatencies = {
    {"0ms", sim::millis(0.5)}, {"200ms", sim::millis(200)}};

std::uint64_t sum_redundant(const xcc::ExperimentResult& res) {
  std::uint64_t n = 0;
  for (const auto& st : res.relayers) n += st.redundant_errors;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv, "relayer_sweep");
  const int reps = bench::reps_or(opt, 2, 20);

  bench::print_header("Relayer sweep: Figs. 8-11",
                      "§IV-B, 50-block window, 1-2 relayers, 0/200 ms", opt);

  const std::vector<double> full_rates = {20,  40,  60,  80,  100,
                                          120, 140, 160, 180, 200,
                                          220, 240, 260, 280, 300};
  const std::vector<double> fig8_rates =
      opt.full ? full_rates
               : std::vector<double>{20, 60, 100, 140, 180, 220, 300};
  const std::vector<double> fig9_rates =
      opt.full ? full_rates : std::vector<double>{20, 100, 140, 160, 220, 300};
  // Figs. 10 and 11 share one grid.
  const std::vector<double> status_rates =
      opt.full ? full_rates : std::vector<double>{20, 100, 160, 220, 300};
  const sim::Duration wan = sim::millis(200);

  std::map<Run, xcc::ExperimentConfig> runs;
  const auto need = [&](std::initializer_list<int> fleets, sim::Duration rtt,
                        const std::vector<double>& rates) {
    for (int relayers : fleets) {
      for (double rps : rates) {
        for (int rep = 0; rep < reps; ++rep) {
          runs.try_emplace({relayers, rtt, rps, rep},
                           bench::relayer_config(rps, relayers, rtt, rep));
        }
      }
    }
  };
  for (const auto& [name, rtt] : kLatencies) {
    need({1}, rtt, fig8_rates);
    need({1, 2}, rtt, fig9_rates);
  }
  need({1, 2}, wan, status_rates);
  const auto results = bench::run_keyed(opt, runs);
  const auto point = [&](int relayers, sim::Duration rtt, double rps) {
    Point p;
    for (int rep = 0; rep < reps; ++rep) {
      const auto& res = results.at({relayers, rtt, rps, rep});
      if (!res.ok) continue;
      ++p.n;
      p.tfps.add(res.tfps);
      p.requested += static_cast<double>(res.window_breakdown.requested);
      p.completed += static_cast<double>(res.window_breakdown.completed);
      p.partial += static_cast<double>(res.window_breakdown.partial);
      p.initiated += static_cast<double>(res.window_breakdown.initiated_only);
      p.uncommitted += static_cast<double>(res.window_breakdown.uncommitted);
      p.redundant += static_cast<double>(sum_redundant(res));
    }
    return p;
  };

  util::Table fig8({"input rate (RPS)", "latency", "mean TFPS", "sd",
                    "completed", "partial", "initiated", "n"});
  for (const auto& [name, rtt] : kLatencies) {
    for (double rps : fig8_rates) {
      const Point p = point(1, rtt, rps);
      if (p.n == 0) continue;
      fig8.add_row({bench::fmt_count(rps), name,
                    util::fmt_double(p.tfps.mean(), 1),
                    util::fmt_double(p.tfps.stddev(), 1),
                    bench::fmt_count(p.completed / p.n),
                    bench::fmt_count(p.partial / p.n),
                    bench::fmt_count(p.initiated / p.n), std::to_string(p.n)});
    }
  }
  bench::write_figure(
      opt, "Figure 8: one-relayer cross-chain throughput vs input rate",
      "peak ~80-90 TFPS at 140 RPS; ~14 at 20 RPS; ~50-56 at 300 RPS",
      "fig8_relayer_throughput.csv", fig8);

  util::Table fig9({"input rate (RPS)", "latency", "1-relayer TFPS",
                    "2-relayer TFPS", "change", "redundant msgs", "n"});
  std::string peaks;
  for (const auto& [name, rtt] : kLatencies) {
    double peak1 = 0, peak2 = 0;
    for (double rps : fig9_rates) {
      const Point two = point(2, rtt, rps);
      const double tfps1 = point(1, rtt, rps).tfps.mean();
      const double tfps2 = two.tfps.mean();
      peak1 = std::max(peak1, tfps1);
      peak2 = std::max(peak2, tfps2);
      fig9.add_row({bench::fmt_count(rps), name, util::fmt_double(tfps1, 1),
                    util::fmt_double(tfps2, 1),
                    util::fmt_percent(tfps1 > 0 ? (tfps2 - tfps1) / tfps1 : 0),
                    bench::fmt_count(two.n > 0 ? two.redundant / two.n : 0),
                    std::to_string(two.n)});
    }
    peaks += "  " + name + " peak: 1 relayer " + util::fmt_double(peak1, 1) +
             " TFPS, 2 relayers " + util::fmt_double(peak2, 1) + " TFPS (" +
             util::fmt_percent(peak1 > 0 ? (peak2 - peak1) / peak1 : 0) +
             ")\n";
  }
  bench::write_figure(
      opt, "Figure 9: two-relayer throughput (vs one-relayer baseline)",
      "peak lower than one relayer (paper: -14% at 0 ms, -33% at 200 ms); "
      "redundant-message errors",
      "fig9_two_relayers.csv", fig9);
  std::cout << peaks << "\n";

  // Figs. 10/11: window-end completion status at 200 ms; Fig. 11 adds the
  // redundant-message count.
  const auto status_table = [&](int relayers) {
    std::vector<std::string> header = {"input rate (RPS)", "requested",
                                       "completed %",      "partial %",
                                       "initiated %",      "uncommitted %"};
    if (relayers == 2) header.push_back("redundant msgs");
    util::Table table(header);
    for (double rps : status_rates) {
      const Point p = point(relayers, wan, rps);
      if (p.n == 0 || p.requested == 0) continue;
      std::vector<std::string> row = {
          bench::fmt_count(rps),
          bench::fmt_count(p.requested / p.n),
          util::fmt_percent(p.completed / p.requested),
          util::fmt_percent(p.partial / p.requested),
          util::fmt_percent(p.initiated / p.requested),
          util::fmt_percent(p.uncommitted / p.requested)};
      if (relayers == 2) row.push_back(bench::fmt_count(p.redundant / p.n));
      table.add_row(std::move(row));
    }
    return table;
  };
  bench::write_figure(
      opt, "Figure 10: transfer completion status at window end (one relayer)",
      "completed share shrinks beyond ~160 RPS as the relayer saturates",
      "fig10_completion_one.csv", status_table(1));
  bench::write_figure(
      opt, "Figure 11: transfer completion status at window end (two relayers)",
      "larger partial/initiated share than Fig. 10 at equal rates",
      "fig11_completion_two.csv", status_table(2));

  // The report's virtual table: one row per simulation run.
  util::Table per_run({"relayers", "latency", "rps", "rep", "ok", "tfps",
                       "requested", "completed", "partial", "initiated",
                       "uncommitted", "redundant"});
  for (const auto& [run, res] : results) {
    per_run.add_row({std::to_string(run.relayers),
                     run.rtt == wan ? "200ms" : "0ms",
                     util::fmt_double(run.rps, 0), std::to_string(run.rep),
                     res.ok ? "yes" : "no", util::fmt_double(res.tfps, 3),
                     std::to_string(res.window_breakdown.requested),
                     std::to_string(res.window_breakdown.completed),
                     std::to_string(res.window_breakdown.partial),
                     std::to_string(res.window_breakdown.initiated_only),
                     std::to_string(res.window_breakdown.uncommitted),
                     std::to_string(sum_redundant(res))});
  }
  bench::write_report(opt, per_run);
  return 0;
}
