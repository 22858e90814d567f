// The inclusion-only family — Figs. 6-7 and Table I — as one sweep.
// Transfers are submitted through CLI-style multi-account wallets for 15
// consecutive blocks, 5 validators, 200 ms RTT, no relayer. Each figure
// reads its own rates and repetitions from one shared set of runs, so a
// (rate, rep) point several figures need is simulated once.
//
// Figure 6: transfers *included* per second, 250-13,000 RPS. Paper shape:
// rises from ~200 TFPS at 250 RPS to a ~961 TFPS peak near 3,000 RPS, then
// declines (830 at 4,000, 499 at 9,000) as block intervals stretch; above
// 10,000 RPS submission itself collapses (Table I). The paper reports violin
// distributions over 20 executions; we print the median / quartiles / min /
// max of the same measurement.
//
// Figure 7: average interval between consecutive blocks. Paper shape: pinned
// at the 5 s floor for low rates, growing (and accelerating) once blocks
// fill — execution, indexing and recheck times push the next proposal out.
//
// Table I: how many requested transfers reach the mempool ("submitted") and
// how many of those commit, per input rate. Paper values:
//   250-9,000 RPS: >99% submitted, >99% committed
//   10,000: 80.17% submitted, 98.3% committed-of-submitted
//   11,000: 38.6% / 91.6%     12,000: 17.8% / 74.6%
//   13,000: 10.3% / 51%       14,000:  8.5% / 29.2%
// The collapse is driven by RPC overload: broadcasts rejected, confirmations
// unavailable, account sequences desynchronised.
//
// A Table I run also waits for every submission's final outcome. The wait
// starts only after the measurement window closes, so the window values
// Figs. 6-7 read are the same with or without it, and a point both need
// runs once, with the wait.

#include <map>

#include "common.hpp"

namespace {

struct Run {
  double rps;
  int rep;
  auto operator<=>(const Run&) const = default;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, "inclusion_sweep");
  const int fig_reps = bench::reps_or(opt, 3, 20);    // Figs. 6-7
  const int table_reps = bench::reps_or(opt, 2, 20);  // Table I

  bench::print_header("Inclusion sweep: Figs. 6-7 and Table I",
                      "§IV-A, no relayer, 15-block window", opt);

  const std::vector<double> full_rates = {250,   500,   1000,  2000, 3000,
                                          4000,  5000,  6000,  7000, 8000,
                                          9000,  10000, 11000, 12000, 13000};
  const std::vector<double> fig6_rates =
      opt.full ? full_rates
               : std::vector<double>{250,  500,  1000, 2000, 3000,
                                     4000, 6000, 9000, 13000};
  const std::vector<double> fig7_rates =
      opt.full ? full_rates
               : std::vector<double>{250,  1000, 2000, 3000,
                                     4000, 6000, 9000, 13000};
  const std::vector<double> table_rates = {2000,  9000,  10000, 11000,
                                           12000, 13000, 14000};

  std::map<Run, xcc::ExperimentConfig> runs;
  for (const auto* rates : {&fig6_rates, &fig7_rates}) {
    for (double rps : *rates) {
      for (int rep = 0; rep < fig_reps; ++rep) {
        runs.try_emplace({rps, rep}, bench::inclusion_config(rps, rep));
      }
    }
  }
  for (double rps : table_rates) {
    for (int rep = 0; rep < table_reps; ++rep) {
      runs.try_emplace({rps, rep}, bench::inclusion_config(rps, rep))
          .first->second.wait_for_workload = true;
    }
  }
  const auto results = bench::run_keyed(opt, runs);

  util::Table fig6({"input rate (RPS)", "median TFPS", "lower q", "upper q",
                    "min", "max", "n"});
  for (double rps : fig6_rates) {
    util::Sample tfps;
    for (int rep = 0; rep < fig_reps; ++rep) {
      const auto& res = results.at({rps, rep});
      if (res.ok) tfps.add(res.inclusion_tfps);
    }
    fig6.add_row({bench::fmt_count(rps), util::fmt_double(tfps.median(), 1),
                  util::fmt_double(tfps.lower_quartile(), 1),
                  util::fmt_double(tfps.upper_quartile(), 1),
                  util::fmt_double(tfps.min(), 1),
                  util::fmt_double(tfps.max(), 1),
                  std::to_string(tfps.count())});
  }
  bench::write_figure(
      opt, "Figure 6: Tendermint blockchain throughput (inclusion TFPS)",
      "peak ~961 TFPS at 3,000 RPS; ~200 at 250 RPS; decline beyond 4,000",
      "fig6_tendermint_throughput.csv", fig6);

  util::Table fig7({"input rate (RPS)", "avg interval (s)", "sd",
                    "max interval (s)", "n runs"});
  for (double rps : fig7_rates) {
    util::Sample avg;
    util::Sample max_iv;
    for (int rep = 0; rep < fig_reps; ++rep) {
      const auto& res = results.at({rps, rep});
      if (!res.ok || res.block_intervals.empty()) continue;
      avg.add(res.avg_block_interval);
      max_iv.add(*std::max_element(res.block_intervals.begin(),
                                   res.block_intervals.end()));
    }
    fig7.add_row({bench::fmt_count(rps), util::fmt_double(avg.mean(), 2),
                  util::fmt_double(avg.stddev(), 2),
                  util::fmt_double(max_iv.mean(), 2),
                  std::to_string(avg.count())});
  }
  bench::write_figure(
      opt, "Figure 7: average block interval vs input rate",
      "5 s floor at low rates; grows with block fullness beyond ~2,000 RPS",
      "fig7_block_interval.csv", fig7);

  util::Table table1({"input rate", "requests made", "submitted",
                      "submitted %", "committed", "committed % (of submitted)",
                      "seq mismatches", "no-confirmation"});
  for (double rps : table_rates) {
    double requested = 0, submitted = 0, committed = 0;
    double seqmis = 0, noconf = 0;
    int n = 0;
    for (int rep = 0; rep < table_reps; ++rep) {
      const auto& res = results.at({rps, rep});
      if (!res.ok) continue;
      ++n;
      requested += static_cast<double>(res.workload.requested);
      submitted += static_cast<double>(res.workload.broadcast);
      committed += static_cast<double>(res.workload.committed);
      seqmis += static_cast<double>(res.sequence_mismatch_errors);
      noconf += static_cast<double>(res.no_confirmation_errors);
    }
    if (n == 0) continue;
    requested /= n;
    submitted /= n;
    committed /= n;
    table1.add_row(
        {bench::fmt_count(rps), bench::fmt_count(requested),
         bench::fmt_count(submitted),
         util::fmt_percent(requested > 0 ? submitted / requested : 0),
         bench::fmt_count(committed),
         util::fmt_percent(submitted > 0 ? committed / submitted : 0),
         bench::fmt_count(seqmis / n), bench::fmt_count(noconf / n)});
  }
  bench::write_figure(
      opt, "Table I: execution summary for Tendermint throughput experiments",
      ">99% submitted below 10,000 RPS; collapse to 8.5% at 14,000",
      "table1_submission.csv", table1);
  std::cout << "Note: seq-mismatch / no-confirmation columns count the\n"
               "wallet-level errors the paper names in §IV-A and §V.\n\n";

  // The report's virtual table: one row per simulation run.
  util::Table per_run({"rps", "rep", "resolved", "ok", "incl_tfps",
                       "avg_interval_s", "blocks", "requested", "submitted",
                       "committed", "seq_mismatches", "no_confirmation"});
  for (const auto& [run, res] : results) {
    per_run.add_row({util::fmt_double(run.rps, 0), std::to_string(run.rep),
                     runs.at(run).wait_for_workload ? "yes" : "no",
                     res.ok ? "yes" : "no",
                     util::fmt_double(res.inclusion_tfps, 3),
                     util::fmt_double(res.avg_block_interval, 3),
                     std::to_string(res.block_intervals.size()),
                     std::to_string(res.workload.requested),
                     std::to_string(res.workload.broadcast),
                     std::to_string(res.workload.committed),
                     std::to_string(res.sequence_mismatch_errors),
                     std::to_string(res.no_confirmation_errors)});
  }
  bench::write_report(opt, per_run);
  return 0;
}
