// Figure 12: breakdown of the 13 operations executed to process 5,000
// cross-chain transfers submitted within ONE block (200 ms latency).
//
// Paper: all 5,000 complete 455 s after the transfer broadcast. The
// transfer segment takes 126 s (27.6%), receive 261 s (57.3%), ack 68 s
// (14.9%); the two RPC data pulls alone take 110 s + 207 s = 317 s, i.e.
// ~69% of the total — Tendermint's serial RPC is the bottleneck.
//
// The indexed-query and concurrent-RPC counterfactuals are the `I` and `W`
// rows of bench_ablation_mitigations at its fig12_burst point.

#include "common.hpp"

#include "xcc/report.hpp"

namespace {

xcc::ExperimentConfig fig12_config() {
  xcc::ExperimentConfig cfg;
  cfg.workload.total_transfers = 5'000;
  cfg.workload.spread_blocks = 1;
  cfg.measure_blocks = 5;
  cfg.wait_for_drain = true;
  cfg.drain_no_progress_limit = sim::seconds(300);
  cfg.max_sim_time = sim::seconds(5'000);
  return cfg;
}

void report(const xcc::ExperimentResult& res) {
  const auto bcasts = res.steps.completion_times_seconds(
      relayer::Step::kTransferBroadcast);
  if (bcasts.empty()) {
    std::cout << "no broadcasts recorded\n";
    return;
  }
  const double t0 = bcasts.front();

  util::Table table({"#", "step", "starts (s)", "50% done (s)", "ends (s)"});
  for (int s = 0; s < static_cast<int>(relayer::kStepCount); ++s) {
    const auto step = static_cast<relayer::Step>(s);
    const auto times = res.steps.completion_times_seconds(step);
    if (times.empty()) continue;
    table.add_row({std::to_string(s + 1), std::string(relayer::step_name(step)),
                   util::fmt_double(times.front() - t0, 1),
                   util::fmt_double(times[times.size() / 2] - t0, 1),
                   util::fmt_double(times.back() - t0, 1)});
  }
  table.print(std::cout);

  auto finish = [&](relayer::Step st) {
    return res.steps.step_finish_seconds(st) - t0;
  };
  auto start_of = [&](relayer::Step st) {
    return res.steps.step_interval_seconds(st).first - t0;
  };
  const double total = finish(relayer::Step::kAckConfirmation);
  const double transfer_seg = finish(relayer::Step::kTransferDataPull);
  const double recv_seg = finish(relayer::Step::kRecvDataPull) - transfer_seg;
  const double ack_seg = total - transfer_seg - recv_seg;
  const double transfer_pull = finish(relayer::Step::kTransferDataPull) -
                               start_of(relayer::Step::kTransferDataPull);
  const double recv_pull = finish(relayer::Step::kRecvDataPull) -
                           start_of(relayer::Step::kRecvDataPull);

  std::cout << "\ntotal completion latency: " << util::fmt_double(total, 1)
            << " s   (paper: 455 s)\n";
  std::cout << "transfer segment: " << util::fmt_double(transfer_seg, 1)
            << " s (" << util::fmt_percent(transfer_seg / total)
            << ")   (paper: 126 s / 27.6%)\n";
  std::cout << "receive segment:  " << util::fmt_double(recv_seg, 1) << " s ("
            << util::fmt_percent(recv_seg / total)
            << ")   (paper: 261 s / 57.3%)\n";
  std::cout << "ack segment:      " << util::fmt_double(ack_seg, 1) << " s ("
            << util::fmt_percent(ack_seg / total)
            << ")   (paper: 68 s / 14.9%)\n";
  std::cout << "data pulls:       "
            << util::fmt_double(transfer_pull + recv_pull, 1) << " s ("
            << util::fmt_percent((transfer_pull + recv_pull) / total)
            << " of total)   (paper: 317 s / ~69%)\n";
  std::cout << "completed: " << res.final_breakdown.completed << "/5000\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt =
      bench::parse_options(argc, argv, "fig12_latency_breakdown.csv");

  bench::print_header(
      "Figure 12: 13-step breakdown of 5,000 transfers in one block",
      "455 s total; data pulls = 317 s (~69%)", opt);

  const auto results = bench::run_sweep(opt, {fig12_config()});

  const auto& res = results[0];
  if (!res.ok) {
    std::cout << "experiment failed: " << res.error << "\n";
    return 1;
  }
  report(res);

  // CSV: per-step completion percentiles.
  util::Table csv({"step", "p0", "p25", "p50", "p75", "p100"});
  const double t0 = res.steps
                        .completion_times_seconds(
                            relayer::Step::kTransferBroadcast)
                        .front();
  for (int s = 0; s < static_cast<int>(relayer::kStepCount); ++s) {
    const auto step = static_cast<relayer::Step>(s);
    const auto times = res.steps.completion_times_seconds(step);
    if (times.empty()) continue;
    util::Sample sample;
    for (double t : times) sample.add(t - t0);
    csv.add_row({std::string(relayer::step_name(step)),
                 util::fmt_double(sample.min(), 2),
                 util::fmt_double(sample.quantile(0.25), 2),
                 util::fmt_double(sample.median(), 2),
                 util::fmt_double(sample.quantile(0.75), 2),
                 util::fmt_double(sample.max(), 2)});
  }
  csv.write_csv(opt.csv);
  bench::write_report(opt, csv);
  std::cout << "CSV written to " << opt.csv << "\n";

  // Archive a full execution report for this run (the framework's report
  // generator).
  xcc::ExperimentConfig report_cfg;
  report_cfg.workload.total_transfers = 5'000;
  report_cfg.workload.spread_blocks = 1;
  if (xcc::write_report("fig12_report.md", report_cfg, res,
                        "Fig. 12 run: 5,000 transfers in one block")) {
    std::cout << "execution report written to fig12_report.md\n";
  }
  return 0;
}
