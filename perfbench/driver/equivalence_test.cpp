// Checks that the benchmark's phase-by-phase driver simulates exactly what
// xcc::run_experiment() simulates: on small versions of each benchmark
// workload, the virtual results of run_experiment(), of an untraced
// run_phased() and of a traced run_phased() must serialize byte-identically.
// Exits non-zero on the first mismatch.

#include <iostream>
#include <string>
#include <vector>

#include "driver/phases.hpp"

namespace {

struct Case {
  std::string name;
  xcc::ExperimentConfig config;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  {
    xcc::ExperimentConfig c;  // relay: one relayer at overload
    c.relayer_count = 1;
    c.collect_steps = false;
    c.workload.requests_per_second = 300;
    c.measure_blocks = 8;
    c.testbed.seed = 11;
    out.push_back({"relay", c});
  }
  {
    xcc::ExperimentConfig c;  // inclusion: no relayer
    c.relayer_count = 0;
    c.collect_steps = false;
    c.workload.requests_per_second = 3000;
    c.measure_blocks = 5;
    c.testbed.seed = 12;
    out.push_back({"inclusion", c});
  }
  {
    xcc::ExperimentConfig c;  // burst with step log, drained
    c.workload.total_transfers = 600;
    c.workload.spread_blocks = 1;
    c.measure_blocks = 5;
    c.wait_for_drain = true;
    c.drain_no_progress_limit = sim::seconds(300);
    c.max_sim_time = sim::seconds(5'000);
    c.testbed.seed = 13;
    out.push_back({"burst", c});
  }
  {
    xcc::ExperimentConfig c;  // open loop, resolved to the last transfer
    c.relayer_count = 0;
    c.collect_steps = false;
    c.measure_blocks = 4;
    c.wait_for_workload = true;
    c.workload.open_loop = true;
    c.workload.total_transfers = 3'000;
    c.workload.open_loop_accounts = 5'000;
    c.workload.zipf_exponent = 1.0;
    c.workload.open_loop_tx_rate = 10.0;
    c.max_sim_time = sim::seconds(2'000);
    c.testbed.seed = 14;
    out.push_back({"open-loop", c});
  }
  return out;
}

}  // namespace

int main() {
  int failures = 0;
  for (const Case& c : cases()) {
    const xcc::ExperimentResult reference = xcc::run_experiment(c.config);
    const perfbench::PhasedRun plain = perfbench::run_phased(c.config, nullptr);
    perfbench::StepTrace trace;
    const perfbench::PhasedRun traced = perfbench::run_phased(c.config, &trace);
    if (!reference.ok || !plain.ok || !traced.ok) {
      std::cerr << c.name << ": run failed: " << reference.error << " | "
                << plain.error << " | " << traced.error << "\n";
      ++failures;
      continue;
    }
    const std::string want = perfbench::virtual_results(reference).dump(0);
    const bool plain_ok =
        perfbench::virtual_results(plain.result).dump(0) == want;
    const bool traced_ok =
        perfbench::virtual_results(traced.result).dump(0) == want &&
        perfbench::virtual_record(traced).dump(0) ==
            perfbench::virtual_record(plain).dump(0);
    const bool spans_ok = !trace.step_ns.empty() && !trace.spans.empty();
    std::cout << c.name << ": events " << reference.events_executed
              << ", untraced " << (plain_ok ? "match" : "MISMATCH")
              << ", traced " << (traced_ok ? "match" : "MISMATCH")
              << (spans_ok ? "" : ", NO SPANS") << "\n";
    if (!plain_ok || !traced_ok || !spans_ok) {
      std::cerr << "  want: " << want << "\n  got:  "
                << perfbench::virtual_results(plain.result).dump(0) << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
