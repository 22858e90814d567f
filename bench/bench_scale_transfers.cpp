// Scale trajectory: open-loop transfer tiers (10^5 / 10^6 / 10^7).
//
// Unlike the per-figure benches (closed-loop CLI-style wallets, one
// in-flight tx per account), this bench drives the source chain with the
// open-loop harness: fire-and-forget transactions at a fixed virtual rate,
// senders drawn Zipf(1.0)-distributed from a large funded account
// population (10^6 accounts at the 10^6-transfer tier and up). It exists to
// measure the *simulator's* scaling — sim-seconds per host-second,
// DES events per host second and peak RSS per tier — on top of the
// memory-lean KV store, the SHA-NI hash path and the bulk genesis path.
//
// Tiers run sequentially, smallest first, inside one process: peak RSS
// after a tier is therefore (approximately) that tier's footprint. The
// result table only carries virtual-time quantities and is byte-identical
// across runs (the determinism contract); every host-side number goes to
// the report's host section under "scale_tiers".
//
//   default       10^5 and 10^6 transfers
//   --smoke       10^5 only (CI)
//   --full        adds the 10^7 tier
//   --transfers N one custom tier of N transfers

#include <cinttypes>
#include <cstdlib>

#include "common.hpp"

namespace {

/// Funded sender population for a tier: grows with the tier up to 10^6
/// accounts (the ISSUE's scale target; beyond that genesis dominates the
/// measurement without changing the store's asymptotics).
std::uint64_t accounts_for(std::uint64_t transfers) {
  return std::min<std::uint64_t>(std::max<std::uint64_t>(transfers, 1'000),
                                 1'000'000);
}

xcc::ExperimentConfig tier_config(std::uint64_t transfers) {
  xcc::ExperimentConfig cfg;
  cfg.relayer_count = 0;  // inclusion-side scaling; no relay path
  cfg.collect_steps = false;
  cfg.measure_blocks = 10;
  cfg.wait_for_workload = true;  // run every tier to full resolution
  cfg.testbed.seed = bench::seed_for(0);

  cfg.workload.open_loop = true;
  cfg.workload.total_transfers = transfers;
  cfg.workload.msgs_per_tx = 100;
  cfg.workload.open_loop_accounts =
      static_cast<std::size_t>(accounts_for(transfers));
  cfg.workload.zipf_exponent = 1.0;
  // ~1,000 transfers/s input — around the chain's sustainable inclusion
  // rate (Fig. 6 peak), so the backlog stays bounded and the tier measures
  // steady-state execution rather than mempool growth.
  cfg.workload.open_loop_tx_rate = 10.0;

  const double submit_seconds =
      static_cast<double>(transfers) /
      (cfg.workload.open_loop_tx_rate *
       static_cast<double>(cfg.workload.msgs_per_tx));
  cfg.max_sim_time = sim::seconds(submit_seconds * 4.0 + 600.0);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<bench::FlagSpec> flags = {
      {"--smoke", false, "run only the 10^5-transfer tier (CI smoke)"},
      {"--transfers", true, "run a single custom tier of N transfers"},
  };
  const bench::Options opt =
      bench::parse_options(argc, argv, "scale_transfers.csv", flags);

  const bool smoke = bench::has_flag(opt, "--smoke");
  std::uint64_t custom = 0;
  for (const auto& [name, value] : opt.extra) {
    if (name == "--transfers") custom = std::strtoull(value.c_str(), nullptr, 10);
  }

  std::vector<std::uint64_t> tiers;
  if (custom > 0) {
    tiers = {custom};
  } else if (smoke) {
    tiers = {100'000};
  } else if (opt.full) {
    tiers = {100'000, 1'000'000, 10'000'000};
  } else {
    tiers = {100'000, 1'000'000};
  }

  bench::print_header(
      "Scale trajectory: open-loop transfer tiers",
      "harness scaling (not a paper figure): Zipf senders, bulk genesis, "
      "sim-s/host-s + events/s + peak RSS per tier",
      opt);

  util::Table table({"transfers", "accounts", "tx rate (tx/s)", "broadcast",
                     "committed", "failed", "avg block s", "sim seconds"});
  auto tiers_json = util::json::Value::array();

  for (std::uint64_t tier : tiers) {
    const xcc::ExperimentConfig cfg = tier_config(tier);
    std::vector<xcc::ExperimentConfig> configs{cfg};
    const auto results = bench::run_sweep(opt, std::move(configs));
    const xcc::ExperimentResult& res = results.front();
    if (!res.ok) {
      std::cerr << "tier " << tier << " FAILED: " << res.error << "\n";
      return 1;
    }

    table.add_row(
        {util::fmt_int(static_cast<long long>(tier)),
         util::fmt_int(static_cast<long long>(accounts_for(tier))),
         util::fmt_double(cfg.workload.open_loop_tx_rate, 1),
         util::fmt_int(static_cast<long long>(res.workload.broadcast)),
         util::fmt_int(static_cast<long long>(res.workload.committed)),
         util::fmt_int(static_cast<long long>(res.workload.failed_submission)),
         util::fmt_double(res.avg_block_interval, 3),
         util::fmt_double(res.sim_seconds, 1)});

    // Host-side scaling numbers (nondeterministic; report host section).
    const double host_s = res.host_seconds > 0 ? res.host_seconds : 1e-9;
    const double events_per_second =
        static_cast<double>(res.events_executed) / host_s;
    const double sim_per_host = res.sim_seconds / host_s;
    const std::uint64_t rss = xcc::peak_rss_bytes();

    auto t = util::json::Value::object();
    t.set("transfers", static_cast<std::int64_t>(tier));
    t.set("accounts", static_cast<std::int64_t>(accounts_for(tier)));
    t.set("host_seconds", res.host_seconds);
    t.set("sim_seconds", res.sim_seconds);
    t.set("sim_seconds_per_host_second", sim_per_host);
    t.set("events_executed", static_cast<std::int64_t>(res.events_executed));
    t.set("events_per_second", events_per_second);
    t.set("peak_rss_bytes", static_cast<std::int64_t>(rss));
    tiers_json.push_back(std::move(t));

    std::cout << "  tier " << tier << " done: committed "
              << res.workload.committed << "/" << tier << ", sim "
              << util::fmt_double(res.sim_seconds, 1) << " s in "
              << util::fmt_double(res.host_seconds, 1) << " host s ("
              << util::fmt_double(sim_per_host, 2) << " sim-s/host-s, "
              << util::fmt_double(events_per_second / 1e6, 2)
              << "M events/s, peak RSS "
              << util::fmt_double(static_cast<double>(rss) / (1024.0 * 1024.0),
                                  1)
              << " MiB)\n";
  }

  std::cout << "\n";
  table.print(std::cout);
  table.write_csv(opt.csv);
  std::vector<std::pair<std::string, util::json::Value>> extras;
  extras.emplace_back("scale_tiers", std::move(tiers_json));
  bench::write_report(opt, table, std::move(extras));
  std::cout << "\nCSV written to " << opt.csv << "\n";
  return 0;
}
