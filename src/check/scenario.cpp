#include "check/scenario.hpp"

#include <memory>
#include <utility>

#include "util/rng.hpp"
#include "xcc/handshake.hpp"
#include "xcc/mesh.hpp"
#include "xcc/testbed.hpp"
#include "xcc/topology.hpp"
#include "xcc/workload.hpp"

namespace check {

namespace {

/// Uniform pick from a small option list.
template <typename T, std::size_t N>
T pick(util::Rng& rng, const T (&options)[N]) {
  return options[rng.next_below(N)];
}

/// The multi-hop route a mesh scenario forwards its transfers along: the
/// full line for "line<k>", spoke-hub-spoke for "hub<k>", and a deliberate
/// two-hop detour for "mesh<k>" (the direct channel exists — forwarding past
/// it is exactly the case that must stay conservation-clean).
std::vector<int> scenario_route(const xcc::TopologyConfig& topo) {
  if (topo.name.rfind("line", 0) == 0) {
    std::vector<int> route(static_cast<std::size_t>(topo.chain_count));
    for (int i = 0; i < topo.chain_count; ++i) {
      route[static_cast<std::size_t>(i)] = i;
    }
    return route;
  }
  if (topo.name.rfind("hub", 0) == 0 && topo.chain_count >= 3) {
    return {1, 0, 2};
  }
  if (topo.name.rfind("mesh", 0) == 0 && topo.chain_count >= 3) {
    return {0, 1, 2};
  }
  return {0, 1};
}

/// Scenario path for non-"pair" topologies: same seed-derived faults and
/// workload shape, but a relayer fleet per directed edge and a forwarded
/// multi-hop workload under the topology-aware invariant checker.
ScenarioResult run_mesh_scenario(const ScenarioOptions& options,
                                 ScenarioResult result,
                                 xcc::TestbedConfig tb_cfg,
                                 const xcc::WorkloadConfig& wl_cfg,
                                 const net::FaultProfile& faults, int relayers,
                                 bool restart_relayer, bool validator_blip,
                                 std::int64_t clear_interval, util::Rng& rng) {
  auto topo = xcc::TopologyConfig::from_name(options.topology);
  if (!topo.is_ok()) {
    result.setup_error = topo.status().to_string();
    return result;
  }
  tb_cfg.topology = topo.value();
  tb_cfg.fund_users_on_all_chains = true;  // routes may originate off chain 0
  const int edges = static_cast<int>(tb_cfg.topology.edges.size());
  tb_cfg.relayer_wallets = 2 * edges * relayers;
  const std::vector<int> route = scenario_route(tb_cfg.topology);

  result.summary += " topo=" + options.topology +
                    " hops=" + std::to_string(route.size() - 1);

  xcc::Testbed tb(tb_cfg);
  if (options.on_testbed) options.on_testbed(tb);
  tb.start_chains();
  if (!tb.run_until_height(2, sim::seconds(300))) {
    result.setup_error = "chains failed to start";
    return result;
  }
  xcc::MeshSetupResult mesh = xcc::establish_mesh(
      tb, tb.scheduler().now() + sim::seconds(600) * edges);
  if (!mesh.ok) {
    result.setup_error = mesh.error;
    return result;
  }
  result.setup_ok = true;

  if (options.mutate_skip_replay) {
    for (int i = 0; i < tb.chain_count(); ++i) {
      tb.chain(i).ibc->set_faults(ibc::KeeperFaults{true});
    }
  }

  xcc::MeshRelayerOptions ro;
  ro.relayers_per_channel = relayers;
  ro.coordination.mode =
      relayer::coordination_mode_from_string(options.coordination);
  ro.base.clear_interval = clear_interval;
  ro.route = route;
  xcc::MeshRelayerFleet fleet =
      xcc::deploy_mesh_relayers(tb, mesh, nullptr, ro);
  fleet.start();

  const sim::TimePoint t0 = tb.scheduler().now();
  tb.network().set_fault_profile(faults);
  if (restart_relayer) {
    relayer::Relayer* victim = fleet.relayers[0].get();
    const sim::TimePoint down = t0 + sim::seconds(10 + rng.next_below(50));
    const sim::TimePoint up = down + sim::seconds(5 + rng.next_below(40));
    tb.scheduler().schedule_at(down, [victim] { victim->stop(); });
    tb.scheduler().schedule_at(up, [victim] { victim->start(); });
  }
  if (validator_blip) {
    consensus::Engine* engine =
        tb.chain(static_cast<int>(
                     rng.next_below(static_cast<std::uint64_t>(
                         tb.chain_count()))))
            .engine.get();
    const std::size_t idx =
        1 + rng.next_below(
                static_cast<std::uint64_t>(tb_cfg.validators_per_chain - 1));
    const sim::TimePoint down = t0 + sim::seconds(10 + rng.next_below(60));
    const sim::TimePoint up = down + sim::seconds(10 + rng.next_below(40));
    tb.scheduler().schedule_at(
        down, [engine, idx] { engine->set_validator_live(idx, false); });
    tb.scheduler().schedule_at(
        up, [engine, idx] { engine->set_validator_live(idx, true); });
  }

  xcc::MeshWorkloadConfig mw_cfg;
  mw_cfg.total_transfers = wl_cfg.total_transfers;
  mw_cfg.msgs_per_tx = wl_cfg.msgs_per_tx;
  mw_cfg.accounts = 4;
  mw_cfg.transfer_amount = wl_cfg.transfer_amount;
  mw_cfg.timeout_height_offset = wl_cfg.timeout_height_offset;
  xcc::MeshWorkload workload(tb, mesh, route, mw_cfg, nullptr);
  if (!workload.init_status().is_ok()) {
    result.setup_ok = false;
    result.setup_error = workload.init_status().to_string();
    return result;
  }
  workload.start();
  tb.run_until(t0 + sim::seconds(400));

  tb.network().set_fault_profile(net::FaultProfile{});
  tb.run_until(tb.scheduler().now() + sim::seconds(100));

  fleet.stop();
  tb.checker()->audit();  // end-of-run audit

  result.blocks_checked = tb.checker()->blocks_checked();
  result.transfers_requested = workload.requested();
  for (int i = 0; i < tb.chain_count(); ++i) {
    result.packets_received += tb.chain(i).ibc->packets_received();
    result.packets_timed_out += tb.chain(i).ibc->packets_timed_out();
    result.redundant_messages += tb.chain(i).ibc->redundant_messages();
  }
  result.messages_dropped = tb.network().messages_dropped();
  result.messages_duplicated = tb.network().messages_duplicated();
  result.violations = tb.checker()->violations();
  return result;
}

}  // namespace

ScenarioResult run_scenario(std::uint64_t seed,
                            const ScenarioOptions& options) {
  ScenarioResult result;
  result.seed = seed;

  // All scenario choices derive from this stream; the testbed's own RNGs
  // derive from the same seed. Everything else is virtual-time scheduling,
  // so the whole run is reproducible from `seed` alone.
  util::Rng rng(seed ^ 0x5CEAA71005CEAA71ULL);

  static constexpr int kRttsMs[] = {0, 50, 200, 300};
  static constexpr int kBlockIntervalsS[] = {1, 2, 5};
  static constexpr std::size_t kMsgsPerTx[] = {1, 5, 20};
  static constexpr std::int64_t kTimeoutOffsets[] = {3, 5, 8, 100'000};
  static constexpr std::int64_t kClearIntervals[] = {0, 5};

  xcc::TestbedConfig tb_cfg;
  tb_cfg.seed = seed;
  tb_cfg.rpc_query_workers = options.rpc_query_workers;
  tb_cfg.rtt = sim::millis(pick(rng, kRttsMs));
  tb_cfg.min_block_interval = sim::seconds(pick(rng, kBlockIntervalsS));
  tb_cfg.user_accounts = 64;
  tb_cfg.invariant_checks = true;
  // Collect by default; the fuzzer reports violating seeds afterwards.
  tb_cfg.invariant_fail_fast = options.fail_fast;

  // Mutation scenarios force two relayers: the broken replay check is only
  // reachable through redundant deliveries.
  const int relayers =
      options.mutate_skip_replay ? 2 : (rng.chance(0.5) ? 2 : 1);
  tb_cfg.relayer_wallets = relayers;

  xcc::WorkloadConfig wl_cfg;
  wl_cfg.total_transfers = 10 + rng.next_below(50);
  wl_cfg.spread_blocks = 1 + static_cast<int>(rng.next_below(3));
  wl_cfg.msgs_per_tx = pick(rng, kMsgsPerTx);
  wl_cfg.transfer_amount = 1 + rng.next_below(1'000);
  // Tight offsets produce genuine IBC timeouts under WAN latency.
  wl_cfg.timeout_height_offset = pick(rng, kTimeoutOffsets);

  net::FaultProfile faults;
  if (rng.chance(0.7)) {
    faults.drop_probability = rng.uniform(0.0, 0.03);
    faults.duplicate_probability = rng.uniform(0.0, 0.08);
    faults.delay_probability = rng.uniform(0.0, 0.15);
    faults.max_extra_delay = sim::millis(10 + rng.next_below(240));
  }
  const bool restart_relayer = rng.chance(0.4);
  const bool validator_blip = rng.chance(0.3);
  const std::int64_t clear_interval = pick(rng, kClearIntervals);

  result.summary =
      "rtt=" + std::to_string(tb_cfg.rtt / sim::millis(1)) + "ms block=" +
      std::to_string(tb_cfg.min_block_interval / sim::seconds(1)) +
      "s relayers=" + std::to_string(relayers) +
      " clear=" + std::to_string(clear_interval) +
      " transfers=" + std::to_string(wl_cfg.total_transfers) +
      " msgs/tx=" + std::to_string(wl_cfg.msgs_per_tx) +
      " timeout_off=" + std::to_string(wl_cfg.timeout_height_offset) +
      (faults.active() ? " net-faults" : "") +
      (restart_relayer ? " relayer-restart" : "") +
      (validator_blip ? " validator-blip" : "") +
      (options.mutate_skip_replay ? " MUTATED" : "");

  if (options.topology != "pair") {
    return run_mesh_scenario(options, std::move(result), tb_cfg, wl_cfg,
                             faults, relayers, restart_relayer,
                             validator_blip, clear_interval, rng);
  }

  // --- Deploy and establish the channel (fault-free: setup is not the
  // subject under test, and a wedged handshake would just time out). -------
  xcc::Testbed tb(tb_cfg);
  if (options.on_testbed) options.on_testbed(tb);
  tb.start_chains();
  if (!tb.run_until_height(2, sim::seconds(300))) {
    result.setup_error = "chains failed to start";
    return result;
  }
  xcc::HandshakeDriver handshake(tb, /*relayer_wallet=*/0, /*machine=*/0);
  xcc::ChannelSetupResult channel = handshake.establish_channel_blocking(
      tb.scheduler().now() + sim::seconds(600));
  if (!channel.ok) {
    result.setup_error = "channel setup failed: " + channel.error;
    return result;
  }
  result.setup_ok = true;

  if (options.mutate_skip_replay) {
    tb.chain_a().ibc->set_faults(ibc::KeeperFaults{true});
    tb.chain_b().ibc->set_faults(ibc::KeeperFaults{true});
  }

  // --- Relayers (one per machine, as in the paper's deployment). ----------
  std::vector<std::unique_ptr<relayer::Relayer>> relayer_instances;
  for (int k = 0; k < relayers; ++k) {
    const auto machine = static_cast<std::size_t>(k % tb_cfg.machines);
    relayer::ChainHandle ha{tb.chain_a().servers[machine].get(),
                            tb.chain_a().id,
                            {tb.relayer_account_a(k)}};
    relayer::ChainHandle hb{tb.chain_b().servers[machine].get(),
                            tb.chain_b().id,
                            {tb.relayer_account_b(k)}};
    relayer::RelayerConfig rc;
    rc.machine = static_cast<net::MachineId>(machine);
    rc.clear_interval = clear_interval;
    rc.coordination.mode =
        relayer::coordination_mode_from_string(options.coordination);
    rc.coordination.relayer_index = k;
    rc.coordination.relayer_count = relayers;
    relayer_instances.push_back(std::make_unique<relayer::Relayer>(
        tb.scheduler(), ha, hb, channel.path(), rc, nullptr));
    relayer_instances.back()->start();
  }

  // --- Fault schedule ------------------------------------------------------
  const sim::TimePoint t0 = tb.scheduler().now();
  tb.network().set_fault_profile(faults);
  if (restart_relayer) {
    relayer::Relayer* victim = relayer_instances[0].get();
    const sim::TimePoint down =
        t0 + sim::seconds(10 + rng.next_below(50));
    const sim::TimePoint up = down + sim::seconds(5 + rng.next_below(40));
    tb.scheduler().schedule_at(down, [victim] { victim->stop(); });
    tb.scheduler().schedule_at(up, [victim] { victim->start(); });
  }
  if (validator_blip) {
    consensus::Engine* engine =
        rng.chance(0.5) ? tb.chain_a().engine.get() : tb.chain_b().engine.get();
    const std::size_t idx =
        1 + rng.next_below(
                static_cast<std::uint64_t>(tb_cfg.validators_per_chain - 1));
    const sim::TimePoint down =
        t0 + sim::seconds(10 + rng.next_below(60));
    const sim::TimePoint up = down + sim::seconds(10 + rng.next_below(40));
    tb.scheduler().schedule_at(down,
                               [engine, idx] {
                                 engine->set_validator_live(idx, false);
                               });
    tb.scheduler().schedule_at(up, [engine, idx] {
      engine->set_validator_live(idx, true);
    });
  }

  // --- Workload + run ------------------------------------------------------
  xcc::TransferWorkload workload(tb, channel, wl_cfg, nullptr);
  workload.start();
  tb.run_until(t0 + sim::seconds(400));

  // Lift the faults and let in-flight work settle: late acks/clears after
  // recovery are exactly where stale-state bugs would surface.
  tb.network().set_fault_profile(net::FaultProfile{});
  tb.run_until(tb.scheduler().now() + sim::seconds(100));

  for (auto& r : relayer_instances) r->stop();
  tb.checker()->audit();  // end-of-run audit

  result.blocks_checked = tb.checker()->blocks_checked();
  result.transfers_requested = workload.stats().requested;
  result.packets_received = tb.chain_b().ibc->packets_received();
  result.packets_timed_out = tb.chain_a().ibc->packets_timed_out();
  result.redundant_messages = tb.chain_a().ibc->redundant_messages() +
                              tb.chain_b().ibc->redundant_messages();
  result.messages_dropped = tb.network().messages_dropped();
  result.messages_duplicated = tb.network().messages_duplicated();
  result.violations = tb.checker()->violations();
  return result;
}

}  // namespace check
