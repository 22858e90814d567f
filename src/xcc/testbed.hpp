#pragma once
// Setup module (paper Fig. 5): deploys the complete testbed.
//
// Reproduces the paper's §III-C deployment: five machines, each hosting one
// validator of the source chain and one of the destination chain; a
// configurable inter-machine RTT (200 ms WAN / ~0 LAN); RPC full-node
// endpoints on every machine; relayers colocated with the nodes they query.
// Chains are Gaia-like Cosmos apps with the IBC core and ICS-20 transfer
// modules installed.

#include <memory>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "ibc/forward.hpp"
#include "ibc/keeper.hpp"
#include "ibc/transfer.hpp"
#include "net/network.hpp"
#include "relayer/relayer.hpp"
#include "rpc/server.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"
#include "xcc/topology.hpp"

namespace xcc {

struct TestbedConfig {
  int machines = 5;
  int validators_per_chain = 5;
  sim::Duration rtt = sim::millis(200);
  sim::Duration min_block_interval = sim::seconds(5);
  std::uint64_t seed = 42;

  /// Workload sender accounts created on the source chain.
  int user_accounts = 200;
  std::uint64_t user_balance = 2'000'000'000'000ULL;
  /// Relayer wallets funded on both chains.
  int relayer_wallets = 2;
  std::uint64_t relayer_balance = 50'000'000'000'000ULL;

  rpc::CostModel rpc_cost;
  cosmos::AppConfig app_config;
  consensus::EngineConfig engine_config;

  /// Concurrent-RPC mitigation: query workers per RPC server (1 = the
  /// paper's serialized Tendermint, byte-identical to the pre-mitigation
  /// simulator).
  std::size_t rpc_query_workers = 1;

  /// Indexed-tx_search mitigation: charge packet-event queries an index
  /// lookup (rpc::CostModel::indexed_tx_search). It selects only the
  /// charged cost; the host answers from the ledgers' packet-event index
  /// either way. Off by default (full scan with the superlinear term, as
  /// measured in §V).
  bool indexed_tx_search = false;

  /// Run the IBC invariant checker on every commit of both chains. On by
  /// default so every test and bench is checked; opt out for perf-sensitive
  /// runs.
  bool invariant_checks = true;
  /// fail_fast throws check::InvariantViolation at the first violation;
  /// false collects them (fuzzer mode, see Testbed::checker()).
  bool invariant_fail_fast = true;

  /// Enables the telemetry hub (metrics registry + tracer) and wires every
  /// component into it. Off by default: instrumented call sites then cost
  /// one null-check each.
  bool telemetry = false;

  /// Connection graph to deploy. Defaults to the paper's two-chain pair;
  /// chains 0/1 keep their "ibc-source"/"ibc-destination" identities so the
  /// default topology is byte-identical to the pre-mesh testbed.
  TopologyConfig topology;
  /// Installs the packet-forward middleware on every chain (implied for
  /// topologies with more than two chains).
  bool packet_forwarding = false;
  /// Per-hop timeout budget (destination-chain blocks) for forwarded
  /// packets.
  std::int64_t forward_hop_timeout_blocks = 60;
  /// Funds the workload user accounts on every chain instead of only chain
  /// 0 — mesh workloads originate transfers from several chains.
  bool fund_users_on_all_chains = false;
};

/// One deployed chain: app + consensus + per-machine RPC servers.
struct ChainDeployment {
  chain::ChainId id;
  std::unique_ptr<cosmos::CosmosApp> app;
  std::unique_ptr<chain::Ledger> ledger;
  std::unique_ptr<chain::Mempool> mempool;
  std::unique_ptr<consensus::Engine> engine;
  std::unique_ptr<ibc::IbcKeeper> ibc;
  std::unique_ptr<ibc::TransferModule> transfer;
  /// Packet-forward middleware wrapping `transfer` (nullptr on plain
  /// two-chain deployments).
  std::unique_ptr<ibc::ForwardMiddleware> forward;
  /// servers[m] is the full-node RPC endpoint on machine m.
  std::vector<std::unique_ptr<rpc::Server>> servers;
};

class Testbed {
 public:
  /// Throws std::invalid_argument when config.topology fails to validate
  /// (unknown chain index, self-loop, ...): a misconfigured graph must not
  /// silently collapse onto chain 0.
  explicit Testbed(TestbedConfig config);
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Scheduler& scheduler() { return sched_; }
  net::Network& network() { return *network_; }
  const TestbedConfig& config() const { return config_; }

  /// Deployed chain by topology index (0 = "ibc-source", 1 =
  /// "ibc-destination", i >= 2 = "ibc-chain-<i>").
  ChainDeployment& chain(int i) { return *chains_[static_cast<std::size_t>(i)]; }
  int chain_count() const { return static_cast<int>(chains_.size()); }

  // The paper's two-chain aliases.
  ChainDeployment& chain_a() { return chain(0); }
  ChainDeployment& chain_b() { return chain(1); }

  /// The invariant checker watching every chain (nullptr when
  /// TestbedConfig::invariant_checks is off).
  check::InvariantChecker* checker() { return checker_.get(); }

  /// The testbed's telemetry hub (disabled unless TestbedConfig::telemetry).
  /// Per-testbed, like the scheduler: parallel experiments never share one.
  telemetry::Hub* hub() { return &hub_; }

  /// Starts every consensus engine.
  void start_chains();

  /// Chaos hooks: halts / restarts one chain's consensus engine (by
  /// topology index). Mempool, store and ledger survive the halt untouched —
  /// exactly like a coordinated validator outage followed by a restart.
  /// No-ops when already in the requested state.
  void halt_chain(int which);
  void restart_chain(int which);

  /// Runs the simulation until virtual time `t`.
  void run_until(sim::TimePoint t) { sched_.run_until(t); }

  /// Runs until every chain has produced at least `height` blocks (bounded
  /// by `limit`). Returns false on limit.
  bool run_until_height(chain::Height height, sim::TimePoint limit);

  /// Workload sender addresses ("user-<i>"), funded on chain 0 (and every
  /// chain under fund_users_on_all_chains).
  const std::vector<chain::Address>& user_accounts() const { return users_; }
  /// Relayer wallet address on chain `chain_idx` for relayer instance
  /// `relayer_idx` ("relayer-<r>-a" / "-b" / "-c<i>").
  chain::Address relayer_account(int chain_idx, int relayer_idx) const;
  // Two-chain aliases.
  chain::Address relayer_account_a(int relayer_idx) const;
  chain::Address relayer_account_b(int relayer_idx) const;

 private:
  void deploy_chain(ChainDeployment& c, int index);

  TestbedConfig config_;
  telemetry::Hub hub_;
  sim::Scheduler sched_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<ChainDeployment>> chains_;
  std::unique_ptr<check::InvariantChecker> checker_;
  std::vector<chain::Address> users_;
};

}  // namespace xcc
