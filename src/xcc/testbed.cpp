#include "xcc/testbed.hpp"

#include <stdexcept>

namespace xcc {

namespace {

std::string chain_id_for(int index) {
  if (index == 0) return "ibc-source";
  if (index == 1) return "ibc-destination";
  return "ibc-chain-" + std::to_string(index);
}

std::string prefix_for(int index) {
  if (index == 0) return "src";
  if (index == 1) return "dst";
  return "c" + std::to_string(index);
}

}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(config) {
  util::Status topo = config_.topology.validate();
  if (!topo.is_ok()) {
    throw std::invalid_argument("bad topology: " + topo.message());
  }
  if (config_.telemetry) hub_.enable();

  net::NetworkConfig nc;
  nc.machine_count = config_.machines;
  nc.inter_machine_rtt = config_.rtt;
  nc.seed = config_.seed;
  network_ = std::make_unique<net::Network>(sched_, nc);
  network_->set_telemetry(&hub_);

  const int n = config_.topology.chain_count;
  chains_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    chains_.push_back(std::make_unique<ChainDeployment>());
    deploy_chain(*chains_.back(), i);
  }

  if (config_.invariant_checks) {
    check::CheckerConfig cc;
    cc.fail_fast = config_.invariant_fail_fast;
    std::vector<check::ChainHandles> handles;
    handles.reserve(chains_.size());
    for (auto& c : chains_) {
      handles.push_back(
          check::ChainHandles{c->id, c->app.get(), c->engine.get()});
    }
    checker_ = std::make_unique<check::InvariantChecker>(std::move(handles),
                                                         cc);
    // Observability: journal the violation and emit the post-mortem flight
    // dump *before* fail_fast throws — the exception unwinds past every
    // normal export path, so this hook is the only chance to get the
    // journal/metrics/series state at the violating commit onto disk.
    checker_->set_violation_hook([this](const check::Violation& v) {
      if (auto* f = telemetry::flight(&hub_)) {
        f->record(sched_.now(), "invariant",
                  v.invariant + " " + v.chain + " h=" +
                      std::to_string(v.height) + " " + v.detail);
      }
      if (telemetry::metrics(&hub_) != nullptr) {
        hub_.trigger_flight_dump("invariant:" + v.invariant, sched_.now());
      }
    });
  }

  // Workload sender accounts live on the source chain (every chain for mesh
  // workloads). The bulk path produces the same genesis state (and app
  // hash) as per-account funding but scales to millions of accounts.
  users_.reserve(static_cast<std::size_t>(config_.user_accounts));
  for (int i = 0; i < config_.user_accounts; ++i) {
    users_.push_back("user-" + std::to_string(i));
  }
  chains_[0]->app->add_genesis_accounts(users_, config_.user_balance);
  if (config_.fund_users_on_all_chains) {
    for (int i = 1; i < n; ++i) {
      chains_[static_cast<std::size_t>(i)]->app->add_genesis_accounts(
          users_, config_.user_balance);
    }
  }

  // Relayer wallets funded on every chain.
  for (int r = 0; r < config_.relayer_wallets; ++r) {
    for (int i = 0; i < n; ++i) {
      chains_[static_cast<std::size_t>(i)]->app->add_genesis_account(
          relayer_account(i, r), config_.relayer_balance);
    }
  }
}

Testbed::~Testbed() {
  for (auto& c : chains_) c->engine->stop();
}

chain::Address Testbed::relayer_account(int chain_idx, int relayer_idx) const {
  std::string suffix;
  if (chain_idx == 0) {
    suffix = "a";
  } else if (chain_idx == 1) {
    suffix = "b";
  } else {
    suffix = "c" + std::to_string(chain_idx);
  }
  return "relayer-" + std::to_string(relayer_idx) + "-" + suffix;
}

chain::Address Testbed::relayer_account_a(int relayer_idx) const {
  return relayer_account(0, relayer_idx);
}

chain::Address Testbed::relayer_account_b(int relayer_idx) const {
  return relayer_account(1, relayer_idx);
}

void Testbed::deploy_chain(ChainDeployment& c, int index) {
  const std::string id = chain_id_for(index);
  const std::string prefix = prefix_for(index);
  c.id = id;
  cosmos::AppConfig app_cfg = config_.app_config;
  c.app = std::make_unique<cosmos::CosmosApp>(id, app_cfg);
  c.ledger = std::make_unique<chain::Ledger>(id);
  c.mempool = std::make_unique<chain::Mempool>(*c.app, /*max_txs=*/100'000);

  consensus::EngineConfig ec = config_.engine_config;
  ec.min_block_interval = config_.min_block_interval;
  chain::ValidatorSet validators = chain::ValidatorSet::make(
      prefix, config_.validators_per_chain, config_.machines);
  c.engine = std::make_unique<consensus::Engine>(
      sched_, *network_, std::move(validators), *c.app, *c.mempool, *c.ledger,
      ec);
  c.engine->set_telemetry(&hub_, prefix);
  c.mempool->set_telemetry(&hub_, prefix + ".mempool");

  c.ibc = std::make_unique<ibc::IbcKeeper>(*c.app);
  c.transfer = std::make_unique<ibc::TransferModule>(*c.app, *c.ibc);
  if (config_.packet_forwarding || config_.topology.chain_count > 2) {
    c.forward = std::make_unique<ibc::ForwardMiddleware>(
        *c.app, *c.ibc, *c.transfer, config_.forward_hop_timeout_blocks);
  }

  // One full-node RPC endpoint per machine, all wired to block events. The
  // per-chain seed salt 7919 * index reduces to the historical 0 / 7919
  // split for the two-chain pair.
  c.servers.reserve(static_cast<std::size_t>(config_.machines));
  rpc::CostModel rpc_cost = config_.rpc_cost;
  if (config_.indexed_tx_search) rpc_cost.indexed_tx_search = true;
  for (int m = 0; m < config_.machines; ++m) {
    auto server = std::make_unique<rpc::Server>(
        sched_, *network_, m, *c.ledger, *c.mempool, *c.app, rpc_cost,
        config_.seed * 1315423911u + static_cast<std::uint64_t>(m) +
            7'919u * static_cast<std::uint64_t>(index));
    server->set_telemetry(&hub_, prefix + ".m" + std::to_string(m) + ".rpc");
    if (config_.rpc_query_workers > 1) {
      server->set_query_workers(config_.rpc_query_workers);
    }
    rpc::Server* raw = server.get();
    c.engine->subscribe_block(
        [raw](const chain::Block& block,
              const std::vector<chain::DeliverTxResult>&) {
          raw->on_block_committed(block);
        });
    c.servers.push_back(std::move(server));
  }

  // Flight-recorder journal: one entry per commit (height + tx count), so a
  // dump shows chain progress interleaved with the relayer and RPC events.
  // One branch per commit when no recorder is armed; folds away entirely in
  // disabled builds.
  c.engine->subscribe_block(
      [this, id](const chain::Block& block,
                 const std::vector<chain::DeliverTxResult>& results) {
        if (auto* f = telemetry::flight(&hub_)) {
          f->record(sched_.now(), "consensus",
                    id + " commit h=" + std::to_string(block.header.height) +
                        " txs=" + std::to_string(results.size()));
        }
      });
}

void Testbed::start_chains() {
  for (auto& c : chains_) c->engine->start();
}

void Testbed::halt_chain(int which) {
  ChainDeployment& c = chain(which);
  if (!c.engine->running()) return;
  c.engine->stop();
  if (auto* f = telemetry::flight(&hub_)) {
    f->record(sched_.now(), "fault", "halt " + c.id);
  }
}

void Testbed::restart_chain(int which) {
  ChainDeployment& c = chain(which);
  if (c.engine->running()) return;
  c.engine->start();
  if (auto* f = telemetry::flight(&hub_)) {
    f->record(sched_.now(), "fault", "restart " + c.id);
  }
}

bool Testbed::run_until_height(chain::Height height, sim::TimePoint limit) {
  auto all_at = [&] {
    for (auto& c : chains_) {
      if (c->ledger->height() < height) return false;
    }
    return true;
  };
  while (sched_.now() < limit) {
    if (all_at()) return true;
    if (!sched_.step()) return false;
  }
  return all_at();
}

}  // namespace xcc
