#include "xcc/mesh.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <tuple>
#include <utility>

#include "ibc/forward.hpp"
#include "ibc/msgs.hpp"
#include "util/bytes.hpp"
#include "xcc/workload.hpp"

namespace xcc {

namespace {

util::Status bad(const std::string& msg) {
  return util::Status::error(util::ErrorCode::kInvalidArgument, msg);
}

}  // namespace

MeshSetupResult establish_mesh(Testbed& testbed, sim::TimePoint limit) {
  MeshSetupResult out;
  const TopologyConfig& topo = testbed.config().topology;
  out.channels.reserve(topo.edges.size());
  for (std::size_t e = 0; e < topo.edges.size(); ++e) {
    const TopologyEdge& edge = topo.edges[e];
    HandshakeDriver hs(testbed, /*relayer_wallet=*/0, /*machine=*/0,
                       edge.trusting_period, edge.chain_a, edge.chain_b,
                       edge.ordering);
    ChannelSetupResult setup = hs.establish_channel_blocking(limit);
    if (!setup.ok) {
      out.error = "edge " + std::to_string(e) + " (" +
                  std::to_string(edge.chain_a) + "-" +
                  std::to_string(edge.chain_b) +
                  ") handshake failed: " + setup.error;
      return out;
    }
    out.channels.push_back(
        MeshChannel{edge.chain_a, edge.chain_b, std::move(setup)});
  }
  out.ok = true;
  return out;
}

util::Result<std::vector<ibc::ChannelId>> route_channels(
    const MeshSetupResult& mesh, const TopologyConfig& topology,
    const std::vector<int>& route) {
  if (route.size() < 2) {
    return bad("route needs at least two chains");
  }
  std::vector<ibc::ChannelId> out;
  out.reserve(route.size() - 1);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const int e = topology.edge_between(route[i], route[i + 1]);
    if (e < 0 || static_cast<std::size_t>(e) >= mesh.channels.size()) {
      return bad("route hop " + std::to_string(i) + " connects chains " +
                 std::to_string(route[i]) + " and " +
                 std::to_string(route[i + 1]) +
                 ", which the topology does not");
    }
    const MeshChannel& mc = mesh.channels[static_cast<std::size_t>(e)];
    out.push_back(mc.chain_x == route[i] ? mc.setup.channel_a
                                         : mc.setup.channel_b);
  }
  return out;
}

util::Result<std::string> route_receiver(const MeshSetupResult& mesh,
                                         const TopologyConfig& topology,
                                         const std::vector<int>& route,
                                         const std::string& final_receiver) {
  auto chans = route_channels(mesh, topology, route);
  if (!chans.is_ok()) return chans.status();
  if (chans.value().size() == 1) return final_receiver;
  const std::vector<ibc::ChannelId> onward(chans.value().begin() + 1,
                                           chans.value().end());
  return ibc::ForwardMiddleware::encode_route(onward, final_receiver);
}

// --- Relayer fleet ----------------------------------------------------------

void MeshRelayerFleet::start() {
  for (auto& r : relayers) r->start();
}

void MeshRelayerFleet::stop() {
  for (auto& r : relayers) r->stop();
}

std::uint64_t MeshRelayerFleet::routing_skipped() const {
  std::uint64_t n = 0;
  for (const auto& r : relayers) n += r->stats().routing_skipped;
  return n;
}

std::uint64_t MeshRelayerFleet::coordination_skipped() const {
  std::uint64_t n = 0;
  for (const auto& r : relayers) n += r->stats().coordination_skipped;
  return n;
}

MeshRelayerFleet deploy_mesh_relayers(Testbed& testbed,
                                      const MeshSetupResult& mesh,
                                      relayer::StepLog* step_log,
                                      MeshRelayerOptions options) {
  MeshRelayerFleet fleet;
  const TopologyConfig& topo = testbed.config().topology;
  const int per = std::max(options.relayers_per_channel, 1);

  // Which (edge, direction) carries which route hop — those instances feed
  // the shared step log under their hop's telemetry lane.
  std::map<std::pair<int, int>, std::uint16_t> hop_of;
  for (std::size_t i = 0; i + 1 < options.route.size(); ++i) {
    const int e = topo.edge_between(options.route[i], options.route[i + 1]);
    if (e < 0) continue;  // route_channels reports this; nothing to tag here
    const int dir =
        topo.edges[static_cast<std::size_t>(e)].chain_a == options.route[i]
            ? 0
            : 1;
    hop_of[{e, dir}] = static_cast<std::uint16_t>(i);
  }

  int wallet_idx = 0;
  for (std::size_t e = 0; e < mesh.channels.size(); ++e) {
    const MeshChannel& mc = mesh.channels[e];
    for (int dir = 0; dir < 2; ++dir) {
      const int sx = dir == 0 ? mc.chain_x : mc.chain_y;
      const int sy = dir == 0 ? mc.chain_y : mc.chain_x;
      relayer::PathConfig path = mc.setup.path();
      if (dir == 1) {
        std::swap(path.channel_a, path.channel_b);
        std::swap(path.client_on_a, path.client_on_b);
      }
      for (int k = 0; k < per; ++k) {
        assert(wallet_idx < testbed.config().relayer_wallets &&
               "testbed needs 2 * edges * relayers_per_channel wallets");
        const auto machine =
            static_cast<std::size_t>(k % testbed.config().machines);
        relayer::ChainHandle ha{
            testbed.chain(sx).servers[machine].get(), testbed.chain(sx).id,
            {testbed.relayer_account(sx, wallet_idx)}};
        relayer::ChainHandle hb{
            testbed.chain(sy).servers[machine].get(), testbed.chain(sy).id,
            {testbed.relayer_account(sy, wallet_idx)}};
        relayer::RelayerConfig rc = options.base;
        rc.machine = static_cast<net::MachineId>(machine);
        rc.served_channels = {path.channel_a};
        rc.coordination = options.coordination;
        rc.coordination.relayer_index = k;
        rc.coordination.relayer_count = per;
        rc.coordination.per_channel[path.channel_a] =
            relayer::ChannelAssignment{k, per};
        relayer::StepLog* log = nullptr;
        const auto hop_it = hop_of.find({static_cast<int>(e), dir});
        if (hop_it != hop_of.end()) {
          rc.telemetry_hop = hop_it->second;
          if (k == 0) log = step_log;
        }
        fleet.relayers.push_back(std::make_unique<relayer::Relayer>(
            testbed.scheduler(), ha, hb, path, rc, log));
        fleet.relayers.back()->set_telemetry(
            testbed.hub(), "relayer-e" + std::to_string(e) + "-d" +
                               std::to_string(dir) + "-" + std::to_string(k));
        ++wallet_idx;
      }
    }
  }
  return fleet;
}

// --- Workload ---------------------------------------------------------------

MeshWorkload::MeshWorkload(Testbed& testbed, const MeshSetupResult& mesh,
                           std::vector<int> route, MeshWorkloadConfig config,
                           relayer::StepLog* step_log)
    : testbed_(testbed),
      config_(std::move(config)),
      route_(std::move(route)),
      step_log_(step_log),
      live_(std::make_shared<Live>()) {
  auto chans = route_channels(mesh, testbed.config().topology, route_);
  if (!chans.is_ok()) {
    init_status_ = chans.status();
    return;
  }
  source_channel_ = chans.value().front();
  auto recv = route_receiver(mesh, testbed.config().topology, route_,
                             config_.final_receiver);
  if (!recv.is_ok()) {
    init_status_ = recv.status();
    return;
  }
  receiver_ = recv.value();
  live_->receiver = config_.final_receiver;
  server_ = testbed_.chain(route_.front())
                .servers[static_cast<std::size_t>(config_.machine)]
                .get();
}

sim::TimePoint MeshWorkload::start() {
  assert(init_status_.is_ok() && !started_);
  started_ = true;
  remaining_ = config_.total_transfers;

  const auto& users = testbed_.user_accounts();
  const std::size_t accounts =
      std::min(std::max<std::size_t>(config_.accounts, 1), users.size());

  relayer::WalletConfig wc;
  wc.optimistic_sequencing = false;  // CLI waits for commitment (§III-D)
  wc.gas_price = config_.gas_price;
  wc.confirm_timeout = sim::seconds(150);
  wallets_.reserve(accounts);
  for (std::size_t i = 0; i < accounts; ++i) {
    wc.accounts = {users[i]};
    wallets_.push_back(std::make_unique<relayer::Wallet>(
        testbed_.scheduler(), *server_, config_.machine, wc));
  }

  // Completion is observed on the route's last chain: the transfer module
  // delivers to the final receiver there (and only there — intermediate
  // hops deliver to the forwarding agent).
  sim::Scheduler* sched = &testbed_.scheduler();
  std::shared_ptr<Live> live = live_;
  testbed_.chain(route_.back())
      .engine->subscribe_block(
          [sched, live](const chain::Block&,
                        const std::vector<chain::DeliverTxResult>& results) {
            for (const chain::DeliverTxResult& tx : results) {
              if (!tx.status.is_ok()) continue;
              for (const chain::Event& ev : tx.events) {
                if (ev.type != "fungible_token_packet") continue;
                if (ev.attribute("receiver") != live->receiver) continue;
                if (ev.attribute("success") != "true") continue;
                if (live->head < live->pending.size()) {
                  live->latencies.push_back(sim::to_seconds(
                      sched->now() - live->pending[live->head]));
                  ++live->head;
                  live->last_delivery = sched->now();
                }
              }
            }
          });

  for (std::size_t i = 0; i < wallets_.size(); ++i) sim::spawn(send(i));
  return testbed_.scheduler().now();
}

bool MeshWorkload::submissions_resolved() const {
  return started_ && remaining_ == 0 && outstanding_ == 0;
}

sim::Task<> MeshWorkload::send(std::size_t account) {
  while (remaining_ > 0) {
    const std::uint64_t count =
        std::min<std::uint64_t>(remaining_, config_.msgs_per_tx);
    remaining_ -= count;
    ++outstanding_;
    TransferBatch batch = transfer_batch(
        source_channel_, testbed_.user_accounts()[account], receiver_,
        config_.transfer_amount, count,
        testbed_.chain(route_[1]).ledger->height() +
            config_.timeout_height_offset);
    sim::TimePoint broadcast_time = 0;
    auto on_broadcast = [this, count, &broadcast_time] {
      broadcast_time = testbed_.scheduler().now();
      if (first_broadcast_ == 0) first_broadcast_ = broadcast_time;
      for (std::uint64_t i = 0; i < count; ++i) {
        live_->pending.push_back(broadcast_time);
      }
    };
    const relayer::Wallet::SubmitOutcome out =
        co_await wallets_[account]->submit(std::move(batch.msgs), batch.gas,
                                           on_broadcast);
    --outstanding_;
    if (out.status.is_ok()) {
      committed_ += count;
      if (step_log_) {
        sim::spawn(backfill_broadcast_records(*server_, config_.machine,
                                              out.hash, source_channel_,
                                              broadcast_time, *step_log_));
      }
    } else {
      failed_ += count;
      // FIFO matching assumed these would deliver; drop their slots so
      // later deliveries pair with the right broadcast time. The slots
      // sit in submission order, so dropping from the tail is correct
      // only when nothing newer was broadcast — otherwise accept the
      // (bounded, rare) skew rather than re-sorting history.
      const std::size_t unmatched = live_->pending.size() - live_->head;
      live_->pending.resize(live_->pending.size() -
                            std::min<std::size_t>(count, unmatched));
    }
  }
}

// --- Experiment runner ------------------------------------------------------

MeshExperimentResult run_mesh_experiment(const MeshExperimentConfig& config) {
  MeshExperimentResult result;

  TestbedConfig tb_cfg = config.testbed;
  const int edges = static_cast<int>(tb_cfg.topology.edges.size());
  const int per = std::max(config.relayers.relayers_per_channel, 1);
  tb_cfg.relayer_wallets = std::max(tb_cfg.relayer_wallets, 2 * edges * per);
  tb_cfg.user_accounts =
      std::max(tb_cfg.user_accounts,
               static_cast<int>(config.workload.accounts) + 4);
  if (!config.route.empty() && config.route.front() != 0) {
    tb_cfg.fund_users_on_all_chains = true;
  }
  // Collect violations rather than throwing: the bench reports the count
  // (and self-checks it is zero).
  tb_cfg.invariant_fail_fast = false;

  std::unique_ptr<Testbed> tb;
  try {
    tb = std::make_unique<Testbed>(tb_cfg);
  } catch (const std::invalid_argument& e) {
    result.error = e.what();
    return result;
  }
  tb->start_chains();
  const sim::TimePoint hard_limit = config.max_sim_time;
  if (!tb->run_until_height(2, hard_limit)) {
    result.error = "chains failed to start";
    return result;
  }

  MeshSetupResult mesh = establish_mesh(*tb, hard_limit);
  if (!mesh.ok) {
    result.error = mesh.error;
    return result;
  }

  relayer::StepLog steps;
  steps.set_tracer(telemetry::tracer(tb->hub()));
  MeshRelayerOptions ro = config.relayers;
  ro.route = config.route;
  MeshRelayerFleet fleet = deploy_mesh_relayers(*tb, mesh, &steps, ro);
  fleet.start();

  MeshWorkload wl(*tb, mesh, config.route, config.workload, &steps);
  if (!wl.init_status().is_ok()) {
    result.error = wl.init_status().to_string();
    return result;
  }
  wl.start();
  result.requested = wl.requested();

  // Drain until every committed transfer delivered and every forwarded hop
  // settled back through the middleware (or progress stops).
  auto forwards_pending = [&]() {
    std::uint64_t pending = 0;
    for (int i = 0; i < tb->chain_count(); ++i) {
      const auto* fwd = tb->chain(i).forward.get();
      if (fwd != nullptr) {
        pending += fwd->packets_forwarded() - fwd->forwards_completed() -
                   fwd->forwards_unwound();
      }
    }
    return pending;
  };
  sim::TimePoint last_progress = tb->scheduler().now();
  auto fingerprint = [&]() {
    return std::make_tuple(wl.completed(), wl.committed(),
                           wl.failed_submission(), steps.records().size(),
                           forwards_pending());
  };
  auto last = fingerprint();
  while (tb->scheduler().now() < hard_limit) {
    tb->run_until(tb->scheduler().now() + sim::seconds(5));
    const auto now_fp = fingerprint();
    if (now_fp != last) {
      last = now_fp;
      last_progress = tb->scheduler().now();
    }
    if (wl.submissions_resolved() && wl.completed() >= wl.committed() &&
        forwards_pending() == 0) {
      break;
    }
    if (tb->scheduler().now() - last_progress >
        config.drain_no_progress_limit) {
      break;
    }
  }
  fleet.stop();

  result.completed = wl.completed();
  result.latencies_seconds = wl.latencies_seconds();
  if (!result.latencies_seconds.empty()) {
    double sum = 0;
    for (double v : result.latencies_seconds) sum += v;
    result.avg_latency_seconds =
        sum / static_cast<double>(result.latencies_seconds.size());
  }
  if (wl.last_delivery() > wl.first_broadcast() && result.completed > 0) {
    result.tfps =
        static_cast<double>(result.completed) /
        sim::to_seconds(wl.last_delivery() - wl.first_broadcast());
  }

  for (int i = 0; i < tb->chain_count(); ++i) {
    if (tb->chain(i).forward != nullptr) {
      result.packets_forwarded += tb->chain(i).forward->packets_forwarded();
      result.forwards_completed += tb->chain(i).forward->forwards_completed();
      result.forwards_unwound += tb->chain(i).forward->forwards_unwound();
    }
    const chain::Height h = tb->chain(i).ledger->height();
    const crypto::Digest* d = tb->chain(i).ledger->app_hash_after(h);
    result.app_hashes.push_back(
        d != nullptr ? util::to_hex(crypto::digest_to_bytes(*d)) : "");
  }
  if (tb->checker() != nullptr) tb->checker()->audit();  // end-of-run audit
  result.invariant_violations =
      tb->checker() != nullptr ? tb->checker()->violations().size() : 0;
  result.routing_skipped = fleet.routing_skipped();
  result.coordination_skipped = fleet.coordination_skipped();

  result.sim_seconds = sim::to_seconds(tb->scheduler().now());
  result.events_executed = tb->scheduler().executed_events();
  steps.set_tracer(nullptr);
  result.steps = std::move(steps);
  result.ok = true;
  return result;
}

}  // namespace xcc
