#pragma once
// Mesh orchestration: channels, relayer fleets and multi-hop workloads over
// an N-chain TopologyConfig.
//
// establish_mesh() runs the HandshakeDriver once per topology edge;
// deploy_mesh_relayers() places one relayer per directed edge (so packets —
// and their acks — flow both ways on every channel) with per-channel
// coordination assignments and per-hop telemetry lanes; MeshWorkload submits
// transfers along a chain-index route, encoding the onward hops into the
// receiver field for the packet-forward middleware; run_mesh_experiment()
// wires all of it into one measured run (bench_mesh_routing's engine).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relayer/events.hpp"
#include "relayer/relayer.hpp"
#include "relayer/wallet.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"
#include "xcc/topology.hpp"

namespace xcc {

/// One established channel; channels[e] corresponds to topology.edges[e].
struct MeshChannel {
  int chain_x = 0;  // testbed chain index of the channel's A side
  int chain_y = 1;
  ChannelSetupResult setup;
};

struct MeshSetupResult {
  bool ok = false;
  std::string error;
  std::vector<MeshChannel> channels;
};

/// Establishes one channel per edge of the testbed's topology, sequentially
/// (handshakes share relayer wallet 0). Chains must already be producing
/// blocks. Fails on the first edge whose handshake fails or exceeds `limit`.
MeshSetupResult establish_mesh(Testbed& testbed, sim::TimePoint limit);

/// Source-side channel ids along `route` (consecutive testbed chain
/// indices): result[i] is the channel on chain route[i] toward route[i+1].
/// Fails when the route is shorter than two chains or uses a pair of chains
/// the topology does not connect.
util::Result<std::vector<ibc::ChannelId>> route_channels(
    const MeshSetupResult& mesh, const TopologyConfig& topology,
    const std::vector<int>& route);

/// Receiver field for a transfer along `route`: `final_receiver` itself for
/// a direct (single-hop) route, the forward-middleware "fwd:" encoding of
/// the onward hops otherwise.
util::Result<std::string> route_receiver(const MeshSetupResult& mesh,
                                         const TopologyConfig& topology,
                                         const std::vector<int>& route,
                                         const std::string& final_receiver);

struct MeshRelayerOptions {
  /// Relayer instances per directed edge.
  int relayers_per_channel = 1;
  /// Coordination template; per-channel (index, count) assignments are
  /// filled in per deployed instance.
  relayer::CoordinationConfig coordination;
  /// Relayer config template (machine, served_channels, telemetry_hop and
  /// coordination assignment are overridden per instance).
  relayer::RelayerConfig base;
  /// When non-empty: the transfer route; the first instance serving each of
  /// its hops feeds the shared StepLog under that hop's telemetry lane.
  std::vector<int> route;
};

/// One relayer fleet covering a mesh. Wallet index w of instance k on
/// directed edge d of edge e is globally unique (relayers must never share
/// a signing account), so the testbed needs
/// `relayer_wallets >= 2 * edges * relayers_per_channel`.
struct MeshRelayerFleet {
  std::vector<std::unique_ptr<relayer::Relayer>> relayers;

  void start();
  void stop();
  std::uint64_t routing_skipped() const;
  std::uint64_t coordination_skipped() const;
};

MeshRelayerFleet deploy_mesh_relayers(Testbed& testbed,
                                      const MeshSetupResult& mesh,
                                      relayer::StepLog* step_log,
                                      MeshRelayerOptions options = {});

struct MeshWorkloadConfig {
  std::uint64_t total_transfers = 20;
  std::size_t msgs_per_tx = 10;
  std::size_t accounts = 2;
  std::uint64_t transfer_amount = 1;
  std::int64_t timeout_height_offset = 100'000;
  net::MachineId machine = 0;
  double gas_price = 0.01;
  std::string final_receiver = "mesh-recv";
};

/// Closed-loop submitter for one multi-hop route: transfers originate on
/// route.front() and count as completed when the final chain's transfer
/// module delivers to `final_receiver`. Per-transfer latency is matched
/// FIFO (submission order = delivery order is not guaranteed across
/// accounts, but transfers are homogeneous, so the latency *distribution*
/// is exact).
class MeshWorkload {
 public:
  /// `init_status()` reports a bad route (unconnected chains) — check it
  /// before start().
  MeshWorkload(Testbed& testbed, const MeshSetupResult& mesh,
               std::vector<int> route, MeshWorkloadConfig config,
               relayer::StepLog* step_log);

  MeshWorkload(const MeshWorkload&) = delete;
  MeshWorkload& operator=(const MeshWorkload&) = delete;

  const util::Status& init_status() const { return init_status_; }

  sim::TimePoint start();
  /// Every submission outcome is known (not: every packet delivered).
  bool submissions_resolved() const;
  std::uint64_t requested() const { return config_.total_transfers; }
  std::uint64_t committed() const { return committed_; }
  std::uint64_t failed_submission() const { return failed_; }
  /// Transfers delivered to final_receiver on the route's last chain.
  std::uint64_t completed() const { return live_->latencies.size(); }
  /// Submission-to-final-delivery latency per completed transfer, seconds.
  const std::vector<double>& latencies_seconds() const {
    return live_->latencies;
  }
  sim::TimePoint first_broadcast() const { return first_broadcast_; }
  sim::TimePoint last_delivery() const { return live_->last_delivery; }

 private:
  /// Shared with the final chain's engine block subscription, which cannot
  /// be unsubscribed and may outlive this workload within a run.
  struct Live {
    std::string receiver;
    // FIFO latency matching: broadcast times awaiting a delivery event.
    std::vector<sim::TimePoint> pending;
    std::size_t head = 0;
    std::vector<double> latencies;
    sim::TimePoint last_delivery = 0;
  };

  /// Submits `account`'s txs one after another, booking each outcome,
  /// until nothing is left to submit.
  sim::Task<> send(std::size_t account);

  Testbed& testbed_;
  MeshWorkloadConfig config_;
  std::vector<int> route_;
  util::Status init_status_;
  ibc::ChannelId source_channel_;
  std::string receiver_;
  relayer::StepLog* step_log_;
  rpc::Server* server_ = nullptr;
  std::shared_ptr<Live> live_;

  std::vector<std::unique_ptr<relayer::Wallet>> wallets_;
  std::uint64_t remaining_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t failed_ = 0;
  bool started_ = false;
  sim::TimePoint first_broadcast_ = 0;
};

struct MeshExperimentConfig {
  TestbedConfig testbed;  // caller sets .topology
  MeshWorkloadConfig workload;
  MeshRelayerOptions relayers;
  /// Transfer route as testbed chain indices (>= 2 entries).
  std::vector<int> route{0, 1};
  sim::Duration max_sim_time = sim::seconds(14'400);
  sim::Duration drain_no_progress_limit = sim::seconds(180);
};

struct MeshExperimentResult {
  bool ok = false;
  std::string error;

  std::uint64_t requested = 0;
  std::uint64_t completed = 0;
  /// Completed transfers per second, first broadcast to last delivery.
  double tfps = 0.0;
  std::vector<double> latencies_seconds;
  double avg_latency_seconds = 0.0;

  // Forward-middleware counters summed over all chains.
  std::uint64_t packets_forwarded = 0;
  std::uint64_t forwards_completed = 0;
  std::uint64_t forwards_unwound = 0;

  std::uint64_t invariant_violations = 0;
  std::uint64_t routing_skipped = 0;
  std::uint64_t coordination_skipped = 0;

  relayer::StepLog steps;
  /// Final app hash per chain (hex) — the determinism fingerprint.
  std::vector<std::string> app_hashes;
  double sim_seconds = 0.0;
  std::uint64_t events_executed = 0;
};

MeshExperimentResult run_mesh_experiment(const MeshExperimentConfig& config);

}  // namespace xcc
