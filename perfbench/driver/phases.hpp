#pragma once
// Phase-by-phase experiment driver for the repo benchmark.
//
// Re-runs the phases of xcc::run_experiment() — setup, workload window,
// workload resolution, drain — through public calls only, so the benchmark
// can time each phase, and in a traced run each Scheduler::step(), from
// outside the simulator. Sampling, telemetry and the flight recorder stay
// off. The virtual results equal run_experiment()'s on the same config;
// equivalence_test.cpp checks that.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/profiler.hpp"
#include "util/json.hpp"
#include "xcc/experiment.hpp"

namespace perfbench {

/// Layer a traced step is billed to: the first, in this order, whose public
/// counter moved during the step.
enum class Layer : std::uint8_t { kConsensus, kRpc, kRelayer, kOther };
inline constexpr std::size_t kLayerCount = 4;
std::string_view layer_name(Layer layer);

/// Host-time record of one traced run, kept in memory and written out once
/// the run is over (write_chrome_trace).
struct StepTrace {
  /// Consecutive steps billed to one layer, merged into one span.
  struct Span {
    Layer layer = Layer::kOther;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t steps = 0;
  };
  /// A named interval outside the step loop (setup phases, checker calls).
  struct Mark {
    std::string_view name;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  std::vector<Span> spans;
  std::vector<Mark> marks;

  /// Workload phase (open channel to end of drain) only.
  std::vector<std::uint64_t> step_ns;    // every step
  std::vector<std::uint64_t> commit_ns;  // consensus steps, checker excluded
  std::vector<std::uint64_t> check_ns;   // one per checked block
  std::array<std::uint64_t, kLayerCount> layer_ns{};  // checker excluded
  std::uint64_t check_total_ns = 0;
  std::uint64_t commit_txs = 0;  // txs committed by consensus steps

  /// Checker time spent during setup (the handshake's commits).
  std::uint64_t setup_check_ns = 0;
  /// crypto_hash / kv_store keys of the built-in profiler, armed for the
  /// whole run.
  telemetry::ProfileReport profile;
};

/// Deterministic per-layer counters read from public accessors at the end of
/// a run, summed over both chains (and all servers / relayers).
struct LayerCounts {
  std::uint64_t setup_events = 0;
  std::uint64_t workload_events = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t blocks = 0;
  std::uint64_t txs_ok = 0;
  std::uint64_t txs_failed = 0;
  std::uint64_t ledger_txs = 0;
  std::uint64_t mempool_admitted = 0;
  std::uint64_t mempool_rejected = 0;
  std::uint64_t store_keys = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_acknowledged = 0;
  std::uint64_t redundant_messages = 0;
  std::uint64_t rpc_requests = 0;
  std::uint64_t rpc_rejected = 0;
  double rpc_busy_seconds = 0;
  std::uint64_t check_blocks = 0;
};

struct PhasedRun {
  bool ok = false;
  std::string error;

  // Host seconds.
  double genesis_s = 0;    // Testbed construction (genesis state)
  double handshake_s = 0;  // start_chains through the open channel
  double setup_s = 0;      // genesis_s + handshake_s
  double wall_s = 0;       // open channel through the end of the drain
  /// wall_s cut into consecutive segments, the same segments in every run
  /// of a config (see run_phased()).
  std::vector<double> segments_s;

  xcc::ExperimentResult result;  // virtual fields only; host fields unset
  LayerCounts counts;
  std::string app_hash_a;
  std::string app_hash_b;
};

/// Runs `config` phase by phase. A non-null `trace` records per-step spans
/// and arms the profiler; `setup_only` stops once the channel is open.
/// Rejects configs that turn on telemetry, sampling, the flight recorder,
/// parallel RPC requests or more than two chains, which the benchmark never
/// measures.
PhasedRun run_phased(const xcc::ExperimentConfig& config, StepTrace* trace,
                     bool setup_only = false);

/// The deterministic fields of an ExperimentResult, as canonical JSON.
util::json::Value virtual_results(const xcc::ExperimentResult& result);

/// virtual_results() plus final app hashes and layer counts: the record the
/// benchmark digests.
util::json::Value virtual_record(const PhasedRun& run);

/// Writes `trace` as Chrome trace-event JSON (open in Perfetto).
bool write_chrome_trace(const StepTrace& trace, const std::string& path);

}  // namespace perfbench
