#pragma once
// Long-horizon chaos campaigns.
//
// A campaign is a thousands-of-blocks testbed run under the invariant
// checker with a declarative, seed-deterministic fault timeline layered on
// top of steady cross-chain traffic. Where fuzz scenarios explore random
// short runs, a campaign drives one named adversarial storyline end to end
// and asserts the system *recovers*: chains halt and restart with mempool
// and store intact, light clients expire past their trusting period and are
// recovered via governance, clients freeze on misbehaviour evidence and
// resume after substitution, relayers crash and re-hydrate their in-memory
// state from queryable chain state, mempools censor IBC traffic for a
// window, and packet storms ride the WebSocket frame-limit cliff (§V).
//
// Every campaign ends with a drain phase: zero outstanding packet
// commitments on the source chain is the survival criterion. Failed
// expectations are recorded as `campaign-expectation/...` violations next
// to any invariant-checker violations, so `fuzz_scenarios --campaign=...
// --expect-violation` can prove a planted bug (e.g. --mutate=
// skip-expiry-check) is actually detected.
//
// Same seed + same options => byte-identical CampaignResult::csv(),
// including both chains' final app hashes (the repo-wide determinism
// contract; asserted by tests/campaign_test.cpp and run_benches.sh --check).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariant.hpp"

namespace xcc {
class Testbed;
}

namespace check {

/// The scenario families (each is a ctest target at >= 1000 blocks).
inline const char* const kCampaignFamilies[] = {
    "halt-restart",   // chain halt + restart, mempool/store survival
    "client-expiry",  // trusting-period expiry, probe, governance recovery
    "client-freeze",  // equivocation evidence, frozen client, recovery
    "relayer-crash",  // relayer crash/restart, startup re-hydration
    "censorship",     // mempool censorship windows on IBC messages
    "frame-storm",    // packet storms over the WebSocket frame limit
};
inline constexpr std::size_t kCampaignFamilyCount =
    sizeof(kCampaignFamilies) / sizeof(kCampaignFamilies[0]);

bool campaign_family_known(const std::string& family);

struct CampaignOptions {
  std::string family;
  std::uint64_t seed = 0;
  /// Both chains must commit at least this many blocks (the long-horizon
  /// floor; the timeline stretches to fit when it is longer).
  std::uint64_t min_blocks = 1'000;
  /// Throw-at-first-violation vs collect (mirrors ScenarioOptions).
  bool fail_fast = false;
  /// Planted bugs, to prove the campaign expectations detect them.
  bool mutate_skip_expiry = false;
  bool mutate_skip_replay = false;

  /// Observability: when non-empty, enables telemetry, arms the flight
  /// recorder, and writes the post-mortem dump (event journal + metrics +
  /// series) here at the first failed expectation or invariant violation.
  std::string flight_dump_path;
  /// Ring capacity when the recorder is armed.
  std::size_t flight_capacity = 512;
  /// Per-block sampling cadence: snapshot the registry + probes every N
  /// source-chain commits (0 = sampling off). Enables telemetry.
  std::uint64_t sample_every_blocks = 0;

  /// Test seam, as ScenarioOptions::on_testbed.
  std::function<void(xcc::Testbed&)> on_testbed;
};

/// One step of the fault timeline, with the virtual time and chain heights
/// at which it fired. `ok` is the step's local expectation (e.g. "probe
/// rejected", "client frozen"); failures also land in violations.
struct CampaignPhase {
  std::string name;
  sim::TimePoint at = 0;
  chain::Height height_a = 0;
  chain::Height height_b = 0;
  bool ok = true;
  std::string detail;
};

struct CampaignResult {
  std::string family;
  std::uint64_t seed = 0;

  bool setup_ok = false;
  std::string setup_error;

  std::uint64_t blocks_a = 0;
  std::uint64_t blocks_b = 0;
  std::uint64_t blocks_checked = 0;
  std::uint64_t transfers_requested = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_acknowledged = 0;
  std::uint64_t packets_timed_out = 0;
  std::uint64_t redundant_messages = 0;
  std::uint64_t censored_txs = 0;
  std::uint64_t frames_failed = 0;
  std::uint64_t evidence_committed = 0;
  std::uint64_t abandoned_packets = 0;
  std::uint64_t outstanding_commitments = 0;  // after the drain phase

  /// Final application state roots (hex), chain A and B.
  std::string app_hash_a;
  std::string app_hash_b;

  std::vector<CampaignPhase> phases;
  /// Invariant-checker violations plus campaign-expectation failures
  /// (invariant = "campaign-expectation/<what>").
  std::vector<Violation> violations;

  /// Deterministic multi-line summary (header row, result row, one row per
  /// phase). Byte-identical across same-seed reruns.
  std::string csv() const;
};

/// Runs one campaign. Deterministic: same options => same result bytes.
CampaignResult run_campaign(const CampaignOptions& options);

}  // namespace check
