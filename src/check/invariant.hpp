#pragma once
// Runtime IBC invariant checker.
//
// Subscribes to both chains' block-commit events and asserts, at every
// commit, the safety properties the paper's throughput/latency figures rest
// on: exactly-once packet delivery (ICS-04), send/recv/ack sequence
// monotonicity with no gaps (ICS-04), escrow/voucher token conservation
// across both chains (ICS-20), light-client height monotonicity (ICS-02) and
// no double-spent account sequence numbers. The simulation is a
// single-threaded DES and a commit is one atomic event, so inspecting both
// chains' stores from a commit callback observes a consistent global state.
//
// The store-derived checks are incremental: a KvStore write hook keeps a
// model of per-denom balance sums and of the written denoms, client states
// and channel ends, so a commit checks only what was written since the last
// one (O(writes), not O(state)). audit() re-derives the same verdicts from a
// full walk of every store, cross-checks the model ("checker-drift"), and
// runs every kAuditPeriod commits of a chain and at the end of every run.
//
// Wired into xcc::Testbed (opt-out via TestbedConfig::invariant_checks), so
// every integration test and bench runs under it for free. The fuzzer
// (fuzz_scenarios) runs it with fail_fast=false and collects violations.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chain/block.hpp"
#include "chain/ledger.hpp"
#include "consensus/engine.hpp"
#include "cosmos/app.hpp"
#include "ibc/channel.hpp"

namespace check {

/// One invariant failure, with enough context to debug the offending seed.
struct Violation {
  std::string invariant;  // e.g. "exactly-once-recv"
  chain::ChainId chain;
  chain::Height height = 0;
  std::string detail;

  std::string to_string() const;
};

/// Thrown from the commit callback when fail_fast is set; propagates out of
/// Scheduler::run_* so tests and benches fail loudly at the violating commit.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const Violation& v);
  const Violation violation;
};

struct CheckerConfig {
  /// Throw InvariantViolation at the first violation (tests/benches).
  /// false: record violations and keep simulating (fuzzer mode).
  bool fail_fast = true;
  /// Recording cap in collect mode; one broken invariant tends to cascade.
  std::size_t max_violations = 64;
};

/// Everything the checker reads from one deployed chain.
struct ChainHandles {
  chain::ChainId id;
  cosmos::CosmosApp* app = nullptr;
  consensus::Engine* engine = nullptr;
};

class InvariantChecker {
 public:
  /// Subscribes to every chain's block events. The handles must outlive the
  /// checker (in the Testbed all are members of the same object).
  /// Counterparties are resolved per channel through the connection's light
  /// client (channel -> connection -> client -> tracked chain id), never by
  /// "the other chain" — a 2-chain shortcut that aliases channels once a
  /// third chain exists.
  /// It seeds its store model with one unordered walk of each chain's store
  /// and installs each store's write hook; throws std::logic_error when a
  /// store already has one.
  explicit InvariantChecker(std::vector<ChainHandles> chains,
                            CheckerConfig config = {});
  /// Two-chain convenience (the paper's deployment).
  InvariantChecker(ChainHandles a, ChainHandles b, CheckerConfig config = {});
  /// Removes the write hooks it installed.
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Commits of one chain between two periodic audits.
  static constexpr std::uint64_t kAuditPeriod = 64;

  /// Full-walk audit of every chain at its current height: re-derives bank
  /// conservation, client-height and channel-counter monotonicity (against
  /// the previous audit's snapshot) from an unordered walk of the store, and
  /// reports "checker-drift" wherever the walk disagrees with the
  /// hook-fed model. Does not count toward blocks_checked().
  void audit();

  /// Observability hook: runs for every Violation before it is thrown
  /// (fail_fast) or recorded — including violations the collection cap would
  /// suppress. The Testbed wires this to the telemetry hub's flight-dump
  /// trigger so a post-mortem journal lands on disk even when the violation
  /// aborts the run. The hook must not throw.
  using ViolationHook = std::function<void(const Violation&)>;
  void set_violation_hook(ViolationHook hook) { hook_ = std::move(hook); }

  std::uint64_t blocks_checked() const { return blocks_checked_; }
  const std::vector<Violation>& violations() const { return violations_; }
  /// Human-readable list of all recorded violations ("" when clean).
  std::string report() const;

 private:
  /// Orders (string, string) keys as std::pair does, and also compares them
  /// with pairs of views, so a lookup builds no strings.
  struct PairLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      using Views = std::pair<std::string_view, std::string_view>;
      return Views(a.first, a.second) < Views(b.first, b.second);
    }
  };

  /// Per-channel set of already-used sequences, compressed as a contiguous
  /// prefix [1, contiguous] plus an out-of-order overflow set, so unordered
  /// channels at bench scale stay O(reorder window) instead of O(packets).
  struct SeqWindow {
    ibc::Sequence contiguous = 0;
    std::set<ibc::Sequence> sparse;

    bool insert(ibc::Sequence s);  // false when s was already present
    bool contains(ibc::Sequence s) const;
  };

  /// An unresolved outgoing transfer (commitment written, no ack/timeout
  /// processed yet); drives the escrow/voucher conservation model.
  struct PendingTransfer {
    std::uint64_t amount = 0;
    std::string denom_path;  // on-wire trace path from the packet data
    bool returning = false;  // burnt a voucher on send (vs escrowed)
  };

  /// A receive whose acknowledgement was deferred (packet-forward
  /// middleware): the mint/unescrow already happened at recv, so the model
  /// is updated optimistically and reversed if the eventual ack fails.
  struct AsyncRecv {
    std::uint64_t amount = 0;
    std::string denom_path;  // on-wire trace path from the packet data
  };

  /// A channel's sequence counters as of a previous check.
  struct CounterSnap {
    ibc::Sequence send = 0, recv = 0, ack = 0;  // 0 = not yet seen
  };

  struct ChainState;

  /// counterparty_of()'s last resolution of a channel and the stored bytes
  /// it was decoded from: the channel end, its connection end and that
  /// connection's client state. Valid while all three read back the same.
  struct CounterpartyMemo {
    util::Bytes channel_end, connection_end, client_state;
    ibc::ConnectionId connection;
    ibc::ClientId client;
    ChainState* chain = nullptr;  // nullptr = nothing memoised
  };

  struct ChannelTrack {
    // Event-derived.
    ibc::Sequence last_send = 0;  // send_packet events must run 1,2,3,...
    SeqWindow recvs, acks, timeouts;
    std::map<ibc::Sequence, PendingTransfer> pending;  // by send sequence
    /// On the destination side: ack success per received sequence (decoded
    /// from write_acknowledgement), consumed by the source's ack handling.
    std::map<ibc::Sequence, bool> ack_success;
    /// Receives still awaiting their deferred acknowledgement.
    std::map<ibc::Sequence, AsyncRecv> async_recv;

    /// Store counters at the previous commit and at the previous audit.
    CounterSnap snap, audit_snap;
    CounterpartyMemo counterparty;
  };

  /// A light client's latest height as of a previous check.
  struct HeightSnap {
    bool seen = false;
    std::int64_t height = 0;
  };

  /// Hook-fed model of one denom: the sum of its 8-byte balances (wrapping,
  /// like the full scan's) and whether it needs checking at the next commit.
  struct DenomTrack {
    std::uint64_t balance_sum = 0;
    bool dirty = false;    // a balance or the supply written since a commit
    bool failing = false;  // bank-conservation failed at the last commit
  };

  /// Hook-fed model of one client-state key.
  struct ClientTrack {
    bool live = false;     // present in the store
    bool dirty = false;    // written since the last commit
    bool failing = false;  // undecodable at the last commit
    HeightSnap snap;       // latest height at the last commit that decoded it
  };

  struct ChainState {
    ChainHandles h;
    /// Keyed by (port, channel).
    std::map<std::pair<std::string, std::string>, ChannelTrack, PairLess>
        channels;
    /// auth sequence per sender as of the previous commit (lazily seeded).
    std::map<chain::Address, std::uint64_t> auth_seq;
    /// Conservation model: expected escrow balance per (address, denom) and
    /// expected voucher supply per denom, updated from packet events.
    std::map<std::pair<chain::Address, std::string>, std::uint64_t, PairLess>
        escrow;
    std::map<std::string, std::uint64_t> voucher_supply;

    // Store model, kept by the write hook (observe()).
    std::map<std::string, DenomTrack, std::less<>> denoms;
    /// By store key, so iteration follows the store's key order.
    std::map<std::string, ClientTrack, std::less<>> clients;
    /// Live channel-end keys.
    std::set<std::string, std::less<>> channel_ends;

    /// Client heights at the previous audit, by store key.
    std::map<std::string, HeightSnap, std::less<>> audit_clients;
    std::uint64_t commits = 0;  // seen by this checker; drives the audit
  };

  void on_block(std::size_t chain_idx, const chain::Block& block,
                const std::vector<chain::DeliverTxResult>& results);
  void process_events(ChainState& c, chain::Height height,
                      const std::vector<chain::Event>& events);
  /// The write hook: folds one store write into `c`'s model.
  void observe(ChainState& c, std::string_view key,
               std::optional<util::BytesView> before,
               std::optional<util::BytesView> after);
  void audit_chain(ChainState& c, chain::Height height);

  /// Chain hosting the counterparty end of `c`'s channel (port, channel),
  /// resolved through the channel's connection and light client. Reports an
  /// "unknown-counterparty" violation and returns nullptr when any link of
  /// the chain is missing — cross-chain assertions are then skipped. A
  /// resolution is reused while the three values it was decoded from read
  /// back unchanged (ChannelTrack::counterparty).
  ChainState* counterparty_of(ChainState& c, const std::string& port,
                              const std::string& channel,
                              chain::Height height);

  /// Applies the escrow/voucher model for a successfully delivered ICS-20
  /// packet (unescrow the returning inner denom, or mint the extended-trace
  /// voucher). Shared by the sync path (at write_acknowledgement) and the
  /// async path (optimistically at recv_packet).
  void account_recv_success(ChainState& c, const std::string& src_port,
                            const std::string& src_channel,
                            const std::string& dst_port,
                            const std::string& dst_channel,
                            std::uint64_t amount,
                            const std::string& denom_path,
                            chain::Height height);
  void check_account_sequences(ChainState& c, const chain::Block& block,
                               const std::vector<chain::DeliverTxResult>& res);
  void check_channel_counters(ChainState& c, chain::Height height);
  void check_client_heights(ChainState& c, chain::Height height);
  void check_bank_conservation(ChainState& c, chain::Height height);
  void check_escrow_model(ChainState& c, chain::Height height);

  /// The model of (port, channel) on `c`, created on first use.
  static ChannelTrack& track(ChainState& c, std::string_view port,
                             std::string_view channel);
  /// The expected balance of (port, channel)'s escrow in the denom that
  /// `denom_path` is held under locally, created at 0 on first use.
  static std::uint64_t& escrow_of(ChainState& c, const std::string& port,
                                  const std::string& channel,
                                  std::string_view denom_path);

  // One item of the store-derived checks, shared by the per-commit path and
  // the audit, which differ only in the snapshot they compare against.
  void check_channel(ChainState& c, std::string_view key, chain::Height height,
                     CounterSnap ChannelTrack::*snap);
  /// The decoded latest height, or nullopt when undecodable.
  std::optional<std::int64_t> check_client_state(ChainState& c,
                                                 std::string_view key,
                                                 util::BytesView value,
                                                 chain::Height height,
                                                 HeightSnap& snap);
  /// False (and a violation) when the balances of `denom` do not sum to its
  /// supply.
  bool check_denom(ChainState& c, const std::string& denom,
                   std::uint64_t balance_sum, chain::Height height);

  void fail(const chain::ChainId& chain, chain::Height height,
            std::string invariant, std::string detail);

  CheckerConfig config_;
  std::vector<ChainState> chains_;
  /// chain id -> index into chains_, for counterparty resolution.
  std::map<chain::ChainId, std::size_t> chain_index_;
  std::uint64_t blocks_checked_ = 0;
  std::vector<Violation> violations_;
  bool overflowed_ = false;  // violations_ hit max_violations
  ViolationHook hook_;
};

}  // namespace check
