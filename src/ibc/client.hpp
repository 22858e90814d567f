#pragma once
// ICS-02 light clients.
//
// Each chain runs a light client of its counterparty (paper §II-B1): it
// tracks the counterparty's consensus states (app hash + timestamp per
// height) and accepts updates only when accompanied by a +2/3 commit of the
// counterparty's validator set. Store proofs carried by packet messages are
// verified against the tracked app hash for the proof height.

#include <cstdint>
#include <map>
#include <vector>

#include "chain/block.hpp"
#include "chain/store.hpp"
#include "chain/validator.hpp"
#include "ibc/codec.hpp"
#include "ibc/ids.hpp"
#include "sim/time.hpp"
#include "util/status.hpp"

namespace ibc {

/// A validator entry as tracked by a light client.
struct ClientValidator {
  crypto::PublicKey pub;
  std::int64_t power = 1;
};

struct ClientState {
  chain::ChainId chain_id;
  std::int64_t latest_height = 0;
  /// Updates older than this relative to the tracked head are rejected.
  sim::Duration trusting_period = sim::seconds(14 * 24 * 3600);
  bool frozen = false;
  std::vector<ClientValidator> validators;

  std::int64_t total_power() const;
  std::int64_t quorum_power() const { return total_power() * 2 / 3 + 1; }

  util::Bytes encode() const;
  static bool decode(util::BytesView data, ClientState& out);
};

struct ConsensusState {
  /// Application state root *after* executing the block at this height —
  /// the root ICS-23 proofs generated at that height commit to. (Real
  /// Tendermint carries it in the next header; collapsing the off-by-one is
  /// a documented simplification.)
  crypto::Digest app_hash{};
  sim::TimePoint timestamp = 0;
  crypto::Digest validators_hash{};

  util::Bytes encode() const;
  static bool decode(util::BytesView data, ConsensusState& out);
};

/// Header submitted in MsgUpdateClient: block metadata plus the commit that
/// finalized it.
struct Header {
  chain::ChainId chain_id;
  chain::Height height = 0;
  sim::TimePoint time = 0;
  crypto::Digest app_hash_after{};
  crypto::Digest validators_hash{};
  chain::BlockId block_id;
  chain::Commit commit;

  util::Bytes encode() const;
  static bool decode(util::BytesView data, Header& out);

  std::size_t size_bytes() const { return 160 + commit.signatures.size() * 96; }
};

/// Client keeper: stores client/consensus states in the app store.
class ClientKeeper {
 public:
  explicit ClientKeeper(chain::KvStore& store) : store_(store) {}

  /// Creates a client tracking `counterparty` from `initial` onward.
  /// Returns the assigned client id.
  ClientId create_client(ClientState state, std::int64_t initial_height,
                         ConsensusState initial);

  /// Verifies the header's commit against the client's validator set and
  /// records a consensus state at the header height. `now` is the host
  /// chain's current (virtual) block time; when non-zero, updates are
  /// rejected once the tracked head is older than `trusting_period` (the
  /// client has expired and must be recovered). `now == 0` skips the expiry
  /// check (legacy callers and the `skip-expiry-check` mutation).
  util::Status update_client(const ClientId& id, const Header& header,
                             sim::TimePoint now = 0);

  /// Freezes `id` given two valid, conflicting headers for the same height
  /// (ICS-02 misbehaviour): both must carry +2/3 commits of the tracked
  /// validator set but commit different block ids. A frozen client rejects
  /// updates and proof verification until recovered.
  util::Status submit_misbehaviour(const ClientId& id, const Header& header_1,
                                   const Header& header_2);

  /// Unconditionally freezes `id` (host-side governance/test hook).
  util::Status freeze_client(const ClientId& id);

  /// Governance-style recovery: replaces the subject client's state with
  /// `substitute` (unfrozen) and seeds a fresh consensus state at
  /// `substitute_height`. Only frozen or expired (relative to `now`)
  /// clients may be recovered.
  util::Status recover_client(const ClientId& id, ClientState substitute,
                              std::int64_t substitute_height,
                              const ConsensusState& substitute_consensus,
                              sim::TimePoint now);

  bool client_exists(const ClientId& id) const;
  util::Result<ClientState> client_state(const ClientId& id) const;
  util::Result<ConsensusState> consensus_state(const ClientId& id,
                                               std::int64_t height) const;

  /// Verifies a counterparty store proof against the consensus state the
  /// client tracked for `proof_height`. When `now` is non-zero the client
  /// must be unfrozen and the proof's consensus state within
  /// `trusting_period` of `now`.
  util::Status verify_membership(const ClientId& id, std::int64_t proof_height,
                                 const chain::StoreProof& proof,
                                 std::string_view expected_key,
                                 util::BytesView expected_value,
                                 sim::TimePoint now = 0) const;

  /// Verifies a proof that `expected_key` is absent at `proof_height`.
  util::Status verify_non_membership(const ClientId& id,
                                     std::int64_t proof_height,
                                     const chain::StoreProof& proof,
                                     std::string_view expected_key,
                                     sim::TimePoint now = 0) const;

 private:
  util::Status check_proof_root(const ClientId& id, std::int64_t proof_height,
                                const chain::StoreProof& proof,
                                sim::TimePoint now) const;
  /// Shared +2/3-commit verification for update_client / submit_misbehaviour.
  util::Status verify_header_commit(const ClientState& state,
                                    const Header& header) const;

  chain::KvStore& store_;
  std::uint64_t next_client_ = 0;
};

}  // namespace ibc
