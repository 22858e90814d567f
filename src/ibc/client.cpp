#include "ibc/client.hpp"

#include "ibc/host.hpp"

namespace ibc {

std::int64_t ClientState::total_power() const {
  std::int64_t p = 0;
  for (const auto& v : validators) p += v.power;
  return p;
}

util::Bytes ClientState::encode() const {
  Writer w;
  w.str(chain_id);
  w.i64(latest_height);
  w.i64(trusting_period);
  w.u8(frozen ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(validators.size()));
  for (const auto& v : validators) {
    w.digest(v.pub.id);
    w.i64(v.power);
  }
  return w.take();
}

bool ClientState::decode(util::BytesView data, ClientState& out) {
  Reader r(data);
  std::uint8_t frozen_u8 = 0;
  std::uint32_t count = 0;
  if (!r.str(out.chain_id) || !r.i64(out.latest_height) ||
      !r.i64(out.trusting_period) || !r.u8(frozen_u8) || !r.u32(count)) {
    return false;
  }
  out.frozen = frozen_u8 != 0;
  out.validators.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    ClientValidator v;
    if (!r.digest(v.pub.id) || !r.i64(v.power)) return false;
    out.validators.push_back(v);
  }
  return r.done();
}

util::Bytes ConsensusState::encode() const {
  Writer w;
  w.digest(app_hash);
  w.i64(timestamp);
  w.digest(validators_hash);
  return w.take();
}

bool ConsensusState::decode(util::BytesView data, ConsensusState& out) {
  Reader r(data);
  if (!r.digest(out.app_hash) || !r.i64(out.timestamp) ||
      !r.digest(out.validators_hash)) {
    return false;
  }
  return r.done();
}

util::Bytes Header::encode() const {
  Writer w;
  w.str(chain_id);
  w.i64(height);
  w.i64(time);
  w.digest(app_hash_after);
  w.digest(validators_hash);
  w.digest(block_id.hash);
  w.i64(commit.height);
  w.u32(static_cast<std::uint32_t>(commit.round));
  w.digest(commit.block_id.hash);
  w.u32(static_cast<std::uint32_t>(commit.signatures.size()));
  for (const auto& sig : commit.signatures) {
    w.u8(static_cast<std::uint8_t>(sig.flag));
    w.digest(sig.validator.id);
    w.i64(sig.timestamp);
    w.digest(sig.signature.mac);
  }
  return w.take();
}

bool Header::decode(util::BytesView data, Header& out) {
  Reader r(data);
  std::uint32_t round = 0;
  std::uint32_t sig_count = 0;
  if (!r.str(out.chain_id) || !r.i64(out.height) || !r.i64(out.time) ||
      !r.digest(out.app_hash_after) || !r.digest(out.validators_hash) ||
      !r.digest(out.block_id.hash) || !r.i64(out.commit.height) ||
      !r.u32(round) || !r.digest(out.commit.block_id.hash) ||
      !r.u32(sig_count)) {
    return false;
  }
  out.commit.round = static_cast<int>(round);
  out.commit.signatures.clear();
  for (std::uint32_t i = 0; i < sig_count; ++i) {
    chain::CommitSig sig;
    std::uint8_t flag = 0;
    if (!r.u8(flag) || !r.digest(sig.validator.id) || !r.i64(sig.timestamp) ||
        !r.digest(sig.signature.mac)) {
      return false;
    }
    sig.flag = static_cast<chain::BlockIdFlag>(flag);
    out.commit.signatures.push_back(sig);
  }
  return r.done();
}

ClientId ClientKeeper::create_client(ClientState state,
                                     std::int64_t initial_height,
                                     ConsensusState initial) {
  const ClientId id = make_client_id(next_client_++);
  state.latest_height = initial_height;
  store_.set(host::client_state_key(id), state.encode());
  store_.set(host::consensus_state_key(id, initial_height), initial.encode());
  return id;
}

bool ClientKeeper::client_exists(const ClientId& id) const {
  return store_.contains(host::client_state_key(id));
}

util::Result<ClientState> ClientKeeper::client_state(const ClientId& id) const {
  const auto raw = store_.get_view(host::client_state_key(id));
  if (!raw) {
    return util::Status::error(util::ErrorCode::kNotFound,
                               "client not found: " + id);
  }
  ClientState state;
  if (!ClientState::decode(*raw, state)) {
    return util::Status::error(util::ErrorCode::kInternal,
                               "corrupt client state: " + id);
  }
  return state;
}

util::Result<ConsensusState> ClientKeeper::consensus_state(
    const ClientId& id, std::int64_t height) const {
  const auto raw = store_.get_view(host::consensus_state_key(id, height));
  if (!raw) {
    return util::Status::error(
        util::ErrorCode::kNotFound,
        "no consensus state for " + id + " at height " +
            std::to_string(height));
  }
  ConsensusState cs;
  if (!ConsensusState::decode(*raw, cs)) {
    return util::Status::error(util::ErrorCode::kInternal,
                               "corrupt consensus state");
  }
  return cs;
}

namespace {

/// True iff the consensus state is older than the client's trusting period
/// relative to `now`. `now == 0` means "expiry not evaluated" — callers
/// outside block execution (and the skip-expiry-check mutation) pass 0.
bool consensus_expired(const ClientState& state, const ConsensusState& cs,
                       sim::TimePoint now) {
  return now != 0 && now - cs.timestamp > state.trusting_period;
}

}  // namespace

util::Status ClientKeeper::verify_header_commit(const ClientState& state,
                                                const Header& header) const {
  if (header.chain_id != state.chain_id) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "header chain id mismatch");
  }
  if (header.commit.height != header.height ||
      header.commit.block_id.hash != header.block_id.hash) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "commit does not match header");
  }

  // Verify +2/3 of the tracked validator set signed the commit.
  const util::Bytes sign_bytes = chain::vote_sign_bytes(
      header.chain_id, header.commit.height, header.commit.round,
      header.commit.block_id);
  std::int64_t signed_power = 0;
  for (const chain::CommitSig& sig : header.commit.signatures) {
    if (sig.flag != chain::BlockIdFlag::kCommit) continue;
    bool known = false;
    std::int64_t power = 0;
    for (const auto& v : state.validators) {
      if (v.pub == sig.validator) {
        known = true;
        power = v.power;
        break;
      }
    }
    if (!known) continue;  // signatures from unknown validators carry no power
    if (!crypto::verify(sig.validator, sign_bytes, sig.signature)) {
      return util::Status::error(util::ErrorCode::kInvalidArgument,
                                 "invalid commit signature");
    }
    signed_power += power;
  }
  if (signed_power < state.quorum_power()) {
    return util::Status::error(
        util::ErrorCode::kFailedPrecondition,
        "insufficient voting power in commit: " + std::to_string(signed_power) +
            " < " + std::to_string(state.quorum_power()));
  }
  return util::Status::ok();
}

util::Status ClientKeeper::update_client(const ClientId& id,
                                         const Header& header,
                                         sim::TimePoint now) {
  auto state_res = client_state(id);
  if (!state_res.is_ok()) return state_res.status();
  ClientState state = state_res.take();

  if (state.frozen) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "client is frozen: " + id);
  }
  // An expired client (tracked head older than trusting_period) can no
  // longer distinguish honest updates from long-range forgeries; it must be
  // recovered before accepting anything.
  if (auto head = consensus_state(id, state.latest_height); head.is_ok()) {
    if (consensus_expired(state, head.value(), now)) {
      return util::Status::error(
          util::ErrorCode::kFailedPrecondition,
          "client expired: " + id + " last trusted header is older than the "
                                    "trusting period; recover the client");
    }
  }
  if (util::Status s = verify_header_commit(state, header); !s.is_ok()) {
    return s;
  }

  ConsensusState cs;
  cs.app_hash = header.app_hash_after;
  cs.timestamp = header.time;
  cs.validators_hash = header.validators_hash;
  store_.set(host::consensus_state_key(id, header.height), cs.encode());
  if (header.height > state.latest_height) {
    state.latest_height = header.height;
    store_.set(host::client_state_key(id), state.encode());
  }
  return util::Status::ok();
}

util::Status ClientKeeper::submit_misbehaviour(const ClientId& id,
                                               const Header& header_1,
                                               const Header& header_2) {
  auto state_res = client_state(id);
  if (!state_res.is_ok()) return state_res.status();
  ClientState state = state_res.take();
  if (state.frozen) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "client is already frozen: " + id);
  }
  if (header_1.height != header_2.height) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "misbehaviour headers are for different "
                               "heights");
  }
  if (header_1.block_id.hash == header_2.block_id.hash) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "misbehaviour headers do not conflict");
  }
  // Both headers must independently carry a valid +2/3 commit: the tracked
  // validator set provably finalized two different blocks at one height.
  if (util::Status s = verify_header_commit(state, header_1); !s.is_ok()) {
    return s;
  }
  if (util::Status s = verify_header_commit(state, header_2); !s.is_ok()) {
    return s;
  }
  state.frozen = true;
  store_.set(host::client_state_key(id), state.encode());
  return util::Status::ok();
}

util::Status ClientKeeper::freeze_client(const ClientId& id) {
  auto state_res = client_state(id);
  if (!state_res.is_ok()) return state_res.status();
  ClientState state = state_res.take();
  state.frozen = true;
  store_.set(host::client_state_key(id), state.encode());
  return util::Status::ok();
}

util::Status ClientKeeper::recover_client(
    const ClientId& id, ClientState substitute, std::int64_t substitute_height,
    const ConsensusState& substitute_consensus, sim::TimePoint now) {
  auto state_res = client_state(id);
  if (!state_res.is_ok()) return state_res.status();
  const ClientState state = state_res.take();
  bool inactive = state.frozen;
  if (!inactive) {
    if (auto head = consensus_state(id, state.latest_height); head.is_ok()) {
      inactive = consensus_expired(state, head.value(), now);
    } else {
      inactive = true;  // no trusted head at all
    }
  }
  if (!inactive) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "cannot recover an active client: " + id);
  }
  substitute.frozen = false;
  substitute.latest_height = substitute_height;
  store_.set(host::client_state_key(id), substitute.encode());
  store_.set(host::consensus_state_key(id, substitute_height),
             substitute_consensus.encode());
  return util::Status::ok();
}

util::Status ClientKeeper::check_proof_root(const ClientId& id,
                                            std::int64_t proof_height,
                                            const chain::StoreProof& proof,
                                            sim::TimePoint now) const {
  auto state_res = client_state(id);
  if (!state_res.is_ok()) return state_res.status();
  const ClientState& state = state_res.value();
  if (state.frozen) {
    return util::Status::error(util::ErrorCode::kFailedPrecondition,
                               "client is frozen: " + id);
  }
  auto cs = consensus_state(id, proof_height);
  if (!cs.is_ok()) return cs.status();
  if (consensus_expired(state, cs.value(), now)) {
    return util::Status::error(
        util::ErrorCode::kFailedPrecondition,
        "client expired: consensus state at height " +
            std::to_string(proof_height) + " is outside the trusting period");
  }
  if (!chain::verify_store_proof(proof, cs.value().app_hash)) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "store proof does not verify against consensus "
                               "state at height " +
                                   std::to_string(proof_height));
  }
  return util::Status::ok();
}

util::Status ClientKeeper::verify_membership(
    const ClientId& id, std::int64_t proof_height,
    const chain::StoreProof& proof, std::string_view expected_key,
    util::BytesView expected_value, sim::TimePoint now) const {
  if (util::Status s = check_proof_root(id, proof_height, proof, now);
      !s.is_ok()) {
    return s;
  }
  if (!proof.exists || proof.key != expected_key) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "proof is not an existence proof for " +
                                   std::string(expected_key));
  }
  if (proof.value.size() != expected_value.size() ||
      !std::equal(proof.value.begin(), proof.value.end(),
                  expected_value.begin())) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "proof value mismatch for " +
                                   std::string(expected_key));
  }
  return util::Status::ok();
}

util::Status ClientKeeper::verify_non_membership(
    const ClientId& id, std::int64_t proof_height,
    const chain::StoreProof& proof, std::string_view expected_key,
    sim::TimePoint now) const {
  if (util::Status s = check_proof_root(id, proof_height, proof, now);
      !s.is_ok()) {
    return s;
  }
  if (proof.exists || proof.key != expected_key) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "proof is not a non-existence proof for " +
                                   std::string(expected_key));
  }
  return util::Status::ok();
}

}  // namespace ibc
