#pragma once
// Tendermint block structure (paper Fig. 1).
//
// A block has four fields: Header, Data (transactions — opaque to
// Tendermint, validated by the application), Evidence (proofs of validator
// misbehaviour) and LastCommit (the +2/3 precommit votes for the previous
// block, with per-validator BlockIDFlag / address / timestamp / signature).

#include <cstdint>
#include <vector>

#include "chain/tx.hpp"
#include "chain/types.hpp"
#include "chain/validator.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "sim/time.hpp"

namespace chain {

/// Identifies a block by the hash of its header.
struct BlockId {
  crypto::Digest hash{};
  bool operator==(const BlockId&) const = default;
};

/// Per-validator vote flag in LastCommit (mirrors Tendermint's BlockIDFlag).
enum class BlockIdFlag : std::uint8_t {
  kAbsent = 1,   // validator did not vote
  kCommit = 2,   // voted for the committed block
  kNil = 3,      // voted for a different block / nil
};

/// One signature entry in a commit.
struct CommitSig {
  BlockIdFlag flag = BlockIdFlag::kAbsent;
  crypto::PublicKey validator;       // validator address (public key id)
  sim::TimePoint timestamp = 0;      // vote time
  crypto::Signature signature;       // over the canonical vote
};

/// The +2/3 precommits that committed a block.
struct Commit {
  Height height = 0;
  int round = 0;
  BlockId block_id;
  std::vector<CommitSig> signatures;

  /// Voting power represented by kCommit entries, given the set.
  std::int64_t committed_power(const ValidatorSet& set) const;
};

struct BlockHeader {
  // Block & chain metadata.
  ChainId chain_id;
  Height height = 0;
  sim::TimePoint time = 0;
  BlockId last_block_id;

  // Consensus metadata.
  crypto::Digest last_commit_hash{};
  crypto::Digest data_hash{};        // merkle root of txs

  // Validator metadata.
  crypto::Digest validators_hash{};
  crypto::PublicKey proposer;

  // Application metadata.
  crypto::Digest app_hash{};         // state root after the *previous* block
  crypto::Digest results_hash{};     // merkle root of DeliverTx results

  /// Canonical encoding + hash; the header hash is the BlockId.
  util::Bytes encode() const;
  crypto::Digest hash() const;
};

struct Block {
  BlockHeader header;
  std::vector<TxPtr> txs;         // the Data field, shared with the mempool
  std::vector<util::Bytes> evidence;  // opaque misbehaviour proofs (unused
                                      // by honest runs; kept for structure)
  Commit last_commit;

  BlockId id() const { return BlockId{header.hash()}; }

  /// Merkle root of the transaction list (fills header.data_hash), built
  /// over the leaf digests the txs were sealed with.
  crypto::Digest compute_data_hash() const;

  /// Total wire size: header + txs + commit; drives gossip/bandwidth costs.
  std::size_t size_bytes() const;
};

/// The canonical sign-bytes for a precommit vote.
util::Bytes vote_sign_bytes(const ChainId& chain_id, Height height, int round,
                            const BlockId& block_id);

}  // namespace chain
