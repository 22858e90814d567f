#pragma once
// Merkle trees and existence/non-existence proofs.
//
// Tendermint commits to transactions and application state via Merkle roots;
// IBC verifies packet commitments with Merkle proofs against a counterparty
// consensus state (ICS-23 style). We implement an RFC-6962-flavoured binary
// tree: leaves are hashed with a 0x00 prefix and inner nodes with 0x01,
// preventing second-preimage attacks between levels.

#include <cstddef>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace crypto {

/// A single step in a Merkle audit path.
struct ProofStep {
  Digest sibling;
  bool sibling_on_left = false;
};

/// Existence proof for one leaf under a root.
struct MerkleProof {
  std::size_t leaf_index = 0;
  std::size_t leaf_count = 0;
  std::vector<ProofStep> path;
};

/// Computes the root of `leaves` (each leaf is raw data, hashed internally).
/// The root of zero leaves is sha256 of empty input, matching Tendermint's
/// convention for empty blocks.
Digest merkle_root(const std::vector<util::Bytes>& leaves);

/// The same root over leaves already hashed with leaf_hash(): a block whose
/// txs carry their leaf digests builds only the inner nodes.
Digest merkle_root_of_leaves(std::vector<Digest> leaf_hashes);

/// Produces an existence proof for leaf `index`. Precondition:
/// index < leaves.size().
MerkleProof merkle_prove(const std::vector<util::Bytes>& leaves,
                         std::size_t index);

/// Verifies that `leaf` is at `proof.leaf_index` under `root`.
bool merkle_verify(const Digest& root, util::BytesView leaf,
                   const MerkleProof& proof);

/// Hash of a leaf (0x00-prefixed), exposed for tests.
Digest leaf_hash(util::BytesView data);

/// Hash of an inner node (0x01-prefixed), exposed for tests.
Digest inner_hash(const Digest& left, const Digest& right);

}  // namespace crypto
