#include "crypto/merkle.hpp"

#include <cassert>

namespace crypto {

namespace {
std::vector<Digest> hash_leaves(const std::vector<util::Bytes>& leaves) {
  std::vector<Digest> out;
  out.reserve(leaves.size());
  for (const auto& leaf : leaves) out.push_back(leaf_hash(leaf));
  return out;
}

// Builds all levels of the tree, level 0 = leaf hashes. Odd nodes are
// promoted (Tendermint/RFC-6962 style uses duplicate-free promotion; we
// promote the unpaired node unchanged).
std::vector<std::vector<Digest>> build_levels(std::vector<Digest> leaf_hashes) {
  std::vector<std::vector<Digest>> levels;
  levels.push_back(std::move(leaf_hashes));
  while (levels.back().size() > 1) {
    const auto& prev = levels.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      if (i + 1 < prev.size()) {
        next.push_back(inner_hash(prev[i], prev[i + 1]));
      } else {
        next.push_back(prev[i]);
      }
    }
    levels.push_back(std::move(next));
  }
  return levels;
}
}  // namespace

Digest leaf_hash(util::BytesView data) {
  Sha256 h;
  const std::uint8_t prefix = 0x00;
  h.update(util::BytesView(&prefix, 1));
  h.update(data);
  return h.finalize();
}

Digest inner_hash(const Digest& left, const Digest& right) {
  Sha256 h;
  const std::uint8_t prefix = 0x01;
  h.update(util::BytesView(&prefix, 1));
  h.update(util::BytesView(left.data(), left.size()));
  h.update(util::BytesView(right.data(), right.size()));
  return h.finalize();
}

Digest merkle_root(const std::vector<util::Bytes>& leaves) {
  return merkle_root_of_leaves(hash_leaves(leaves));
}

Digest merkle_root_of_leaves(std::vector<Digest> leaf_hashes) {
  if (leaf_hashes.empty()) return sha256({});
  return build_levels(std::move(leaf_hashes)).back().front();
}

MerkleProof merkle_prove(const std::vector<util::Bytes>& leaves,
                         std::size_t index) {
  assert(index < leaves.size());
  MerkleProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaves.size();

  const auto levels = build_levels(hash_leaves(leaves));
  std::size_t pos = index;
  for (std::size_t lvl = 0; lvl + 1 < levels.size(); ++lvl) {
    const auto& level = levels[lvl];
    const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    if (sibling < level.size()) {
      proof.path.push_back(ProofStep{level[sibling], sibling < pos});
    }
    // An unpaired node is promoted unchanged, so no step is emitted.
    pos /= 2;
  }
  return proof;
}

bool merkle_verify(const Digest& root, util::BytesView leaf,
                   const MerkleProof& proof) {
  if (proof.leaf_count == 0 || proof.leaf_index >= proof.leaf_count) {
    return false;
  }
  Digest acc = leaf_hash(leaf);
  // Re-walk the positions to know where unpaired promotions happen.
  std::size_t pos = proof.leaf_index;
  std::size_t width = proof.leaf_count;
  std::size_t step_idx = 0;
  while (width > 1) {
    const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    if (sibling < width) {
      if (step_idx >= proof.path.size()) return false;
      const ProofStep& step = proof.path[step_idx++];
      // Direction is derived from the claimed position, not trusted from the
      // proof (a flag/index mismatch is a forged proof).
      const bool sibling_on_left = sibling < pos;
      if (step.sibling_on_left != sibling_on_left) return false;
      acc = sibling_on_left ? inner_hash(step.sibling, acc)
                            : inner_hash(acc, step.sibling);
    }
    pos /= 2;
    width = (width + 1) / 2;
  }
  return step_idx == proof.path.size() && acc == root;
}

}  // namespace crypto
