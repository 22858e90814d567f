#include "chain/block.hpp"

namespace chain {

std::int64_t Commit::committed_power(const ValidatorSet& set) const {
  std::int64_t power = 0;
  for (const CommitSig& sig : signatures) {
    if (sig.flag != BlockIdFlag::kCommit) continue;
    const std::size_t idx = set.index_of(sig.validator);
    if (idx < set.size()) power += set.at(idx).power;
  }
  return power;
}

util::Bytes BlockHeader::encode() const {
  util::Bytes out;
  util::append(out, util::to_bytes(chain_id));
  util::append_u64_be(out, static_cast<std::uint64_t>(height));
  util::append_u64_be(out, static_cast<std::uint64_t>(time));
  util::append(out, util::BytesView(last_block_id.hash.data(),
                                    last_block_id.hash.size()));
  util::append(out,
               util::BytesView(last_commit_hash.data(), last_commit_hash.size()));
  util::append(out, util::BytesView(data_hash.data(), data_hash.size()));
  util::append(out,
               util::BytesView(validators_hash.data(), validators_hash.size()));
  util::append(out, util::BytesView(proposer.id.data(), proposer.id.size()));
  util::append(out, util::BytesView(app_hash.data(), app_hash.size()));
  util::append(out, util::BytesView(results_hash.data(), results_hash.size()));
  return out;
}

crypto::Digest BlockHeader::hash() const {
  return crypto::sha256(encode());
}

crypto::Digest Block::compute_data_hash() const {
  std::vector<crypto::Digest> leaves;
  leaves.reserve(txs.size());
  for (const TxPtr& tx : txs) leaves.push_back(tx->leaf());
  return crypto::merkle_root_of_leaves(std::move(leaves));
}

std::size_t Block::size_bytes() const {
  std::size_t n = 256;  // header + framing
  for (const TxPtr& tx : txs) n += tx->size_bytes();
  for (const auto& ev : evidence) n += ev.size();
  n += last_commit.signatures.size() * 96;  // flag + addr + time + sig
  return n;
}

util::Bytes vote_sign_bytes(const ChainId& chain_id, Height height, int round,
                            const BlockId& block_id) {
  util::Bytes out;
  util::append(out, util::to_bytes("precommit/"));
  util::append(out, util::to_bytes(chain_id));
  util::append_u64_be(out, static_cast<std::uint64_t>(height));
  util::append_u32_be(out, static_cast<std::uint32_t>(round));
  util::append(out, util::BytesView(block_id.hash.data(), block_id.hash.size()));
  return out;
}

}  // namespace chain
