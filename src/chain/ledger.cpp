#include "chain/ledger.hpp"

#include <algorithm>
#include <cassert>

namespace chain {

void Ledger::append(Block block, std::vector<DeliverTxResult> results,
                    crypto::Digest app_hash_after, Commit seen_commit) {
  assert(block.header.height == height() + 1 &&
         "blocks must be appended in order");
  assert(results.size() == block.txs.size());
  const Height h = block.header.height;
  for (std::uint32_t i = 0; i < block.txs.size(); ++i) {
    tx_index_[block.txs[i]->hash()] = TxLocation{h, i};
  }
  total_txs_ += block.txs.size();
  std::size_t event_bytes = 0;
  for (DeliverTxResult& r : results) {
    r.cache_encoded_size();
    event_bytes += r.encoded_size();
  }
  event_bytes_.push_back(event_bytes);
  blocks_.push_back(std::move(block));
  results_.push_back(
      std::make_shared<const std::vector<DeliverTxResult>>(std::move(results)));
  app_hashes_.push_back(app_hash_after);
  seen_commits_.push_back(std::move(seen_commit));
  packet_rows_.emplace_back();  // built by the block's first packet query
}

const std::vector<PacketEventEntry>* Ledger::packet_rows(Height h) const {
  if (h < 1 || h > height()) return nullptr;
  std::optional<std::vector<PacketEventEntry>>& slot =
      packet_rows_[static_cast<std::size_t>(h - 1)];
  if (slot) return &*slot;
  std::vector<PacketEventEntry>& rows = slot.emplace();
  const std::vector<DeliverTxResult>& results =
      *results_[static_cast<std::size_t>(h - 1)];
  for (std::uint32_t i = 0; i < results.size(); ++i) {
    for (const Event& ev : results[i].events) {
      if (!ev.payload) continue;
      const auto [it, inserted] = event_type_ids_.try_emplace(
          ev.type, static_cast<std::uint32_t>(event_type_ids_.size()));
      rows.push_back(PacketEventEntry{ev.payload->sequence(), it->second, i});
    }
  }
  std::sort(rows.begin(), rows.end());
  return &rows;
}

std::vector<std::uint32_t> Ledger::indexed_packet_txs(
    Height h, const std::string& event_type, std::uint64_t seq_begin,
    std::uint64_t seq_end) const {
  std::vector<std::uint32_t> out;
  const std::vector<PacketEventEntry>* rows = packet_rows(h);
  if (!rows) return out;
  const auto type_it = event_type_ids_.find(event_type);
  if (type_it == event_type_ids_.end()) return out;
  const std::uint32_t type_id = type_it->second;
  const auto lo = std::lower_bound(rows->begin(), rows->end(),
                                   PacketEventEntry{seq_begin, type_id, 0});
  for (auto it = lo;
       it != rows->end() && it->type_id == type_id && it->seq <= seq_end;
       ++it) {
    out.push_back(it->tx_index);
  }
  // A tx can emit several in-range events; a scan reports each tx once, in
  // ascending tx order.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t Ledger::packet_index_entries(Height h) const {
  const std::vector<PacketEventEntry>* rows = packet_rows(h);
  return rows ? rows->size() : 0;
}

const Commit* Ledger::seen_commit(Height h) const {
  if (h < 1 || h > height()) return nullptr;
  return &seen_commits_[static_cast<std::size_t>(h - 1)];
}

const Block* Ledger::block_at(Height h) const {
  if (h < 1 || h > height()) return nullptr;
  return &blocks_[static_cast<std::size_t>(h - 1)];
}

const std::vector<DeliverTxResult>* Ledger::results_at(Height h) const {
  return shared_results_at(h).get();
}

const BlockResults& Ledger::shared_results_at(Height h) const {
  static const BlockResults kNone;
  if (h < 1 || h > height()) return kNone;
  return results_[static_cast<std::size_t>(h - 1)];
}

const crypto::Digest* Ledger::app_hash_after(Height h) const {
  if (h < 1 || h > height()) return nullptr;
  return &app_hashes_[static_cast<std::size_t>(h - 1)];
}

const TxLocation* Ledger::find_tx(const TxHash& hash) const {
  const auto it = tx_index_.find(hash);
  if (it == tx_index_.end()) return nullptr;
  return &it->second;
}

std::size_t Ledger::block_event_bytes(Height h) const {
  if (h < 1 || h > height()) return 0;
  return event_bytes_[static_cast<std::size_t>(h - 1)];
}

std::vector<double> Ledger::block_intervals_seconds() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < blocks_.size(); ++i) {
    out.push_back(sim::to_seconds(blocks_[i].header.time -
                                  blocks_[i - 1].header.time));
  }
  return out;
}

}  // namespace chain
