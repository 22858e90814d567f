#pragma once
// Committed chain storage and transaction index.
//
// Holds the blocks the consensus engine commits, the DeliverTx results for
// every transaction (consumed by RPC `tx_search`-style queries — whose large
// response payloads are a core finding of the paper), a hash -> location
// index, and the per-block packet-event index every packet-event query is
// answered from. A block's txs are the sealed txs its senders broadcast, and
// its results are one immutable allocation that RPC responses and WebSocket
// frames point into instead of copying.
//
// A Ledger belongs to one testbed and is only touched by that testbed's
// thread (parallel sweeps give every run its own testbed), so the packet-event
// rows its const accessors build on first use need no lock.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "chain/app.hpp"
#include "chain/block.hpp"

namespace chain {

struct TxLocation {
  Height height = 0;
  std::uint32_t index = 0;
};

/// One block's DeliverTx results, index-aligned with its txs; immutable once
/// appended.
using BlockResults = std::shared_ptr<const std::vector<DeliverTxResult>>;

/// One row of a block's packet-event index: a typed event of type `type_id`
/// whose payload announces packet sequence `seq`, emitted by transaction
/// `tx_index` of the block. A block's rows are sorted by (type_id, seq,
/// tx_index), so a lookup is a binary search plus a contiguous walk of the
/// matches.
struct PacketEventEntry {
  std::uint64_t seq = 0;
  std::uint32_t type_id = 0;
  std::uint32_t tx_index = 0;

  friend bool operator<(const PacketEventEntry& a, const PacketEventEntry& b) {
    if (a.type_id != b.type_id) return a.type_id < b.type_id;
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.tx_index < b.tx_index;
  }
};

class Ledger {
 public:
  explicit Ledger(ChainId chain_id) : chain_id_(std::move(chain_id)) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  const ChainId& chain_id() const { return chain_id_; }

  /// Appends a committed block plus its execution results; `results` must be
  /// index-aligned with `block.txs`. `seen_commit` is the +2/3 precommit set
  /// that committed this block (Tendermint's block store keeps the same for
  /// serving light clients before block h+1 exists).
  void append(Block block, std::vector<DeliverTxResult> results,
              crypto::Digest app_hash_after, Commit seen_commit);

  /// The commit that finalized block `h` (nullptr if not committed).
  const Commit* seen_commit(Height h) const;

  Height height() const { return static_cast<Height>(blocks_.size()); }

  /// 1-based access; returns nullptr for heights not yet committed.
  const Block* block_at(Height h) const;
  const std::vector<DeliverTxResult>* results_at(Height h) const;
  /// Block `h`'s results as the shared allocation (null for heights not yet
  /// committed). The reference lasts until the next append; a holder that
  /// outlives the call copies the pointer.
  const BlockResults& shared_results_at(Height h) const;

  /// App state root after executing block `h` (what a light client tracks).
  const crypto::Digest* app_hash_after(Height h) const;

  /// Looks up a transaction by hash.
  const TxLocation* find_tx(const TxHash& hash) const;

  /// Total encoded size of the DeliverTx events of block `h`; this is the
  /// payload the WebSocket pushes to subscribers and the quantity checked
  /// against the 16 MB frame limit (paper §V).
  std::size_t block_event_bytes(Height h) const;

  /// Total transactions committed so far.
  std::uint64_t total_txs() const { return total_txs_; }

  /// Block interval series (time between consecutive headers) for Fig. 7.
  std::vector<double> block_intervals_seconds() const;

  // --- packet-event index ------------------------------------------------
  // Every packet-event query (rpc::Server::query_packet_events and
  // query_packet_events_range) finds its matches here. The first query that
  // touches a block builds that block's rows, so runs that never query
  // packets never pay for them. What a query is charged — Tendermint's full
  // scan of the block's event payload, or the indexed-tx_search mitigation's
  // per-page price — is rpc::CostModel's business, not the index's.

  /// Tx indices in block `h` with at least one `event_type` event whose
  /// packet_sequence lies in [seq_begin, seq_end] — ascending and unique,
  /// exactly what a full scan of the block's events finds.
  std::vector<std::uint32_t> indexed_packet_txs(Height h,
                                                const std::string& event_type,
                                                std::uint64_t seq_begin,
                                                std::uint64_t seq_end) const;

  /// Index rows of block `h` (diagnostics / cost assertions); builds them if
  /// no query has yet.
  std::size_t packet_index_entries(Height h) const;

 private:
  /// Block `h`'s packet-event rows, built on first use; nullptr for heights
  /// not yet committed.
  const std::vector<PacketEventEntry>* packet_rows(Height h) const;

  ChainId chain_id_;
  std::vector<Block> blocks_;
  std::vector<BlockResults> results_;
  std::vector<crypto::Digest> app_hashes_;
  std::vector<Commit> seen_commits_;
  std::vector<std::size_t> event_bytes_;  // cached per-block event payload
  std::map<TxHash, TxLocation> tx_index_;
  std::uint64_t total_txs_ = 0;
  // Per block: its packet-event rows once a query has built them. The ids
  // name event types across all blocks' rows.
  mutable std::vector<std::optional<std::vector<PacketEventEntry>>>
      packet_rows_;
  mutable std::map<std::string, std::uint32_t> event_type_ids_;
};

}  // namespace chain
