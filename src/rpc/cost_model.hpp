#pragma once
// RPC service-time model.
//
// Tendermint's RPC server processes requests one at a time (no parallel
// query execution) — the paper identifies this as the dominant cross-chain
// bottleneck: data pulls consume ~69% of the time to process 5,000
// transfers (§IV-B). We model each request's service time as
//
//   base + scan * (event bytes in the scanned block)
//        + marshal * (event bytes returned to the client)
//
// The scan term reflects Tendermint's tx indexer walking a block's events to
// evaluate a query; the marshal term reflects JSON encoding of the (large)
// responses the paper measured (331,706 output lines for one 20-tx block,
// §V "Transaction data collection"). Constants are calibrated against the
// paper's two anchors:
//   * one full-block query: ~2.9 s for 2,000 transfer msgs, ~5.7 s for
//     2,000 recv msgs (§V);
//   * Fig. 12 aggregate pulls: 110 s (transfer) / 207 s (recv) for 5,000
//     packets chunk-queried out of a single block.

#include <cstdint>

#include "sim/time.hpp"

namespace rpc {

struct CostModel {
  /// Fixed per-request overhead (HTTP + routing + query parse).
  sim::Duration base_service = sim::millis(4);

  /// Indexer scan cost: linear per event byte in the queried block plus a
  /// superlinear term that models memory pressure / GC / candidate-set
  /// growth on multi-megabyte blocks. Calibrated jointly against the
  /// paper's §V query anchors (one full-block query: ~2.9 s for a
  /// 2,000-transfer block, ~5.7 s for a 2,000-recv block) and the Fig. 12
  /// aggregate pulls (110 s / 207 s for 5,000 packets in one block).
  double scan_ns_per_event_byte = 108.0;
  double scan_quad_ms_per_mb2 = 30.0;

  /// Response marshalling cost per event byte returned (JSON encoding of
  /// the "331,706 lines of output" §V complains about).
  double marshal_ns_per_event_byte = 1'500.0;

  /// WebSocket pushes reuse a persistent connection and stream the payload,
  /// so their per-byte cost is a fraction of a JSON-RPC response.
  double websocket_marshal_factor = 0.3;

  /// CheckTx + mempool admission service time for broadcast_tx_sync.
  sim::Duration broadcast_base = sim::millis(2);
  sim::Duration broadcast_per_msg = sim::micros(10);

  /// Cheap metadata lookups (status, block header, single-tx by hash).
  sim::Duration lookup_service = sim::millis(1);

  /// ABCI store query (+proof generation when requested).
  sim::Duration abci_query_service = sim::micros(1'500);
  sim::Duration proof_generation = sim::micros(1'000);

  /// Indexed tx_search mitigation (paper §VI suggestions): when true,
  /// packet-event queries are priced as lookups in a height→packet-events
  /// index instead of a full scan of the block's event payload. This knob
  /// only picks the charge: the host answers every packet-event query from
  /// the ledger's packet-event index either way, so results are identical;
  /// the superlinear scan term disappears, leaving O(result page). Off by
  /// default: the paper's measured Tendermint has no such index.
  bool indexed_tx_search = false;

  /// Per-block index probe (B-tree descent + range positioning).
  sim::Duration index_probe_service = sim::micros(150);

  /// Per matched transaction: index-row fetch and result-row assembly,
  /// before marshalling (still paid per returned byte).
  double index_ns_per_match = 2'000.0;

  /// Serving a memoized data-pull response from the relayer-side QueryCache
  /// (paper §VI's proposed mitigation): a local in-memory lookup plus decode,
  /// no network round trip and no indexer scan. Only consulted when the cache
  /// is enabled — the default simulation never uses it.
  sim::Duration cache_hit_cost = sim::micros(50);

  /// Relative service-time jitter (uniform ±this fraction), drawn from the
  /// server's seeded RNG stream. Real RPC service times vary with GC pauses,
  /// disk and contention — this is what spreads the paper's violin plots.
  double service_jitter = 0.15;

  /// Pending-request queue bound; requests beyond it are rejected, which is
  /// how submission collapses at 10,000+ RPS in Table I.
  std::size_t request_queue_capacity = 1024;

  /// Tendermint WebSocket maximum frame size (16 MB, §V): new-block event
  /// frames larger than this fail with "Failed to collect events".
  std::size_t websocket_max_frame_bytes = 16 * 1024 * 1024;

  sim::Duration scan_cost(std::size_t block_event_bytes) const {
    const double mb = static_cast<double>(block_event_bytes) / (1024.0 * 1024.0);
    const double linear_us =
        scan_ns_per_event_byte * static_cast<double>(block_event_bytes) /
        1000.0;
    const double quad_us = scan_quad_ms_per_mb2 * mb * mb * 1000.0;
    return static_cast<sim::Duration>(linear_us + quad_us);
  }
  /// Indexed-path replacement for scan_cost(): independent of block size,
  /// linear in the page actually returned.
  sim::Duration indexed_scan_cost(std::size_t blocks_probed,
                                  std::size_t matched_txs) const {
    const std::size_t probes = blocks_probed > 0 ? blocks_probed : 1;
    return index_probe_service * static_cast<sim::Duration>(probes) +
           static_cast<sim::Duration>(
               index_ns_per_match * static_cast<double>(matched_txs) / 1000.0);
  }
  sim::Duration marshal_cost(std::size_t returned_bytes) const {
    return static_cast<sim::Duration>(
        marshal_ns_per_event_byte * static_cast<double>(returned_bytes) /
        1000.0);
  }
  sim::Duration websocket_marshal_cost(std::size_t frame_bytes) const {
    return static_cast<sim::Duration>(
        websocket_marshal_factor * marshal_ns_per_event_byte *
        static_cast<double>(frame_bytes) / 1000.0);
  }
};

}  // namespace rpc
