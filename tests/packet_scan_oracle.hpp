#pragma once
// Reference answer for packet-event queries.
//
// scan_packet_txs() is the full-scan match loop rpc::Server used to run on
// every packet-event query, before the ledger's per-block packet-event index
// became the only lookup path. That loop no longer exists in src/; this copy
// is kept verbatim as the oracle the index and the RPC result pages are
// checked against.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "chain/ledger.hpp"

namespace oracle {

/// Tx indices of block `h` with at least one `event_type` event whose
/// packet_sequence lies in [seq_begin, seq_end], ascending and unique.
inline std::vector<std::uint32_t> scan_packet_txs(const chain::Ledger& ledger,
                                                  chain::Height h,
                                                  const std::string& event_type,
                                                  std::uint64_t seq_begin,
                                                  std::uint64_t seq_end) {
  std::vector<std::uint32_t> out;
  const auto* results = ledger.results_at(h);
  if (!results) return out;
  for (std::uint32_t i = 0; i < results->size(); ++i) {
    for (const chain::Event& ev : (*results)[i].events) {
      if (ev.type != event_type) continue;
      const std::string seq_str = ev.attribute("packet_sequence");
      if (seq_str.empty()) continue;
      const std::uint64_t seq = std::strtoull(seq_str.c_str(), nullptr, 10);
      if (seq >= seq_begin && seq <= seq_end) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace oracle
