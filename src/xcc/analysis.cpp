#include "xcc/analysis.hpp"

#include <charconv>
#include <string>
#include <string_view>

#include "ibc/host.hpp"
#include "ibc/msgs.hpp"

namespace xcc {

CompletionBreakdown Analyzer::completion_breakdown(
    std::uint64_t requested) const {
  CompletionBreakdown out;
  out.requested = requested;

  const chain::KvStore& store_a = testbed_.chain_a().app->store();
  const chain::KvStore& store_b = testbed_.chain_b().app->store();

  // Highest sequence ever assigned on the channel.
  const auto next_send_raw = store_a.get(
      ibc::host::next_sequence_send_key(ibc::kTransferPort, channel_.channel_a));
  ibc::Sequence next_send = 1;
  if (next_send_raw && next_send_raw->size() == 8) {
    next_send = util::read_u64_be(*next_send_raw, 0);
  }
  const std::uint64_t initiated = next_send - 1;
  out.uncommitted = requested > initiated ? requested - initiated : 0;

  // Commitment and receipt keys are a per-channel prefix followed by the
  // decimal sequence: keep each key in one buffer and rewrite only its
  // digits, instead of building two fresh strings per sequence.
  std::string commitment_key = ibc::host::packet_commitment_prefix(
      ibc::kTransferPort, channel_.channel_a).str();
  std::string receipt_key = ibc::host::packet_receipt_key(
      ibc::kTransferPort, channel_.channel_b, 0).str();
  receipt_key.pop_back();  // ".../sequences/0" -> ".../sequences/"
  const std::size_t commitment_prefix = commitment_key.size();
  const std::size_t receipt_prefix = receipt_key.size();
  char digits[20];
  for (ibc::Sequence s = 1; s < next_send; ++s) {
    const char* end = std::to_chars(digits, digits + sizeof(digits), s).ptr;
    const std::string_view seq(digits, static_cast<std::size_t>(end - digits));
    commitment_key.resize(commitment_prefix);
    commitment_key.append(seq);
    receipt_key.resize(receipt_prefix);
    receipt_key.append(seq);
    const bool commitment_present = store_a.contains(commitment_key);
    const bool received = store_b.contains(receipt_key);
    if (received && !commitment_present) {
      ++out.completed;
    } else if (received && commitment_present) {
      ++out.partial;
    } else if (!received && commitment_present) {
      ++out.initiated_only;
    } else {
      // Neither receipt nor commitment: the commitment was deleted by a
      // MsgTimeout (refund path).
      ++out.timed_out;
    }
  }
  return out;
}

std::uint64_t Analyzer::included_transfers(chain::Height h_begin,
                                           chain::Height h_end) const {
  const chain::Ledger& ledger = *testbed_.chain_a().ledger;
  std::uint64_t count = 0;
  for (chain::Height h = h_begin + 1; h <= std::min(h_end, ledger.height());
       ++h) {
    const chain::Block* block = ledger.block_at(h);
    const auto* results = ledger.results_at(h);
    if (!block || !results) continue;
    for (std::size_t i = 0; i < block->txs.size(); ++i) {
      if (!(*results)[i].status.is_ok()) continue;
      for (const chain::Msg& m : block->txs[i]->msgs) {
        if (m.type_url == ibc::kMsgTransferUrl) ++count;
      }
    }
  }
  return count;
}

std::vector<double> Analyzer::block_intervals(chain::Height h_begin,
                                              chain::Height h_end) const {
  const chain::Ledger& ledger = *testbed_.chain_a().ledger;
  std::vector<double> out;
  for (chain::Height h = std::max<chain::Height>(h_begin + 1, 2);
       h <= std::min(h_end, ledger.height()); ++h) {
    const chain::Block* cur = ledger.block_at(h);
    const chain::Block* prev = ledger.block_at(h - 1);
    if (cur && prev) {
      out.push_back(sim::to_seconds(cur->header.time - prev->header.time));
    }
  }
  return out;
}

double Analyzer::window_seconds(chain::Height h_begin,
                                chain::Height h_end) const {
  const chain::Ledger& ledger = *testbed_.chain_a().ledger;
  const chain::Block* b0 = ledger.block_at(std::max<chain::Height>(h_begin, 1));
  const chain::Block* b1 = ledger.block_at(std::min(h_end, ledger.height()));
  if (!b0 || !b1) return 0.0;
  return sim::to_seconds(b1->header.time - b0->header.time);
}

}  // namespace xcc
