#pragma once
// ABCI-style application interface (paper §II-A).
//
// Tendermint Core knows nothing about transaction contents; the blockchain
// application validates and executes them through this interface. Our
// Cosmos-like app (src/cosmos) and the IBC modules implement it.

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "chain/events.hpp"
#include "chain/tx.hpp"
#include "util/status.hpp"

namespace chain {

/// Result of mempool admission (CheckTx): the ante-handler verdict plus the
/// gas the transaction declares.
struct CheckTxResult {
  util::Status status;
  std::uint64_t gas_wanted = 0;
};

/// Result of executing one transaction in a block (DeliverTx).
struct DeliverTxResult {
  util::Status status;
  std::uint64_t gas_used = 0;
  std::vector<Event> events;

  /// Approximate encoded size: feeds RPC response sizes and the WebSocket
  /// frame accounting. Read, not recomputed, once cache_encoded_size() has
  /// run: Ledger::append runs it on every committed result, so the ledger,
  /// RPC pages and WebSocket frames all read one value.
  std::size_t encoded_size() const;
  /// Computes encoded_size() once; the events must not change afterwards.
  void cache_encoded_size();

 private:
  std::size_t encoded_size_ = 0;  // 0 until cached (a real size is > 64)
};

class App {
 public:
  virtual ~App() = default;

  /// Stateless-ish admission check against the *committed* state (sequence
  /// number, balance for fee, gas bounds). Must not mutate state.
  virtual CheckTxResult check_tx(const Tx& tx) = 0;

  /// Mempool-aware admission: `pending_same_sender` transactions from this
  /// sender are already admitted, so the expected sequence is the committed
  /// one plus that count (mirrors the SDK's check-state, which lets a client
  /// submit consecutive sequences without waiting for commits). Default
  /// falls back to check_tx (strict committed-state check).
  virtual CheckTxResult check_tx_pending(const Tx& tx,
                                         std::uint64_t pending_same_sender) {
    (void)pending_same_sender;
    return check_tx(tx);
  }

  /// Block execution protocol: begin_block, deliver_tx per tx in order,
  /// end_block, commit (returns the new application state root).
  virtual void begin_block(const BlockHeader& header) = 0;
  virtual DeliverTxResult deliver_tx(const Tx& tx) = 0;
  virtual std::vector<Event> end_block(Height height) = 0;
  virtual crypto::Digest commit() = 0;

  /// Models execution CPU cost of a transaction in virtual time; consensus
  /// adds this to block processing (the mechanism behind the paper's Fig. 7
  /// block-interval growth). Default derives from message count.
  virtual sim::Duration execution_cost(const Tx& tx) const;
};

}  // namespace chain
