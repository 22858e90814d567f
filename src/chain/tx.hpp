#pragma once
// Transactions and messages.
//
// Mirrors the Cosmos SDK shape: a transaction carries a list of messages
// (each a type URL + opaque payload, like protobuf `Any`), an authenticating
// sender with a sequence number (replay protection — the mechanism behind
// the paper's "account sequence mismatch" limitation), a gas limit and a fee.
//
// A `Tx` is the mutable builder its sender fills in. Sending it seals it:
// `seal()` encodes it once, hashes it and its Merkle leaf from that one
// encoding, and returns an immutable `SealedTx` that the RPC server, the
// mempool, proposals, the ledger and query responses then share by pointer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/types.hpp"
#include "util/bytes.hpp"

namespace chain {

/// One message within a transaction. The payload is opaque to Tendermint
/// (per the paper's Fig. 1 discussion: the Data field is application-
/// specific); the application decodes it by `type_url`.
struct Msg {
  std::string type_url;  // e.g. "/ibc.applications.transfer.v1.MsgTransfer"
  util::Bytes value;

  std::size_t size_bytes() const { return type_url.size() + value.size(); }
};

struct Tx {
  Address sender;
  std::uint64_t sequence = 0;  // must equal the account's next sequence
  std::uint64_t gas_limit = 0;
  std::uint64_t fee = 0;  // in the chain's fee token (utoken)
  std::vector<Msg> msgs;
  std::string memo;

  /// Canonical deterministic encoding (length-prefixed fields); the hash of
  /// this encoding is the transaction id used by indexes and RPC queries.
  util::Bytes encode() const;

  /// Wire size used by the network/bandwidth model and block size limits.
  std::size_t size_bytes() const;
};

/// A transaction as its sender sealed it. Immutable: only seal() makes one,
/// as a `TxPtr` to const, and its digests are computed then, from one
/// encode(), so no holder can see a stale hash.
class SealedTx : public Tx {
  struct Key {
    explicit Key() = default;
  };

 public:
  SealedTx(Key, Tx tx);
  SealedTx(const SealedTx&) = delete;
  SealedTx& operator=(const SealedTx&) = delete;

  /// SHA-256 of encode(): the transaction id.
  const TxHash& hash() const { return hash_; }
  /// crypto::leaf_hash of encode(): this tx's leaf in its block's data_hash.
  const crypto::Digest& leaf() const { return leaf_; }

 private:
  TxHash hash_{};
  crypto::Digest leaf_{};

  friend std::shared_ptr<const SealedTx> seal(Tx tx);
};

using TxPtr = std::shared_ptr<const SealedTx>;

/// Seals `tx`; the builder's fields move into the sealed form.
TxPtr seal(Tx tx);

/// Decodes a Tx produced by encode(). Returns false on malformed input.
bool decode_tx(util::BytesView data, Tx& out);

}  // namespace chain
