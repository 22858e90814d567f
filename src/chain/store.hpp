#pragma once
// Application key-value store with a commitment root.
//
// The Cosmos SDK keeps module state in Merkle-ised KV stores whose root goes
// into the block header (app_hash) and against which IBC proofs are checked.
// We keep a *set-hash* root: root = XOR over entries of SHA-256(key ||
// value). The XOR set-hash is order-independent and deterministic; it loses
// Merkle path proofs, so existence proofs are issued explicitly via
// prove()/verify_proof() below, which bind (key, value, root-at-height) —
// sufficient for the simulator's honest-node verification semantics
// (substitution noted in DESIGN.md).
//
// Like the SDK node, which buffers a block's writes and hashes its state at
// Commit, the root is folded lazily: the first write to an entry since the
// last root read backs its cached digest out of the root and marks it
// dirty, later writes hash nothing, and root()/prove() hash each dirty
// entry once. The XOR makes the fold order irrelevant, so roots and proofs
// are the ones an eager per-write update gives.
//
// Layout (memory-lean, DESIGN.md "Memory-lean state store"): entries live in
// fixed-size chunks that never move, indexed by an open-addressing hash
// table; key bytes are appended to chunked key storage and small values are
// stored inline in the entry, so a typical (key, u64) pair costs no
// per-entry heap allocation and growing the store copies nothing.
//
// Each index slot is a u32 entry number plus a tag byte in a parallel array
// (5 bytes per slot): 0 marks a free slot, otherwise 0x80 | the key hash's
// top 7 bits. A probe walks the tags and reads an entry only on a tag
// match, so a miss or a collision stays inside the index and a key compare
// happens about once per 128 occupied slots passed. Every lookup and write
// is one probe: insert_new() does its own existence check, update() reads
// and writes through the slot it probed, and update_many() overlaps the
// cache misses of a bulk load's successive probes.
//
// Ordered prefix scans run over a lazily maintained sorted view of the entry
// indices; for_each_unordered() walks the entries instead and never builds
// that view. The bytes fed to the set-hash are identical to the historical
// std::map layout, so roots, proofs and golden traces are unchanged.
//
// One write hook can watch every write (the invariant checker keeps its
// incremental model with it, see DESIGN.md §4c).
//
// A store is touched by one thread only: root() and prove() are const but
// fold pending writes into the root.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "telemetry/profiler.hpp"
#include "util/bytes.hpp"

namespace chain {

/// Existence (or non-existence) proof for a key under a store root.
struct StoreProof {
  std::string key;
  util::Bytes value;       // empty + exists=false => non-existence proof
  bool exists = false;
  crypto::Digest root{};   // the root this proof commits to
  crypto::Digest binding{};  // H(key || value || exists || root)
};

class KvStore {
 public:
  KvStore() = default;

  /// Writes `value` under `key`. A value of up to 32 bytes is copied into
  /// the entry, a longer one into its spill buffer, reusing its capacity.
  /// `value` must not view this key's own stored bytes.
  void set(std::string_view key, util::BytesView value);
  void erase(std::string_view key);
  /// Writes `value` only when `key` is absent; returns whether it did. The
  /// probe that finds the slot is the existence check, and a present key
  /// is left as it is: nothing is journaled, hooked or folded.
  bool insert_new(std::string_view key, util::BytesView value);

  /// The probed slot of one key, as update() hands it to its function.
  /// It is valid only inside that call.
  class Slot {
   public:
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    /// The current value (nullopt = absent); invalidated by a write.
    std::optional<util::BytesView> value() const {
      if (idx_ == kNoEntry) return std::nullopt;
      return store_.value_of(store_.entry(idx_));
    }
    /// Writes `value`, which must not view the stored bytes.
    void set(util::BytesView value) { store_.write(*this, value); }
    /// Removes the key; an absent key writes nothing.
    void erase() { store_.write(*this, std::nullopt); }

   private:
    friend class KvStore;
    Slot(KvStore& store, std::string_view key, std::uint64_t hash,
         std::size_t bucket, std::uint32_t idx)
        : store_(store), key_(key), hash_(hash), bucket_(bucket), idx_(idx) {}
    KvStore& store_;
    std::string_view key_;
    std::uint64_t hash_;
    std::size_t bucket_;  // the key's bucket, or where it would be inserted
    std::uint32_t idx_;   // kNoEntry = absent
  };

  /// Read-modify-write in one probe: calls fn(slot) with the slot of `key`.
  /// fn reads slot.value() and then writes a value (slot.set), erases the
  /// key (slot.erase) or leaves it as it is (neither: nothing is journaled,
  /// hooked or folded). The write hook sees what a get and a set or erase
  /// would show it. fn must not touch the store other than through `slot`.
  template <typename F>
  void update(std::string_view key, F&& fn) {
    telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
    Slot slot = probe(key);
    fn(slot);
  }

  /// Bulk update(): for i in [0, n), calls fn(slot) with the slot of
  /// key_of(i), in order. A bulk load's probes each miss the cache, so each
  /// key is built and hashed once, kPrefetchDistance keys ahead of its
  /// write, and its index slot prefetched then: the misses of successive
  /// probes overlap instead of queueing. key_of returns a key by value
  /// (a util::Key, say) that converts to std::string_view; fn follows
  /// update()'s rules.
  template <typename KeyOf, typename F>
  void update_many(std::size_t n, KeyOf&& key_of, F&& fn) {
    using Key = decltype(key_of(std::size_t{0}));
    std::array<Key, kPrefetchDistance> keys;  // key i is at i % the size
    std::array<std::uint64_t, kPrefetchDistance> hashes;
    const auto admit = [&](std::size_t i) {
      const std::size_t r = i % kPrefetchDistance;
      keys[r] = key_of(i);
      hashes[r] = hash_key(keys[r]);
      prefetch_slot(hashes[r]);
    };
    for (std::size_t i = 0; i < n && i < kPrefetchDistance; ++i) admit(i);
    for (std::size_t i = 0; i < n; ++i) {
      {
        telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
        const std::size_t r = i % kPrefetchDistance;
        Slot slot = probe(keys[r], hashes[r]);
        fn(slot);
      }
      if (i + kPrefetchDistance < n) admit(i + kPrefetchDistance);
    }
  }

  /// The index hash of a key (a pure function of its bytes). It only places
  /// keys: nothing iterates in index order, so no result depends on it.
  static std::uint64_t hash_key(std::string_view key);

  /// A copy of the value; hot paths read get_view() instead.
  std::optional<util::Bytes> get(std::string_view key) const;

  /// Zero-copy view of a stored value. Invalidated by any mutation.
  std::optional<util::BytesView> get_view(std::string_view key) const;

  bool contains(std::string_view key) const;

  /// All keys with the given prefix, in lexicographic order (copies; prefer
  /// scan_prefix() in hot paths).
  std::vector<std::string> keys_with_prefix(std::string_view prefix) const;

  /// Allocation-free ordered scan over keys sharing a prefix:
  ///   for (auto it = store.scan_prefix("bank/bal/"); it.next();)
  ///     use(it.key(), it.value());
  /// The referenced prefix and the store must outlive the iterator; any
  /// store mutation invalidates it.
  class PrefixIter {
   public:
    bool next();
    std::string_view key() const;
    util::BytesView value() const;

   private:
    friend class KvStore;
    PrefixIter(const KvStore* store, std::string_view prefix, std::size_t pos)
        : store_(store), prefix_(prefix), pos_(pos) {}
    const KvStore* store_;
    std::string_view prefix_;
    std::size_t pos_;
    std::uint32_t cur_ = 0xffffffffu;
  };
  PrefixIter scan_prefix(std::string_view prefix) const;

  /// Calls f(key, value) for every live entry whose key starts with
  /// `prefix`, in no particular order. One pass over the entry arena
  /// whatever the prefix, and it never builds the sorted view that
  /// scan_prefix() maintains. The store must not be mutated during the walk.
  template <typename F>
  void for_each_unordered(std::string_view prefix, F&& f) const {
    for (const std::vector<Entry>& chunk : entries_) {
      for (const Entry& e : chunk) {
        if (!e.live) continue;
        const std::string_view k = key_of(e);
        if (k.starts_with(prefix)) f(k, value_of(e));
      }
    }
  }

  /// Observer of every write: each write calls it with the key and the
  /// value before and after (nullopt = absent), just before applying it;
  /// erasing an absent key calls nothing. The views die with the
  /// call, and the hook must not write to the store. One slot: installing a
  /// hook replaces the previous one, an empty function removes it.
  using WriteHook =
      std::function<void(std::string_view key,
                         std::optional<util::BytesView> before,
                         std::optional<util::BytesView> after)>;
  void set_write_hook(WriteHook hook) { write_hook_ = std::move(hook); }
  const WriteHook& write_hook() const { return write_hook_; }

  std::size_t size() const { return live_count_; }

  /// Pre-sizes the hash index and the root fold's queue for an expected
  /// total entry count (bulk-load fast path). Entries and key bytes grow in
  /// chunks and need no reserve.
  void reserve(std::size_t expected_entries);

  /// Current commitment root. Folds in the entries written since the last
  /// root read first, hashing each once. The referenced digest changes only
  /// at the next root() or prove() call, not at a write.
  const crypto::Digest& root() const;

  /// Issues a proof of (non-)existence of `key` under the current root.
  StoreProof prove(std::string_view key) const;

  // --- transaction journal ----------------------------------------------
  // Cosmos reverts all state writes of a failing transaction. begin_tx()
  // starts recording undo entries; revert_tx() restores the pre-tx state;
  // commit_tx() discards the journal. Nesting is not supported. Only the
  // first write to an entry within a tx is journaled, so a revert makes one
  // restoring write per written key (two for a key erased and set again in
  // the same tx, which lands in a new entry). A record keeps the old value
  // inline and the key in a journal-owned arena, so once the journal has
  // grown to a tx's size, journaling allocates nothing.
  void begin_tx();
  void commit_tx();
  void revert_tx();
  bool in_tx() const { return journaling_; }

 private:
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  /// How many keys ahead of its write update_many() prefetches a slot.
  static constexpr std::size_t kPrefetchDistance = 16;
  /// Values up to this many bytes live inline in the entry (covers u64
  /// balances/sequences and 32-byte commitments/acks).
  static constexpr std::size_t kInlineValue = 32;
  /// Entries per chunk (1024 x 104 B = 104 KiB). Small chunks keep the
  /// peak RSS of small stores down; the chunk count is no cost.
  static constexpr unsigned kEntryChunkBits = 10;
  /// Key bytes per chunk (64 KiB); a longer key gets a chunk of its own.
  static constexpr unsigned kKeyChunkBits = 16;

  struct Entry {
    // (key chunk << kKeyChunkBits) | offset of the key in that chunk.
    std::uint32_t key_off = 0;
    std::uint32_t key_len = 0;
    std::uint32_t val_len = 0;
    bool live = false;
    // `hash` is stale and not part of root_ until the next root read.
    mutable bool dirty = false;
    // Tag of the tx that last journaled this entry (0 = none).
    std::uint16_t journaled_in = 0;
    std::array<std::uint8_t, kInlineValue> inline_val{};
    util::Bytes spill;  // value bytes when val_len > kInlineValue
    // Cached SHA-256 contribution to the set-hash root, so the first write
    // since a root read backs the old value out without rehashing it.
    mutable crypto::Digest hash{};
  };
  // The flags sit in the padding after `live`, and the index's tags stand
  // in for a stored key hash: each 8 bytes here is 16 MiB at 10^6 accounts.
  static_assert(sizeof(Entry) == 104, "Entry grew");

  /// Writes an entry's hash input, u32_be(key size) || key || value, to
  /// `out`.
  static void write_entry_input(std::uint8_t* out, std::string_view key,
                                util::BytesView value);
  /// The digest of an entry's hash input, for inputs too long for the
  /// fold's batches.
  static crypto::Digest entry_hash(std::string_view key,
                                   util::BytesView value);
  /// Tag byte of an occupied index slot: never 0, which marks a free one.
  static std::uint8_t tag_of(std::uint64_t h) {
    return static_cast<std::uint8_t>(0x80 | (h >> 57));
  }
  void xor_into_root(const crypto::Digest& h) const;

  Entry& entry(std::uint32_t idx) {
    return entries_[idx >> kEntryChunkBits]
                   [idx & ((1u << kEntryChunkBits) - 1)];
  }
  const Entry& entry(std::uint32_t idx) const {
    return entries_[idx >> kEntryChunkBits]
                   [idx & ((1u << kEntryChunkBits) - 1)];
  }
  static std::string_view key_in(const std::vector<std::string>& chunks,
                                 const Entry& e) {
    return std::string_view(chunks[e.key_off >> kKeyChunkBits].data() +
                                (e.key_off & ((1u << kKeyChunkBits) - 1)),
                            e.key_len);
  }
  std::string_view key_of(const Entry& e) const { return key_in(keys_, e); }
  util::BytesView value_of(const Entry& e) const {
    const std::uint8_t* p =
        e.val_len <= kInlineValue ? e.inline_val.data() : e.spill.data();
    return util::BytesView(p, e.val_len);
  }
  static void assign_value(Entry& e, util::BytesView value);
  /// Constructs an entry for `key` in the last chunk (opening a new one when
  /// full) and appends the key's bytes; returns the entry's index. Every
  /// entry the store holds, a compacted one included, is made here.
  std::uint32_t append_entry(std::string_view key);
  /// Appends to the last key chunk; returns the key's key_off.
  std::uint32_t append_key(std::string_view key);

  /// Bucket holding `key` and its entry, or the free bucket where it would
  /// be inserted and kNoEntry. The index must not be empty.
  struct Probe {
    std::size_t bucket;
    std::uint32_t idx;
  };
  Probe find(std::string_view key, std::uint64_t h) const;
  std::uint32_t find_entry(std::string_view key) const;
  /// The slot of `key`, whose hash_key() is `h`.
  Slot probe(std::string_view key, std::uint64_t h);
  Slot probe(std::string_view key) { return probe(key, hash_key(key)); }
  /// Prefetches the index lines of the home bucket of hash `h`.
  void prefetch_slot(std::uint64_t h) const;
  /// The one write step: journals, calls the hook and applies `value` to
  /// the probed slot (nullopt erases), keeping the slot current.
  void write(Slot& slot, std::optional<util::BytesView> value);
  void grow_index(std::size_t min_buckets);
  void index_remove(std::size_t bucket);
  void maybe_compact();
  void ensure_sorted() const;

  /// Journals `e`'s value if this is the tx's first write to it.
  void journal_first_write(Entry& e, std::string_view key);
  /// Appends an undo record for `key` (old value filled in by the caller).
  struct UndoEntry;
  UndoEntry& journal_key(std::string_view key);
  /// Backs a clean entry's digest out of the root and queues it.
  void mark_dirty(Entry& e, std::uint32_t idx);
  /// Hashes every queued entry into the root.
  void fold_dirty() const;

  std::vector<std::vector<Entry>> entries_;  // chunks, each reserved once
  std::uint32_t entry_count_ = 0;            // appended, live or dead
  std::vector<std::string> keys_;            // chunks, each reserved once
  std::vector<std::uint32_t> index_;  // bucket -> entry idx (if tagged)
  std::vector<std::uint8_t> tags_;    // bucket -> tag_of(hash), 0 = free
  std::size_t live_count_ = 0;
  std::size_t dead_count_ = 0;
  mutable crypto::Digest root_{};
  // Entries written since the last root read, each once.
  mutable std::vector<std::uint32_t> dirty_;

  // Lazily maintained lexicographic view: `sorted_` holds entry indices in
  // key order (possibly including entries erased since the last rebuild);
  // `unsorted_` holds indices inserted since. ensure_sorted() merges and
  // purges on demand, so pure write workloads never pay for ordering.
  mutable std::vector<std::uint32_t> sorted_;
  mutable std::vector<std::uint32_t> unsorted_;
  mutable std::size_t sorted_dead_ = 0;

  struct UndoEntry {
    static constexpr std::uint32_t kAbsent = 0xffffffffu;
    std::uint32_t key_off = 0;  // into journal_keys_
    std::uint32_t key_len = 0;
    std::uint32_t old_len = kAbsent;  // kAbsent = key did not exist
    std::array<std::uint8_t, kInlineValue> old_inline;
    util::Bytes old_spill;  // the old value when longer than kInlineValue
  };
  bool journaling_ = false;
  std::uint16_t tx_tag_ = 0;  // of the current or last tx, never 0 in one
  std::vector<UndoEntry> journal_;
  std::string journal_keys_;  // key bytes of the journal's records

  WriteHook write_hook_;
};

/// Verifies a proof against an expected root (e.g. the app_hash a light
/// client tracked for the proof's height).
bool verify_store_proof(const StoreProof& proof, const crypto::Digest& root);

/// Recomputes the binding digest for a proof's fields.
crypto::Digest store_proof_binding(std::string_view key,
                                   util::BytesView value, bool exists,
                                   const crypto::Digest& root);

}  // namespace chain
