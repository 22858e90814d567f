#include "chain/store.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/profiler.hpp"

namespace chain {

void KvStore::write_entry_input(std::uint8_t* out, std::string_view key,
                                util::BytesView value) {
  // Exact historical byte layout: u32_be(key.size()) || key || value.
  const auto n = static_cast<std::uint32_t>(key.size());
  out[0] = static_cast<std::uint8_t>(n >> 24);
  out[1] = static_cast<std::uint8_t>(n >> 16);
  out[2] = static_cast<std::uint8_t>(n >> 8);
  out[3] = static_cast<std::uint8_t>(n);
  if (!key.empty()) std::memcpy(out + 4, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(out + 4 + key.size(), value.data(), value.size());
  }
}

crypto::Digest KvStore::entry_hash(std::string_view key,
                                   util::BytesView value) {
  util::Bytes input(4 + key.size() + value.size());
  write_entry_input(input.data(), key, value);
  return crypto::sha256(input);
}

std::uint64_t KvStore::hash_key(std::string_view key) {
  // Eight key bytes per step, each folded in by a 64x64->128-bit multiply
  // whose halves are XORed, then the MurmurHash3 fmix64 finalizer so the low
  // bits the index masks with depend on every key byte. The hash only places
  // keys in the index: full key bytes are compared on match and nothing
  // iterates in index order, so no result depends on its values. Keys are
  // not adversarial.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto fold = [](std::uint64_t x) {
    const unsigned __int128 r = static_cast<unsigned __int128>(x) * kMul;
    return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
  };
  const auto word = [](const char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  };
  const char* p = key.data();
  const std::size_t n = key.size();
  std::uint64_t h = kMul ^ n;
  if (n >= 8) {
    for (std::size_t i = 0; i + 8 < n; i += 8) h = fold(h ^ word(p + i));
    h = fold(h ^ word(p + n - 8));  // last word, overlapping when n % 8 != 0
  } else if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = fold(h ^ w);
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

void KvStore::xor_into_root(const crypto::Digest& h) const {
  for (std::size_t i = 0; i < root_.size(); ++i) root_[i] ^= h[i];
}

void KvStore::assign_value(Entry& e, util::BytesView value) {
  e.val_len = static_cast<std::uint32_t>(value.size());
  if (value.size() <= kInlineValue) {
    if (!value.empty()) {
      std::memcpy(e.inline_val.data(), value.data(), value.size());
    }
    e.spill = util::Bytes();  // release any previous spill allocation
  } else {
    e.spill.assign(value.begin(), value.end());
  }
}

std::uint32_t KvStore::append_entry(std::string_view key) {
  constexpr std::size_t kChunk = std::size_t{1} << kEntryChunkBits;
  if (entry_count_ % kChunk == 0) {
    entries_.emplace_back().reserve(kChunk);
  }
  Entry& e = entries_.back().emplace_back();
  e.key_off = append_key(key);
  e.key_len = static_cast<std::uint32_t>(key.size());
  return entry_count_++;
}

std::uint32_t KvStore::append_key(std::string_view key) {
  constexpr std::size_t kChunk = std::size_t{1} << kKeyChunkBits;
  if (keys_.empty() || keys_.back().size() + key.size() > kChunk) {
    keys_.emplace_back().reserve(std::max(kChunk, key.size()));
  }
  std::string& chunk = keys_.back();
  const auto off = static_cast<std::uint32_t>(
      ((keys_.size() - 1) << kKeyChunkBits) | chunk.size());
  chunk.append(key);
  return off;
}

KvStore::Probe KvStore::find(std::string_view key, std::uint64_t h) const {
  const std::size_t mask = tags_.size() - 1;
  const std::uint8_t tag = tag_of(h);
  for (std::size_t b = static_cast<std::size_t>(h) & mask;;
       b = (b + 1) & mask) {
    const std::uint8_t t = tags_[b];
    if (t == 0) return {b, kNoEntry};
    // Only a tag match reads the entry (and its key bytes).
    if (t == tag && key_of(entry(index_[b])) == key) return {b, index_[b]};
  }
}

std::uint32_t KvStore::find_entry(std::string_view key) const {
  if (tags_.empty()) return kNoEntry;
  return find(key, hash_key(key)).idx;
}

KvStore::Slot KvStore::probe(std::string_view key, std::uint64_t h) {
  const Probe p = tags_.empty() ? Probe{0, kNoEntry} : find(key, h);
  return Slot(*this, key, h, p.bucket, p.idx);
}

void KvStore::prefetch_slot(std::uint64_t h) const {
  if (tags_.empty()) return;
  const std::size_t b = static_cast<std::size_t>(h) & (tags_.size() - 1);
  __builtin_prefetch(&tags_[b], 1);
  __builtin_prefetch(&index_[b], 1);
}

void KvStore::grow_index(std::size_t min_buckets) {
  std::size_t cap = 16;
  while (cap < min_buckets) cap *= 2;
  index_.assign(cap, kNoEntry);
  tags_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (std::uint32_t i = 0; i < entry_count_; ++i) {
    const Entry& e = entry(i);
    if (!e.live) continue;
    const std::uint64_t h = hash_key(key_of(e));
    std::size_t b = static_cast<std::size_t>(h) & mask;
    while (tags_[b] != 0) b = (b + 1) & mask;
    index_[b] = i;
    tags_[b] = tag_of(h);
  }
}

void KvStore::index_remove(std::size_t bucket) {
  // Backward-shift deletion keeps linear probe chains dense (no tombstones).
  // The index keeps no full hash, so each later slot of the cluster rehashes
  // its key to find its home.
  const std::size_t mask = tags_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t i = (bucket + 1) & mask; tags_[i] != 0;
       i = (i + 1) & mask) {
    const std::size_t home =
        static_cast<std::size_t>(hash_key(key_of(entry(index_[i])))) & mask;
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      tags_[hole] = tags_[i];
      hole = i;
    }
  }
  tags_[hole] = 0;
}

void KvStore::maybe_compact() {
  // Erase/re-insert churn (packet commitments are deleted on ack) strands
  // dead entries and their keys; rebuild once they dominate.
  if (dead_count_ < 4096 || dead_count_ * 2 < live_count_) return;

  std::vector<std::vector<Entry>> old_entries = std::move(entries_);
  std::vector<std::string> old_keys = std::move(keys_);
  entries_.clear();
  keys_.clear();
  std::vector<std::uint32_t> remap(entry_count_, kNoEntry);
  entry_count_ = 0;
  std::uint32_t i = 0;
  for (std::vector<Entry>& chunk : old_entries) {
    for (Entry& e : chunk) {
      if (e.live) {
        remap[i] = append_entry(key_in(old_keys, e));
        Entry& moved = entry(remap[i]);
        e.key_off = moved.key_off;
        moved = std::move(e);
      }
      ++i;
    }
    std::vector<Entry>().swap(chunk);  // free as we go
  }
  dead_count_ = 0;

  auto remap_list = [&remap](std::vector<std::uint32_t>& list) {
    std::size_t out = 0;
    for (const std::uint32_t idx : list) {
      if (remap[idx] != kNoEntry) list[out++] = remap[idx];
    }
    list.resize(out);
  };
  remap_list(sorted_);
  remap_list(unsorted_);
  remap_list(dirty_);
  sorted_dead_ = 0;
  grow_index(tags_.size());
}

void KvStore::ensure_sorted() const {
  const bool purge_due = sorted_dead_ > 64 && sorted_dead_ * 4 > sorted_.size();
  if (unsorted_.empty() && !purge_due) return;

  auto key_less = [this](std::uint32_t a, std::uint32_t b) {
    return key_of(entry(a)) < key_of(entry(b));
  };

  // Purge dead indices from both lists while we are touching them anyway.
  auto drop_dead = [this](std::vector<std::uint32_t>& list) {
    std::size_t out = 0;
    for (const std::uint32_t idx : list) {
      if (entry(idx).live) list[out++] = idx;
    }
    list.resize(out);
  };
  drop_dead(sorted_);
  drop_dead(unsorted_);
  sorted_dead_ = 0;

  if (!unsorted_.empty()) {
    std::sort(unsorted_.begin(), unsorted_.end(), key_less);
    const std::size_t mid = sorted_.size();
    sorted_.insert(sorted_.end(), unsorted_.begin(), unsorted_.end());
    unsorted_.clear();
    // Append-heavy workloads (sequences, fresh commitments) often sort
    // entirely after the existing keys; skip the merge when they do.
    if (mid > 0 && key_less(sorted_[mid], sorted_[mid - 1])) {
      std::inplace_merge(sorted_.begin(), sorted_.begin() + mid, sorted_.end(),
                         key_less);
    }
  }
}

void KvStore::reserve(std::size_t expected_entries) {
  if (expected_entries == 0) return;
  std::size_t cap = 16;
  while (cap * 3 < expected_entries * 4) cap *= 2;
  if (cap > tags_.size()) grow_index(cap);
  // Every new entry is queued for the fold; sized now, the queue does not
  // double (and copy) its way up during a bulk load. (Reserving unsorted_
  // as well raised the scale tier's peak RSS by 2.8 MiB, so it still
  // grows by doubling.)
  if (expected_entries > live_count_) {
    dirty_.reserve(dirty_.size() + (expected_entries - live_count_));
  }
}

void KvStore::begin_tx() {
  journaling_ = true;
  journal_.clear();
  journal_keys_.clear();
  if (++tx_tag_ == 0) {
    // Wrapped: clear every tag so no entry looks journaled by a reused one.
    for (std::vector<Entry>& chunk : entries_) {
      for (Entry& e : chunk) e.journaled_in = 0;
    }
    tx_tag_ = 1;
  }
}

void KvStore::commit_tx() {
  journaling_ = false;
  journal_.clear();
  journal_keys_.clear();
}

void KvStore::revert_tx() {
  journaling_ = false;
  // Undo in reverse order: a key erased and set again within the tx has
  // two records, and the older one must land last. Nothing writes to the
  // journal while journaling_ is off, so the key and value views hold.
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    const std::string_view key(journal_keys_.data() + it->key_off,
                               it->key_len);
    if (it->old_len == UndoEntry::kAbsent) {
      erase(key);
    } else if (it->old_len <= kInlineValue) {
      set(key, util::BytesView(it->old_inline.data(), it->old_len));
    } else {
      set(key, it->old_spill);
    }
  }
  journal_.clear();
  journal_keys_.clear();
}

KvStore::UndoEntry& KvStore::journal_key(std::string_view key) {
  UndoEntry& u = journal_.emplace_back();
  u.key_off = static_cast<std::uint32_t>(journal_keys_.size());
  u.key_len = static_cast<std::uint32_t>(key.size());
  journal_keys_.append(key);
  return u;
}

void KvStore::journal_first_write(Entry& e, std::string_view key) {
  if (!journaling_ || e.journaled_in == tx_tag_) return;
  e.journaled_in = tx_tag_;
  UndoEntry& u = journal_key(key);
  u.old_len = e.val_len;
  if (e.val_len <= kInlineValue) {
    std::memcpy(u.old_inline.data(), e.inline_val.data(), e.val_len);
  } else {
    u.old_spill = e.spill;
  }
}

void KvStore::mark_dirty(Entry& e, std::uint32_t idx) {
  if (e.dirty) return;
  xor_into_root(e.hash);  // back out the old contribution, no rehash
  e.dirty = true;
  dirty_.push_back(idx);
}

void KvStore::fold_dirty() const {
  // An entry whose hash input pads to one or two SHA-256 blocks (balances,
  // sequences, the ICS-24 commitment, receipt and ack keys) is padded into
  // a batch of entries with its block count, and each full batch is hashed
  // in one crypto::sha256_padded call, which runs its messages side by
  // side. Longer inputs go through entry_hash.
  constexpr std::size_t kBatch = 4;
  struct Batch {
    std::size_t n = 0;
    const Entry* entries[kBatch];
    crypto::Digest digests[kBatch];
    std::uint8_t blocks[kBatch * 2 * 64];
  };
  Batch batches[2];  // by block count - 1
  const auto flush = [this](Batch& b, std::size_t nblocks) {
    if (b.n == 0) return;
    crypto::sha256_padded(b.blocks, b.n, nblocks, b.digests);
    for (std::size_t i = 0; i < b.n; ++i) {
      b.entries[i]->hash = b.digests[i];
      b.entries[i]->dirty = false;
      xor_into_root(b.digests[i]);
    }
    b.n = 0;
  };
  // A block's writes are scattered over the arena: fetch an entry kAhead
  // places ahead and its key bytes half as far.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    if (i + kAhead < dirty_.size()) {
      const auto* ahead =
          reinterpret_cast<const char*>(&entry(dirty_[i + kAhead]));
      __builtin_prefetch(ahead, 1);
      __builtin_prefetch(ahead + sizeof(Entry) - 1, 1);
    }
    if (i + kAhead / 2 < dirty_.size()) {
      __builtin_prefetch(key_of(entry(dirty_[i + kAhead / 2])).data());
    }
    const Entry& e = entry(dirty_[i]);
    if (!e.live) continue;  // erased: its digest is already out
    const std::string_view key = key_of(e);
    const util::BytesView value = value_of(e);
    const std::size_t len = 4 + key.size() + value.size();
    const std::size_t nblocks = crypto::padded_blocks(len);
    if (nblocks > 2) {
      e.hash = entry_hash(key, value);
      e.dirty = false;
      xor_into_root(e.hash);
      continue;
    }
    Batch& b = batches[nblocks - 1];
    std::uint8_t* msg = b.blocks + b.n * nblocks * 64;
    write_entry_input(msg, key, value);
    crypto::pad_message(msg, len);
    b.entries[b.n++] = &e;
    if (b.n == kBatch) flush(b, nblocks);
  }
  flush(batches[0], 1);
  flush(batches[1], 2);
  // A bulk load leaves millions queued; do not keep that capacity around.
  if (dirty_.capacity() > (std::size_t{1} << 16)) {
    std::vector<std::uint32_t>().swap(dirty_);
  } else {
    dirty_.clear();
  }
}

const crypto::Digest& KvStore::root() const {
  if (!dirty_.empty()) {
    telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
    fold_dirty();
  }
  return root_;
}

void KvStore::write(Slot& slot, std::optional<util::BytesView> value) {
  const std::string_view key = slot.key_;
  if (slot.idx_ != kNoEntry) {
    Entry& e = entry(slot.idx_);
    journal_first_write(e, key);
    if (write_hook_) write_hook_(key, value_of(e), value);
    if (value) {
      mark_dirty(e, slot.idx_);
      assign_value(e, *value);
      return;
    }
    if (!e.dirty) xor_into_root(e.hash);  // a dirty entry is already out
    e.live = false;
    e.spill = util::Bytes();
    index_remove(slot.bucket_);
    slot.idx_ = kNoEntry;
    slot.bucket_ = tags_.size();  // the shift (or a compaction) moved it
    --live_count_;
    ++dead_count_;
    ++sorted_dead_;
    maybe_compact();
    return;
  }
  if (!value) return;  // erasing an absent key writes nothing
  if (tags_.empty() || (live_count_ + 1) * 4 > tags_.size() * 3) {
    grow_index(tags_.empty() ? 16 : tags_.size() * 2);
    slot.bucket_ = find(key, slot.hash_).bucket;
  } else if (slot.bucket_ == tags_.size()) {
    slot.bucket_ = find(key, slot.hash_).bucket;
  }
  if (journaling_) journal_key(key);  // old_len stays kAbsent
  if (write_hook_) write_hook_(key, std::nullopt, value);
  slot.idx_ = append_entry(key);
  Entry& e = entry(slot.idx_);
  e.live = true;
  e.dirty = true;
  e.journaled_in = journaling_ ? tx_tag_ : 0;
  assign_value(e, *value);
  index_[slot.bucket_] = slot.idx_;
  tags_[slot.bucket_] = tag_of(slot.hash_);
  unsorted_.push_back(slot.idx_);
  dirty_.push_back(slot.idx_);
  ++live_count_;
}

void KvStore::set(std::string_view key, util::BytesView value) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  Slot slot = probe(key);
  write(slot, value);
}

void KvStore::erase(std::string_view key) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  Slot slot = probe(key);
  write(slot, std::nullopt);
}

bool KvStore::insert_new(std::string_view key, util::BytesView value) {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  Slot slot = probe(key);
  if (slot.idx_ != kNoEntry) return false;
  write(slot, value);
  return true;
}

std::optional<util::Bytes> KvStore::get(std::string_view key) const {
  const std::uint32_t idx = find_entry(key);
  if (idx == kNoEntry) return std::nullopt;
  const util::BytesView v = value_of(entry(idx));
  return util::Bytes(v.begin(), v.end());
}

std::optional<util::BytesView> KvStore::get_view(std::string_view key) const {
  const std::uint32_t idx = find_entry(key);
  if (idx == kNoEntry) return std::nullopt;
  return value_of(entry(idx));
}

bool KvStore::contains(std::string_view key) const {
  return find_entry(key) != kNoEntry;
}

KvStore::PrefixIter KvStore::scan_prefix(std::string_view prefix) const {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  ensure_sorted();
  const auto begin = std::lower_bound(
      sorted_.begin(), sorted_.end(), prefix,
      [this](std::uint32_t idx, std::string_view p) {
        return key_of(entry(idx)) < p;
      });
  return PrefixIter(this, prefix,
                    static_cast<std::size_t>(begin - sorted_.begin()));
}

bool KvStore::PrefixIter::next() {
  while (pos_ < store_->sorted_.size()) {
    const std::uint32_t idx = store_->sorted_[pos_++];
    const auto& e = store_->entry(idx);
    const std::string_view k = store_->key_of(e);
    if (k.size() < prefix_.size() ||
        k.compare(0, prefix_.size(), prefix_) != 0) {
      break;  // sorted order: once past the prefix, no more matches
    }
    if (!e.live) continue;
    cur_ = idx;
    return true;
  }
  pos_ = store_->sorted_.size();
  cur_ = 0xffffffffu;
  return false;
}

std::string_view KvStore::PrefixIter::key() const {
  return store_->key_of(store_->entry(cur_));
}

util::BytesView KvStore::PrefixIter::value() const {
  return store_->value_of(store_->entry(cur_));
}

std::vector<std::string> KvStore::keys_with_prefix(
    std::string_view prefix) const {
  std::vector<std::string> out;
  for (auto it = scan_prefix(prefix); it.next();) {
    out.emplace_back(it.key());
  }
  return out;
}

StoreProof KvStore::prove(std::string_view key) const {
  telemetry::ProfileScope prof(telemetry::ProfileKey::kKvStore);
  if (!dirty_.empty()) fold_dirty();
  StoreProof proof;
  proof.key = key;
  proof.root = root_;
  const std::uint32_t idx = find_entry(key);
  if (idx != kNoEntry) {
    proof.exists = true;
    const util::BytesView v = value_of(entry(idx));
    proof.value.assign(v.begin(), v.end());
  }
  proof.binding = store_proof_binding(key, proof.value, proof.exists, root_);
  return proof;
}

crypto::Digest store_proof_binding(std::string_view key,
                                   util::BytesView value, bool exists,
                                   const crypto::Digest& root) {
  static constexpr char kDomain[] = "store-proof/";
  crypto::Sha256 h;
  h.update(kDomain, sizeof(kDomain) - 1);
  h.update(key.data(), key.size());
  h.update(value.data(), value.size());
  const std::uint8_t e = exists ? 1 : 0;
  h.update(&e, 1);
  h.update(root.data(), root.size());
  return h.finalize();
}

bool verify_store_proof(const StoreProof& proof, const crypto::Digest& root) {
  if (proof.root != root) return false;
  return proof.binding ==
         store_proof_binding(proof.key, proof.value, proof.exists, proof.root);
}

}  // namespace chain
