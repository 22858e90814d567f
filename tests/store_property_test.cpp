// Model-based property tests: the journaled KvStore against a reference
// std::map model under random operation sequences, including nested
// begin/commit/revert cycles, plus root-consistency invariants. The write
// hook and the unordered walk are held to the same model. The store folds
// writes into its root lazily; every root it reports is compared with an
// eagerly hashed reference over the model's contents. Keys that collide in
// the tagged index, and the one-probe writes (insert_new, update), are held
// to the same model and to the get-then-write paths they replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "chain/store.hpp"
#include "util/rng.hpp"

namespace {

using Model = std::map<std::string, util::Bytes>;

/// The set-hash root of `model`, hashed from scratch: XOR over entries of
/// SHA-256(u32_be(key length) || key || value).
crypto::Digest reference_root(const Model& model) {
  crypto::Digest root{};
  for (const auto& [k, v] : model) {
    util::Bytes input;
    util::append_u32_be(input, static_cast<std::uint32_t>(k.size()));
    input.insert(input.end(), k.begin(), k.end());
    input.insert(input.end(), v.begin(), v.end());
    const crypto::Digest h = crypto::sha256(input);
    for (std::size_t i = 0; i < root.size(); ++i) root[i] ^= h[i];
  }
  return root;
}

/// root() and a proof of `key` must both commit to the reference root.
void expect_root_matches_model(const chain::KvStore& store, const Model& model,
                               const std::string& key, int step) {
  const crypto::Digest expected = reference_root(model);
  EXPECT_EQ(store.root(), expected) << "step " << step;
  const chain::StoreProof proof = store.prove(key);
  EXPECT_EQ(proof.root, expected) << "step " << step;
  EXPECT_EQ(proof.exists, model.contains(key)) << "step " << step;
  EXPECT_TRUE(chain::verify_store_proof(proof, expected)) << "step " << step;
}

std::string random_key(util::Rng& rng) {
  // One of 40 keys, 3 to 62 bytes long: with random_value() an entry's
  // hash input (4 + key + value bytes) spans one SHA-256 block, two, and
  // more, crossing both padding boundaries (55/56 and 119/120 bytes).
  const std::uint64_t id = rng.next_below(40);
  return "k/" + std::to_string(id) + std::string(id * 3 / 2, '~');
}

util::Bytes random_value(util::Rng& rng) {
  // Straddle the store's 32-byte inline-value threshold: small values hit
  // the inline path, the longer ones spill storage.
  util::Bytes v(1 + rng.next_below(96));
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_below(256));
  return v;
}

/// scan_prefix must agree with the model exactly: same keys (sorted), same
/// value bytes, and get_view must serve the same bytes as get.
void expect_scan_matches_model(const chain::KvStore& store,
                               const std::map<std::string, util::Bytes>& model,
                               const std::string& prefix, int step) {
  std::vector<std::pair<std::string, util::Bytes>> expected;
  for (const auto& [k, v] : model) {
    if (k.compare(0, prefix.size(), prefix) == 0) expected.emplace_back(k, v);
  }
  std::size_t i = 0;
  for (auto it = store.scan_prefix(prefix); it.next(); ++i) {
    ASSERT_LT(i, expected.size()) << "step " << step << " extra key "
                                  << it.key();
    EXPECT_EQ(it.key(), expected[i].first) << "step " << step;
    EXPECT_TRUE(std::equal(it.value().begin(), it.value().end(),
                           expected[i].second.begin(),
                           expected[i].second.end()))
        << "step " << step << " key " << it.key();
    const auto view = store.get_view(expected[i].first);
    ASSERT_TRUE(view.has_value()) << "step " << step;
    EXPECT_TRUE(std::equal(view->begin(), view->end(),
                           expected[i].second.begin(),
                           expected[i].second.end()))
        << "step " << step;
  }
  EXPECT_EQ(i, expected.size()) << "step " << step << " prefix " << prefix;
}

/// for_each_unordered must visit exactly the model's entries under the
/// prefix, each once.
void expect_walk_matches_model(const chain::KvStore& store,
                               const std::map<std::string, util::Bytes>& model,
                               const std::string& prefix, int step) {
  std::map<std::string, util::Bytes> expected, walked;
  for (const auto& [k, v] : model) {
    if (k.starts_with(prefix)) expected.emplace(k, v);
  }
  store.for_each_unordered(prefix, [&](std::string_view k,
                                       util::BytesView v) {
    EXPECT_TRUE(walked.emplace(k, util::Bytes(v.begin(), v.end())).second)
        << "step " << step << " visited twice: " << k;
  });
  EXPECT_EQ(walked, expected) << "step " << step << " prefix " << prefix;
}

/// Installs a hook that replays every write into `mirror`, checking that
/// each write's `before` is the value the mirror holds for the key.
void mirror_writes(chain::KvStore& store,
                   std::map<std::string, util::Bytes>& mirror) {
  store.set_write_hook([&mirror](std::string_view key,
                                 std::optional<util::BytesView> before,
                                 std::optional<util::BytesView> after) {
    const auto it = mirror.find(std::string(key));
    ASSERT_EQ(before.has_value(), it != mirror.end()) << key;
    if (before) {
      EXPECT_TRUE(std::equal(before->begin(), before->end(),
                             it->second.begin(), it->second.end()))
          << key;
    }
    if (after) {
      mirror[std::string(key)] = util::Bytes(after->begin(), after->end());
    } else {
      mirror.erase(it);
    }
  });
}

void expect_matches_model(const chain::KvStore& store,
                          const std::map<std::string, util::Bytes>& model,
                          int step) {
  ASSERT_EQ(store.size(), model.size()) << "step " << step;
  for (const auto& [k, v] : model) {
    const auto got = store.get(k);
    ASSERT_TRUE(got.has_value()) << "step " << step << " key " << k;
    EXPECT_EQ(*got, v) << "step " << step << " key " << k;
  }
}

class StoreModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(StoreModelProperty, RandomOpsMatchReferenceModel) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  chain::KvStore store;
  std::map<std::string, util::Bytes> model;
  std::map<std::string, util::Bytes> mirror;  // fed by the write hook only
  mirror_writes(store, mirror);

  // Roots must be a pure function of contents: track roots seen per
  // content-snapshot via a canonical serialization.
  auto snapshot = [&]() {
    std::string s;
    for (const auto& [k, v] : model) {
      s += k + '=' + util::to_hex(v) + ';';
    }
    return s;
  };
  std::map<std::string, crypto::Digest> roots_by_content;

  bool in_tx = false;
  std::map<std::string, util::Bytes> model_backup;

  // Roots are read at random points only (between txs, inside one, right
  // after a revert), so several writes, overwrites and erases of one key
  // pile up between two folds.
  for (int step = 0; step < 1'000; ++step) {
    const double dice = rng.next_double();
    bool read_root = rng.chance(0.1);
    if (dice < 0.30) {
      const std::string k = random_key(rng);
      const util::Bytes v = random_value(rng);
      store.set(k, v);
      model[k] = v;
    } else if (dice < 0.36) {
      const std::string k = random_key(rng);
      const util::Bytes v = random_value(rng);
      EXPECT_EQ(store.insert_new(k, v), !model.contains(k)) << "step " << step;
      model.try_emplace(k, v);
    } else if (dice < 0.45) {
      // One probe: read the value, then write, erase or leave it. A derived
      // write depends on the value read through the slot.
      const std::string k = random_key(rng);
      const std::uint64_t outcome = rng.next_below(4);
      const util::Bytes v = random_value(rng);
      store.update(k, [&](chain::KvStore::Slot& slot) {
        const auto cur = slot.value();
        ASSERT_EQ(cur.has_value(), model.contains(k)) << "step " << step;
        if (outcome == 0) {
          slot.set(v);
        } else if (outcome == 1) {
          slot.erase();
        } else if (outcome == 3) {
          util::Bytes next = cur ? util::Bytes(cur->begin(), cur->end())
                                 : util::Bytes();
          next.push_back(static_cast<std::uint8_t>(next.size()));
          slot.set(next);
        }
      });
      if (outcome == 0) {
        model[k] = v;
      } else if (outcome == 1) {
        model.erase(k);
      } else if (outcome == 3) {
        util::Bytes& next = model[k];
        next.push_back(static_cast<std::uint8_t>(next.size()));
      }
    } else if (dice < 0.65) {
      const std::string k = random_key(rng);
      store.erase(k);
      model.erase(k);
    } else if (dice < 0.75 && !in_tx) {
      store.begin_tx();
      model_backup = model;
      in_tx = true;
    } else if (dice < 0.85 && in_tx) {
      store.commit_tx();
      in_tx = false;
    } else if (dice < 0.95 && in_tx) {
      store.revert_tx();
      model = model_backup;
      in_tx = false;
      read_root = rng.chance(0.5);
    } else if (dice < 0.97) {
      // Proof spot check on a random key (present or absent): prove()
      // folds pending writes itself, before root() is read.
      const std::string k = random_key(rng);
      const chain::StoreProof proof = store.prove(k);
      EXPECT_EQ(proof.exists, model.contains(k)) << "step " << step;
      EXPECT_EQ(proof.root, reference_root(model)) << "step " << step;
      EXPECT_TRUE(chain::verify_store_proof(proof, store.root()));
    } else {
      const std::string prefix = "k/" + std::to_string(rng.next_below(4));
      expect_scan_matches_model(store, model, "k/", step);
      expect_scan_matches_model(store, model, prefix, step);
      expect_walk_matches_model(store, model, "", step);
      expect_walk_matches_model(store, model, prefix, step);
    }

    expect_matches_model(store, model, step);
    EXPECT_EQ(mirror, model) << "step " << step;
    if (!read_root) continue;
    expect_root_matches_model(store, model, random_key(rng), step);

    // Root is deterministic in contents (order-independent set hash).
    const std::string snap = snapshot();
    const auto it = roots_by_content.find(snap);
    if (it != roots_by_content.end()) {
      EXPECT_EQ(it->second, store.root()) << "root drifted at step " << step;
    } else {
      roots_by_content.emplace(snap, store.root());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Heavy erase/reinsert churn pushes the store through tombstone purges and
// full compactions (threshold: thousands of dead entries); contents, scans,
// proofs and the root must stay consistent with the model throughout.
TEST(StorePropertyTest, CompactionChurnKeepsModelAndRoot) {
  util::Rng rng(4242);
  chain::KvStore store;
  std::map<std::string, util::Bytes> model;
  std::map<std::string, util::Bytes> mirror;
  mirror_writes(store, mirror);

  crypto::Digest root_when_empty = store.root();

  // Grow across many entry chunks (1024 entries each) and key chunks (64 KiB
  // each; the oversize key gets a chunk of its own), then erase most of it
  // so compaction repacks entries and keys across chunk boundaries.
  const std::string pad(90, 'p');
  const std::string huge = "grow/huge/" + std::string((1u << 17) + 100, 'h');
  for (int i = 0; i < 20'000; ++i) {
    const std::string k = "grow/" + pad + std::to_string(i);
    util::Bytes v = random_value(rng);
    store.set(k, v);
    model[k] = std::move(v);
    if (i == 10'000) {
      store.set(huge, util::to_bytes("big"));
      model[huge] = util::to_bytes("big");
    }
  }
  EXPECT_EQ(store.root(), reference_root(model));
  for (int i = 0; i < 20'000; ++i) {
    if (i % 8 == 0) continue;
    const std::string k = "grow/" + pad + std::to_string(i);
    store.erase(k);
    model.erase(k);
  }
  ASSERT_EQ(store.size(), model.size());
  EXPECT_EQ(store.get(huge), util::to_bytes("big"));
  expect_scan_matches_model(store, model, "grow/", -1);
  expect_walk_matches_model(store, model, "grow/", -1);
  EXPECT_EQ(mirror, model);
  EXPECT_EQ(store.root(), reference_root(model));

  for (int round = 0; round < 6; ++round) {
    // Fill a few thousand keys, then erase most of them.
    for (int i = 0; i < 3'000; ++i) {
      const std::string k =
          "churn/" + std::to_string(round % 2) + "/" + std::to_string(i);
      util::Bytes v = random_value(rng);
      store.set(k, v);
      model[k] = std::move(v);
    }
    for (int i = 0; i < 3'000; ++i) {
      if (rng.next_below(8) == 0) continue;  // keep ~1/8 alive
      const std::string k =
          "churn/" + std::to_string(round % 2) + "/" + std::to_string(i);
      store.erase(k);
      model.erase(k);
    }
    ASSERT_EQ(store.size(), model.size()) << "round " << round;
    expect_scan_matches_model(store, model, "churn/", round);
    expect_walk_matches_model(store, model, "churn/1/", round);
    EXPECT_EQ(mirror, model) << "round " << round;
    // Spot-check membership + proofs after the churn.
    for (int i = 0; i < 50; ++i) {
      const std::string k = "churn/" + std::to_string(round % 2) + "/" +
                            std::to_string(rng.next_below(3'000));
      const auto got = store.get(k);
      ASSERT_EQ(got.has_value(), model.contains(k)) << "round " << round;
      const chain::StoreProof proof = store.prove(k);
      EXPECT_EQ(proof.exists, model.contains(k));
      EXPECT_TRUE(chain::verify_store_proof(proof, store.root()));
    }
  }

  EXPECT_EQ(store.root(), reference_root(model));

  // Erasing everything must return the root to the empty-set hash: the
  // XOR set-hash (and thus compaction bookkeeping) leaks nothing.
  for (const auto& [k, v] : model) store.erase(k);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.root(), root_when_empty);
}

// One bulk load, one root read: the first fold hashes 10^4 queued entries
// in batches by block count (one, two, or longer and hashed alone), each
// kind ending in a partial batch, and the root must be the one hashed from
// scratch. Half the keys arrive through update_many(), half through set().
TEST(StorePropertyTest, BulkFoldMatchesReference) {
  util::Rng rng(2718);
  chain::KvStore store;
  Model model;
  std::vector<std::string> keys;
  std::vector<util::Bytes> values;
  for (int i = 0; i < 10'007; ++i) {
    keys.push_back("bulk/" + std::to_string(i) +
                   std::string(rng.next_below(70), 'k'));
    values.push_back(random_value(rng));
    model[keys.back()] = values.back();
  }
  const std::size_t half = keys.size() / 2;
  store.reserve(keys.size());
  std::size_t next = 0;
  store.update_many(
      half, [&keys](std::size_t i) { return keys[i]; },
      [&](chain::KvStore::Slot& slot) {
        ASSERT_FALSE(slot.value().has_value());
        slot.set(values[next++]);
      });
  for (std::size_t i = half; i < keys.size(); ++i) {
    store.set(keys[i], values[i]);
  }
  EXPECT_EQ(next, half);
  EXPECT_EQ(store.root(), reference_root(model));

  // A block-sized fold: rewrite, erase and re-add a few hundred scattered
  // keys.
  for (int i = 0; i < 300; ++i) {
    const std::string& k = keys[rng.next_below(keys.size())];
    if (rng.chance(0.3)) {
      store.erase(k);
      model.erase(k);
    } else {
      const util::Bytes v = random_value(rng);
      store.set(k, v);
      model[k] = v;
    }
  }
  expect_matches_model(store, model, -1);
  expect_root_matches_model(store, model, keys[7], -1);
}

// Journal semantics across erase-heavy transactions: revert must restore
// exact pre-tx contents and root even when the tx erased spilled values.
TEST(StorePropertyTest, RevertRestoresSpilledValues) {
  chain::KvStore store;
  util::Bytes big(100, 0x5a);
  store.set("a", big);
  store.set("b", util::to_bytes("small"));
  const crypto::Digest root_before = store.root();

  store.begin_tx();
  store.erase("a");
  store.set("b", util::Bytes(64, 0x11));
  store.set("c", util::Bytes(33, 0x22));
  store.revert_tx();

  EXPECT_EQ(store.root(), root_before);
  const auto a = store.get("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, big);
  const auto b = store.get_view("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(util::Bytes(b->begin(), b->end()), util::to_bytes("small"));
  EXPECT_FALSE(store.contains("c"));
}

// One key set, erased and set again in a tx: the erase kills the entry the
// first set journaled, so the second set journals a new one. Revert must
// restore the pre-tx value and root whether the key existed before the tx
// and whether the root was folded between the writes.
TEST(StorePropertyTest, SetEraseSetOneKeyThenRevert) {
  for (const bool existed : {false, true}) {
    for (const bool fold_mid_tx : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "existed=" << existed
                                        << " fold_mid_tx=" << fold_mid_tx);
      chain::KvStore store;
      Model model, mirror;
      mirror_writes(store, mirror);
      model["other"] = util::to_bytes("x");
      if (existed) model["k"] = util::Bytes(40, 0x01);
      for (const auto& [k, v] : model) store.set(k, v);
      const crypto::Digest before = store.root();

      store.begin_tx();
      store.set("k", util::to_bytes("v1"));
      if (fold_mid_tx) (void)store.root();
      store.erase("k");
      if (fold_mid_tx) (void)store.root();
      store.set("k", util::Bytes(50, 0x02));
      store.revert_tx();

      expect_matches_model(store, model, 0);
      EXPECT_EQ(mirror, model);
      EXPECT_EQ(store.root(), before);
      expect_root_matches_model(store, model, "k", 0);
    }
  }
}

// Only a tx's first write to an entry is journaled, so a revert makes one
// restoring write per key however often the tx wrote it.
TEST(StorePropertyTest, RevertMakesOneRestoringWritePerKey) {
  chain::KvStore store;
  store.set("k1", util::to_bytes("a"));
  store.set("k3", util::Bytes(48, 0x33));
  const crypto::Digest before = store.root();
  int writes = 0;
  store.set_write_hook([&writes](std::string_view, auto, auto) { ++writes; });

  store.begin_tx();
  for (int i = 0; i < 5; ++i) store.set("k1", util::Bytes(1 + i, 0x11));
  for (int i = 0; i < 3; ++i) store.set("k2", util::Bytes(40 + i, 0x22));
  store.set("k3", util::to_bytes("c"));
  store.erase("k3");
  writes = 0;
  store.revert_tx();

  EXPECT_EQ(writes, 3);
  EXPECT_EQ(store.get("k1"), util::to_bytes("a"));
  EXPECT_FALSE(store.contains("k2"));
  EXPECT_EQ(store.get("k3"), util::Bytes(48, 0x33));
  EXPECT_EQ(store.root(), before);
}

// Erasing an entry whose digest is already backed out of the root (it was
// written since the last fold, or created since) must not back it out a
// second time.
TEST(StorePropertyTest, EraseOfDirtyEntryKeepsRoot) {
  chain::KvStore store;
  Model model;
  for (int i = 0; i < 8; ++i) {
    model["d/" + std::to_string(i)] = util::Bytes(4 + 8 * i, 0x40);
  }
  for (const auto& [k, v] : model) store.set(k, v);
  expect_root_matches_model(store, model, "d/1", 0);  // all clean

  store.set("d/1", util::to_bytes("new"));
  store.erase("d/1");  // dirty once
  store.set("d/2", util::to_bytes("x"));
  store.set("d/2", util::Bytes(64, 0x02));
  store.erase("d/2");  // dirty, written twice
  store.set("d/new", util::to_bytes("y"));
  store.erase("d/new");  // created and erased between two folds
  store.set("d/3", util::to_bytes("z"));  // dirty and kept
  model.erase("d/1");
  model.erase("d/2");
  model["d/3"] = util::to_bytes("z");
  expect_root_matches_model(store, model, "d/2", 1);

  // The same inside a tx, then reverted.
  const crypto::Digest before = store.root();
  store.begin_tx();
  store.set("d/4", util::to_bytes("w"));
  store.erase("d/4");
  store.erase("d/5");
  store.revert_tx();
  EXPECT_EQ(store.root(), before);
  expect_root_matches_model(store, model, "d/4", 2);
}

// Compaction moves entries while some are written but not yet folded into
// the root (some of those erased): the pending list must follow the moves.
TEST(StorePropertyTest, CompactionWithPendingDirtyEntries) {
  util::Rng rng(77);
  chain::KvStore store;
  Model model;
  for (int i = 0; i < 10'000; ++i) {
    const std::string k = "c/" + std::to_string(i);
    model[k] = random_value(rng);
    store.set(k, model[k]);
  }
  EXPECT_EQ(store.root(), reference_root(model));
  for (int i = 0; i < 10'000; i += 7) {
    const std::string k = "c/" + std::to_string(i);
    model[k] = random_value(rng);
    store.set(k, model[k]);
  }
  // 6,000 erases; compaction runs at the 4,096th (dead >= 4096 and
  // dead * 2 >= live), with a seventh of the survivors dirty.
  for (int i = 0; i < 10'000; ++i) {
    if (i % 10 >= 6) continue;
    const std::string k = "c/" + std::to_string(i);
    store.erase(k);
    model.erase(k);
  }
  for (int i = 0; i < 100; ++i) {
    const std::string k = "c/new/" + std::to_string(i);
    model[k] = random_value(rng);
    store.set(k, model[k]);
  }
  expect_matches_model(store, model, 0);
  expect_root_matches_model(store, model, "c/9", 0);
}

// The per-entry journal tag is 16 bits, so the tx counter wraps after 2^16
// txs. An entry tagged before the wrap must not look journaled to the tx
// that reuses its tag: keys tagged in the first txs are written again, and
// reverted, by the txs 2^16 - 1 and 2^16 later.
TEST(StorePropertyTest, JournalTagsSurviveCounterWrap) {
  constexpr int kEarly = 8;
  constexpr int kPeriods[] = {65'535, 65'536};
  chain::KvStore store;
  const auto key = [](int period, int tx) {
    return "wrap/" + std::to_string(period) + "/" + std::to_string(tx);
  };
  for (int tx = 0; tx < kEarly + 65'536; ++tx) {
    store.begin_tx();
    bool wrote = false;
    for (const int period : kPeriods) {
      if (tx < kEarly) {
        store.set(key(period, tx), util::to_bytes("kept"));
      } else if (tx >= period && tx - period < kEarly) {
        store.set(key(period, tx - period), util::to_bytes("reverted"));
        wrote = true;
      }
    }
    if (!wrote) {
      store.commit_tx();
      continue;
    }
    store.revert_tx();
    for (const int period : kPeriods) {
      for (int early = 0; early < kEarly; ++early) {
        ASSERT_EQ(store.get(key(period, early)), util::to_bytes("kept"))
            << "tx " << tx << " period " << period << " key " << early;
      }
    }
  }
}

TEST(StorePropertyTest, PrefixScanMatchesModel) {
  util::Rng rng(99);
  chain::KvStore store;
  std::map<std::string, util::Bytes> model;
  for (int i = 0; i < 200; ++i) {
    const std::string k = "p" + std::to_string(rng.next_below(4)) + "/" +
                          std::to_string(rng.next_below(50));
    store.set(k, {});
    model[k] = {};
  }
  for (int p = 0; p < 4; ++p) {
    const std::string prefix = "p" + std::to_string(p) + "/";
    const auto keys = store.keys_with_prefix(prefix);
    std::vector<std::string> expected;
    for (const auto& [k, v] : model) {
      if (k.compare(0, prefix.size(), prefix) == 0) expected.push_back(k);
    }
    EXPECT_EQ(keys, expected);
  }
}

/// Keys "<prefix><n>" whose index hashes agree in their low `bits` bits and
/// in their tag (the top 7 bits): in an index of up to 2^bits buckets they
/// share a home bucket, and a probe for one matches the tag of every other.
std::vector<std::string> same_home_and_tag(const std::string& prefix,
                                           unsigned bits, std::size_t want) {
  const auto signature = [bits](std::uint64_t h) {
    return static_cast<std::size_t>((h & ((1ull << bits) - 1)) |
                                    ((h >> 57) << bits));
  };
  std::vector<std::uint8_t> seen(std::size_t{1} << (bits + 7));
  for (std::uint64_t n = 0;; ++n) {
    const std::string key = prefix + std::to_string(n);
    const std::size_t sig = signature(chain::KvStore::hash_key(key));
    if (++seen[sig] < want) continue;
    std::vector<std::string> out;
    for (std::uint64_t m = 0; m <= n; ++m) {
      std::string k = prefix + std::to_string(m);
      if (signature(chain::KvStore::hash_key(k)) == sig) {
        out.push_back(std::move(k));
      }
    }
    return out;
  }
}

/// Keys sharing `key`'s low `bits` hash bits but not its tag.
std::vector<std::string> same_home_other_tag(const std::string& key,
                                             const std::string& prefix,
                                             unsigned bits, std::size_t want) {
  const std::uint64_t mask = (1ull << bits) - 1;
  const std::uint64_t h = chain::KvStore::hash_key(key);
  std::vector<std::string> out;
  for (std::uint64_t n = 0; out.size() < want; ++n) {
    std::string k = prefix + std::to_string(n);
    const std::uint64_t g = chain::KvStore::hash_key(k);
    if ((g & mask) == (h & mask) && (g >> 57) != (h >> 57)) {
      out.push_back(std::move(k));
    }
  }
  return out;
}

/// get() of each colliding key agrees with the model, present or absent.
void expect_keys_match_model(const chain::KvStore& store, const Model& model,
                             const std::vector<std::string>& keys,
                             const std::string& where) {
  for (const std::string& k : keys) {
    const auto it = model.find(k);
    const auto got = store.get(k);
    ASSERT_EQ(got.has_value(), it != model.end()) << where << " key " << k;
    if (got) {
      EXPECT_EQ(*got, it->second) << where << " key " << k;
    }
  }
}

// Keys whose probes collide in both the home bucket and the tag byte, so
// only the key compare tells them apart, mixed with keys that share the
// home bucket alone. Every get, set and erase must reach its own key,
// including after an erase from the middle of the cluster shifts later
// keys back, after the index grows and after a compaction rebuilds it.
// 12 bits of home bucket cover every index this test grows (at most 3,072
// live keys, so at most 4,096 buckets).
TEST(StorePropertyTest, TagCollisionsKeepKeysApart) {
  constexpr unsigned kBits = 12;
  const std::vector<std::string> twins = same_home_and_tag("t/", kBits, 6);
  ASSERT_EQ(twins.size(), 6u);
  const std::vector<std::string> cousins =
      same_home_other_tag(twins[0], "o/", kBits, 2);
  // twins[5] stays absent: its probes run the whole cluster and must miss.
  const std::vector<std::string> order = {twins[0], cousins[0], twins[1],
                                          twins[2], cousins[1], twins[3],
                                          twins[4]};
  std::vector<std::string> all = order;
  all.push_back(twins[5]);

  util::Rng rng(5150);
  chain::KvStore store;
  Model model, mirror;
  mirror_writes(store, mirror);
  const auto check = [&](const std::string& where) {
    expect_keys_match_model(store, model, all, where);
    expect_matches_model(store, model, 0);
    EXPECT_EQ(mirror, model) << where;
    EXPECT_EQ(store.root(), reference_root(model)) << where;
    const chain::StoreProof absent = store.prove(twins[5]);
    EXPECT_FALSE(absent.exists) << where;
  };

  for (const std::string& k : order) {
    model[k] = random_value(rng);
    store.set(k, model[k]);
  }
  check("inserted");
  for (const std::string& k : order) {
    model[k] = random_value(rng);
    store.set(k, model[k]);
  }
  check("overwritten");

  // Erase from the middle of the cluster: the later keys shift back.
  store.erase(twins[2]);
  model.erase(twins[2]);
  store.erase(twins[5]);  // absent: writes nothing
  check("erased mid-cluster");
  model[twins[2]] = random_value(rng);
  store.set(twins[2], model[twins[2]]);
  check("re-inserted");

  // Grow the index from 16 to 2,048 buckets past the cluster.
  for (int i = 0; i < 1'200; ++i) {
    const std::string k = "fill/" + std::to_string(i);
    model[k] = random_value(rng);
    store.set(k, model[k]);
  }
  check("grown");

  // Churn past the compaction threshold (4,096 dead entries) while the
  // cluster stays live; the rebuild recomputes every tag from the keys.
  for (int i = 0; i < 5'000; ++i) {
    const std::string k = "churn/" + std::to_string(i);
    store.set(k, util::to_bytes("x"));
    store.erase(k);
  }
  check("compacted");

  for (const std::string& k : order) {
    store.erase(k);
    model.erase(k);
    expect_keys_match_model(store, model, all, "drained " + k);
  }
  check("drained");
}

// The probe that finds a present key is insert_new's existence check, and
// update()'s "leave as is" outcome writes nothing: neither journals, calls
// the hook or moves the root, so a revert has nothing to restore.
TEST(StorePropertyTest, NoOpWritesLeaveNoTrace) {
  chain::KvStore store;
  store.set("a", util::to_bytes("1"));
  store.set("b", util::Bytes(48, 0x0b));
  const crypto::Digest root = store.root();
  int hooks = 0;
  store.set_write_hook([&hooks](std::string_view, auto, auto) { ++hooks; });

  for (const bool in_tx : {false, true}) {
    SCOPED_TRACE(in_tx ? "in a tx" : "outside a tx");
    if (in_tx) store.begin_tx();
    EXPECT_FALSE(store.insert_new("a", util::to_bytes("2")));
    EXPECT_FALSE(store.insert_new("b", util::to_bytes("2")));
    for (const char* key : {"a", "b", "absent"}) {
      store.update(key, [&](chain::KvStore::Slot& slot) {
        EXPECT_EQ(slot.value().has_value(), std::string_view(key) != "absent");
      });
    }
    store.update("absent", [](chain::KvStore::Slot& slot) { slot.erase(); });
    if (in_tx) store.revert_tx();  // a journal record would write here
    EXPECT_EQ(hooks, 0);
    EXPECT_EQ(store.root(), root);
    EXPECT_EQ(store.get("a"), util::to_bytes("1"));
    EXPECT_EQ(store.get("b"), util::Bytes(48, 0x0b));
    EXPECT_FALSE(store.contains("absent"));
    EXPECT_EQ(store.size(), 2u);
  }

  EXPECT_TRUE(store.insert_new("c", util::to_bytes("3")));
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(store.get("c"), util::to_bytes("3"));
}

/// One update() outcome, or the get-then-write sequence it replaces.
enum class Rmw { kSet, kErase, kKeep, kEraseThenSet, kSetThenErase };

void apply_update(chain::KvStore& store, const std::string& key, Rmw op,
                  const util::Bytes& v) {
  store.update(key, [&](chain::KvStore::Slot& slot) {
    switch (op) {
      case Rmw::kSet: slot.set(v); break;
      case Rmw::kErase: slot.erase(); break;
      case Rmw::kKeep: break;
      case Rmw::kEraseThenSet: slot.erase(); slot.set(v); break;
      case Rmw::kSetThenErase: slot.set(v); slot.erase(); break;
    }
  });
}

void apply_get_then_write(chain::KvStore& store, const std::string& key,
                          Rmw op, const util::Bytes& v) {
  (void)store.get_view(key);
  switch (op) {
    case Rmw::kSet: store.set(key, v); break;
    case Rmw::kErase: store.erase(key); break;
    case Rmw::kKeep: break;
    case Rmw::kEraseThenSet: store.erase(key); store.set(key, v); break;
    case Rmw::kSetThenErase: store.set(key, v); store.erase(key); break;
  }
}

using HookLog = std::vector<std::tuple<std::string, std::optional<util::Bytes>,
                                       std::optional<util::Bytes>>>;

void log_writes(chain::KvStore& store, HookLog& log) {
  const auto copy = [](std::optional<util::BytesView> v) {
    return v ? std::optional<util::Bytes>(util::Bytes(v->begin(), v->end()))
             : std::nullopt;
  };
  store.set_write_hook([&log, copy](std::string_view key,
                                    std::optional<util::BytesView> before,
                                    std::optional<util::BytesView> after) {
    log.emplace_back(std::string(key), copy(before), copy(after));
  });
}

// Every update() outcome, on a present and an absent key, inside and
// outside a tx: the hook sees the (key, before, after) that the get and
// set/erase it replaces shows it, the contents and root agree, and a revert
// restores the exact state and root.
TEST(StorePropertyTest, UpdateMatchesGetThenWrite) {
  const Model initial = {{"k/inline", util::to_bytes("v")},
                         {"k/spill", util::Bytes(40, 0x44)},
                         {"k/other", util::to_bytes("o")}};
  const util::Bytes v = util::to_bytes("new");
  for (const Rmw op : {Rmw::kSet, Rmw::kErase, Rmw::kKeep, Rmw::kEraseThenSet,
                       Rmw::kSetThenErase}) {
    for (const std::string key : {"k/inline", "k/spill", "k/absent"}) {
      for (const bool revert : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "op " << static_cast<int>(op)
                                          << " key " << key
                                          << " revert " << revert);
        chain::KvStore a, b;
        for (const auto& [k, val] : initial) {
          a.set(k, val);
          b.set(k, val);
        }
        const crypto::Digest before = a.root();
        HookLog log_a, log_b;
        log_writes(a, log_a);
        log_writes(b, log_b);
        a.begin_tx();
        b.begin_tx();
        apply_update(a, key, op, v);
        apply_get_then_write(b, key, op, v);
        EXPECT_EQ(log_a, log_b);
        EXPECT_EQ(a.get(key), b.get(key));
        EXPECT_EQ(a.size(), b.size());
        EXPECT_EQ(a.root(), b.root());
        if (!revert) {
          a.commit_tx();
          b.commit_tx();
          continue;
        }
        a.revert_tx();
        b.revert_tx();
        EXPECT_EQ(log_a, log_b);  // the restoring writes too
        expect_matches_model(a, initial, 0);
        EXPECT_FALSE(a.contains("k/absent"));
        EXPECT_EQ(a.root(), before);
        expect_root_matches_model(a, initial, key, 0);
      }
    }
  }
}

}  // namespace
