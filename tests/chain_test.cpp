// Tests for the chain substrate: tx codec, events, blocks (Fig. 1
// structure), validator sets, the journaled KV store, mempool and ledger.

#include <gtest/gtest.h>

#include "chain/block.hpp"
#include "chain/ledger.hpp"
#include "chain/mempool.hpp"
#include "chain/store.hpp"
#include "chain/tx.hpp"
#include "chain/validator.hpp"
#include "crypto/merkle.hpp"
#include "util/rng.hpp"

namespace {

chain::Tx make_tx(const std::string& sender, std::uint64_t seq,
                  std::size_t msgs = 1) {
  chain::Tx tx;
  tx.sender = sender;
  tx.sequence = seq;
  tx.gas_limit = 100'000;
  tx.fee = 1'000;
  for (std::size_t i = 0; i < msgs; ++i) {
    tx.msgs.push_back(chain::Msg{"/test.Msg", util::to_bytes("payload")});
  }
  return tx;
}

chain::TxPtr sealed_tx(const std::string& sender, std::uint64_t seq,
                       std::size_t msgs = 1) {
  return chain::seal(make_tx(sender, seq, msgs));
}

/// A tx with random fields, 0-4 msgs of random sizes and a random memo.
chain::Tx random_tx(util::Rng& rng) {
  const auto random_string = [&rng](std::size_t max_len) {
    std::string s(rng.next_below(max_len + 1), '\0');
    for (char& c : s) c = static_cast<char>(rng.next_below(256));
    return s;
  };
  chain::Tx tx;
  tx.sender = random_string(24);
  tx.sequence = rng.next_u64();
  tx.gas_limit = rng.next_u64();
  tx.fee = rng.next_u64();
  for (std::uint64_t i = rng.next_below(5); i > 0; --i) {
    tx.msgs.push_back(
        chain::Msg{random_string(40), util::to_bytes(random_string(300))});
  }
  tx.memo = random_string(16);
  return tx;
}

TEST(TxTest, EncodeDecodeRoundTrip) {
  chain::Tx tx = make_tx("alice", 7, 3);
  tx.memo = "hello";
  chain::Tx decoded;
  ASSERT_TRUE(chain::decode_tx(tx.encode(), decoded));
  EXPECT_EQ(decoded.sender, "alice");
  EXPECT_EQ(decoded.sequence, 7u);
  EXPECT_EQ(decoded.gas_limit, 100'000u);
  EXPECT_EQ(decoded.fee, 1'000u);
  EXPECT_EQ(decoded.msgs.size(), 3u);
  EXPECT_EQ(decoded.msgs[0].type_url, "/test.Msg");
  EXPECT_EQ(decoded.memo, "hello");
  EXPECT_EQ(decoded.encode(), tx.encode());
}

TEST(TxTest, HashChangesWithContent) {
  EXPECT_NE(sealed_tx("alice", 1)->hash(), sealed_tx("alice", 2)->hash());
}

TEST(TxTest, SealedDigestsAreThoseOfTheEncoding) {
  util::Rng rng(0x5ea1);
  for (int i = 0; i < 200; ++i) {
    const chain::Tx tx = random_tx(rng);
    const chain::TxPtr sealed = chain::seal(tx);
    EXPECT_EQ(sealed->encode(), tx.encode());
    EXPECT_EQ(sealed->hash(), crypto::sha256(tx.encode())) << "tx " << i;
    EXPECT_EQ(sealed->leaf(), crypto::leaf_hash(tx.encode())) << "tx " << i;
  }
}

TEST(TxTest, DecodeRejectsTruncated) {
  const util::Bytes enc = make_tx("a", 0).encode();
  for (std::size_t cut : {1u, 5u, 10u}) {
    if (cut >= enc.size()) continue;
    chain::Tx out;
    EXPECT_FALSE(chain::decode_tx(
        util::BytesView(enc.data(), enc.size() - cut), out));
  }
}

TEST(TxTest, DecodeRejectsTrailingGarbage) {
  util::Bytes enc = make_tx("a", 0).encode();
  enc.push_back(0xff);
  chain::Tx out;
  EXPECT_FALSE(chain::decode_tx(enc, out));
}

TEST(EventTest, AttributeLookup) {
  chain::Event ev{"send_packet",
                  {{"packet_sequence", "7"}, {"packet_src_port", "transfer"}}};
  EXPECT_EQ(ev.attribute("packet_sequence"), "7");
  EXPECT_EQ(ev.attribute("missing"), "");
}

TEST(EventTest, EncodedSizeGrowsWithAttributes) {
  chain::Event small{"t", {{"k", "v"}}};
  chain::Event big{"t", {{"k", std::string(1000, 'x')}}};
  EXPECT_GT(big.encoded_size(), small.encoded_size() + 900);
  EXPECT_GT(chain::encoded_size({small, big}),
            small.encoded_size() + big.encoded_size());
}

TEST(ValidatorSetTest, MakeAssignsMachinesRoundRobin) {
  const auto set = chain::ValidatorSet::make("src", 5, 5);
  ASSERT_EQ(set.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(set.at(i).machine, static_cast<int>(i));
    EXPECT_EQ(set.at(i).power, 1);
  }
  EXPECT_EQ(set.total_power(), 5);
}

TEST(ValidatorSetTest, QuorumIsTwoThirdsPlusOne) {
  EXPECT_EQ(chain::ValidatorSet::make("x", 5, 5).quorum_power(), 4);
  EXPECT_EQ(chain::ValidatorSet::make("x", 4, 4).quorum_power(), 3);
  EXPECT_EQ(chain::ValidatorSet::make("x", 7, 5).quorum_power(), 5);
}

TEST(ValidatorSetTest, ProposerRotates) {
  const auto set = chain::ValidatorSet::make("x", 5, 5);
  EXPECT_EQ(set.proposer_index(1, 0), 1u);
  EXPECT_EQ(set.proposer_index(2, 0), 2u);
  EXPECT_EQ(set.proposer_index(5, 0), 0u);
  // A failed round moves to the next proposer.
  EXPECT_EQ(set.proposer_index(1, 1), 2u);
}

TEST(ValidatorSetTest, IndexOfAndHash) {
  const auto set = chain::ValidatorSet::make("x", 3, 5);
  EXPECT_EQ(set.index_of(set.at(2).keys.pub), 2u);
  crypto::PublicKey unknown;
  EXPECT_EQ(set.index_of(unknown), set.size());
  EXPECT_NE(set.hash(), chain::ValidatorSet::make("y", 3, 5).hash());
}

TEST(BlockTest, HeaderHashCoversFields) {
  chain::BlockHeader h;
  h.chain_id = "test";
  h.height = 5;
  h.time = sim::seconds(10);
  const crypto::Digest base = h.hash();
  h.height = 6;
  EXPECT_NE(h.hash(), base);
  h.height = 5;
  EXPECT_EQ(h.hash(), base);
  h.app_hash[0] ^= 1;
  EXPECT_NE(h.hash(), base);
}

TEST(BlockTest, DataHashIsMerkleRootOfTxs) {
  // The root over the leaves the txs were sealed with must equal the root
  // over fresh encodings, for every tree shape (odd levels promote a node).
  util::Rng rng(0xda7a);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 129u}) {
    chain::Block block;
    std::vector<util::Bytes> leaves;
    for (std::size_t i = 0; i < n; ++i) {
      const chain::Tx tx = random_tx(rng);
      leaves.push_back(tx.encode());
      block.txs.push_back(chain::seal(tx));
    }
    EXPECT_EQ(block.compute_data_hash(), crypto::merkle_root(leaves))
        << n << " txs";
  }
}

TEST(BlockTest, CommittedPowerCountsOnlyCommitVotes) {
  const auto set = chain::ValidatorSet::make("x", 5, 5);
  chain::Commit commit;
  commit.height = 1;
  for (std::size_t i = 0; i < set.size(); ++i) {
    chain::CommitSig sig;
    sig.validator = set.at(i).keys.pub;
    sig.flag = i < 3 ? chain::BlockIdFlag::kCommit : chain::BlockIdFlag::kAbsent;
    commit.signatures.push_back(sig);
  }
  EXPECT_EQ(commit.committed_power(set), 3);
}

TEST(BlockTest, SizeGrowsWithTxs) {
  chain::Block small;
  chain::Block big;
  for (int i = 0; i < 100; ++i) big.txs.push_back(sealed_tx("u", 0, 10));
  EXPECT_GT(big.size_bytes(), small.size_bytes() + 10'000);
}

// --- KvStore ----------------------------------------------------------------

TEST(KvStoreTest, SetGetEraseContains) {
  chain::KvStore store;
  EXPECT_FALSE(store.contains("k"));
  store.set("k", util::to_bytes("v"));
  EXPECT_TRUE(store.contains("k"));
  EXPECT_EQ(util::to_string(*store.get("k")), "v");
  store.erase("k");
  EXPECT_FALSE(store.get("k").has_value());
}

TEST(KvStoreTest, RootIsOrderIndependent) {
  chain::KvStore a, b;
  a.set("x", util::to_bytes("1"));
  a.set("y", util::to_bytes("2"));
  b.set("y", util::to_bytes("2"));
  b.set("x", util::to_bytes("1"));
  EXPECT_EQ(a.root(), b.root());
}

TEST(KvStoreTest, RootReturnsAfterDeleteAndRestore) {
  chain::KvStore store;
  const crypto::Digest empty_root = store.root();
  store.set("k", util::to_bytes("v"));
  const crypto::Digest with_k = store.root();
  EXPECT_NE(with_k, empty_root);
  store.erase("k");
  EXPECT_EQ(store.root(), empty_root);
  store.set("k", util::to_bytes("v"));
  EXPECT_EQ(store.root(), with_k);
}

TEST(KvStoreTest, OverwriteUpdatesRoot) {
  chain::KvStore store;
  store.set("k", util::to_bytes("v1"));
  const crypto::Digest r1 = store.root();
  store.set("k", util::to_bytes("v2"));
  EXPECT_NE(store.root(), r1);
  store.set("k", util::to_bytes("v1"));
  EXPECT_EQ(store.root(), r1);
}

TEST(KvStoreTest, PrefixScan) {
  chain::KvStore store;
  store.set("a/1", {});
  store.set("a/2", {});
  store.set("b/1", {});
  store.set("a!", {});  // '!' < '/' — outside the "a/" prefix
  const auto keys = store.keys_with_prefix("a/");
  EXPECT_EQ(keys, (std::vector<std::string>{"a/1", "a/2"}));
}

TEST(KvStoreTest, ProofsVerifyExistenceAndAbsence) {
  chain::KvStore store;
  store.set("present", util::to_bytes("data"));
  const chain::StoreProof exist = store.prove("present");
  EXPECT_TRUE(exist.exists);
  EXPECT_TRUE(chain::verify_store_proof(exist, store.root()));

  const chain::StoreProof absent = store.prove("missing");
  EXPECT_FALSE(absent.exists);
  EXPECT_TRUE(chain::verify_store_proof(absent, store.root()));
}

TEST(KvStoreTest, ProofFailsAgainstDifferentRoot) {
  chain::KvStore store;
  store.set("k", util::to_bytes("v"));
  const chain::StoreProof proof = store.prove("k");
  store.set("other", util::to_bytes("x"));  // root moved on
  EXPECT_FALSE(chain::verify_store_proof(proof, store.root()));
}

TEST(KvStoreTest, TamperedProofBindingFails) {
  chain::KvStore store;
  store.set("k", util::to_bytes("v"));
  chain::StoreProof proof = store.prove("k");
  proof.value = util::to_bytes("forged");
  EXPECT_FALSE(chain::verify_store_proof(proof, store.root()));
}

TEST(KvStoreTest, JournalRevertRestoresExactState) {
  chain::KvStore store;
  store.set("stay", util::to_bytes("1"));
  store.set("change", util::to_bytes("old"));
  const crypto::Digest before = store.root();

  store.begin_tx();
  store.set("change", util::to_bytes("new"));
  store.set("added", util::to_bytes("x"));
  store.erase("stay");
  store.revert_tx();

  EXPECT_EQ(store.root(), before);
  EXPECT_EQ(util::to_string(*store.get("change")), "old");
  EXPECT_EQ(util::to_string(*store.get("stay")), "1");
  EXPECT_FALSE(store.contains("added"));
}

TEST(KvStoreTest, JournalCommitKeepsWrites) {
  chain::KvStore store;
  store.begin_tx();
  store.set("k", util::to_bytes("v"));
  store.commit_tx();
  EXPECT_TRUE(store.contains("k"));
}

TEST(KvStoreTest, JournalHandlesRepeatedWritesToSameKey) {
  chain::KvStore store;
  store.set("k", util::to_bytes("orig"));
  const crypto::Digest before = store.root();
  store.begin_tx();
  store.set("k", util::to_bytes("a"));
  store.set("k", util::to_bytes("b"));
  store.erase("k");
  store.set("k", util::to_bytes("c"));
  store.revert_tx();
  EXPECT_EQ(util::to_string(*store.get("k")), "orig");
  EXPECT_EQ(store.root(), before);
}

// --- Mempool -------------------------------------------------------------------

// Minimal app for mempool tests: accepts txs whose sequence matches a
// per-sender counter (committed on update_after_commit).
class CountingApp : public chain::App {
 public:
  chain::CheckTxResult check_tx(const chain::Tx& tx) override {
    return check_tx_pending(tx, 0);
  }
  chain::CheckTxResult check_tx_pending(
      const chain::Tx& tx, std::uint64_t pending_same_sender) override {
    chain::CheckTxResult res;
    const std::uint64_t expected = committed_seq_[tx.sender] + pending_same_sender;
    if (tx.sequence != expected) {
      res.status = util::Status::error(util::ErrorCode::kSequenceMismatch,
                                       "account sequence mismatch");
    }
    res.gas_wanted = tx.gas_limit;
    return res;
  }
  void begin_block(const chain::BlockHeader&) override {}
  chain::DeliverTxResult deliver_tx(const chain::Tx& tx) override {
    ++committed_seq_[tx.sender];
    return {};
  }
  std::vector<chain::Event> end_block(chain::Height) override { return {}; }
  crypto::Digest commit() override { return {}; }

  void mark_committed(const chain::Tx& tx) { ++committed_seq_[tx.sender]; }

 private:
  std::map<chain::Address, std::uint64_t> committed_seq_;
};

TEST(MempoolTest, AdmitsConsecutiveSequencesFromOneSender) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  EXPECT_TRUE(pool.add(sealed_tx("alice", 0)).is_ok());
  EXPECT_TRUE(pool.add(sealed_tx("alice", 1)).is_ok());
  EXPECT_TRUE(pool.add(sealed_tx("alice", 2)).is_ok());
  EXPECT_EQ(pool.size(), 3u);
}

TEST(MempoolTest, RejectsSequenceGap) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  EXPECT_TRUE(pool.add(sealed_tx("alice", 0)).is_ok());
  const auto status = pool.add(sealed_tx("alice", 5));
  EXPECT_EQ(status.code(), util::ErrorCode::kSequenceMismatch);
}

TEST(MempoolTest, RejectsDuplicates) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  EXPECT_TRUE(pool.add(sealed_tx("bob", 0)).is_ok());
  // A second seal of the same content is the same tx.
  EXPECT_EQ(pool.add(sealed_tx("bob", 0)).code(),
            util::ErrorCode::kAlreadyExists);
}

TEST(MempoolTest, RejectsWhenFull) {
  CountingApp app;
  chain::Mempool pool(app, 2);
  EXPECT_TRUE(pool.add(sealed_tx("a", 0)).is_ok());
  EXPECT_TRUE(pool.add(sealed_tx("b", 0)).is_ok());
  EXPECT_EQ(pool.add(sealed_tx("c", 0)).code(),
            util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(pool.rejected_full(), 1u);
}

TEST(MempoolTest, ReapRespectsGasBudget) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.add(sealed_tx("u" + std::to_string(i), 0)).is_ok());
  }
  // Each tx wants 100k gas; budget of 250k fits two.
  const auto reaped = pool.reap(250'000, 1 << 20);
  EXPECT_EQ(reaped.size(), 2u);
  // Reap does not remove.
  EXPECT_EQ(pool.size(), 10u);
}

TEST(MempoolTest, ReapRespectsByteBudget) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.add(sealed_tx("u" + std::to_string(i), 0, 50)).is_ok());
  }
  const std::size_t one_tx = make_tx("u0", 0, 50).size_bytes();
  const auto reaped = pool.reap(1'000'000'000, one_tx * 3 + 10);
  EXPECT_EQ(reaped.size(), 3u);
}

TEST(MempoolTest, UpdateAfterCommitRemovesAndRechecks) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  const chain::TxPtr t0 = sealed_tx("alice", 0);
  const chain::TxPtr t1 = sealed_tx("alice", 1);
  ASSERT_TRUE(pool.add(t0).is_ok());
  ASSERT_TRUE(pool.add(t1).is_ok());

  app.mark_committed(*t0);  // block executed t0
  pool.update_after_commit({t0});
  // t1 survives: its sequence (1) now matches the committed counter.
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(t1->hash()));
}

TEST(MempoolTest, RecheckEvictsStaleSequences) {
  CountingApp app;
  chain::Mempool pool(app, 100);
  const chain::TxPtr stale = sealed_tx("alice", 0);
  ASSERT_TRUE(pool.add(stale).is_ok());
  // A competing tx with the same sequence committed out-of-band.
  app.mark_committed(*stale);
  pool.update_after_commit({});
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.evicted_recheck(), 1u);
}

// The pool shards by sender internally; reap must still return the exact
// global admission order (k-way merge by admission ticket), interleaved
// across many senders that land in different shards.
TEST(MempoolTest, ReapPreservesGlobalFifoAcrossShards) {
  CountingApp app;
  chain::Mempool pool(app, 1'000);
  std::vector<chain::TxHash> admitted;
  std::map<std::string, std::uint64_t> next_seq;
  // 100 admissions over 37 senders, round-robined so adjacent admissions
  // land in different shards.
  for (int i = 0; i < 100; ++i) {
    const std::string sender = "sender-" + std::to_string(i % 37);
    const chain::TxPtr tx = sealed_tx(sender, next_seq[sender]++);
    admitted.push_back(tx->hash());
    ASSERT_TRUE(pool.add(tx).is_ok());
  }
  const auto reaped = pool.reap(1'000'000'000'000ULL, 1 << 30);
  ASSERT_EQ(reaped.size(), admitted.size());
  for (std::size_t i = 0; i < reaped.size(); ++i) {
    EXPECT_EQ(reaped[i]->hash(), admitted[i]) << "position " << i;
  }
}

// Pending-per-sender accounting must span shards and survive commits: a
// sender's later txs stay admissible exactly when the earlier ones are
// still pending or already committed.
TEST(MempoolTest, PendingCountsSurviveInterleavedCommits) {
  CountingApp app;
  chain::Mempool pool(app, 1'000);
  std::vector<chain::TxPtr> alices;
  for (std::uint64_t s = 0; s < 5; ++s) {
    alices.push_back(sealed_tx("alice", s));
    ASSERT_TRUE(pool.add(alices.back()).is_ok());
    ASSERT_TRUE(pool.add(sealed_tx("other-" + std::to_string(s), 0)).is_ok());
  }
  // Commit alice's first two txs (plus one bystander) in one block.
  app.mark_committed(*alices[0]);
  app.mark_committed(*alices[1]);
  app.mark_committed(make_tx("other-0", 0));
  pool.update_after_commit({alices[0], alices[1], sealed_tx("other-0", 0)});
  EXPECT_EQ(pool.size(), 7u);
  EXPECT_FALSE(pool.contains(alices[0]->hash()));
  EXPECT_TRUE(pool.contains(alices[2]->hash()));
  // The next sequence for alice is 5: 2 committed + 3 pending.
  EXPECT_TRUE(pool.add(sealed_tx("alice", 5)).is_ok());
  EXPECT_EQ(pool.add(sealed_tx("alice", 7)).code(),
            util::ErrorCode::kSequenceMismatch);
}

// Recheck runs per shard and all of a sender's txs live in one shard, so
// a stale head evicts while the still-consecutive suffix re-anchors.
TEST(MempoolTest, RecheckEvictsStaleHeadKeepsConsecutiveSuffix) {
  CountingApp app;
  chain::Mempool pool(app, 1'000);
  for (std::uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(pool.add(sealed_tx("bob", s)).is_ok());
  }
  ASSERT_TRUE(pool.add(sealed_tx("carol", 0)).is_ok());
  // Someone else consumed bob's sequence 0 (e.g. a competing node's block).
  app.mark_committed(make_tx("bob", 0));
  pool.update_after_commit({});
  // bob@0 is stale; bob@1..3 re-anchor on the committed counter (1): the
  // recheck keeps exactly the still-consecutive suffix.
  EXPECT_EQ(pool.evicted_recheck(), 1u);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_TRUE(pool.contains(sealed_tx("carol", 0)->hash()));
}

// --- Ledger -----------------------------------------------------------------------

TEST(LedgerTest, AppendAndLookup) {
  chain::Ledger ledger("test-chain");
  chain::Block block;
  block.header.chain_id = "test-chain";
  block.header.height = 1;
  block.header.time = sim::seconds(5);
  block.txs = {sealed_tx("a", 0)};
  const chain::TxHash hash = block.txs[0]->hash();
  std::vector<chain::DeliverTxResult> results(1);
  ledger.append(std::move(block), std::move(results), crypto::Digest{},
                chain::Commit{});

  EXPECT_EQ(ledger.height(), 1);
  ASSERT_NE(ledger.block_at(1), nullptr);
  EXPECT_EQ(ledger.block_at(2), nullptr);
  EXPECT_EQ(ledger.block_at(0), nullptr);
  const chain::TxLocation* loc = ledger.find_tx(hash);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->height, 1);
  EXPECT_EQ(loc->index, 0u);
  EXPECT_EQ(ledger.total_txs(), 1u);
}

TEST(LedgerTest, EventBytesCached) {
  chain::Ledger ledger("c");
  chain::Block block;
  block.header.height = 1;
  block.txs = {sealed_tx("a", 0)};
  chain::DeliverTxResult res;
  res.events.push_back(chain::Event{"e", {{"k", std::string(500, 'x')}}});
  const std::size_t expected = res.encoded_size();
  ledger.append(std::move(block), {res}, crypto::Digest{}, chain::Commit{});
  EXPECT_EQ(ledger.block_event_bytes(1), expected);
  EXPECT_EQ(ledger.block_event_bytes(2), 0u);
}

TEST(LedgerTest, BlockIntervals) {
  chain::Ledger ledger("c");
  for (int i = 1; i <= 3; ++i) {
    chain::Block b;
    b.header.height = i;
    b.header.time = sim::seconds(5.0 * i);
    ledger.append(std::move(b), {}, crypto::Digest{}, chain::Commit{});
  }
  const auto intervals = ledger.block_intervals_seconds();
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0], 5.0);
  EXPECT_DOUBLE_EQ(intervals[1], 5.0);
}

}  // namespace
