// Unit + property tests for the crypto substrate: SHA-256 (FIPS vectors,
// on both the portable and the SHA-NI kernels wherever the host has them),
// Merkle trees with proofs, and the simulation signature scheme.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/signature.hpp"
#include "util/rng.hpp"

namespace {

TEST(Sha256Test, EmptyInputVector) {
  EXPECT_EQ(crypto::digest_hex(crypto::sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(util::to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(util::to_bytes(msg))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  util::Bytes data(1'000'000, 'a');
  EXPECT_EQ(crypto::digest_hex(crypto::sha256(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  crypto::Sha256 h;
  // Feed in awkward chunk sizes to cross block boundaries.
  const util::Bytes bytes = util::to_bytes(msg);
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 3u, 7u, 13u, 64u}) {
    const std::size_t take = std::min(chunk, bytes.size() - off);
    h.update(util::BytesView(bytes.data() + off, take));
    off += take;
    if (off == bytes.size()) break;
  }
  if (off < bytes.size()) {
    h.update(util::BytesView(bytes.data() + off, bytes.size() - off));
  }
  EXPECT_EQ(h.finalize(), crypto::sha256(bytes));
}

// Every length around the block/padding boundaries (0..130 covers one-block,
// exactly-one-block, padding-overflow and two-block cases) must agree
// between the one-shot path and byte-at-a-time incremental hashing.
TEST(Sha256Test, AllSmallLengthsIncrementalAndOneShotAgree) {
  util::Bytes data(130);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  crypto::Sha256 h;  // deliberately reused across all lengths
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const crypto::Digest expect =
        crypto::sha256(util::BytesView(data.data(), len));
    for (std::size_t i = 0; i < len; ++i) {
      h.update(util::BytesView(data.data() + i, 1));
    }
    EXPECT_EQ(h.finalize(), expect) << "len " << len;
  }
}

// finalize() must fully reset the hasher: reuse without an explicit reset()
// produces the same digest as a fresh object (the wallet/store hot paths
// rely on this).
TEST(Sha256Test, ReuseAfterFinalizeEqualsFresh) {
  const util::Bytes a = util::to_bytes("first message");
  const util::Bytes b = util::to_bytes("second, longer message: " +
                                       std::string(100, 'z'));
  crypto::Sha256 reused;
  reused.update(a);
  const crypto::Digest first = reused.finalize();
  reused.update(b);
  const crypto::Digest second = reused.finalize();

  crypto::Sha256 fresh_a;
  fresh_a.update(a);
  EXPECT_EQ(first, fresh_a.finalize());
  crypto::Sha256 fresh_b;
  fresh_b.update(b);
  EXPECT_EQ(second, fresh_b.finalize());

  // An explicit reset mid-stream discards buffered input.
  reused.update(a);
  reused.reset();
  reused.update(b);
  EXPECT_EQ(reused.finalize(), crypto::sha256(b));
}

TEST(Sha256Test, DigestHexRoundTrip) {
  const crypto::Digest d = crypto::sha256(util::to_bytes("abc"));
  const std::string hex = crypto::digest_hex(d);
  ASSERT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

TEST(Sha256Test, ShortHexIsPrefix) {
  const crypto::Digest d = crypto::sha256(util::to_bytes("x"));
  EXPECT_EQ(crypto::digest_short_hex(d), crypto::digest_hex(d).substr(0, 16));
}

// The kernel sets to test: the portable one always, SHA-NI where the host
// has it (the process-wide dispatch runs only one of them).
std::vector<const crypto::detail::Kernel*> kernels() {
  std::vector<const crypto::detail::Kernel*> out{
      &crypto::detail::kPortableKernel};
  if (const crypto::detail::Kernel* k = crypto::detail::shani_kernel()) {
    out.push_back(k);
  }
  return out;
}

// SHA-256 of `msg` through one kernel's compression loop.
crypto::Digest hash_with(const crypto::detail::Kernel& kernel,
                         util::BytesView msg) {
  std::vector<std::uint8_t> blocks(crypto::padded_blocks(msg.size()) * 64);
  std::copy(msg.begin(), msg.end(), blocks.begin());
  crypto::pad_message(blocks.data(), msg.size());
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel.compress(state, blocks.data(), blocks.size() / 64);
  return crypto::detail::extract_digest(state);
}

TEST(Sha256Kernels, FipsVectorsOnEveryKernel) {
  const std::string two_block =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const struct {
    util::Bytes msg;
    const char* hex;
  } vectors[] = {
      {{},
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {util::to_bytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {util::to_bytes(two_block),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {util::Bytes(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const crypto::detail::Kernel* kernel : kernels()) {
    for (const auto& v : vectors) {
      EXPECT_EQ(crypto::digest_hex(hash_with(*kernel, v.msg)), v.hex)
          << v.msg.size() << " bytes";
      // The batch kernel takes messages of up to two padded blocks.
      const std::size_t nblocks = crypto::padded_blocks(v.msg.size());
      if (nblocks > 2) continue;
      std::vector<std::uint8_t> blocks(nblocks * 64);
      std::copy(v.msg.begin(), v.msg.end(), blocks.begin());
      crypto::pad_message(blocks.data(), v.msg.size());
      crypto::Digest out{};
      kernel->hash_padded(blocks.data(), 1, nblocks, &out);
      EXPECT_EQ(crypto::digest_hex(out), v.hex) << v.msg.size() << " bytes";
    }
  }
}

// Every message length a one- or two-block batch takes (0..119), in batches
// of 1 to 5 messages (so the four-lane kernel runs full groups and
// remainders), on each kernel and through the dispatched sha256_padded:
// each digest must be the streaming hasher's.
TEST(Sha256Kernels, PaddedBatchesMatchStreamingHasher) {
  crypto::Sha256 streaming;
  for (std::size_t len = 0; len <= 119; ++len) {
    const std::size_t nblocks = crypto::padded_blocks(len);
    ASSERT_EQ(nblocks, len <= 55 ? 1u : 2u) << len;
    for (std::size_t n = 1; n <= 5; ++n) {
      std::vector<std::uint8_t> blocks(n * nblocks * 64, 0xee);
      std::vector<crypto::Digest> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t* msg = blocks.data() + i * nblocks * 64;
        for (std::size_t b = 0; b < len; ++b) {
          msg[b] = static_cast<std::uint8_t>(b * 31 + i * 7 + len);
        }
        streaming.update(msg, len);
        expected[i] = streaming.finalize();
        crypto::pad_message(msg, len);
      }
      for (const crypto::detail::Kernel* kernel : kernels()) {
        std::vector<crypto::Digest> got(n);
        kernel->hash_padded(blocks.data(), n, nblocks, got.data());
        EXPECT_EQ(got, expected) << "len " << len << ", " << n << " lanes";
      }
      std::vector<crypto::Digest> got(n);
      crypto::sha256_padded(blocks.data(), n, nblocks, got.data());
      EXPECT_EQ(got, expected) << "len " << len << ", " << n << " lanes";
    }
  }
}

// Both compression loops agree with each other across block counts and
// with the dispatched one-shot hash.
TEST(Sha256Kernels, CompressLoopsAgreeAcrossLengths) {
  util::Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const util::BytesView msg(data.data(), len);
    const crypto::Digest expect = crypto::sha256(msg);
    for (const crypto::detail::Kernel* kernel : kernels()) {
      EXPECT_EQ(hash_with(*kernel, msg), expect) << "len " << len;
    }
  }
}

TEST(MerkleTest, EmptyTreeRootIsEmptyHash) {
  EXPECT_EQ(crypto::merkle_root({}), crypto::sha256({}));
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  const util::Bytes leaf = util::to_bytes("tx0");
  EXPECT_EQ(crypto::merkle_root({leaf}), crypto::leaf_hash(leaf));
}

TEST(MerkleTest, LeafAndInnerHashesAreDomainSeparated) {
  // A leaf containing what looks like two child hashes must not collide with
  // the inner node of those children.
  const crypto::Digest a = crypto::leaf_hash(util::to_bytes("a"));
  const crypto::Digest b = crypto::leaf_hash(util::to_bytes("b"));
  util::Bytes fake_leaf;
  util::append(fake_leaf, util::BytesView(a.data(), a.size()));
  util::append(fake_leaf, util::BytesView(b.data(), b.size()));
  EXPECT_NE(crypto::leaf_hash(fake_leaf), crypto::inner_hash(a, b));
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(util::to_bytes("tx" + std::to_string(i)));
  const crypto::Digest root = crypto::merkle_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i] = util::to_bytes("evil");
    EXPECT_NE(crypto::merkle_root(mutated), root) << "leaf " << i;
  }
}

// Property: proofs verify for every leaf of trees of many sizes, including
// non-powers of two (unpaired node promotion).
class MerkleProofProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofProperty, AllLeavesProveAndVerify) {
  const std::size_t n = GetParam();
  std::vector<util::Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(util::to_bytes("leaf-" + std::to_string(i)));
  }
  const crypto::Digest root = crypto::merkle_root(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::MerkleProof proof = crypto::merkle_prove(leaves, i);
    EXPECT_TRUE(crypto::merkle_verify(root, leaves[i], proof)) << "leaf " << i;
    // Wrong leaf data must fail.
    EXPECT_FALSE(crypto::merkle_verify(root, util::to_bytes("tampered"), proof));
  }
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MerkleProofProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                           17, 31, 33, 100, 127, 128, 129));

TEST(MerkleTest, ProofForWrongIndexFails) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < 10; ++i) leaves.push_back(util::to_bytes(std::to_string(i)));
  const crypto::Digest root = crypto::merkle_root(leaves);
  crypto::MerkleProof proof = crypto::merkle_prove(leaves, 3);
  proof.leaf_index = 4;  // claim a different position
  EXPECT_FALSE(crypto::merkle_verify(root, leaves[3], proof));
}

TEST(MerkleTest, ProofAgainstWrongRootFails) {
  std::vector<util::Bytes> leaves = {util::to_bytes("a"), util::to_bytes("b")};
  const crypto::MerkleProof proof = crypto::merkle_prove(leaves, 0);
  const crypto::Digest other_root = crypto::sha256(util::to_bytes("other"));
  EXPECT_FALSE(crypto::merkle_verify(other_root, leaves[0], proof));
}

TEST(MerkleTest, TruncatedProofFails) {
  std::vector<util::Bytes> leaves;
  for (int i = 0; i < 8; ++i) leaves.push_back(util::to_bytes(std::to_string(i)));
  const crypto::Digest root = crypto::merkle_root(leaves);
  crypto::MerkleProof proof = crypto::merkle_prove(leaves, 2);
  proof.path.pop_back();
  EXPECT_FALSE(crypto::merkle_verify(root, leaves[2], proof));
}

TEST(SignatureTest, DeterministicDerivation) {
  const crypto::KeyPair a = crypto::derive_key_pair("validator-0");
  const crypto::KeyPair b = crypto::derive_key_pair("validator-0");
  EXPECT_EQ(a.pub, b.pub);
  EXPECT_EQ(a.priv, b.priv);
}

TEST(SignatureTest, DistinctSeedsDistinctKeys) {
  EXPECT_NE(crypto::derive_key_pair("v0").pub, crypto::derive_key_pair("v1").pub);
}

TEST(SignatureTest, SignVerifyRoundTrip) {
  const crypto::KeyPair kp = crypto::derive_key_pair("signer");
  const util::Bytes msg = util::to_bytes("vote for block 42");
  const crypto::Signature sig = crypto::sign(kp.priv, msg);
  EXPECT_TRUE(crypto::verify(kp.pub, msg, sig));
}

TEST(SignatureTest, TamperedMessageFails) {
  const crypto::KeyPair kp = crypto::derive_key_pair("signer2");
  const crypto::Signature sig = crypto::sign(kp.priv, util::to_bytes("msg"));
  EXPECT_FALSE(crypto::verify(kp.pub, util::to_bytes("msG"), sig));
}

TEST(SignatureTest, WrongKeyFails) {
  const crypto::KeyPair a = crypto::derive_key_pair("alice");
  const crypto::KeyPair b = crypto::derive_key_pair("bob");
  const util::Bytes msg = util::to_bytes("payload");
  const crypto::Signature sig = crypto::sign(a.priv, msg);
  EXPECT_FALSE(crypto::verify(b.pub, msg, sig));
}

TEST(SignatureTest, UnknownKeyFails) {
  crypto::PublicKey unknown;
  unknown.id = crypto::sha256(util::to_bytes("never derived"));
  EXPECT_FALSE(crypto::verify(unknown, util::to_bytes("m"), crypto::Signature{}));
}

TEST(SignatureTest, ZeroSignatureFails) {
  const crypto::KeyPair kp = crypto::derive_key_pair("zzz");
  EXPECT_FALSE(crypto::verify(kp.pub, util::to_bytes("m"), crypto::Signature{}));
}

}  // namespace
