// Light-client lifecycle tests (ICS-02): trusting-period expiry on
// update_client, misbehaviour freezing, and governance recovery
// (MsgRecoverClient). Regression suite for the expiry enforcement the chaos
// campaigns rely on — before it, an expired client silently kept accepting
// headers (ibc::KeeperFaults::skip_expiry_check reproduces that bug).

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "ibc/msgs.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"

namespace {

// Short trusting period so expiry is reachable in a few virtual minutes.
constexpr sim::Duration kTrusting = sim::seconds(60);

ibc::Header header_at(const chain::Ledger& ledger, chain::Height h) {
  ibc::Header hdr;
  const chain::Block* blk = ledger.block_at(h);
  const chain::Commit* commit = ledger.seen_commit(h);
  const crypto::Digest* app_hash = ledger.app_hash_after(h);
  if (!blk || !commit || !app_hash) return hdr;
  hdr.chain_id = ledger.chain_id();
  hdr.height = h;
  hdr.time = blk->header.time;
  hdr.app_hash_after = *app_hash;
  hdr.validators_hash = blk->header.validators_hash;
  hdr.block_id = blk->id();
  hdr.commit = *commit;
  return hdr;
}

struct ClientLifecycleFixture : ::testing::Test {
  std::unique_ptr<xcc::Testbed> tb;
  xcc::ChannelSetupResult channel;
  std::unique_ptr<relayer::Wallet> probe_b;  // submits to chain B

  void boot() {
    xcc::TestbedConfig cfg;
    cfg.min_block_interval = sim::seconds(1);
    cfg.rtt = sim::millis(50);
    cfg.user_accounts = 12;
    cfg.relayer_wallets = 2;  // wallet 1 = probe
    tb = std::make_unique<xcc::Testbed>(cfg);
    tb->start_chains();
    ASSERT_TRUE(tb->run_until_height(2, sim::seconds(120)));
    xcc::HandshakeDriver driver(*tb, /*relayer_wallet=*/0, /*machine=*/0,
                                kTrusting);
    channel = driver.establish_channel_blocking(tb->scheduler().now() +
                                                sim::seconds(600));
    ASSERT_TRUE(channel.ok) << channel.error;

    relayer::WalletConfig wc;
    wc.accounts = {tb->relayer_account_b(1)};
    probe_b = std::make_unique<relayer::Wallet>(
        tb->scheduler(), *tb->chain_b().servers[0], 0, wc);
  }

  relayer::Wallet::SubmitOutcome submit_b(std::vector<chain::Msg> msgs) {
    auto resolved = std::make_shared<bool>(false);
    auto out = std::make_shared<relayer::Wallet::SubmitOutcome>();
    sim::spawn(probe_b->submit(std::move(msgs), 2'000'000),
               [resolved, out](const relayer::Wallet::SubmitOutcome& o) {
                 *out = o;
                 *resolved = true;
               });
    const sim::TimePoint deadline =
        tb->scheduler().now() + sim::seconds(120);
    while (!*resolved && tb->scheduler().now() < deadline) {
      if (!tb->scheduler().step()) break;
    }
    EXPECT_TRUE(*resolved) << "probe tx never resolved";
    return *out;
  }

  ibc::MsgUpdateClient fresh_update() {
    ibc::MsgUpdateClient msg;
    msg.client_id = channel.client_on_b;
    msg.header =
        header_at(*tb->chain_a().ledger, tb->chain_a().ledger->height());
    return msg;
  }

  ibc::MsgRecoverClient recovery_msg() {
    const chain::Ledger& la = *tb->chain_a().ledger;
    const chain::Height h = la.height();
    ibc::MsgRecoverClient msg;
    msg.subject_client_id = channel.client_on_b;
    ibc::ClientState cs;
    cs.chain_id = tb->chain_a().id;
    cs.latest_height = static_cast<std::int64_t>(h);
    cs.trusting_period = kTrusting;
    for (const chain::Validator& v :
         tb->chain_a().engine->validators().validators()) {
      cs.validators.push_back(ibc::ClientValidator{v.keys.pub, v.power});
    }
    msg.substitute_state = std::move(cs);
    msg.substitute_height = static_cast<std::int64_t>(h);
    ibc::ConsensusState cons;
    cons.app_hash = *la.app_hash_after(h);
    cons.timestamp = la.block_at(h)->header.time;
    cons.validators_hash = la.block_at(h)->header.validators_hash;
    msg.substitute_consensus = cons;
    return msg;
  }

  ibc::MsgSubmitMisbehaviour forged_misbehaviour() {
    const chain::Ledger& la = *tb->chain_a().ledger;
    const chain::Height h = la.height();
    ibc::Header real = header_at(la, h);
    ibc::Header forged = real;
    forged.block_id.hash = crypto::sha256(util::to_bytes(
        "fork/" + crypto::digest_hex(real.block_id.hash)));
    forged.commit.block_id = forged.block_id;
    const util::Bytes sign_bytes =
        chain::vote_sign_bytes(real.chain_id, forged.commit.height,
                               forged.commit.round, forged.commit.block_id);
    forged.commit.signatures.clear();
    for (const chain::Validator& v :
         tb->chain_a().engine->validators().validators()) {
      chain::CommitSig sig;
      sig.flag = chain::BlockIdFlag::kCommit;
      sig.validator = v.keys.pub;
      sig.timestamp = real.time;
      sig.signature = crypto::sign(v.keys.priv, sign_bytes);
      forged.commit.signatures.push_back(sig);
    }
    ibc::MsgSubmitMisbehaviour msg;
    msg.client_id = channel.client_on_b;
    msg.header_1 = real;
    msg.header_2 = forged;
    return msg;
  }

  bool client_frozen() {
    auto res = tb->chain_b().ibc->clients().client_state(channel.client_on_b);
    return res.is_ok() && res.value().frozen;
  }
};

TEST_F(ClientLifecycleFixture, UpdateAcceptedWithinTrustingPeriod) {
  boot();
  tb->run_until(tb->scheduler().now() + sim::seconds(10));
  const auto out = submit_b({fresh_update().to_msg()});
  EXPECT_TRUE(out.status.is_ok()) << out.status.to_string();
}

// Regression: updates must be rejected once the client's tracked head is
// older than the trusting period, even when the submitted header itself is
// perfectly valid and fresh.
TEST_F(ClientLifecycleFixture, UpdateRejectedPastTrustingPeriod) {
  boot();
  // No updates land while we idle past the trusting period.
  tb->run_until(tb->scheduler().now() + kTrusting + sim::seconds(60));
  const auto out = submit_b({fresh_update().to_msg()});
  ASSERT_FALSE(out.status.is_ok());
  EXPECT_NE(out.status.to_string().find("expired"), std::string::npos)
      << out.status.to_string();
}

TEST_F(ClientLifecycleFixture, MisbehaviourFreezesClientAndBlocksUpdates) {
  boot();
  tb->run_until(tb->scheduler().now() + sim::seconds(10));
  const auto mis = submit_b({forged_misbehaviour().to_msg()});
  ASSERT_TRUE(mis.status.is_ok()) << mis.status.to_string();
  EXPECT_TRUE(client_frozen());

  // A frozen client accepts no further headers.
  const auto upd = submit_b({fresh_update().to_msg()});
  ASSERT_FALSE(upd.status.is_ok());
  EXPECT_NE(upd.status.to_string().find("frozen"), std::string::npos)
      << upd.status.to_string();
}

TEST_F(ClientLifecycleFixture, RecoveryRestoresExpiredClient) {
  boot();
  tb->run_until(tb->scheduler().now() + kTrusting + sim::seconds(60));
  ASSERT_FALSE(submit_b({fresh_update().to_msg()}).status.is_ok());

  const auto rec = submit_b({recovery_msg().to_msg()});
  ASSERT_TRUE(rec.status.is_ok()) << rec.status.to_string();

  // Back in service: fresh updates are accepted again.
  const auto upd = submit_b({fresh_update().to_msg()});
  EXPECT_TRUE(upd.status.is_ok()) << upd.status.to_string();
}

TEST_F(ClientLifecycleFixture, RecoveryRestoresFrozenClient) {
  boot();
  tb->run_until(tb->scheduler().now() + sim::seconds(10));
  ASSERT_TRUE(submit_b({forged_misbehaviour().to_msg()}).status.is_ok());
  ASSERT_TRUE(client_frozen());

  const auto rec = submit_b({recovery_msg().to_msg()});
  ASSERT_TRUE(rec.status.is_ok()) << rec.status.to_string();
  EXPECT_FALSE(client_frozen());
  EXPECT_TRUE(submit_b({fresh_update().to_msg()}).status.is_ok());
}

TEST_F(ClientLifecycleFixture, RecoveryRejectedForActiveClient) {
  boot();
  tb->run_until(tb->scheduler().now() + sim::seconds(10));
  const auto rec = submit_b({recovery_msg().to_msg()});
  EXPECT_FALSE(rec.status.is_ok())
      << "an active (neither expired nor frozen) client must not be "
         "recoverable: "
      << rec.status.to_string();
}

}  // namespace
