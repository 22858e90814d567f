// The runtime invariant checker (src/check): clean full-stack runs stay
// violation-free, a deliberately broken keeper is detected, fail-fast mode
// throws, and fuzz scenarios are deterministic per seed. Bad store writes
// planted past the keepers are caught at the next commit and again by the
// full-walk audit; a write the checker's store hook never saw is caught only
// by the audit, as checker drift; escrow moved behind a committed transfer's
// back breaks the packet-event escrow model; a memoised counterparty still
// fails once its connection end is gone; and the audit stays silent when it
// runs after every commit of clean scenarios and campaigns.

#include <gtest/gtest.h>

#include <functional>

#include "check/campaign.hpp"
#include "check/scenario.hpp"
#include "cosmos/coin.hpp"
#include "ibc/channel.hpp"
#include "ibc/client.hpp"
#include "ibc/host.hpp"
#include "ibc/packet.hpp"
#include "ibc/transfer.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"

namespace {

// A seed whose generated scenario (two relayers + redundant deliveries)
// exposes the skip-replay-check mutation. Pinned rather than searched so the
// test is fast; fuzz_scenarios re-derives such seeds continuously.
constexpr std::uint64_t kCatchingSeed = 1031378132722ULL;

TEST(InvariantChecker, CleanScenarioHasNoViolations) {
  const check::ScenarioResult res = check::run_scenario(kCatchingSeed);
  ASSERT_TRUE(res.setup_ok) << res.setup_error;
  EXPECT_GT(res.blocks_checked, 0u);
  EXPECT_TRUE(res.violations.empty());
}

TEST(InvariantChecker, SkipReplayMutationIsCaught) {
  check::ScenarioOptions opt;
  opt.mutate_skip_replay = true;
  const check::ScenarioResult res = check::run_scenario(kCatchingSeed, opt);
  ASSERT_TRUE(res.setup_ok) << res.setup_error;
  ASSERT_FALSE(res.violations.empty());
  // The broken replay check manifests as a double-applied recv.
  bool exactly_once_recv = false;
  for (const check::Violation& v : res.violations) {
    if (v.invariant == "exactly-once-recv") exactly_once_recv = true;
  }
  EXPECT_TRUE(exactly_once_recv);
}

TEST(InvariantChecker, FailFastThrowsInvariantViolation) {
  check::ScenarioOptions opt;
  opt.mutate_skip_replay = true;
  opt.fail_fast = true;
  EXPECT_THROW(check::run_scenario(kCatchingSeed, opt),
               check::InvariantViolation);
}

TEST(InvariantChecker, ScenarioIsDeterministicPerSeed) {
  const check::ScenarioResult a = check::run_scenario(kCatchingSeed);
  const check::ScenarioResult b = check::run_scenario(kCatchingSeed);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.blocks_checked, b.blocks_checked);
  EXPECT_EQ(a.transfers_requested, b.transfers_requested);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.packets_timed_out, b.packets_timed_out);
  EXPECT_EQ(a.redundant_messages, b.redundant_messages);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

// --- Planted store state --------------------------------------------------

/// Runs `plant` inside a delivered transaction on chain A's app, and emits
/// `emit` from it.
struct PlantHandler : cosmos::MsgHandler {
  std::function<void()> plant;
  std::vector<chain::Event> emit;
  chain::Height height = 0;
  util::Status handle(const chain::Msg&, cosmos::MsgContext& ctx) override {
    ctx.gas_used += 1'000;
    if (plant) plant();
    ctx.events->insert(ctx.events->end(), emit.begin(), emit.end());
    height = ctx.height;
    return util::Status::ok();
  }
};

/// A quiet two-chain testbed with an open channel and no relayer, in collect
/// mode, so nothing but the planted write moves the state the checks read.
struct PlantedStateFixture : ::testing::Test {
  PlantHandler handler;  // outlives tb, whose app the in-tx cases give it to
  std::unique_ptr<xcc::Testbed> tb;
  xcc::ChannelSetupResult channel;

  void SetUp() override {
    xcc::TestbedConfig cfg;
    cfg.user_accounts = 2;
    cfg.invariant_fail_fast = false;
    tb = std::make_unique<xcc::Testbed>(cfg);
    tb->start_chains();
    ASSERT_TRUE(tb->run_until_height(2, sim::seconds(120)));
    xcc::HandshakeDriver driver(*tb);
    channel = driver.establish_channel_blocking(tb->scheduler().now() +
                                                sim::seconds(600));
    ASSERT_TRUE(channel.ok) << channel.error;
    commit_next();      // every handshake write has now been checked
    checker().audit();  // the snapshot the audit's monotonicity checks use
    ASSERT_EQ(checker().report(), "");
  }

  check::InvariantChecker& checker() { return *tb->checker(); }
  cosmos::CosmosApp& app() { return *tb->chain_a().app; }
  chain::KvStore& store() { return app().store(); }

  /// Runs until chain A commits its next block; returns that height.
  chain::Height commit_next() {
    const chain::Height h = tb->chain_a().ledger->height() + 1;
    while (tb->chain_a().ledger->height() < h && tb->scheduler().step()) {
    }
    return h;
  }

  static void set_u64(chain::KvStore& store, std::string_view key,
                      std::uint64_t v) {
    util::Bytes b;
    util::append_u64_be(b, v);
    store.set(key, std::move(b));
  }

  // Each plant writes straight to chain A's store and returns the violation
  // (minus its height) the full scan reports at the next commit.
  check::Violation plant_balance_without_supply() {
    const std::string denom = cosmos::kNativeDenom;
    const std::uint64_t supply = app().bank().supply(denom);
    set_u64(store(), "bank/bal/user-0|" + denom,
            app().bank().balance("user-0", denom) + 1);
    return {"bank-conservation", app().chain_id(), 0,
            "denom " + denom + ": balances sum to " +
                std::to_string(supply + 1) + " but supply is " +
                std::to_string(supply)};
  }

  check::Violation plant_older_client_state() {
    const util::Key key = ibc::host::client_state_key(channel.client_on_a);
    ibc::ClientState state;
    EXPECT_TRUE(ibc::ClientState::decode(*store().get_view(key), state));
    const std::int64_t was = state.latest_height;
    state.latest_height = was - 1;
    store().set(key, state.encode());
    return {"client-height-monotonicity", app().chain_id(), 0,
            "client " + channel.client_on_a + " latest height went from " +
                std::to_string(was) + " to " + std::to_string(was - 1)};
  }

  check::Violation plant_lower_next_sequence_send() {
    const ibc::ChannelKeeper channels(store());
    const std::string& port = ibc::kTransferPort;
    const std::string& id = channel.channel_a;
    const ibc::Sequence s = channels.next_sequence_send(port, id);
    const ibc::Sequence r = channels.next_sequence_recv(port, id);
    const ibc::Sequence a = channels.next_sequence_ack(port, id);
    set_u64(store(), ibc::host::next_sequence_send_key(port, id), s - 1);
    return {"sequence-monotonicity", app().chain_id(), 0,
            port + "/" + id + " counters regressed: send " +
                std::to_string(s) + "->" + std::to_string(s - 1) + ", recv " +
                std::to_string(r) + "->" + std::to_string(r) + ", ack " +
                std::to_string(a) + "->" + std::to_string(a)};
  }
};

bool same(const check::Violation& a, const check::Violation& b) {
  return a.invariant == b.invariant && a.chain == b.chain &&
         a.height == b.height && a.detail == b.detail;
}

std::size_t count_of(const std::vector<check::Violation>& vs,
                     const check::Violation& v) {
  std::size_t n = 0;
  for (const check::Violation& x : vs) n += same(x, v) ? 1 : 0;
  return n;
}

enum class Plant { kBalance, kClient, kSequence };
enum class Where { kBetweenCommits, kInTx };

struct PlantCase {
  Plant plant;
  Where where;
  const char* name;
};

// Names the case in the test's listed name.
void PrintTo(const PlantCase& pc, std::ostream* os) { *os << pc.name; }

class InvariantCheckerPlanted
    : public PlantedStateFixture,
      public ::testing::WithParamInterface<PlantCase> {
 protected:
  check::Violation plant(Plant p) {
    switch (p) {
      case Plant::kBalance: return plant_balance_without_supply();
      case Plant::kClient: return plant_older_client_state();
      case Plant::kSequence: return plant_lower_next_sequence_send();
    }
    return {};
  }
};

// The first commit after the write reports the full scan's verdict (name,
// height, detail), later commits repeat it as the full scan did, and the
// following audit reports it again.
TEST_P(InvariantCheckerPlanted, ReportedAtNextCommitAndByAudit) {
  const PlantCase pc = GetParam();
  const std::size_t before = checker().violations().size();
  check::Violation expected;
  if (pc.where == Where::kBetweenCommits) {
    expected = plant(pc.plant);
    expected.height = commit_next();
  } else {
    handler.plant = [&] { expected = plant(pc.plant); };
    app().register_handler("/test.Plant", &handler);
    chain::Tx tx;
    tx.sender = "user-0";
    tx.sequence = app().auth().sequence(tx.sender);
    tx.gas_limit = 200'000;
    tx.fee = 2'000;
    tx.msgs.push_back(chain::Msg{"/test.Plant", {}});
    ASSERT_TRUE(tb->chain_a().mempool->add(chain::seal(std::move(tx))).is_ok());
    // The commit of the block that delivered the tx is the first after it.
    while ((handler.height == 0 ||
            tb->chain_a().ledger->height() < handler.height) &&
           tb->scheduler().step()) {
    }
    ASSERT_GT(handler.height, 0);
    ASSERT_EQ(tb->chain_a().ledger->height(), handler.height);
    expected.height = handler.height;
  }
  const std::vector<check::Violation>& vs = checker().violations();
  ASSERT_GT(vs.size(), before) << "not reported at the next commit";
  EXPECT_TRUE(same(vs[before], expected))
      << "got " << vs[before].to_string() << "\nwant " << expected.to_string();

  // Like the full scan: a denom that still fails is reported at every
  // commit, a regression once (the snapshot moves to the regressed value).
  check::Violation again = expected;
  again.height = commit_next();
  EXPECT_EQ(count_of(vs, again), pc.plant == Plant::kBalance ? 1u : 0u)
      << checker().report();

  // The audit, at the current height, compares with the snapshot of the
  // audit before the plant.
  const std::size_t per_commit = count_of(vs, again);
  checker().audit();
  EXPECT_EQ(count_of(vs, again), per_commit + 1) << checker().report();
}

INSTANTIATE_TEST_SUITE_P(
    StoreDerivedInvariants, InvariantCheckerPlanted,
    ::testing::Values(
        PlantCase{Plant::kBalance, Where::kBetweenCommits, "BalanceBetween"},
        PlantCase{Plant::kBalance, Where::kInTx, "BalanceInTx"},
        PlantCase{Plant::kClient, Where::kBetweenCommits, "ClientBetween"},
        PlantCase{Plant::kClient, Where::kInTx, "ClientInTx"},
        PlantCase{Plant::kSequence, Where::kBetweenCommits,
                  "SequenceBetween"},
        PlantCase{Plant::kSequence, Where::kInTx, "SequenceInTx"}));

// --- Audit ------------------------------------------------------------------

using InvariantCheckerDrift = PlantedStateFixture;

// A write the store hook never sees leaves the incremental model stale: the
// per-commit checks miss it, and the audit's walk reports the drift.
TEST_F(InvariantCheckerDrift, WriteHiddenFromTheHookIsCaughtByTheAudit) {
  chain::KvStore::WriteHook hook = store().write_hook();
  ASSERT_TRUE(hook);
  store().set_write_hook(nullptr);
  const check::Violation planted = plant_balance_without_supply();
  store().set_write_hook(std::move(hook));

  commit_next();
  commit_next();
  EXPECT_EQ(checker().report(), "") << "the per-commit path saw the write";

  checker().audit();
  bool drift = false, conservation = false;
  for (const check::Violation& v : checker().violations()) {
    drift |= v.invariant == "checker-drift" && v.chain == planted.chain;
    conservation |= v.invariant == planted.invariant &&
                    v.detail == planted.detail;
  }
  EXPECT_TRUE(drift) << checker().report();
  EXPECT_TRUE(conservation) << checker().report();
}

// --- Event-derived model -------------------------------------------------

using InvariantCheckerEscrow = PlantedStateFixture;

// The escrow model follows the ICS-20 data the send_packet payload decoded
// at emission: after a committed transfer the checker expects the escrowed
// amount, so tokens moved out of the escrow behind the keeper's back (a
// plain bank send keeps supply and balances in step) are reported.
TEST_F(InvariantCheckerEscrow, SendPacketPayloadDrivesTheEscrowModel) {
  ibc::MsgTransfer t;
  t.source_port = ibc::kTransferPort;
  t.source_channel = channel.channel_a;
  t.denom = cosmos::kNativeDenom;
  t.amount = 5;
  t.sender = "user-0";
  t.receiver = "user-1";
  t.timeout_height = 1'000'000;
  chain::Tx tx;
  tx.sender = t.sender;
  tx.sequence = app().auth().sequence(tx.sender);
  tx.gas_limit = 200'000;
  tx.fee = 2'000;
  tx.msgs.push_back(t.to_msg());
  const chain::TxPtr sealed = chain::seal(std::move(tx));
  const chain::TxHash hash = sealed->hash();
  ASSERT_TRUE(tb->chain_a().mempool->add(sealed).is_ok());
  const chain::Ledger& ledger = *tb->chain_a().ledger;
  while (!ledger.find_tx(hash) && tb->scheduler().step()) {
  }
  const chain::TxLocation* sent = ledger.find_tx(hash);
  ASSERT_NE(sent, nullptr);
  ASSERT_TRUE((*ledger.results_at(sent->height))[sent->index].status.is_ok());
  ASSERT_EQ(checker().report(), "");

  const chain::Address escrow =
      ibc::escrow_address(ibc::kTransferPort, channel.channel_a).str();
  ASSERT_EQ(app().bank().balance(escrow, t.denom), 5u);
  ASSERT_TRUE(app()
                  .bank()
                  .send(escrow, "user-1", cosmos::Coin{t.denom, 5})
                  .is_ok());
  const chain::Height h = commit_next();
  const check::Violation want{
      "escrow-conservation", app().chain_id(), h,
      escrow + " holds 0 " + t.denom + ", packet history implies 5"};
  EXPECT_EQ(count_of(checker().violations(), want), 1u) << checker().report();
}

// --- Counterparty resolution ----------------------------------------------

using InvariantCheckerCounterparty = PlantedStateFixture;

// The checker memoises a channel's counterparty chain with the stored bytes
// of the channel end, connection end and client state it resolved it from.
// A connection end deleted after the memo is warm must still fail
// "unknown-counterparty" at the next recv event; a memo validated by the
// channel end alone would keep answering.
TEST_F(InvariantCheckerCounterparty, MissingConnectionFailsWithWarmMemo) {
  app().register_handler("/test.Plant", &handler);
  // Announces a receive on channel A of a packet chain B never sent (the
  // checker reports it as recv-unsent; only the resolution matters here).
  const auto deliver_recv = [&](ibc::Sequence seq) {
    ibc::Packet p;
    p.sequence = seq;
    p.source_port = ibc::kTransferPort;
    p.source_channel = channel.channel_b;
    p.destination_port = ibc::kTransferPort;
    p.destination_channel = channel.channel_a;
    p.timeout_height = 1'000'000;
    handler.emit = {ibc::make_packet_event(ibc::PacketEventKind::kRecv, p,
                                           util::to_bytes("ack"))};
    handler.height = 0;
    chain::Tx tx;
    tx.sender = "user-0";
    tx.sequence = app().auth().sequence(tx.sender);
    tx.gas_limit = 200'000;
    tx.fee = 2'000;
    tx.msgs.push_back(chain::Msg{"/test.Plant", {}});
    ASSERT_TRUE(
        tb->chain_a().mempool->add(chain::seal(std::move(tx))).is_ok());
    while ((handler.height == 0 ||
            tb->chain_a().ledger->height() < handler.height) &&
           tb->scheduler().step()) {
    }
    ASSERT_GT(handler.height, 0);
  };
  const auto unknown = [&] {
    std::size_t n = 0;
    for (const check::Violation& v : checker().violations()) {
      n += v.invariant == "unknown-counterparty" ? 1 : 0;
    }
    return n;
  };

  deliver_recv(1);  // resolves chain B and warms the memo
  deliver_recv(2);  // served by the memo
  ASSERT_EQ(unknown(), 0u) << checker().report();

  store().erase(ibc::host::connection_key(channel.connection_a));
  commit_next();
  deliver_recv(3);
  const check::Violation want{
      "unknown-counterparty", app().chain_id(), handler.height,
      ibc::kTransferPort + "/" + channel.channel_a +
          " references missing connection " + channel.connection_a};
  EXPECT_EQ(count_of(checker().violations(), want), 1u) << checker().report();
}

/// Subscribes an audit of every chain to every chain's commits.
void audit_every_commit(xcc::Testbed& tb) {
  for (int i = 0; i < tb.chain_count(); ++i) {
    tb.chain(i).engine->subscribe_block(
        [&tb](const chain::Block&, const std::vector<chain::DeliverTxResult>&) {
          tb.checker()->audit();
        });
  }
}

// The seeds of `fuzz_scenarios --seeds=40`.
TEST(InvariantCheckerAudit, FuzzSeedsCleanWithAuditEveryCommit) {
  check::ScenarioOptions opt;
  opt.on_testbed = audit_every_commit;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const check::ScenarioResult r =
        check::run_scenario(0xF022ED5EEDULL + i, opt);
    ASSERT_TRUE(r.setup_ok) << r.seed << ": " << r.setup_error;
    EXPECT_GT(r.blocks_checked, 0u);
    for (const check::Violation& v : r.violations) {
      ADD_FAILURE() << "seed " << r.seed << ": " << v.to_string();
    }
  }
}

// The families of `fuzz_scenarios --campaign=all --blocks=160`.
TEST(InvariantCheckerAudit, CampaignFamiliesCleanWithAuditEveryCommit) {
  for (const char* family : check::kCampaignFamilies) {
    check::CampaignOptions opt;
    opt.family = family;
    opt.seed = 0xF022ED5EEDULL;
    opt.min_blocks = 160;
    opt.on_testbed = audit_every_commit;
    const check::CampaignResult r = check::run_campaign(opt);
    ASSERT_TRUE(r.setup_ok) << family << ": " << r.setup_error;
    EXPECT_TRUE(r.violations.empty()) << family << ":\n" << r.csv();
  }
}

}  // namespace
