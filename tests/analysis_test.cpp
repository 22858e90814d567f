// Unit tests for the Analysis module (Fig. 5): per-packet status
// classification against crafted ICS-24 state, step-log aggregation, and
// the robustness of the codec layer against corrupted input (fuzz-style
// property tests).

#include <gtest/gtest.h>

#include <fstream>

#include "ibc/host.hpp"
#include "ibc/msgs.hpp"
#include "relayer/events.hpp"
#include "util/rng.hpp"
#include "xcc/analysis.hpp"

namespace {

// --- StepLog ---------------------------------------------------------------

TEST(StepLogTest, RecordsAndSortsCompletionTimes) {
  relayer::StepLog log;
  log.record(relayer::Step::kRecvBuild, 3, sim::seconds(9));
  log.record(relayer::Step::kRecvBuild, 1, sim::seconds(3));
  log.record(relayer::Step::kAckBuild, 1, sim::seconds(4));
  log.record(relayer::Step::kRecvBuild, 2, sim::seconds(6));

  const auto times = log.completion_times_seconds(relayer::Step::kRecvBuild);
  EXPECT_EQ(times, (std::vector<double>{3.0, 6.0, 9.0}));
  EXPECT_DOUBLE_EQ(log.step_finish_seconds(relayer::Step::kRecvBuild), 9.0);
  const auto [first, last] =
      log.step_interval_seconds(relayer::Step::kRecvBuild);
  EXPECT_DOUBLE_EQ(first, 3.0);
  EXPECT_DOUBLE_EQ(last, 9.0);
}

TEST(StepLogTest, EmptyStepIsZero) {
  relayer::StepLog log;
  EXPECT_TRUE(log.completion_times_seconds(relayer::Step::kAckBuild).empty());
  EXPECT_DOUBLE_EQ(log.step_finish_seconds(relayer::Step::kAckBuild), 0.0);
}

TEST(StepLogTest, StepNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int s = 0; s < static_cast<int>(relayer::kStepCount); ++s) {
    names.insert(relayer::step_name(static_cast<relayer::Step>(s)));
  }
  EXPECT_EQ(names.size(), relayer::kStepCount);
}

// --- Analyzer classification ---------------------------------------------------

struct AnalyzerFixture : ::testing::Test {
  xcc::TestbedConfig cfg;
  std::unique_ptr<xcc::Testbed> tb;
  xcc::ChannelSetupResult channel;

  void SetUp() override {
    cfg.user_accounts = 2;
    tb = std::make_unique<xcc::Testbed>(cfg);
    channel.ok = true;
    channel.channel_a = "channel-0";
    channel.channel_b = "channel-0";
  }

  chain::KvStore& store_a() { return tb->chain_a().app->store(); }
  chain::KvStore& store_b() { return tb->chain_b().app->store(); }

  void set_next_send(ibc::Sequence next) {
    util::Bytes b;
    util::append_u64_be(b, next);
    store_a().set(
        ibc::host::next_sequence_send_key(ibc::kTransferPort, "channel-0"),
        std::move(b));
  }
  void add_commitment(ibc::Sequence s) {
    store_a().set(ibc::host::packet_commitment_key(ibc::kTransferPort,
                                                   "channel-0", s),
                  util::to_bytes("c"));
  }
  void add_receipt(ibc::Sequence s) {
    store_b().set(
        ibc::host::packet_receipt_key(ibc::kTransferPort, "channel-0", s),
        util::Bytes{1});
  }
};

TEST_F(AnalyzerFixture, ClassifiesAllFourOnChainStates) {
  // seq 1: completed (receipt, no commitment)
  // seq 2: partial (receipt + commitment)
  // seq 3: initiated only (commitment, no receipt)
  // seq 4: timed out / refunded (neither)
  set_next_send(5);
  add_receipt(1);
  add_commitment(2);
  add_receipt(2);
  add_commitment(3);

  xcc::Analyzer analyzer(*tb, channel);
  const auto b = analyzer.completion_breakdown(/*requested=*/6);
  EXPECT_EQ(b.completed, 1u);
  EXPECT_EQ(b.partial, 1u);
  EXPECT_EQ(b.initiated_only, 1u);
  EXPECT_EQ(b.timed_out, 1u);
  EXPECT_EQ(b.uncommitted, 2u);  // 6 requested, 4 initiated
  EXPECT_EQ(b.committed(), 4u);
}

TEST_F(AnalyzerFixture, EmptyChannelAllUncommitted) {
  xcc::Analyzer analyzer(*tb, channel);
  const auto b = analyzer.completion_breakdown(10);
  EXPECT_EQ(b.uncommitted, 10u);
  EXPECT_EQ(b.committed(), 0u);
}

TEST_F(AnalyzerFixture, WindowSecondsAndIntervalsEmptyChain) {
  xcc::Analyzer analyzer(*tb, channel);
  EXPECT_DOUBLE_EQ(analyzer.window_seconds(0, 10), 0.0);
  EXPECT_TRUE(analyzer.block_intervals(0, 10).empty());
  EXPECT_EQ(analyzer.included_transfers(0, 10), 0u);
}

// --- codec robustness (fuzz-style property tests) -------------------------------

class CodecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CodecFuzz, RandomBytesNeverCrashDecoders) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = rng.next_below(256);
    util::Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));

    chain::Tx tx;
    (void)chain::decode_tx(junk, tx);
    ibc::Packet pkt;
    (void)ibc::Packet::decode(junk, pkt);
    ibc::Acknowledgement ack;
    (void)ibc::Acknowledgement::decode(junk, ack);
    ibc::ClientState cs;
    (void)ibc::ClientState::decode(junk, cs);
    ibc::ConsensusState cons;
    (void)ibc::ConsensusState::decode(junk, cons);
    ibc::Header header;
    (void)ibc::Header::decode(junk, header);
    ibc::ConnectionEnd conn;
    (void)ibc::ConnectionEnd::decode(junk, conn);
    ibc::ChannelEnd chan;
    (void)ibc::ChannelEnd::decode(junk, chan);
    ibc::FungibleTokenPacketData data;
    (void)ibc::FungibleTokenPacketData::from_json(junk, data);

    chain::Msg msg{"/ibc.core.channel.v1.MsgRecvPacket", junk};
    ibc::MsgRecvPacket recv;
    (void)ibc::MsgRecvPacket::from_msg(msg, recv);
    msg.type_url = "/ibc.core.client.v1.MsgUpdateClient";
    ibc::MsgUpdateClient update;
    (void)ibc::MsgUpdateClient::from_msg(msg, update);
  }
  SUCCEED();
}

TEST_P(CodecFuzz, TruncatedRealMessagesAreRejected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  ibc::MsgRecvPacket m;
  m.packet.sequence = 9;
  m.packet.source_port = "transfer";
  m.packet.source_channel = "channel-0";
  m.packet.destination_port = "transfer";
  m.packet.destination_channel = "channel-1";
  m.packet.data = util::to_bytes("{\"amount\":\"1\"}");
  m.packet.timeout_height = 10;
  m.proof_height = 3;
  const chain::Msg full = m.to_msg();

  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t cut = 1 + rng.next_below(full.value.size() - 1);
    chain::Msg truncated = full;
    truncated.value.resize(full.value.size() - cut);
    ibc::MsgRecvPacket out;
    EXPECT_FALSE(ibc::MsgRecvPacket::from_msg(truncated, out));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4));

TEST(PacketEventTest, RoundTripsThroughKeeperEventFormat) {
  ibc::Packet p;
  p.sequence = 77;
  p.source_port = "transfer";
  p.source_channel = "channel-3";
  p.destination_port = "transfer";
  p.destination_channel = "channel-4";
  p.data = util::to_bytes("{\"amount\":\"5\"}");
  p.timeout_height = 1234;
  p.timeout_timestamp = 99;

  const chain::Event ev =
      ibc::make_packet_event(ibc::PacketEventKind::kSend, p);
  EXPECT_EQ(ev.attribute("packet_timeout_height"), "0-1234");
  const auto out = ibc::packet_from_event(ev);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->sequence, p.sequence);
  EXPECT_EQ(out->timeout_height, p.timeout_height);
  EXPECT_EQ(out->timeout_timestamp, p.timeout_timestamp);
  EXPECT_EQ(out->data, p.data);
  EXPECT_EQ(out->commitment(), p.commitment());
}

}  // namespace

// --- RpcDataConnector (the paper's §V collection path) ------------------------

#include "xcc/data_connector.hpp"
#include "xcc/workload.hpp"

namespace {

TEST(DataConnectorTest, CollectsAllTransactionsWithPagination) {
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 8;
  xcc::Testbed tb(cfg);
  tb.start_chains();
  ASSERT_TRUE(tb.run_until_height(2, sim::seconds(120)));
  xcc::HandshakeDriver driver(tb);
  const auto channel =
      driver.establish_channel_blocking(tb.scheduler().now() + sim::seconds(600));
  ASSERT_TRUE(channel.ok) << channel.error;

  xcc::WorkloadConfig wl;
  wl.total_transfers = 500;  // 5 txs in one block
  xcc::TransferWorkload workload(tb, channel, wl, nullptr);
  workload.start();
  tb.run_until(tb.scheduler().now() + sim::seconds(15));

  // Find the block with the transfers.
  chain::Height target = 0;
  for (chain::Height h = 1; h <= tb.chain_a().ledger->height(); ++h) {
    if (tb.chain_a().ledger->block_at(h)->txs.size() >= 5) target = h;
  }
  ASSERT_GT(target, 0);

  // Page size 2 forces pagination over the 5+ transactions.
  xcc::RpcDataConnector conn(tb.scheduler(), *tb.chain_a().servers[0], 0,
                             /*per_page=*/2);
  const auto data = conn.collect_block_blocking(
      target, tb.scheduler().now() + sim::seconds(300));
  ASSERT_TRUE(data.ok);
  EXPECT_EQ(data.txs.size(), tb.chain_a().ledger->block_at(target)->txs.size());
  EXPECT_GE(data.pages, 3u);
  EXPECT_GT(data.elapsed, 0);
}

TEST(DataConnectorTest, MissingBlockReportsFailure) {
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 2;
  xcc::Testbed tb(cfg);
  tb.start_chains();
  ASSERT_TRUE(tb.run_until_height(1, sim::seconds(60)));
  xcc::RpcDataConnector conn(tb.scheduler(), *tb.chain_a().servers[0], 0);
  const auto data = conn.collect_block_blocking(
      999, tb.scheduler().now() + sim::seconds(60));
  EXPECT_FALSE(data.ok);
  EXPECT_TRUE(data.txs.empty());
}

TEST(WorkloadTest, AccountOffsetAvoidsCollisions) {
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 12;
  xcc::Testbed tb(cfg);
  tb.start_chains();
  ASSERT_TRUE(tb.run_until_height(2, sim::seconds(120)));
  xcc::HandshakeDriver driver(tb);
  const auto channel =
      driver.establish_channel_blocking(tb.scheduler().now() + sim::seconds(600));
  ASSERT_TRUE(channel.ok);

  // Two concurrent workloads on disjoint account ranges must both commit
  // everything without sequence errors.
  xcc::WorkloadConfig w1;
  w1.total_transfers = 300;
  xcc::WorkloadConfig w2 = w1;
  w2.account_offset = 4;
  xcc::TransferWorkload l1(tb, channel, w1, nullptr);
  xcc::TransferWorkload l2(tb, channel, w2, nullptr);
  l1.start();
  l2.start();
  tb.run_until(tb.scheduler().now() + sim::seconds(60));
  EXPECT_TRUE(l1.finished());
  EXPECT_TRUE(l2.finished());
  EXPECT_EQ(l1.stats().committed, 300u);
  EXPECT_EQ(l2.stats().committed, 300u);
  EXPECT_EQ(l1.sequence_mismatch_errors() + l2.sequence_mismatch_errors(), 0u);
}

}  // namespace

namespace {

TEST(StepLogTest, WritesRawCsvDataset) {
  relayer::StepLog log;
  log.record(relayer::Step::kTransferBroadcast, 1, sim::seconds(1));
  log.record(relayer::Step::kAckConfirmation, 1, sim::seconds(21));
  const std::string path = "/tmp/ibc_perf_steplog_test.csv";
  ASSERT_TRUE(log.write_csv(path).is_ok());
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("time_s,step,sequence"), std::string::npos);
  EXPECT_NE(content.find("Transfer broadcast,1"), std::string::npos);
  EXPECT_NE(content.find("21,Ack confirmation,1"), std::string::npos);
}

}  // namespace
