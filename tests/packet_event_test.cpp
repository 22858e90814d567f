// Typed packet events: every packet life-cycle event carries one immutable
// payload, shared by pointer. These tests pin (a) what the payload renders
// and what it is charged — byte for byte and size for size what the string
// renderer it replaced produced (packet_event_oracle.hpp) — and (b) that the
// ledger, RPC responses, packet-event pages, WebSocket frames and the
// relayer's query cache all hold the ledger's payload objects, not copies.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "packet_event_oracle.hpp"
#include "relayer/query_cache.hpp"
#include "rpc/server.hpp"
#include "util/rng.hpp"
#include "xcc/handshake.hpp"
#include "xcc/testbed.hpp"
#include "xcc/workload.hpp"

namespace {

using ibc::PacketEventKind;

constexpr PacketEventKind kKinds[] = {
    PacketEventKind::kSend, PacketEventKind::kRecv, PacketEventKind::kWriteAck,
    PacketEventKind::kAcknowledge, PacketEventKind::kTimeout};

/// The event the string renderer emitted for `kind`, given the packet the
/// keeper handled and (write_acknowledgement only) the ack it wrote.
chain::Event oracle_event(PacketEventKind kind, const ibc::Packet& p,
                          const util::Bytes& ack) {
  switch (kind) {
    case PacketEventKind::kSend:
      return oracle::packet_event("send_packet", p, true);
    case PacketEventKind::kRecv:
      return oracle::packet_event("recv_packet", p, true);
    case PacketEventKind::kWriteAck: {
      ibc::Acknowledgement decoded;
      EXPECT_TRUE(ibc::Acknowledgement::decode(ack, decoded));
      return oracle::write_ack_event(p, decoded);
    }
    case PacketEventKind::kAcknowledge:
      return oracle::packet_event("acknowledge_packet", p, false);
    case PacketEventKind::kTimeout:
      return oracle::packet_event("timeout_packet", p, false);
  }
  return {};
}

std::string random_id(util::Rng& rng, const char* base) {
  if (rng.chance(0.5)) return std::string(base) + "-" +
                              std::to_string(rng.next_below(1000));
  // Long identifiers, well past any small-string buffer.
  return std::string(base) + "-" +
         std::string(20 + rng.next_below(200),
                     static_cast<char>('a' + rng.next_below(26)));
}

std::int64_t random_i64(util::Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::int64_t>::max();  // 19 digits
    case 2: return std::numeric_limits<std::int64_t>::min();  // "-" + 19
    case 3: return static_cast<std::int64_t>(rng.next_u64());
    default: return static_cast<std::int64_t>(rng.next_below(1'000'000));
  }
}

ibc::Packet random_packet(util::Rng& rng) {
  ibc::Packet p;
  switch (rng.next_below(3)) {
    case 0: p.sequence = 1 + rng.next_below(1000); break;
    case 1: p.sequence = std::numeric_limits<std::uint64_t>::max(); break;
    default: p.sequence = 10'000'000'000'000'000'000ULL + rng.next_below(1000);
  }
  p.source_port = rng.chance(0.5) ? ibc::kTransferPort
                                  : random_id(rng, "port");
  p.source_channel = random_id(rng, "channel");
  p.destination_port = rng.chance(0.5) ? ibc::kTransferPort
                                       : random_id(rng, "port");
  p.destination_channel = random_id(rng, "channel");
  switch (rng.next_below(3)) {
    case 0: break;  // empty data
    case 1: p.data = util::Bytes(4096, static_cast<std::uint8_t>('x')); break;
    default: {
      ibc::FungibleTokenPacketData d;
      d.denom = rng.chance(0.5) ? "stake" : "transfer/channel-7/uatom";
      d.amount = rng.next_u64();
      d.sender = random_id(rng, "user");
      d.receiver = random_id(rng, "user");
      p.data = d.to_json();
    }
  }
  p.timeout_height = random_i64(rng);
  p.timeout_timestamp = random_i64(rng);
  return p;
}

TEST(PacketEventOracle, RenderedAttributesAndSizesMatchTheStringRenderer) {
  util::Rng rng(0x9E7E47ULL);
  for (int trial = 0; trial < 300; ++trial) {
    const ibc::Packet p = random_packet(rng);
    const ibc::Acknowledgement ack =
        rng.chance(0.5)
            ? ibc::Acknowledgement{true, ""}
            : ibc::Acknowledgement{false, "error " + random_id(rng, "cause")};
    chain::DeliverTxResult res;
    std::vector<chain::Event> want_events;
    for (const PacketEventKind kind : kKinds) {
      const bool acked = kind == PacketEventKind::kWriteAck ||
                         (kind == PacketEventKind::kRecv && rng.chance(0.5));
      const util::Bytes ack_bytes = acked ? ack.encode() : util::Bytes{};
      const chain::Event got = ibc::make_packet_event(kind, p, ack_bytes);
      const chain::Event want = oracle_event(kind, p, ack_bytes);
      const std::string where = "trial " + std::to_string(trial) + " " +
                                want.type;
      EXPECT_EQ(got.type, want.type) << where;
      EXPECT_TRUE(got.attributes.empty()) << where;
      EXPECT_EQ(got.rendered_attributes(), want.attributes) << where;
      EXPECT_EQ(got.encoded_size(), oracle::event_encoded_size(want)) << where;
      EXPECT_EQ(got.attribute("packet_sequence"), std::to_string(p.sequence))
          << where;

      // packet_from_event hands back the packet the event announces (data
      // only where the event carries packet_data).
      const std::optional<ibc::Packet> back = ibc::packet_from_event(got);
      ASSERT_TRUE(back.has_value()) << where;
      EXPECT_EQ(back->encode(), [&] {
        ibc::Packet announced = p;
        if (kind == PacketEventKind::kAcknowledge ||
            kind == PacketEventKind::kTimeout) {
          announced.data.clear();
        }
        return announced.encode();
      }()) << where;

      res.events.push_back(got);
      want_events.push_back(want);
    }
    // Generic events ride along unchanged.
    const chain::Event generic{"fungible_token_packet",
                               {{"receiver", random_id(rng, "user")},
                                {"success", "true"}}};
    res.events.push_back(generic);
    want_events.push_back(generic);
    const std::size_t want = oracle::result_encoded_size(want_events);
    EXPECT_EQ(res.encoded_size(), want) << "trial " << trial;
    res.cache_encoded_size();
    EXPECT_EQ(res.encoded_size(), want) << "trial " << trial;
  }
}

TEST(PacketEventOracle, ForeignEventsCarryNoPacket) {
  const chain::Event generic{"send_packet", {{"packet_sequence", "5"}}};
  EXPECT_EQ(ibc::packet_event(generic), nullptr);
  EXPECT_FALSE(ibc::packet_from_event(generic).has_value());
}

/// Runs `transfers` relayed transfers over a fresh channel of `ordering` and
/// checks every packet event both ledgers committed against the string
/// renderer: the keeper's own emissions, not just the constructor's.
void check_committed_events(ibc::ChannelOrdering ordering, int transfers) {
  xcc::TestbedConfig cfg;
  cfg.user_accounts = 12;
  xcc::Testbed tb(cfg);
  tb.start_chains();
  ASSERT_TRUE(tb.run_until_height(2, sim::seconds(120)));
  xcc::HandshakeDriver driver(tb, 0, 0, 0, 0, 1, ordering);
  const xcc::ChannelSetupResult channel = driver.establish_channel_blocking(
      tb.scheduler().now() + sim::seconds(600));
  ASSERT_TRUE(channel.ok) << channel.error;
  relayer::ChainHandle ha{tb.chain_a().servers[0].get(), tb.chain_a().id,
                          {tb.relayer_account_a(0)}};
  relayer::ChainHandle hb{tb.chain_b().servers[0].get(), tb.chain_b().id,
                          {tb.relayer_account_b(0)}};
  relayer::Relayer r(tb.scheduler(), ha, hb, channel.path(), {}, nullptr);
  r.start();
  xcc::WorkloadConfig wl;
  wl.total_transfers = static_cast<std::uint64_t>(transfers);
  wl.msgs_per_tx = 10;
  xcc::TransferWorkload workload(tb, channel, wl, nullptr);
  workload.start();
  tb.run_until(tb.scheduler().now() + sim::seconds(300));
  r.stop();

  std::map<std::string, int> seen;
  for (int c = 0; c < 2; ++c) {
    const chain::Ledger& ledger = *tb.chain(c).ledger;
    for (chain::Height h = 1; h <= ledger.height(); ++h) {
      for (const chain::DeliverTxResult& res : *ledger.results_at(h)) {
        std::vector<chain::Event> want_events;
        for (const chain::Event& ev : res.events) {
          const ibc::PacketEvent* pe = ibc::packet_event(ev);
          if (pe == nullptr) {
            want_events.push_back(ev);
            continue;
          }
          const chain::Event want =
              oracle_event(pe->kind, pe->packet, pe->ack);
          EXPECT_EQ(ev.type, want.type);
          EXPECT_EQ(ev.rendered_attributes(), want.attributes) << ev.type;
          EXPECT_EQ(ev.encoded_size(), oracle::event_encoded_size(want));
          want_events.push_back(want);
          ++seen[ev.type];
        }
        EXPECT_EQ(res.encoded_size(), oracle::result_encoded_size(want_events));
      }
    }
  }
  for (const char* type : {"send_packet", "recv_packet",
                           "write_acknowledgement", "acknowledge_packet"}) {
    EXPECT_EQ(seen[type], transfers) << type;
  }
}

TEST(PacketEventOracle, KeeperEventsOnUnorderedChannelMatchTheStringRenderer) {
  check_committed_events(ibc::ChannelOrdering::kUnordered, 30);
}

TEST(PacketEventOracle, KeeperEventsOnOrderedChannelMatchTheStringRenderer) {
  check_committed_events(ibc::ChannelOrdering::kOrdered, 30);
}

// --- sharing ------------------------------------------------------------------

struct PacketEventSharing : ::testing::Test {
  sim::Scheduler sched;
  net::Network network{sched, net::NetworkConfig{}};
  cosmos::CosmosApp app{"share-chain"};
  chain::Ledger ledger{"share-chain"};
  chain::Mempool mempool{app, 10'000};
  rpc::Server server{sched, network, /*machine=*/0, ledger, mempool, app};

  /// Commits one block of `txs` txs; tx i emits a send_packet, a generic
  /// ibc_transfer and a write_acknowledgement event, both packet events for
  /// sequence i + 1.
  void commit_block(std::uint32_t txs) {
    chain::Block block;
    block.header.height = ledger.height() + 1;
    block.header.time = sched.now();
    std::vector<chain::DeliverTxResult> results(txs);
    for (std::uint32_t i = 0; i < txs; ++i) {
      chain::Tx tx;
      tx.sender = "alice";
      tx.sequence = i;
      tx.msgs.push_back(chain::Msg{"/x", util::to_bytes("m")});
      block.txs.push_back(chain::seal(std::move(tx)));
      ibc::Packet p;
      p.sequence = i + 1;
      p.source_port = p.destination_port = ibc::kTransferPort;
      p.source_channel = p.destination_channel = "channel-0";
      p.data = util::to_bytes(std::string(300, 'd'));
      p.timeout_height = 1'000;
      results[i].events.push_back(
          ibc::make_packet_event(PacketEventKind::kSend, p));
      results[i].events.push_back(chain::Event{"ibc_transfer", {{"a", "b"}}});
      results[i].events.push_back(ibc::make_packet_event(
          PacketEventKind::kWriteAck, p, ibc::Acknowledgement{}.encode()));
    }
    ledger.append(std::move(block), std::move(results), app.store().root(),
                  chain::Commit{});
    server.on_block_committed(*ledger.block_at(ledger.height()));
  }

  /// `events` hold the very payload objects of the ledger's events of tx
  /// `index` of block `h` (two packet events and a generic one per tx).
  void expect_shared(const std::vector<chain::Event>& events, chain::Height h,
                     std::uint32_t index) const {
    const std::vector<chain::Event>& stored =
        (*ledger.results_at(h))[index].events;
    ASSERT_EQ(events.size(), 3u);
    ASSERT_EQ(stored.size(), 3u);
    for (std::size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(events[k].payload.get(), stored[k].payload.get());
    }
    EXPECT_NE(events[0].payload, nullptr);
    EXPECT_EQ(events[1].payload, nullptr);
    EXPECT_NE(events[2].payload, nullptr);
  }
};

TEST_F(PacketEventSharing, ResponsesPagesFramesAndCacheHoldTheLedgersPayloads) {
  std::vector<rpc::NewBlockFrame> frames;
  server.subscribe_new_block(0, [&](const rpc::NewBlockFrame& f) {
    frames.push_back(f);
  });
  commit_block(4);
  sched.run_until(sched.now() + sim::seconds(5));

  // WebSocket frame: the block's results, in tx order.
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_TRUE(frames[0].events_ok);
  ASSERT_NE(frames[0].results, nullptr);
  ASSERT_EQ(frames[0].results->size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    expect_shared((*frames[0].results)[i].events, 1, i);
  }

  // query_tx.
  std::optional<util::Result<rpc::TxResponse>> tx_res;
  sim::spawn(server.query_tx(0, ledger.block_at(1)->txs[2]->hash()),
             [&](util::Result<rpc::TxResponse> r) { tx_res = std::move(r); });
  // A packet-event page, straight from the server and through the cache
  // (a miss, then a hit served from the cached page).
  std::optional<util::Result<rpc::TxSearchPage>> page;
  sim::spawn(server.query_packet_events(0, 1, "send_packet", 2, 3),
             [&](util::Result<rpc::TxSearchPage> r) { page = std::move(r); });
  relayer::QueryCacheConfig qc;
  qc.enabled = true;
  relayer::QueryCache cache(sched, qc);
  std::vector<rpc::TxSearchPage> cached;
  for (int round = 0; round < 2; ++round) {
    sim::spawn(
        cache.query_packet_events(server, 0, 1, "write_acknowledgement", 1, 4),
        [&](util::Result<rpc::TxSearchPage> r) {
          ASSERT_TRUE(r.is_ok());
          cached.push_back(r.take());
        });
    sched.run_until(sched.now() + sim::seconds(5));
  }
  EXPECT_EQ(cache.stats().hits, 1u);

  ASSERT_TRUE(tx_res.has_value() && tx_res->is_ok());
  expect_shared(tx_res->value().result->events, 1, 2);
  ASSERT_TRUE(page.has_value() && page->is_ok());
  ASSERT_EQ(page->value().txs.size(), 2u);
  for (const rpc::TxResponse& r : page->value().txs) {
    expect_shared(r.result->events, r.height, r.index);
  }
  ASSERT_EQ(cached.size(), 2u);
  for (const rpc::TxSearchPage& p : cached) {
    ASSERT_EQ(p.txs.size(), 4u);
    for (const rpc::TxResponse& r : p.txs) {
      expect_shared(r.result->events, r.height, r.index);
    }
  }
}

TEST_F(PacketEventSharing, CopiesAndSizesNeverTouchThePayload) {
  commit_block(2);
  const chain::DeliverTxResult& stored = (*ledger.results_at(1))[0];
  const std::size_t size = stored.encoded_size();
  const long uses = stored.events[0].payload.use_count();
  {
    const chain::DeliverTxResult copy = stored;
    EXPECT_EQ(copy.events[0].payload.get(), stored.events[0].payload.get());
    EXPECT_EQ(stored.events[0].payload.use_count(), uses + 1);
    EXPECT_EQ(copy.encoded_size(), size);
  }
  EXPECT_EQ(stored.events[0].payload.use_count(), uses);
  EXPECT_EQ(ledger.block_event_bytes(1),
            stored.encoded_size() + (*ledger.results_at(1))[1].encoded_size());
}

}  // namespace
