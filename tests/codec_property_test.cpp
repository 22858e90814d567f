// Codec round-trip property tests: packets, acknowledgements, ICS-20 packet
// data and the handshake/packet messages survive encode -> decode across
// randomized payloads, and decoding rejects truncated input. All randomness
// is drawn from a fixed-seed util::Rng, so failures reproduce exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ibc/msgs.hpp"
#include "ibc/packet.hpp"
#include "ibc/transfer.hpp"
#include "util/rng.hpp"

namespace {

constexpr int kRounds = 200;

std::string random_string(util::Rng& rng, std::size_t max_len) {
  // Printable-and-beyond: exercise separators, quotes and high bytes.
  static const char alphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      "-_/.|\"\\{}:, ";
  const std::size_t len = rng.next_below(max_len + 1);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.next_below(sizeof(alphabet) - 1)]);
  }
  return s;
}

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.next_below(max_len + 1);
  util::Bytes b(len);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_below(256));
  return b;
}

chain::StoreProof random_proof(util::Rng& rng) {
  chain::StoreProof p;
  p.key = random_string(rng, 64);
  p.value = random_bytes(rng, 128);
  p.exists = rng.chance(0.5);
  for (std::size_t i = 0; i < p.root.size(); ++i) {
    p.root[i] = static_cast<std::uint8_t>(rng.next_below(256));
    p.binding[i] = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return p;
}

ibc::Packet random_packet(util::Rng& rng) {
  ibc::Packet p;
  p.sequence = rng.next_u64();
  p.source_port = random_string(rng, 24);
  p.source_channel = random_string(rng, 24);
  p.destination_port = random_string(rng, 24);
  p.destination_channel = random_string(rng, 24);
  p.data = random_bytes(rng, 512);
  p.timeout_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
  p.timeout_timestamp = static_cast<std::int64_t>(rng.next_u64() >> 1);
  return p;
}

bool equal(const ibc::Packet& a, const ibc::Packet& b) {
  return a.sequence == b.sequence && a.source_port == b.source_port &&
         a.source_channel == b.source_channel &&
         a.destination_port == b.destination_port &&
         a.destination_channel == b.destination_channel && a.data == b.data &&
         a.timeout_height == b.timeout_height &&
         a.timeout_timestamp == b.timeout_timestamp;
}

bool equal(const chain::StoreProof& a, const chain::StoreProof& b) {
  return a.key == b.key && a.value == b.value && a.exists == b.exists &&
         a.root == b.root && a.binding == b.binding;
}

TEST(CodecProperty, PacketRoundTrip) {
  util::Rng rng(0xC0DEC001);
  for (int i = 0; i < kRounds; ++i) {
    const ibc::Packet p = random_packet(rng);
    const util::Bytes wire = p.encode();
    ibc::Packet out;
    ASSERT_TRUE(ibc::Packet::decode(wire, out)) << "round " << i;
    EXPECT_TRUE(equal(p, out)) << "round " << i;
    // Identical packets commit identically; decode preserves the commitment.
    EXPECT_EQ(p.commitment(), out.commitment());
  }
}

TEST(CodecProperty, PacketDecodeRejectsTruncation) {
  util::Rng rng(0xC0DEC002);
  for (int i = 0; i < 50; ++i) {
    const util::Bytes wire = random_packet(rng).encode();
    ibc::Packet out;
    // Every strict prefix must fail: no partial packet may parse cleanly.
    for (std::size_t cut = 0; cut < wire.size();
         cut += 1 + rng.next_below(7)) {
      EXPECT_FALSE(ibc::Packet::decode(
          util::BytesView(wire.data(), cut), out))
          << "round " << i << " cut " << cut;
    }
  }
}

TEST(CodecProperty, AcknowledgementRoundTrip) {
  util::Rng rng(0xC0DEC003);
  for (int i = 0; i < kRounds; ++i) {
    ibc::Acknowledgement ack;
    ack.success = rng.chance(0.5);
    ack.error = ack.success ? "" : random_string(rng, 96);
    ibc::Acknowledgement out;
    ASSERT_TRUE(ibc::Acknowledgement::decode(ack.encode(), out));
    EXPECT_EQ(ack.success, out.success);
    EXPECT_EQ(ack.error, out.error);
    EXPECT_EQ(ack.commitment(), out.commitment());
  }
}

// from_json(to_json(d)) == d for every d: send_transfer hands the struct it
// encoded to the send_packet event instead of decoding the bytes back, and
// that is only the same event if the round trip is exact. Strings mix
// quotes, backslashes, control and high bytes; amounts reach 20 digits.
TEST(CodecProperty, FungibleTokenPacketDataJsonRoundTrip) {
  util::Rng rng(0xC0DEC004);
  const auto any_bytes = [&rng](std::size_t max_len) {
    std::string s = random_string(rng, max_len);
    for (char& c : s) {
      if (rng.chance(0.25)) c = static_cast<char>(rng.next_below(256));
    }
    return s;
  };
  for (int i = 0; i < kRounds; ++i) {
    ibc::FungibleTokenPacketData data;
    data.denom = any_bytes(64);
    data.amount = i % 4 == 0 ? ~std::uint64_t{0} - rng.next_below(1000)
                             : rng.next_u64();
    data.sender = any_bytes(48);
    data.receiver = any_bytes(48);
    ibc::FungibleTokenPacketData out;
    ASSERT_TRUE(
        ibc::FungibleTokenPacketData::from_json(data.to_json(), out))
        << "round " << i << " denom=" << data.denom;
    EXPECT_EQ(out, data) << "round " << i;
  }
}

TEST(CodecProperty, PacketMessagesRoundTrip) {
  util::Rng rng(0xC0DEC005);
  for (int i = 0; i < kRounds; ++i) {
    {
      ibc::MsgRecvPacket m;
      m.packet = random_packet(rng);
      m.proof_commitment = random_proof(rng);
      m.proof_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      ibc::MsgRecvPacket out;
      ASSERT_TRUE(ibc::MsgRecvPacket::from_msg(m.to_msg(), out));
      EXPECT_TRUE(equal(m.packet, out.packet));
      EXPECT_TRUE(equal(m.proof_commitment, out.proof_commitment));
      EXPECT_EQ(m.proof_height, out.proof_height);
    }
    {
      ibc::MsgAcknowledgementMsg m;
      m.packet = random_packet(rng);
      m.ack.success = rng.chance(0.5);
      m.ack.error = m.ack.success ? "" : random_string(rng, 64);
      m.proof_ack = random_proof(rng);
      m.proof_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      ibc::MsgAcknowledgementMsg out;
      ASSERT_TRUE(ibc::MsgAcknowledgementMsg::from_msg(m.to_msg(), out));
      EXPECT_TRUE(equal(m.packet, out.packet));
      EXPECT_EQ(m.ack.success, out.ack.success);
      EXPECT_EQ(m.ack.error, out.ack.error);
      EXPECT_TRUE(equal(m.proof_ack, out.proof_ack));
    }
    {
      ibc::MsgTimeout m;
      m.packet = random_packet(rng);
      m.proof_unreceived = random_proof(rng);
      m.proof_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      m.next_sequence_recv = rng.next_u64();
      ibc::MsgTimeout out;
      ASSERT_TRUE(ibc::MsgTimeout::from_msg(m.to_msg(), out));
      EXPECT_TRUE(equal(m.packet, out.packet));
      EXPECT_TRUE(equal(m.proof_unreceived, out.proof_unreceived));
      EXPECT_EQ(m.next_sequence_recv, out.next_sequence_recv);
    }
    {
      ibc::MsgTransfer m;
      m.source_port = random_string(rng, 24);
      m.source_channel = random_string(rng, 24);
      m.denom = random_string(rng, 64);
      m.amount = rng.next_u64();
      m.sender = random_string(rng, 48);
      m.receiver = random_string(rng, 48);
      m.timeout_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      m.timeout_timestamp = static_cast<std::int64_t>(rng.next_u64() >> 1);
      ibc::MsgTransfer out;
      ASSERT_TRUE(ibc::MsgTransfer::from_msg(m.to_msg(), out));
      EXPECT_EQ(m.denom, out.denom);
      EXPECT_EQ(m.amount, out.amount);
      EXPECT_EQ(m.sender, out.sender);
      EXPECT_EQ(m.receiver, out.receiver);
      EXPECT_EQ(m.timeout_height, out.timeout_height);
      EXPECT_EQ(m.timeout_timestamp, out.timeout_timestamp);
    }
  }
}

TEST(CodecProperty, HandshakeMessagesRoundTrip) {
  util::Rng rng(0xC0DEC006);
  for (int i = 0; i < kRounds; ++i) {
    {
      ibc::MsgConnOpenTry m;
      m.client_id = random_string(rng, 24);
      m.counterparty_client_id = random_string(rng, 24);
      m.counterparty_connection = random_string(rng, 24);
      m.proof_init = random_proof(rng);
      m.proof_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      ibc::MsgConnOpenTry out;
      ASSERT_TRUE(ibc::MsgConnOpenTry::from_msg(m.to_msg(), out));
      EXPECT_EQ(m.client_id, out.client_id);
      EXPECT_EQ(m.counterparty_client_id, out.counterparty_client_id);
      EXPECT_EQ(m.counterparty_connection, out.counterparty_connection);
      EXPECT_TRUE(equal(m.proof_init, out.proof_init));
      EXPECT_EQ(m.proof_height, out.proof_height);
    }
    {
      ibc::MsgChanOpenTry m;
      m.port = random_string(rng, 24);
      m.connection = random_string(rng, 24);
      m.counterparty_port = random_string(rng, 24);
      m.counterparty_channel = random_string(rng, 24);
      m.ordering = rng.chance(0.5) ? ibc::ChannelOrdering::kOrdered
                                   : ibc::ChannelOrdering::kUnordered;
      m.version = random_string(rng, 16);
      m.proof_init = random_proof(rng);
      m.proof_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      ibc::MsgChanOpenTry out;
      ASSERT_TRUE(ibc::MsgChanOpenTry::from_msg(m.to_msg(), out));
      EXPECT_EQ(m.port, out.port);
      EXPECT_EQ(m.connection, out.connection);
      EXPECT_EQ(m.counterparty_port, out.counterparty_port);
      EXPECT_EQ(m.counterparty_channel, out.counterparty_channel);
      EXPECT_EQ(m.ordering, out.ordering);
      EXPECT_EQ(m.version, out.version);
      EXPECT_TRUE(equal(m.proof_init, out.proof_init));
    }
    {
      ibc::MsgChanOpenAck m;
      m.port = random_string(rng, 24);
      m.channel = random_string(rng, 24);
      m.counterparty_channel = random_string(rng, 24);
      m.proof_try = random_proof(rng);
      m.proof_height = static_cast<std::int64_t>(rng.next_u64() >> 1);
      ibc::MsgChanOpenAck out;
      ASSERT_TRUE(ibc::MsgChanOpenAck::from_msg(m.to_msg(), out));
      EXPECT_EQ(m.port, out.port);
      EXPECT_EQ(m.channel, out.channel);
      EXPECT_EQ(m.counterparty_channel, out.counterparty_channel);
      EXPECT_TRUE(equal(m.proof_try, out.proof_try));
    }
  }
}

TEST(CodecProperty, MessagesRejectMismatchedTypeUrl) {
  ibc::MsgRecvPacket recv;
  recv.packet.sequence = 1;
  ibc::MsgTimeout out;
  // A recv payload under the recv URL must not parse as a timeout.
  EXPECT_FALSE(ibc::MsgTimeout::from_msg(recv.to_msg(), out));
}

}  // namespace
