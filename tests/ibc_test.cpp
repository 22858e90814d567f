// IBC protocol tests: light clients, connection/channel handshakes, the
// packet life cycle (Fig. 2), timeouts (Fig. 3), exactly-once delivery,
// ICS-20 transfer semantics (escrow/mint/burn/refund, denom tracing) and
// conservation properties.

#include <gtest/gtest.h>

#include "cosmos/app.hpp"
#include "ibc/gas.hpp"
#include "ibc/host.hpp"
#include "ibc/keeper.hpp"
#include "ibc/msgs.hpp"
#include "ibc/transfer.hpp"
#include "util/rng.hpp"

namespace {

constexpr const char* kUserA = "user-a";
constexpr const char* kUserB = "user-b";

// Two directly-coupled chains (no consensus/network): the fixture plays the
// relayer, building proofs from one store and light-client updates signed by
// the real validator keys.
struct TwoChains : ::testing::Test {
  cosmos::CosmosApp app_a{"chain-a"};
  cosmos::CosmosApp app_b{"chain-b"};
  ibc::IbcKeeper ibc_a{app_a};
  ibc::IbcKeeper ibc_b{app_b};
  ibc::TransferModule transfer_a{app_a, ibc_a};
  ibc::TransferModule transfer_b{app_b, ibc_b};
  chain::ValidatorSet vals_a = chain::ValidatorSet::make("fixt-a", 4, 4);
  chain::ValidatorSet vals_b = chain::ValidatorSet::make("fixt-b", 4, 4);

  ibc::ClientId client_on_a;  // tracks chain-b
  ibc::ClientId client_on_b;  // tracks chain-a
  chain::Height height_a = 1;
  chain::Height height_b = 1;

  void SetUp() override {
    app_a.add_genesis_account(kUserA, 1'000'000'000);
    app_b.add_genesis_account(kUserB, 1'000'000'000);
    begin_block(app_a, height_a);
    begin_block(app_b, height_b);

    client_on_a = ibc_a.clients().create_client(
        client_state("chain-b", vals_b), height_b, consensus_of(app_b, height_b));
    client_on_b = ibc_b.clients().create_client(
        client_state("chain-a", vals_a), height_a, consensus_of(app_a, height_a));

    open_connection_and_channel();
  }

  static void begin_block(cosmos::CosmosApp& app, chain::Height h) {
    chain::BlockHeader header;
    header.height = h;
    header.time = sim::seconds(5.0 * static_cast<double>(h));
    app.begin_block(header);
  }

  static ibc::ClientState client_state(const chain::ChainId& id,
                                       const chain::ValidatorSet& vals) {
    ibc::ClientState cs;
    cs.chain_id = id;
    for (const auto& v : vals.validators()) {
      cs.validators.push_back(ibc::ClientValidator{v.keys.pub, v.power});
    }
    return cs;
  }

  static ibc::ConsensusState consensus_of(cosmos::CosmosApp& app,
                                          chain::Height h) {
    ibc::ConsensusState cs;
    cs.app_hash = app.store().root();
    cs.timestamp = sim::seconds(5.0 * static_cast<double>(h));
    return cs;
  }

  static ibc::Header signed_header(const chain::ChainId& id,
                                   const chain::ValidatorSet& vals,
                                   chain::Height h, cosmos::CosmosApp& app) {
    ibc::Header header;
    header.chain_id = id;
    header.height = h;
    header.time = sim::seconds(5.0 * static_cast<double>(h));
    header.app_hash_after = app.store().root();
    header.block_id.hash = crypto::sha256(util::to_bytes(
        id + "/block/" + std::to_string(h)));
    header.commit.height = h;
    header.commit.round = 0;
    header.commit.block_id = header.block_id;
    const util::Bytes sign_bytes =
        chain::vote_sign_bytes(id, h, 0, header.block_id);
    for (const auto& v : vals.validators()) {
      chain::CommitSig sig;
      sig.validator = v.keys.pub;
      sig.flag = chain::BlockIdFlag::kCommit;
      sig.signature = crypto::sign(v.keys.priv, sign_bytes);
      header.commit.signatures.push_back(sig);
    }
    return header;
  }

  /// Advances chain X's height and records a fresh consensus state of it on
  /// the counterparty (the relayer's UpdateClient).
  void sync_a_to_b() {
    ++height_a;
    begin_block(app_a, height_a);
    ASSERT_TRUE(ibc_b.clients()
                    .update_client(client_on_b,
                                   signed_header("chain-a", vals_a, height_a,
                                                 app_a))
                    .is_ok());
  }
  void sync_b_to_a() {
    ++height_b;
    begin_block(app_b, height_b);
    ASSERT_TRUE(ibc_a.clients()
                    .update_client(client_on_a,
                                   signed_header("chain-b", vals_b, height_b,
                                                 app_b))
                    .is_ok());
  }

  void open_connection_and_channel() {
    // Install OPEN ends directly (the message-driven handshake has its own
    // tests below).
    ibc::ConnectionEnd conn_a;
    conn_a.phase = ibc::ConnectionPhase::kOpen;
    conn_a.client_id = client_on_a;
    conn_a.counterparty_client_id = client_on_b;
    conn_a.counterparty_connection = "connection-0";
    ibc_a.connections().set(ibc_a.connections().generate_id(), conn_a);

    ibc::ConnectionEnd conn_b;
    conn_b.phase = ibc::ConnectionPhase::kOpen;
    conn_b.client_id = client_on_b;
    conn_b.counterparty_client_id = client_on_a;
    conn_b.counterparty_connection = "connection-0";
    ibc_b.connections().set(ibc_b.connections().generate_id(), conn_b);

    ibc::ChannelEnd chan_a;
    chan_a.phase = ibc::ChannelPhase::kOpen;
    chan_a.connection = "connection-0";
    chan_a.counterparty_port = ibc::kTransferPort;
    chan_a.counterparty_channel = "channel-0";
    chan_a.version = "ics20-1";
    ibc_a.channels().set(ibc::kTransferPort, ibc_a.channels().generate_id(),
                         chan_a);
    ibc_a.channels().set_next_sequence_send(ibc::kTransferPort, "channel-0", 1);
    ibc_a.channels().set_next_sequence_recv(ibc::kTransferPort, "channel-0", 1);
    ibc_a.channels().set_next_sequence_ack(ibc::kTransferPort, "channel-0", 1);

    ibc::ChannelEnd chan_b = chan_a;
    ibc_b.channels().set(ibc::kTransferPort, ibc_b.channels().generate_id(),
                         chan_b);
    ibc_b.channels().set_next_sequence_send(ibc::kTransferPort, "channel-0", 1);
    ibc_b.channels().set_next_sequence_recv(ibc::kTransferPort, "channel-0", 1);
    ibc_b.channels().set_next_sequence_ack(ibc::kTransferPort, "channel-0", 1);
  }

  chain::DeliverTxResult deliver(cosmos::CosmosApp& app,
                                 const chain::Address& sender,
                                 std::vector<chain::Msg> msgs,
                                 std::uint64_t gas = 50'000'000) {
    chain::Tx tx;
    tx.sender = sender;
    tx.sequence = app.auth().sequence(sender);
    tx.gas_limit = gas;
    tx.fee = static_cast<std::uint64_t>(gas * 0.01);
    tx.msgs = std::move(msgs);
    return app.deliver_tx(tx);
  }

  /// Sends amount from user-a on A; returns the packet reconstructed from
  /// the emitted send_packet event.
  ibc::Packet send_transfer(std::uint64_t amount,
                            std::int64_t timeout_height = 1'000,
                            const std::string& denom = cosmos::kNativeDenom,
                            const chain::Address& receiver = "recv-user") {
    ibc::MsgTransfer msg;
    msg.source_port = ibc::kTransferPort;
    msg.source_channel = "channel-0";
    msg.denom = denom;
    msg.amount = amount;
    msg.sender = kUserA;
    msg.receiver = receiver;
    msg.timeout_height = timeout_height;
    const auto res = deliver(app_a, kUserA, {msg.to_msg()});
    EXPECT_TRUE(res.status.is_ok()) << res.status.to_string();
    for (const chain::Event& ev : res.events) {
      if (ev.type == "send_packet") {
        auto pkt = ibc::packet_from_event(ev);
        EXPECT_TRUE(pkt.has_value());
        if (pkt) return *pkt;
      }
    }
    ADD_FAILURE() << "no send_packet event";
    return {};
  }

  /// Relays a packet A->B (proof + client update + MsgRecvPacket). Returns
  /// the DeliverTx result on B.
  chain::DeliverTxResult relay_recv(const ibc::Packet& packet) {
    sync_a_to_b();
    ibc::MsgRecvPacket msg;
    msg.packet = packet;
    msg.proof_commitment = app_a.store().prove(ibc::host::packet_commitment_key(
        packet.source_port, packet.source_channel, packet.sequence));
    msg.proof_height = height_a;
    return deliver(app_b, kUserB, {msg.to_msg()});
  }

  /// Relays the acknowledgement B->A. Returns the DeliverTx result on A.
  chain::DeliverTxResult relay_ack(const ibc::Packet& packet,
                                   const ibc::Acknowledgement& ack) {
    sync_b_to_a();
    ibc::MsgAcknowledgementMsg msg;
    msg.packet = packet;
    msg.ack = ack;
    msg.proof_ack = app_b.store().prove(ibc::host::packet_ack_key(
        packet.destination_port, packet.destination_channel, packet.sequence));
    msg.proof_height = height_b;
    return deliver(app_a, kUserA, {msg.to_msg()});
  }

  std::string voucher_on_b() const {
    return ibc::voucher_denom("transfer/channel-0/" +
                              std::string(cosmos::kNativeDenom));
  }
};

// --- light client ---------------------------------------------------------

TEST_F(TwoChains, ClientStateCodecRoundTrip) {
  const ibc::ClientState cs = client_state("chain-x", vals_a);
  ibc::ClientState out;
  ASSERT_TRUE(ibc::ClientState::decode(cs.encode(), out));
  EXPECT_EQ(out.chain_id, "chain-x");
  EXPECT_EQ(out.validators.size(), vals_a.size());
  EXPECT_EQ(out.validators[2].pub, vals_a.at(2).keys.pub);
}

TEST_F(TwoChains, UpdateClientAcceptsQuorumCommit) {
  sync_a_to_b();  // asserts success internally
  const auto cs = ibc_b.clients().consensus_state(client_on_b, height_a);
  ASSERT_TRUE(cs.is_ok());
  EXPECT_EQ(cs.value().app_hash, app_a.store().root());
}

TEST_F(TwoChains, UpdateClientRejectsInsufficientPower) {
  ++height_a;
  ibc::Header header = signed_header("chain-a", vals_a, height_a, app_a);
  // Keep only 2 of 4 signatures (< quorum of 3).
  header.commit.signatures.resize(2);
  EXPECT_EQ(ibc_b.clients().update_client(client_on_b, header).code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST_F(TwoChains, UpdateClientRejectsForgedSignature) {
  ++height_a;
  ibc::Header header = signed_header("chain-a", vals_a, height_a, app_a);
  header.commit.signatures[0].signature.mac[0] ^= 1;
  EXPECT_FALSE(ibc_b.clients().update_client(client_on_b, header).is_ok());
}

TEST_F(TwoChains, UpdateClientRejectsUnknownValidators) {
  ++height_a;
  const chain::ValidatorSet rogue = chain::ValidatorSet::make("rogue", 4, 4);
  ibc::Header header = signed_header("chain-a", rogue, height_a, app_a);
  // All signatures valid but from validators the client does not track.
  EXPECT_EQ(ibc_b.clients().update_client(client_on_b, header).code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST_F(TwoChains, UpdateClientRejectsWrongChainId) {
  ++height_a;
  ibc::Header header = signed_header("chain-zzz", vals_a, height_a, app_a);
  EXPECT_EQ(ibc_b.clients().update_client(client_on_b, header).code(),
            util::ErrorCode::kInvalidArgument);
}

TEST_F(TwoChains, VerifyMembershipChecksValueAndHeight) {
  app_a.store().set("ibc/test-key", util::to_bytes("value"));
  sync_a_to_b();
  const chain::StoreProof proof = app_a.store().prove("ibc/test-key");
  EXPECT_TRUE(ibc_b.clients()
                  .verify_membership(client_on_b, height_a, proof,
                                     "ibc/test-key", util::to_bytes("value"))
                  .is_ok());
  EXPECT_FALSE(ibc_b.clients()
                   .verify_membership(client_on_b, height_a, proof,
                                      "ibc/test-key", util::to_bytes("other"))
                   .is_ok());
  // Unknown consensus height.
  EXPECT_FALSE(ibc_b.clients()
                   .verify_membership(client_on_b, height_a + 7, proof,
                                      "ibc/test-key", util::to_bytes("value"))
                   .is_ok());
}

// --- packet life cycle -------------------------------------------------------

TEST_F(TwoChains, TransferEscrowsTokensAndStoresCommitment) {
  const std::uint64_t before = app_a.bank().balance(kUserA, cosmos::kNativeDenom);
  const ibc::Packet packet = send_transfer(500);
  EXPECT_EQ(packet.sequence, 1u);
  EXPECT_EQ(app_a.bank().balance(kUserA, cosmos::kNativeDenom) + 500 +
                /*fee*/ 500'000,
            before);
  EXPECT_EQ(app_a.bank().balance(
                ibc::escrow_address(ibc::kTransferPort, "channel-0"),
                cosmos::kNativeDenom),
            500u);
  EXPECT_TRUE(app_a.store().contains(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", 1)));
}

TEST_F(TwoChains, FullLifeCycleMintsVoucherAndClearsCommitment) {
  const ibc::Packet packet = send_transfer(500);
  const auto recv_res = relay_recv(packet);
  ASSERT_TRUE(recv_res.status.is_ok()) << recv_res.status.to_string();
  EXPECT_EQ(app_b.bank().balance("recv-user", voucher_on_b()), 500u);
  EXPECT_TRUE(app_b.store().contains(ibc::host::packet_receipt_key(
      ibc::kTransferPort, "channel-0", 1)));

  const auto ack_res = relay_ack(packet, ibc::Acknowledgement{true, ""});
  ASSERT_TRUE(ack_res.status.is_ok()) << ack_res.status.to_string();
  // Commitment deleted: life cycle complete (Fig. 2 step 7).
  EXPECT_FALSE(app_a.store().contains(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", 1)));
  EXPECT_EQ(ibc_a.packets_acknowledged(), 1u);
}

TEST_F(TwoChains, SequencesAssignedMonotonically) {
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(send_transfer(10).sequence, i);
  }
  EXPECT_EQ(
      ibc_a.channels().next_sequence_send(ibc::kTransferPort, "channel-0"), 6u);
}

TEST_F(TwoChains, RedundantRecvFails) {
  const ibc::Packet packet = send_transfer(100);
  ASSERT_TRUE(relay_recv(packet).status.is_ok());
  // The second relayer delivers the same packet: "packet messages are
  // redundant" (paper §IV-A).
  const auto res = relay_recv(packet);
  EXPECT_EQ(res.status.code(), util::ErrorCode::kRedundantPacket);
  EXPECT_EQ(ibc_b.redundant_messages(), 1u);
  // No double mint.
  EXPECT_EQ(app_b.bank().balance("recv-user", voucher_on_b()), 100u);
}

TEST_F(TwoChains, RedundantAckFails) {
  const ibc::Packet packet = send_transfer(100);
  ASSERT_TRUE(relay_recv(packet).status.is_ok());
  const ibc::Acknowledgement ack{true, ""};
  ASSERT_TRUE(relay_ack(packet, ack).status.is_ok());
  EXPECT_EQ(relay_ack(packet, ack).status.code(),
            util::ErrorCode::kRedundantPacket);
}

TEST_F(TwoChains, RecvRejectsForgedCommitmentProof) {
  const ibc::Packet packet = send_transfer(100);
  sync_a_to_b();
  ibc::MsgRecvPacket msg;
  msg.packet = packet;
  msg.packet.data = util::to_bytes("{\"amount\":\"99999\"}");  // tampered
  msg.proof_commitment = app_a.store().prove(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  msg.proof_height = height_a;
  const auto res = deliver(app_b, kUserB, {msg.to_msg()});
  EXPECT_FALSE(res.status.is_ok());
  EXPECT_EQ(app_b.bank().balance("recv-user", voucher_on_b()), 0u);
}

TEST_F(TwoChains, RecvRejectsExpiredPacket) {
  // Timeout at B height 3; B advances to 3 before delivery.
  const ibc::Packet packet = send_transfer(100, /*timeout_height=*/3);
  ++height_b;
  begin_block(app_b, height_b);  // height_b == 2
  ++height_b;
  begin_block(app_b, height_b);  // height_b == 3 -> expired
  sync_a_to_b();
  ibc::MsgRecvPacket msg;
  msg.packet = packet;
  msg.proof_commitment = app_a.store().prove(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  msg.proof_height = height_a;
  const auto res = deliver(app_b, kUserB, {msg.to_msg()});
  EXPECT_EQ(res.status.code(), util::ErrorCode::kTimeout);
}

TEST_F(TwoChains, TimeoutRefundsEscrow) {
  const ibc::Packet packet = send_transfer(700, /*timeout_height=*/2);
  const std::uint64_t after_send =
      app_a.bank().balance(kUserA, cosmos::kNativeDenom);

  // B reaches the timeout height without receiving the packet.
  sync_b_to_a();  // height_b == 2 == timeout -> expired
  ibc::MsgTimeout msg;
  msg.packet = packet;
  msg.proof_unreceived = app_b.store().prove(ibc::host::packet_receipt_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  msg.proof_height = height_b;
  const auto res = deliver(app_a, kUserA, {msg.to_msg()});
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();

  // Escrow released back to the sender (Fig. 3 OnPacketTimeout).
  EXPECT_EQ(app_a.bank().balance(kUserA, cosmos::kNativeDenom),
            after_send + 700 - res.gas_used * 0 - /*fee of timeout tx*/ 500'000);
  EXPECT_FALSE(app_a.store().contains(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", packet.sequence)));
  EXPECT_EQ(ibc_a.packets_timed_out(), 1u);
  EXPECT_EQ(transfer_a.refunds(), 1u);
}

TEST_F(TwoChains, TimeoutRejectedBeforeExpiry) {
  const ibc::Packet packet = send_transfer(700, /*timeout_height=*/100);
  sync_b_to_a();
  ibc::MsgTimeout msg;
  msg.packet = packet;
  msg.proof_unreceived = app_b.store().prove(ibc::host::packet_receipt_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  msg.proof_height = height_b;
  EXPECT_EQ(deliver(app_a, kUserA, {msg.to_msg()}).status.code(),
            util::ErrorCode::kFailedPrecondition);
}

TEST_F(TwoChains, TimeoutRejectedWhenPacketWasReceived) {
  const ibc::Packet packet = send_transfer(700, /*timeout_height=*/3);
  ASSERT_TRUE(relay_recv(packet).status.is_ok());
  // Advance B past the timeout; the receipt now exists, so the
  // non-membership proof cannot be produced honestly — a proof of the
  // existing receipt must be rejected.
  sync_b_to_a();
  sync_b_to_a();
  ibc::MsgTimeout msg;
  msg.packet = packet;
  msg.proof_unreceived = app_b.store().prove(ibc::host::packet_receipt_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  msg.proof_height = height_b;
  EXPECT_FALSE(deliver(app_a, kUserA, {msg.to_msg()}).status.is_ok());
}

TEST_F(TwoChains, FailedAckRefunds) {
  const ibc::Packet packet = send_transfer(300);
  ASSERT_TRUE(relay_recv(packet).status.is_ok());
  const std::uint64_t before =
      app_a.bank().balance(kUserA, cosmos::kNativeDenom);

  // Craft a failure acknowledgement and write it on B so the proof matches
  // (simulating an application-level rejection on the receiving side).
  const ibc::Acknowledgement fail_ack{false, "application rejected"};
  app_b.store().set(
      ibc::host::packet_ack_key(ibc::kTransferPort, "channel-0",
                                packet.sequence),
      crypto::digest_to_bytes(fail_ack.commitment()));
  const auto res = relay_ack(packet, fail_ack);
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  // Refund minus the ack tx fee paid by user-a in this fixture.
  EXPECT_EQ(app_a.bank().balance(kUserA, cosmos::kNativeDenom),
            before + 300 - 500'000);
  EXPECT_EQ(transfer_a.refunds(), 1u);
}

TEST_F(TwoChains, RecvRejectsTimestampExpiredPacket) {
  // Timeout by timestamp only: expires at B's block time of 15 s.
  ibc::MsgTransfer msg;
  msg.source_port = ibc::kTransferPort;
  msg.source_channel = "channel-0";
  msg.denom = cosmos::kNativeDenom;
  msg.amount = 10;
  msg.sender = kUserA;
  msg.receiver = "r";
  msg.timeout_height = 0;
  msg.timeout_timestamp = sim::seconds(15);
  const auto res = deliver(app_a, kUserA, {msg.to_msg()});
  ASSERT_TRUE(res.status.is_ok());
  ibc::Packet packet;
  for (const chain::Event& ev : res.events) {
    if (ev.type == "send_packet") packet = *ibc::packet_from_event(ev);
  }
  EXPECT_EQ(packet.timeout_timestamp, sim::seconds(15));

  // Advance B to height 3 => block time 15 s >= timeout.
  ++height_b;
  begin_block(app_b, height_b);
  ++height_b;
  begin_block(app_b, height_b);
  sync_a_to_b();
  ibc::MsgRecvPacket recv;
  recv.packet = packet;
  recv.proof_commitment = app_a.store().prove(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  recv.proof_height = height_a;
  EXPECT_EQ(deliver(app_b, kUserB, {recv.to_msg()}).status.code(),
            util::ErrorCode::kTimeout);
}

TEST_F(TwoChains, TimestampTimeoutRefundsViaConsensusTime) {
  ibc::MsgTransfer msg;
  msg.source_port = ibc::kTransferPort;
  msg.source_channel = "channel-0";
  msg.denom = cosmos::kNativeDenom;
  msg.amount = 40;
  msg.sender = kUserA;
  msg.receiver = "r";
  msg.timeout_height = 0;
  msg.timeout_timestamp = sim::seconds(9);  // B's block 2 is at t=10 s
  const auto res = deliver(app_a, kUserA, {msg.to_msg()});
  ASSERT_TRUE(res.status.is_ok());
  ibc::Packet packet;
  for (const chain::Event& ev : res.events) {
    if (ev.type == "send_packet") packet = *ibc::packet_from_event(ev);
  }

  // A's client of B records consensus timestamp 10 s at height 2 — past the
  // packet's 9 s timeout.
  sync_b_to_a();
  ibc::MsgTimeout timeout;
  timeout.packet = packet;
  timeout.proof_unreceived = app_b.store().prove(ibc::host::packet_receipt_key(
      ibc::kTransferPort, "channel-0", packet.sequence));
  timeout.proof_height = height_b;
  const auto t = deliver(app_a, kUserA, {timeout.to_msg()});
  ASSERT_TRUE(t.status.is_ok()) << t.status.to_string();
  EXPECT_EQ(ibc_a.packets_timed_out(), 1u);
}

TEST_F(TwoChains, MultiHopVoucherUnescrowsIntermediateDenom) {
  // A packet returning a multi-hop voucher: the trace still has another hop
  // after stripping ours, so the local representation is itself a voucher.
  const std::string inner_path = "transfer/channel-5/ufoo";
  const std::string local_voucher = ibc::voucher_denom(inner_path);
  // Escrow holds that voucher (as if it was previously sent out through our
  // channel).
  app_b.bank().mint(ibc::escrow_address(ibc::kTransferPort, "channel-0"),
                    cosmos::Coin{local_voucher, 90});

  ibc::Packet p;
  p.sequence = 500;
  p.source_port = ibc::kTransferPort;
  p.source_channel = "channel-0";
  p.destination_port = ibc::kTransferPort;
  p.destination_channel = "channel-0";
  ibc::FungibleTokenPacketData data;
  data.denom = "transfer/channel-0/" + inner_path;  // returning, multi-hop
  data.amount = 90;
  data.sender = "someone";
  data.receiver = "hopper";
  p.data = data.to_json();
  p.timeout_height = 1'000;
  app_a.store().set(ibc::host::packet_commitment_key(ibc::kTransferPort,
                                                     "channel-0", 500),
                    crypto::digest_to_bytes(p.commitment()));
  sync_a_to_b();
  ibc::MsgRecvPacket recv;
  recv.packet = p;
  recv.proof_commitment = app_a.store().prove(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", 500));
  recv.proof_height = height_a;
  const auto res = deliver(app_b, kUserB, {recv.to_msg()});
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  EXPECT_EQ(app_b.bank().balance("hopper", local_voucher), 90u);
}

// --- ICS-20 semantics -----------------------------------------------------------

TEST_F(TwoChains, VoucherDenomIsPathHash) {
  const std::string path = "transfer/channel-0/uatom";
  const std::string denom = ibc::voucher_denom(path);
  EXPECT_EQ(denom.substr(0, 4), "ibc/");
  EXPECT_EQ(denom.size(), 4 + 64u);
  // Uppercase hex, deterministic.
  EXPECT_EQ(denom, ibc::voucher_denom(path));
  for (char c : denom.substr(4)) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'A' && c <= 'F'));
  }
}

// voucher_denom memoises per trace path in a bounded table. More distinct
// paths than it holds, asked in rising, falling and strided order and
// repeated, must each get the hash of their own path: no answer may come
// from an evicted or a neighbouring entry.
TEST(VoucherDenomMemo, EveryPathGetsItsOwnHash) {
  const auto expected = [](const std::string& path) {
    std::string hex =
        util::to_hex(crypto::sha256(util::as_bytes(std::string_view(path))));
    for (char& c : hex) c = static_cast<char>(std::toupper(c));
    return "ibc/" + hex;
  };
  constexpr int kPaths = 200;  // the table holds 64
  std::vector<std::string> paths;
  for (int i = 0; i < kPaths; ++i) {
    paths.push_back("transfer/channel-" + std::to_string(i % 7) +
                    "/transfer/channel-" + std::to_string(i) + "/uatom");
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kPaths; ++i) {
      const int j = round == 0 ? i : round == 1 ? kPaths - 1 - i
                                                : (i * 37) % kPaths;
      ASSERT_EQ(ibc::voucher_denom(paths[j]), expected(paths[j]))
          << "round " << round << " path " << paths[j];
      ASSERT_EQ(ibc::voucher_denom(paths[j]), expected(paths[j]))
          << "repeated, round " << round << " path " << paths[j];
    }
  }
}

TEST_F(TwoChains, DenomTraceRecordedOnMint) {
  const ibc::Packet packet = send_transfer(10);
  ASSERT_TRUE(relay_recv(packet).status.is_ok());
  EXPECT_EQ(transfer_b.trace_path(voucher_on_b()),
            "transfer/channel-0/uatom");
  EXPECT_EQ(transfer_b.trace_path("ibc/0000"), "");
}

TEST_F(TwoChains, RoundTripReturnsNativeTokens) {
  // A -> B: escrow on A, mint voucher on B.
  const ibc::Packet p1 = send_transfer(250, 1'000, cosmos::kNativeDenom,
                                       kUserB);
  ASSERT_TRUE(relay_recv(p1).status.is_ok());
  ASSERT_TRUE(relay_ack(p1, ibc::Acknowledgement{true, ""}).status.is_ok());
  EXPECT_EQ(app_b.bank().balance(kUserB, voucher_on_b()), 250u);

  // B -> A: burn voucher on B, unescrow native on A.
  ibc::MsgTransfer back;
  back.source_port = ibc::kTransferPort;
  back.source_channel = "channel-0";
  back.denom = voucher_on_b();
  back.amount = 250;
  back.sender = kUserB;
  back.receiver = "returned-user";
  back.timeout_height = 1'000;
  const auto res = deliver(app_b, kUserB, {back.to_msg()});
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  EXPECT_EQ(app_b.bank().balance(kUserB, voucher_on_b()), 0u);
  EXPECT_EQ(app_b.bank().supply(voucher_on_b()), 0u);

  // Relay B -> A.
  ibc::Packet p2;
  for (const chain::Event& ev : res.events) {
    if (ev.type == "send_packet") p2 = *ibc::packet_from_event(ev);
  }
  sync_b_to_a();
  ibc::MsgRecvPacket recv;
  recv.packet = p2;
  recv.proof_commitment = app_b.store().prove(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", p2.sequence));
  recv.proof_height = height_b;
  const auto recv_res = deliver(app_a, kUserA, {recv.to_msg()});
  ASSERT_TRUE(recv_res.status.is_ok()) << recv_res.status.to_string();

  // Unescrowed as native uatom, not a voucher.
  EXPECT_EQ(app_a.bank().balance("returned-user", cosmos::kNativeDenom), 250u);
  EXPECT_EQ(app_a.bank().balance(
                ibc::escrow_address(ibc::kTransferPort, "channel-0"),
                cosmos::kNativeDenom),
            0u);
}

TEST_F(TwoChains, TransferRejectsZeroAmount) {
  ibc::MsgTransfer msg;
  msg.source_port = ibc::kTransferPort;
  msg.source_channel = "channel-0";
  msg.denom = cosmos::kNativeDenom;
  msg.amount = 0;
  msg.sender = kUserA;
  msg.receiver = "x";
  msg.timeout_height = 100;
  EXPECT_EQ(deliver(app_a, kUserA, {msg.to_msg()}).status.code(),
            util::ErrorCode::kInvalidArgument);
}

TEST_F(TwoChains, TransferRejectsInsufficientBalance) {
  ibc::MsgTransfer msg;
  msg.source_port = ibc::kTransferPort;
  msg.source_channel = "channel-0";
  msg.denom = cosmos::kNativeDenom;
  msg.amount = 100'000'000'000ULL;
  msg.sender = kUserA;
  msg.receiver = "x";
  msg.timeout_height = 100;
  EXPECT_FALSE(deliver(app_a, kUserA, {msg.to_msg()}).status.is_ok());
}

TEST_F(TwoChains, TransferRequiresTimeout) {
  ibc::MsgTransfer msg;
  msg.source_port = ibc::kTransferPort;
  msg.source_channel = "channel-0";
  msg.denom = cosmos::kNativeDenom;
  msg.amount = 5;
  msg.sender = kUserA;
  msg.receiver = "x";
  msg.timeout_height = 0;
  msg.timeout_timestamp = 0;
  EXPECT_FALSE(deliver(app_a, kUserA, {msg.to_msg()}).status.is_ok());
}

TEST_F(TwoChains, MalformedPacketDataYieldsErrorAck) {
  // Deliver a packet whose data is not valid ICS-20 JSON; the module must
  // produce an error acknowledgement, not crash or mint.
  ibc::MsgTransfer msg;
  msg.source_port = ibc::kTransferPort;
  msg.source_channel = "channel-0";
  msg.denom = cosmos::kNativeDenom;
  msg.amount = 5;
  msg.sender = kUserA;
  msg.receiver = "x";
  msg.timeout_height = 1'000;
  const auto send_res = deliver(app_a, kUserA, {msg.to_msg()});
  ASSERT_TRUE(send_res.status.is_ok());
  ibc::Packet packet;
  for (const chain::Event& ev : send_res.events) {
    if (ev.type == "send_packet") packet = *ibc::packet_from_event(ev);
  }
  // Tamper the data on A *before* the commitment... impossible; instead send
  // a hand-built packet with garbage data and a matching hand-built
  // commitment on a fresh sequence.
  ibc::Packet garbage;
  garbage.sequence = 999;
  garbage.source_port = ibc::kTransferPort;
  garbage.source_channel = "channel-0";
  garbage.destination_port = ibc::kTransferPort;
  garbage.destination_channel = "channel-0";
  garbage.data = util::to_bytes("not json at all");
  garbage.timeout_height = 1'000;
  app_a.store().set(ibc::host::packet_commitment_key(ibc::kTransferPort,
                                                     "channel-0", 999),
                    crypto::digest_to_bytes(garbage.commitment()));
  sync_a_to_b();
  ibc::MsgRecvPacket recv;
  recv.packet = garbage;
  recv.proof_commitment = app_a.store().prove(ibc::host::packet_commitment_key(
      ibc::kTransferPort, "channel-0", 999));
  recv.proof_height = height_a;
  const auto res = deliver(app_b, kUserB, {recv.to_msg()});
  // recv itself succeeds; the *acknowledgement* carries the app error.
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  bool found_error_ack = false;
  for (const chain::Event& ev : res.events) {
    if (ev.type == "write_acknowledgement") {
      ibc::Acknowledgement ack;
      ASSERT_TRUE(ibc::Acknowledgement::decode(
          util::to_bytes(ev.attribute("packet_ack")), ack));
      EXPECT_FALSE(ack.success);
      found_error_ack = true;
    }
  }
  EXPECT_TRUE(found_error_ack);
}

// --- gas (paper §IV-A anchors) ---------------------------------------------------

TEST_F(TwoChains, GasMatchesPaperAnchors) {
  // 100 transfers: ~3,669,161 gas (±1%).
  std::vector<chain::Msg> transfers;
  for (int i = 0; i < 100; ++i) {
    ibc::MsgTransfer m;
    m.source_port = ibc::kTransferPort;
    m.source_channel = "channel-0";
    m.denom = cosmos::kNativeDenom;
    m.amount = 1;
    m.sender = kUserA;
    m.receiver = "r";
    m.timeout_height = 10'000;
    transfers.push_back(m.to_msg());
  }
  const auto res = deliver(app_a, kUserA, std::move(transfers));
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_NEAR(static_cast<double>(res.gas_used), 3'669'161.0,
              3'669'161.0 * 0.02);
}

// --- codec round trips (property) --------------------------------------------------

TEST(PacketCodec, RoundTrip) {
  ibc::Packet p;
  p.sequence = 42;
  p.source_port = "transfer";
  p.source_channel = "channel-3";
  p.destination_port = "transfer";
  p.destination_channel = "channel-9";
  p.data = util::to_bytes("{\"amount\":\"1\"}");
  p.timeout_height = 777;
  p.timeout_timestamp = 123'456'789;
  ibc::Packet out;
  ASSERT_TRUE(ibc::Packet::decode(p.encode(), out));
  EXPECT_EQ(out.sequence, p.sequence);
  EXPECT_EQ(out.source_channel, p.source_channel);
  EXPECT_EQ(out.destination_channel, p.destination_channel);
  EXPECT_EQ(out.data, p.data);
  EXPECT_EQ(out.timeout_height, p.timeout_height);
  EXPECT_EQ(out.commitment(), p.commitment());
}

TEST(PacketCodec, CommitmentBindsDataAndTimeout) {
  ibc::Packet p;
  p.data = util::to_bytes("x");
  p.timeout_height = 10;
  const crypto::Digest base = p.commitment();
  p.timeout_height = 11;
  EXPECT_NE(p.commitment(), base);
  p.timeout_height = 10;
  p.data = util::to_bytes("y");
  EXPECT_NE(p.commitment(), base);
}

TEST(PacketCodec, FungibleDataJsonRoundTrip) {
  ibc::FungibleTokenPacketData d;
  d.denom = "transfer/channel-0/uatom";
  d.amount = 9'999;
  d.sender = "user-\"quoted\"";
  d.receiver = "recv\\slash";
  ibc::FungibleTokenPacketData out;
  ASSERT_TRUE(ibc::FungibleTokenPacketData::from_json(d.to_json(), out));
  EXPECT_EQ(out.denom, d.denom);
  EXPECT_EQ(out.amount, d.amount);
  EXPECT_EQ(out.sender, d.sender);
  EXPECT_EQ(out.receiver, d.receiver);
}

TEST(PacketCodec, FungibleDataRejectsMalformed) {
  ibc::FungibleTokenPacketData out;
  EXPECT_FALSE(ibc::FungibleTokenPacketData::from_json(
      util::to_bytes("not json"), out));
  EXPECT_FALSE(ibc::FungibleTokenPacketData::from_json(
      util::to_bytes("{\"amount\":\"1\"}"), out));  // missing fields
  EXPECT_FALSE(ibc::FungibleTokenPacketData::from_json(
      util::to_bytes(
          "{\"amount\":\"x\",\"denom\":\"d\",\"receiver\":\"r\",\"sender\":\"s\"}"),
      out));  // non-numeric amount
}

// Property: every IBC message type round-trips through its codec.
TEST(MsgCodec, RecvPacketRoundTrip) {
  ibc::MsgRecvPacket m;
  m.packet.sequence = 5;
  m.packet.source_port = "transfer";
  m.packet.source_channel = "channel-0";
  m.packet.destination_port = "transfer";
  m.packet.destination_channel = "channel-1";
  m.packet.data = util::to_bytes("d");
  m.packet.timeout_height = 9;
  m.proof_commitment.key = "k";
  m.proof_commitment.exists = true;
  m.proof_commitment.value = util::to_bytes("v");
  m.proof_height = 12;
  ibc::MsgRecvPacket out;
  ASSERT_TRUE(ibc::MsgRecvPacket::from_msg(m.to_msg(), out));
  EXPECT_EQ(out.packet.sequence, 5u);
  EXPECT_EQ(out.proof_commitment.key, "k");
  EXPECT_TRUE(out.proof_commitment.exists);
  EXPECT_EQ(out.proof_height, 12);
}

TEST(MsgCodec, TransferRoundTrip) {
  ibc::MsgTransfer m;
  m.source_port = "transfer";
  m.source_channel = "channel-2";
  m.denom = "uatom";
  m.amount = 77;
  m.sender = "s";
  m.receiver = "r";
  m.timeout_height = 100;
  m.timeout_timestamp = 200;
  ibc::MsgTransfer out;
  ASSERT_TRUE(ibc::MsgTransfer::from_msg(m.to_msg(), out));
  EXPECT_EQ(out.amount, 77u);
  EXPECT_EQ(out.source_channel, "channel-2");
  EXPECT_EQ(out.timeout_timestamp, 200);
}

TEST(MsgCodec, WrongUrlRejected) {
  ibc::MsgTransfer m;
  chain::Msg env = m.to_msg();
  env.type_url = "/something.Else";
  ibc::MsgTransfer out;
  EXPECT_FALSE(ibc::MsgTransfer::from_msg(env, out));
}

// --- pinned bytes -----------------------------------------------------------
//
// Store keys, message payloads and the ICS-20 JSON as literal bytes. The
// round-trip tests above pass for any symmetric change of a codec; these
// fail on any change at all, so a rewrite of a key builder or an encoder
// must keep every byte (and so every proof, gas figure and digest).

TEST(PinnedBytes, StoreKeys) {
  EXPECT_EQ(cosmos::BankKeeper::balance_key("user-a", "uatom").str(),
            "bank/bal/user-a|uatom");
  EXPECT_EQ(cosmos::BankKeeper::supply_key("uatom").str(),
            "bank/supply/uatom");
  EXPECT_EQ(cosmos::AuthKeeper::seq_key("user-a").str(), "auth/seq/user-a");
  EXPECT_EQ(ibc::escrow_address("transfer", "channel-0").str(),
            "escrow-transfer-channel-0");
  namespace host = ibc::host;
  EXPECT_EQ(host::client_state_key("07-tendermint-0").str(),
            "ibc/clients/07-tendermint-0/clientState");
  EXPECT_EQ(host::consensus_state_key("07-tendermint-0", 42).str(),
            "ibc/clients/07-tendermint-0/consensusStates/42");
  EXPECT_EQ(host::connection_key("connection-0").str(),
            "ibc/connections/connection-0");
  EXPECT_EQ(host::channel_key("transfer", "channel-0").str(),
            "ibc/channelEnds/ports/transfer/channels/channel-0");
  EXPECT_EQ(host::packet_commitment_key("transfer", "channel-0", 17).str(),
            "ibc/commitments/ports/transfer/channels/channel-0/sequences/17");
  EXPECT_EQ(host::packet_receipt_key("transfer", "channel-0", 17).str(),
            "ibc/receipts/ports/transfer/channels/channel-0/sequences/17");
  EXPECT_EQ(host::packet_ack_key("transfer", "channel-0", 17).str(),
            "ibc/acks/ports/transfer/channels/channel-0/sequences/17");
  EXPECT_EQ(host::next_sequence_send_key("transfer", "channel-0").str(),
            "ibc/nextSequenceSend/ports/transfer/channels/channel-0");
  EXPECT_EQ(host::next_sequence_recv_key("transfer", "channel-0").str(),
            "ibc/nextSequenceRecv/ports/transfer/channels/channel-0");
  EXPECT_EQ(host::next_sequence_ack_key("transfer", "channel-0").str(),
            "ibc/nextSequenceAck/ports/transfer/channels/channel-0");
  EXPECT_EQ(host::packet_commitment_prefix("transfer", "channel-0").str(),
            "ibc/commitments/ports/transfer/channels/channel-0/sequences/");
}

ibc::MsgTransfer pinned_transfer() {
  ibc::MsgTransfer m;
  m.source_port = "transfer";
  m.source_channel = "channel-0";
  m.denom = "uatom";
  m.amount = 1000;
  m.sender = "user-a";
  m.receiver = "recv-user";
  m.timeout_height = 100000;
  return m;
}

TEST(PinnedBytes, MsgTransfer) {
  const chain::Msg msg = pinned_transfer().to_msg();
  EXPECT_EQ(msg.type_url, "/ibc.applications.transfer.v1.MsgTransfer");
  EXPECT_EQ(util::to_hex(msg.value),
            "000000087472616e73666572000000096368616e6e656c2d3000000005756174"
            "6f6d00000000000003e800000006757365722d6100000009726563762d757365"
            "7200000000000186a00000000000000000");
}

TEST(PinnedBytes, TwoMsgTx) {
  ibc::MsgTransfer forward = pinned_transfer();
  forward.amount = 7;
  forward.receiver = "fwd:channel-1:bob";
  forward.timeout_timestamp = 123456789;
  chain::Tx tx;
  tx.sender = "user-a";
  tx.sequence = 3;
  tx.gas_limit = 200000;
  tx.fee = 2000;
  tx.msgs = {pinned_transfer().to_msg(), forward.to_msg()};
  tx.memo = "memo";
  EXPECT_EQ(
      util::to_hex(tx.encode()),
      "00000006757365722d6100000000000000030000000000030d4000000000000007"
      "d000000002000000292f6962632e6170706c69636174696f6e732e7472616e7366"
      "65722e76312e4d73675472616e7366657200000051000000087472616e73666572"
      "000000096368616e6e656c2d30000000057561746f6d00000000000003e8000000"
      "06757365722d6100000009726563762d7573657200000000000186a00000000000"
      "000000000000292f6962632e6170706c69636174696f6e732e7472616e73666572"
      "2e76312e4d73675472616e7366657200000059000000087472616e736665720000"
      "00096368616e6e656c2d30000000057561746f6d00000000000000070000000675"
      "7365722d61000000116677643a6368616e6e656c2d313a626f6200000000000186"
      "a000000000075bcd15000000046d656d6f");
}

TEST(PinnedBytes, FungibleTokenPacketDataJson) {
  ibc::FungibleTokenPacketData d;
  d.denom = "transfer/channel-0/uatom";
  d.amount = 1000;
  d.sender = "user-a";
  d.receiver = "re\"c\\v";  // both escaped characters
  EXPECT_EQ(util::to_string(d.to_json()),
            "{\"amount\":\"1000\",\"denom\":\"transfer/channel-0/uatom\","
            "\"receiver\":\"re\\\"c\\\\v\",\"sender\":\"user-a\"}");
}

TEST(PinnedBytes, ChannelEnd) {
  ibc::ChannelEnd e;
  e.phase = ibc::ChannelPhase::kOpen;
  e.connection = "connection-0";
  e.counterparty_port = "transfer";
  e.counterparty_channel = "channel-0";
  e.version = "ics20-1";
  EXPECT_EQ(util::to_hex(e.encode()),
            "03010000000c636f6e6e656374696f6e2d30000000087472616e736665720000"
            "00096368616e6e656c2d300000000769637332302d31");
}

TEST(PinnedBytes, CommitmentAndGasJitter) {
  ibc::FungibleTokenPacketData d;
  d.denom = "transfer/channel-0/uatom";
  d.amount = 1000;
  d.sender = "user-a";
  d.receiver = "re\"c\\v";
  ibc::Packet p;
  p.sequence = 17;
  p.source_port = "transfer";
  p.source_channel = "channel-0";
  p.destination_port = "transfer";
  p.destination_channel = "channel-1";
  p.data = d.to_json();
  p.timeout_height = 100000;
  p.timeout_timestamp = 5;
  EXPECT_EQ(crypto::digest_hex(p.commitment()),
            "3ed92f8b1e6b695d5e292458319601c68869188259dfda23365f32b419834ea3");
  EXPECT_EQ(ibc::jittered_gas(36000, 0.01, 1), 35908u);
  EXPECT_EQ(ibc::jittered_gas(36000, 0.01, 2), 36216u);
  EXPECT_EQ(ibc::jittered_gas(70700, 0.041, 12345), 72711u);
}

// --- channel-end memo -------------------------------------------------------

// ChannelKeeper::get reuses its last decode of a channel end while the
// stored bytes are unchanged. A close must show at the very next send, in
// the same block, and a reverted close must not linger in the memo.
TEST_F(TwoChains, ChannelEndMemoFollowsStoredBytes) {
  const auto transfer_msg = [](std::uint64_t amount) {
    ibc::MsgTransfer m;
    m.source_port = ibc::kTransferPort;
    m.source_channel = "channel-0";
    m.denom = cosmos::kNativeDenom;
    m.amount = amount;
    m.sender = kUserA;
    m.receiver = "recv-user";
    m.timeout_height = 1'000;
    return m.to_msg();
  };
  ibc::MsgChanCloseInit close;
  close.port = ibc::kTransferPort;
  close.channel = "channel-0";

  ASSERT_TRUE(deliver(app_a, kUserA, {transfer_msg(10)}).status.is_ok());

  // A tx that closes the channel and then sends on it fails at the send
  // (which reads the closed end), and its revert restores the open end.
  const auto reverted =
      deliver(app_a, kUserA, {close.to_msg(), transfer_msg(10)});
  EXPECT_EQ(reverted.status.code(), util::ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(deliver(app_a, kUserA, {transfer_msg(10)}).status.is_ok());

  // A committed close is seen by the next send of the same block.
  ASSERT_TRUE(deliver(app_a, kUserA, {close.to_msg()}).status.is_ok());
  const auto after_close = deliver(app_a, kUserA, {transfer_msg(10)});
  EXPECT_EQ(after_close.status.code(), util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(ibc_a.channels().get(ibc::kTransferPort, "channel-0").value().phase,
            ibc::ChannelPhase::kClosed);
}

// --- conservation property -----------------------------------------------------

// Property: under random interleavings of transfers, relays, acks and
// timeouts, escrowed tokens on A always equal the voucher supply on B plus
// in-flight packets' amounts.
class ConservationProperty : public TwoChains,
                             public ::testing::WithParamInterface<int> {};

TEST_P(ConservationProperty, EscrowEqualsVouchersPlusInFlight) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  struct InFlight {
    ibc::Packet packet;
    bool received = false;
  };
  std::vector<InFlight> flights;
  std::uint64_t in_flight_amount = 0;

  for (int step = 0; step < 60; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.4) {
      const std::uint64_t amount = 1 + rng.next_below(1'000);
      flights.push_back({send_transfer(amount, 1'000'000), false});
      in_flight_amount += amount;
    } else if (dice < 0.7 && !flights.empty()) {
      const std::size_t i = rng.next_below(flights.size());
      if (!flights[i].received) {
        ASSERT_TRUE(relay_recv(flights[i].packet).status.is_ok());
        flights[i].received = true;
        ibc::FungibleTokenPacketData d;
        ASSERT_TRUE(ibc::FungibleTokenPacketData::from_json(
            flights[i].packet.data, d));
        in_flight_amount -= d.amount;
      }
    } else if (!flights.empty()) {
      const std::size_t i = rng.next_below(flights.size());
      if (flights[i].received) {
        const auto res =
            relay_ack(flights[i].packet, ibc::Acknowledgement{true, ""});
        if (res.status.is_ok()) {
          flights.erase(flights.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    const std::uint64_t escrow = app_a.bank().balance(
        ibc::escrow_address(ibc::kTransferPort, "channel-0"),
        cosmos::kNativeDenom);
    const std::uint64_t vouchers = app_b.bank().supply(voucher_on_b());
    EXPECT_EQ(escrow, vouchers + in_flight_amount) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
