#include "ibc/keeper.hpp"

#include <algorithm>

#include "ibc/host.hpp"

namespace ibc {

namespace {
util::Status err(util::ErrorCode code, std::string msg) {
  return util::Status::error(code, std::move(msg));
}
}  // namespace

IbcKeeper::IbcKeeper(cosmos::CosmosApp& app, GasTable gas)
    : app_(app),
      store_(app.store()),
      gas_(gas),
      clients_(store_),
      connections_(store_),
      channels_(store_) {
  for (const std::string* url :
       {&kMsgCreateClientUrl, &kMsgUpdateClientUrl, &kMsgSubmitMisbehaviourUrl,
        &kMsgRecoverClientUrl, &kMsgConnOpenInitUrl, &kMsgConnOpenTryUrl,
        &kMsgConnOpenAckUrl, &kMsgConnOpenConfirmUrl, &kMsgChanOpenInitUrl,
        &kMsgChanOpenTryUrl, &kMsgChanOpenAckUrl, &kMsgChanOpenConfirmUrl,
        &kMsgChanCloseInitUrl, &kMsgChanCloseConfirmUrl, &kMsgRecvPacketUrl,
        &kMsgAcknowledgementUrl, &kMsgTimeoutUrl}) {
    app_.register_handler(*url, this);
  }
}

void IbcKeeper::bind_port(const PortId& port, IbcModule* module) {
  ports_[port] = module;
}

IbcModule* IbcKeeper::module_for(const PortId& port) const {
  const auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : it->second;
}

util::Status IbcKeeper::handle(const chain::Msg& msg, cosmos::MsgContext& ctx) {
  if (msg.type_url == kMsgRecvPacketUrl) return handle_recv_packet(msg, ctx);
  if (msg.type_url == kMsgAcknowledgementUrl)
    return handle_acknowledgement(msg, ctx);
  if (msg.type_url == kMsgTimeoutUrl) return handle_timeout(msg, ctx);
  if (msg.type_url == kMsgUpdateClientUrl)
    return handle_update_client(msg, ctx);
  if (msg.type_url == kMsgCreateClientUrl)
    return handle_create_client(msg, ctx);
  if (msg.type_url == kMsgSubmitMisbehaviourUrl)
    return handle_submit_misbehaviour(msg, ctx);
  if (msg.type_url == kMsgRecoverClientUrl)
    return handle_recover_client(msg, ctx);
  if (msg.type_url == kMsgConnOpenInitUrl)
    return handle_conn_open_init(msg, ctx);
  if (msg.type_url == kMsgConnOpenTryUrl) return handle_conn_open_try(msg, ctx);
  if (msg.type_url == kMsgConnOpenAckUrl) return handle_conn_open_ack(msg, ctx);
  if (msg.type_url == kMsgConnOpenConfirmUrl)
    return handle_conn_open_confirm(msg, ctx);
  if (msg.type_url == kMsgChanOpenInitUrl)
    return handle_chan_open_init(msg, ctx);
  if (msg.type_url == kMsgChanOpenTryUrl) return handle_chan_open_try(msg, ctx);
  if (msg.type_url == kMsgChanOpenAckUrl) return handle_chan_open_ack(msg, ctx);
  if (msg.type_url == kMsgChanOpenConfirmUrl)
    return handle_chan_open_confirm(msg, ctx);
  if (msg.type_url == kMsgChanCloseInitUrl)
    return handle_chan_close_init(msg, ctx);
  if (msg.type_url == kMsgChanCloseConfirmUrl)
    return handle_chan_close_confirm(msg, ctx);
  return err(util::ErrorCode::kNotFound, "unroutable IBC msg " + msg.type_url);
}

// --- clients ----------------------------------------------------------------

util::Status IbcKeeper::handle_create_client(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgCreateClient m;
  if (!MsgCreateClient::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed MsgCreateClient");
  }
  ctx.gas_used += gas_.create_client;
  const ClientId id =
      clients_.create_client(m.client_state, m.initial_height,
                             m.initial_consensus);
  ctx.events->push_back(chain::Event{
      "create_client",
      {{"client_id", id}, {"chain_id", m.client_state.chain_id}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_update_client(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgUpdateClient m;
  if (!MsgUpdateClient::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed MsgUpdateClient");
  }
  ctx.gas_used += gas_.update_client;
  util::Status s =
      clients_.update_client(m.client_id, m.header, verify_now(ctx));
  if (!s.is_ok()) return s;
  ctx.events->push_back(chain::Event{
      "update_client",
      {{"client_id", m.client_id},
       {"consensus_height", std::to_string(m.header.height)}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_submit_misbehaviour(const chain::Msg& msg,
                                                   cosmos::MsgContext& ctx) {
  MsgSubmitMisbehaviour m;
  if (!MsgSubmitMisbehaviour::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument,
               "malformed MsgSubmitMisbehaviour");
  }
  ctx.gas_used += gas_.submit_misbehaviour;
  util::Status s =
      clients_.submit_misbehaviour(m.client_id, m.header_1, m.header_2);
  if (!s.is_ok()) return s;
  ctx.events->push_back(chain::Event{
      "client_misbehaviour",
      {{"client_id", m.client_id},
       {"misbehaviour_height", std::to_string(m.header_1.height)}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_recover_client(const chain::Msg& msg,
                                              cosmos::MsgContext& ctx) {
  MsgRecoverClient m;
  if (!MsgRecoverClient::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed MsgRecoverClient");
  }
  ctx.gas_used += gas_.recover_client;
  util::Status s = clients_.recover_client(
      m.subject_client_id, m.substitute_state, m.substitute_height,
      m.substitute_consensus, verify_now(ctx));
  if (!s.is_ok()) return s;
  ctx.events->push_back(chain::Event{
      "recover_client",
      {{"subject_client_id", m.subject_client_id},
       {"substitute_height", std::to_string(m.substitute_height)}}});
  return util::Status::ok();
}

// --- connection handshake ------------------------------------------------------

util::Status IbcKeeper::handle_conn_open_init(const chain::Msg& msg,
                                              cosmos::MsgContext& ctx) {
  MsgConnOpenInit m;
  if (!MsgConnOpenInit::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ConnOpenInit");
  }
  ctx.gas_used += gas_.handshake_msg;
  if (!clients_.client_exists(m.client_id)) {
    return err(util::ErrorCode::kNotFound, "client not found: " + m.client_id);
  }
  const ConnectionId id = connections_.generate_id();
  ConnectionEnd end;
  end.phase = ConnectionPhase::kInit;
  end.client_id = m.client_id;
  end.counterparty_client_id = m.counterparty_client_id;
  connections_.set(id, end);
  ctx.events->push_back(chain::Event{
      "connection_open_init",
      {{"connection_id", id}, {"client_id", m.client_id}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_conn_open_try(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgConnOpenTry m;
  if (!MsgConnOpenTry::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ConnOpenTry");
  }
  ctx.gas_used += gas_.handshake_msg;
  // Expected counterparty end: INIT, with the client roles mirrored.
  ConnectionEnd expected;
  expected.phase = ConnectionPhase::kInit;
  expected.client_id = m.counterparty_client_id;
  expected.counterparty_client_id = m.client_id;
  util::Status s = clients_.verify_membership(
      m.client_id, m.proof_height, m.proof_init,
      host::connection_key(m.counterparty_connection), expected.encode(),
      verify_now(ctx));
  if (!s.is_ok()) return s;

  const ConnectionId id = connections_.generate_id();
  ConnectionEnd end;
  end.phase = ConnectionPhase::kTryOpen;
  end.client_id = m.client_id;
  end.counterparty_client_id = m.counterparty_client_id;
  end.counterparty_connection = m.counterparty_connection;
  connections_.set(id, end);
  ctx.events->push_back(chain::Event{
      "connection_open_try",
      {{"connection_id", id},
       {"counterparty_connection_id", m.counterparty_connection}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_conn_open_ack(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgConnOpenAck m;
  if (!MsgConnOpenAck::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ConnOpenAck");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto end_res = connections_.get(m.connection_id);
  if (!end_res.is_ok()) return end_res.status();
  ConnectionEnd end = end_res.take();
  if (end.phase != ConnectionPhase::kInit) {
    return err(util::ErrorCode::kFailedPrecondition,
               "connection " + m.connection_id + " not in INIT");
  }
  ConnectionEnd expected;
  expected.phase = ConnectionPhase::kTryOpen;
  expected.client_id = end.counterparty_client_id;
  expected.counterparty_client_id = end.client_id;
  expected.counterparty_connection = m.connection_id;
  util::Status s = clients_.verify_membership(
      end.client_id, m.proof_height, m.proof_try,
      host::connection_key(m.counterparty_connection), expected.encode(),
      verify_now(ctx));
  if (!s.is_ok()) return s;

  end.phase = ConnectionPhase::kOpen;
  end.counterparty_connection = m.counterparty_connection;
  connections_.set(m.connection_id, end);
  ctx.events->push_back(chain::Event{
      "connection_open_ack", {{"connection_id", m.connection_id}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_conn_open_confirm(const chain::Msg& msg,
                                                 cosmos::MsgContext& ctx) {
  MsgConnOpenConfirm m;
  if (!MsgConnOpenConfirm::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ConnOpenConfirm");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto end_res = connections_.get(m.connection_id);
  if (!end_res.is_ok()) return end_res.status();
  ConnectionEnd end = end_res.take();
  if (end.phase != ConnectionPhase::kTryOpen) {
    return err(util::ErrorCode::kFailedPrecondition,
               "connection " + m.connection_id + " not in TRYOPEN");
  }
  ConnectionEnd expected;
  expected.phase = ConnectionPhase::kOpen;
  expected.client_id = end.counterparty_client_id;
  expected.counterparty_client_id = end.client_id;
  expected.counterparty_connection = m.connection_id;
  util::Status s = clients_.verify_membership(
      end.client_id, m.proof_height, m.proof_ack,
      host::connection_key(end.counterparty_connection), expected.encode(),
      verify_now(ctx));
  if (!s.is_ok()) return s;

  end.phase = ConnectionPhase::kOpen;
  connections_.set(m.connection_id, end);
  ctx.events->push_back(chain::Event{
      "connection_open_confirm", {{"connection_id", m.connection_id}}});
  return util::Status::ok();
}

// --- channel handshake -----------------------------------------------------------

util::Status IbcKeeper::handle_chan_open_init(const chain::Msg& msg,
                                              cosmos::MsgContext& ctx) {
  MsgChanOpenInit m;
  if (!MsgChanOpenInit::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ChanOpenInit");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto conn = connections_.get(m.connection);
  if (!conn.is_ok()) return conn.status();
  if (!module_for(m.port)) {
    return err(util::ErrorCode::kNotFound, "no module bound to " + m.port);
  }
  const ChannelId id = channels_.generate_id();
  ChannelEnd end;
  end.phase = ChannelPhase::kInit;
  end.ordering = m.ordering;
  end.connection = m.connection;
  end.counterparty_port = m.counterparty_port;
  end.version = m.version;
  channels_.set(m.port, id, end);
  channels_.set_next_sequence_send(m.port, id, 1);
  channels_.set_next_sequence_recv(m.port, id, 1);
  channels_.set_next_sequence_ack(m.port, id, 1);
  ctx.events->push_back(chain::Event{
      "channel_open_init",
      {{"port_id", m.port}, {"channel_id", id},
       {"connection_id", m.connection}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_chan_open_try(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgChanOpenTry m;
  if (!MsgChanOpenTry::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ChanOpenTry");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto conn = connections_.get(m.connection);
  if (!conn.is_ok()) return conn.status();
  if (conn.value().phase != ConnectionPhase::kOpen) {
    return err(util::ErrorCode::kFailedPrecondition,
               "connection not open: " + m.connection);
  }
  if (!module_for(m.port)) {
    return err(util::ErrorCode::kNotFound, "no module bound to " + m.port);
  }
  ChannelEnd expected;
  expected.phase = ChannelPhase::kInit;
  expected.ordering = m.ordering;
  expected.connection = conn.value().counterparty_connection;
  expected.counterparty_port = m.port;
  expected.version = m.version;
  util::Status s = clients_.verify_membership(
      conn.value().client_id, m.proof_height, m.proof_init,
      host::channel_key(m.counterparty_port, m.counterparty_channel),
      expected.encode(), verify_now(ctx));
  if (!s.is_ok()) return s;

  const ChannelId id = channels_.generate_id();
  ChannelEnd end;
  end.phase = ChannelPhase::kTryOpen;
  end.ordering = m.ordering;
  end.connection = m.connection;
  end.counterparty_port = m.counterparty_port;
  end.counterparty_channel = m.counterparty_channel;
  end.version = m.version;
  channels_.set(m.port, id, end);
  channels_.set_next_sequence_send(m.port, id, 1);
  channels_.set_next_sequence_recv(m.port, id, 1);
  channels_.set_next_sequence_ack(m.port, id, 1);
  ctx.events->push_back(chain::Event{
      "channel_open_try",
      {{"port_id", m.port}, {"channel_id", id},
       {"counterparty_channel_id", m.counterparty_channel}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_chan_open_ack(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgChanOpenAck m;
  if (!MsgChanOpenAck::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ChanOpenAck");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto chan_res = channels_.get(m.port, m.channel);
  if (!chan_res.is_ok()) return chan_res.status();
  ChannelEnd chan = chan_res.take();
  if (chan.phase != ChannelPhase::kInit) {
    return err(util::ErrorCode::kFailedPrecondition,
               "channel not in INIT: " + m.channel);
  }
  auto conn = connections_.get(chan.connection);
  if (!conn.is_ok()) return conn.status();

  ChannelEnd expected;
  expected.phase = ChannelPhase::kTryOpen;
  expected.ordering = chan.ordering;
  expected.connection = conn.value().counterparty_connection;
  expected.counterparty_port = m.port;
  expected.counterparty_channel = m.channel;
  expected.version = chan.version;
  util::Status s = clients_.verify_membership(
      conn.value().client_id, m.proof_height, m.proof_try,
      host::channel_key(chan.counterparty_port, m.counterparty_channel),
      expected.encode(), verify_now(ctx));
  if (!s.is_ok()) return s;

  chan.phase = ChannelPhase::kOpen;
  chan.counterparty_channel = m.counterparty_channel;
  channels_.set(m.port, m.channel, chan);
  ctx.events->push_back(chain::Event{
      "channel_open_ack", {{"port_id", m.port}, {"channel_id", m.channel}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_chan_open_confirm(const chain::Msg& msg,
                                                 cosmos::MsgContext& ctx) {
  MsgChanOpenConfirm m;
  if (!MsgChanOpenConfirm::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ChanOpenConfirm");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto chan_res = channels_.get(m.port, m.channel);
  if (!chan_res.is_ok()) return chan_res.status();
  ChannelEnd chan = chan_res.take();
  if (chan.phase != ChannelPhase::kTryOpen) {
    return err(util::ErrorCode::kFailedPrecondition,
               "channel not in TRYOPEN: " + m.channel);
  }
  auto conn = connections_.get(chan.connection);
  if (!conn.is_ok()) return conn.status();

  ChannelEnd expected;
  expected.phase = ChannelPhase::kOpen;
  expected.ordering = chan.ordering;
  expected.connection = conn.value().counterparty_connection;
  expected.counterparty_port = m.port;
  expected.counterparty_channel = m.channel;
  expected.version = chan.version;
  util::Status s = clients_.verify_membership(
      conn.value().client_id, m.proof_height, m.proof_ack,
      host::channel_key(chan.counterparty_port, chan.counterparty_channel),
      expected.encode(), verify_now(ctx));
  if (!s.is_ok()) return s;

  chan.phase = ChannelPhase::kOpen;
  channels_.set(m.port, m.channel, chan);
  ctx.events->push_back(chain::Event{
      "channel_open_confirm", {{"port_id", m.port}, {"channel_id", m.channel}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_chan_close_init(const chain::Msg& msg,
                                               cosmos::MsgContext& ctx) {
  MsgChanCloseInit m;
  if (!MsgChanCloseInit::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ChanCloseInit");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto chan_res = channels_.get(m.port, m.channel);
  if (!chan_res.is_ok()) return chan_res.status();
  ChannelEnd chan = chan_res.take();
  if (chan.phase != ChannelPhase::kOpen) {
    return err(util::ErrorCode::kFailedPrecondition,
               "channel not open: " + m.channel);
  }
  chan.phase = ChannelPhase::kClosed;
  channels_.set(m.port, m.channel, chan);
  ctx.events->push_back(chain::Event{
      "channel_close_init", {{"port_id", m.port}, {"channel_id", m.channel}}});
  return util::Status::ok();
}

util::Status IbcKeeper::handle_chan_close_confirm(const chain::Msg& msg,
                                                  cosmos::MsgContext& ctx) {
  MsgChanCloseConfirm m;
  if (!MsgChanCloseConfirm::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed ChanCloseConfirm");
  }
  ctx.gas_used += gas_.handshake_msg;
  auto chan_res = channels_.get(m.port, m.channel);
  if (!chan_res.is_ok()) return chan_res.status();
  ChannelEnd chan = chan_res.take();
  if (chan.phase == ChannelPhase::kClosed) {
    return err(util::ErrorCode::kFailedPrecondition,
               "channel already closed: " + m.channel);
  }
  auto conn = connections_.get(chan.connection);
  if (!conn.is_ok()) return conn.status();

  // The counterparty end must be CLOSED.
  ChannelEnd expected;
  expected.phase = ChannelPhase::kClosed;
  expected.ordering = chan.ordering;
  expected.connection = conn.value().counterparty_connection;
  expected.counterparty_port = m.port;
  expected.counterparty_channel = m.channel;
  expected.version = chan.version;
  util::Status s = clients_.verify_membership(
      conn.value().client_id, m.proof_height, m.proof_init,
      host::channel_key(chan.counterparty_port, chan.counterparty_channel),
      expected.encode(), verify_now(ctx));
  if (!s.is_ok()) return s;

  chan.phase = ChannelPhase::kClosed;
  channels_.set(m.port, m.channel, chan);
  ctx.events->push_back(chain::Event{
      "channel_close_confirm",
      {{"port_id", m.port}, {"channel_id", m.channel}}});
  return util::Status::ok();
}

// --- packet life cycle ---------------------------------------------------------

util::Result<ClientId> IbcKeeper::channel_client(const PortId& port,
                                                 const ChannelId& channel) const {
  auto chan = channels_.get(port, channel);
  if (!chan.is_ok()) return chan.status();
  auto conn = connections_.get(chan.value().connection);
  if (!conn.is_ok()) return conn.status();
  return conn.value().client_id;
}

util::Result<Sequence> IbcKeeper::send_packet(
    const PortId& source_port, const ChannelId& source_channel,
    Sequence sequence, util::Bytes data, std::int64_t timeout_height,
    std::int64_t timeout_timestamp, cosmos::MsgContext& ctx,
    std::optional<FungibleTokenPacketData> transfer_data) {
  auto chan_res = channels_.get(source_port, source_channel);
  if (!chan_res.is_ok()) return chan_res.status();
  const ChannelEnd& chan = chan_res.value();
  if (chan.phase != ChannelPhase::kOpen) {
    return util::Status(err(util::ErrorCode::kFailedPrecondition,
                            "channel not open: " + source_channel));
  }
  if (timeout_height == 0 && timeout_timestamp == 0) {
    return util::Status(err(util::ErrorCode::kInvalidArgument,
                            "packet must have a timeout"));
  }

  Packet packet;
  packet.sequence = sequence;
  packet.source_port = source_port;
  packet.source_channel = source_channel;
  packet.destination_port = chan.counterparty_port;
  packet.destination_channel = chan.counterparty_channel;
  packet.data = std::move(data);
  packet.timeout_height = timeout_height;
  packet.timeout_timestamp = timeout_timestamp;

  channels_.set_next_sequence_send(source_port, source_channel,
                                   packet.sequence + 1);
  const crypto::Digest commitment = packet.commitment();
  store_.set(host::packet_commitment_key(source_port, source_channel,
                                         packet.sequence),
             commitment);

  ctx.events->push_back(make_packet_event(PacketEventKind::kSend,
                                          std::move(packet), {},
                                          std::move(transfer_data)));
  return sequence;
}

util::Status IbcKeeper::handle_recv_packet(const chain::Msg& msg,
                                           cosmos::MsgContext& ctx) {
  MsgRecvPacket m;
  if (!MsgRecvPacket::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed MsgRecvPacket");
  }
  const Packet& p = m.packet;
  ctx.gas_used +=
      jittered_gas(gas_.recv_packet, gas_.recv_jitter, p.sequence);

  auto chan_res = channels_.get(p.destination_port, p.destination_channel);
  if (!chan_res.is_ok()) return chan_res.status();
  const ChannelEnd& chan = chan_res.value();
  if (chan.phase != ChannelPhase::kOpen) {
    return err(util::ErrorCode::kFailedPrecondition, "channel not open");
  }
  if (chan.counterparty_port != p.source_port ||
      chan.counterparty_channel != p.source_channel) {
    return err(util::ErrorCode::kInvalidArgument,
               "packet source does not match channel counterparty");
  }

  // Timeout checks: a packet that has expired cannot be received.
  if (p.timeout_height != 0 && ctx.height >= p.timeout_height) {
    return err(util::ErrorCode::kTimeout, "packet timeout height reached");
  }
  if (p.timeout_timestamp != 0 &&
      ctx.block_time >= p.timeout_timestamp) {
    return err(util::ErrorCode::kTimeout, "packet timeout timestamp reached");
  }

  // Exactly-once delivery. UNORDERED channels track per-sequence receipts;
  // ORDERED channels enforce strict sequence order via nextSequenceRecv.
  // Hermes logs duplicates as "packet messages are redundant" — the error
  // that erodes two-relayer throughput (paper §IV-A).
  const util::Key receipt_key = host::packet_receipt_key(
      p.destination_port, p.destination_channel, p.sequence);
  if (chan.ordering == ChannelOrdering::kOrdered) {
    util::Status order = util::Status::ok();
    channels_.update_sequence(
        host::next_sequence_recv_key(p.destination_port,
                                     p.destination_channel),
        [&](Sequence next) -> std::optional<Sequence> {
          if (!faults_.skip_replay_check) {
            if (p.sequence < next) {
              ++redundant_messages_;
              order = err(util::ErrorCode::kRedundantPacket,
                          "packet messages are redundant: sequence " +
                              std::to_string(p.sequence));
              return std::nullopt;
            }
            if (p.sequence > next) {
              order = err(util::ErrorCode::kFailedPrecondition,
                          "ordered channel: expected sequence " +
                              std::to_string(next) + ", got " +
                              std::to_string(p.sequence));
              return std::nullopt;
            }
          }
          return std::max(next, p.sequence) + 1;
        });
    if (!order.is_ok()) return order;
  } else if (store_.contains(receipt_key) && !faults_.skip_replay_check) {
    ++redundant_messages_;
    return err(util::ErrorCode::kRedundantPacket,
               "packet messages are redundant: sequence " +
                   std::to_string(p.sequence));
  }

  // Verify the sender committed to exactly this packet.
  auto client = channel_client(p.destination_port, p.destination_channel);
  if (!client.is_ok()) return client.status();
  const crypto::Digest commitment = p.commitment();
  util::Status s = clients_.verify_membership(
      client.value(), m.proof_height, m.proof_commitment,
      host::packet_commitment_key(p.source_port, p.source_channel, p.sequence),
      commitment, verify_now(ctx));
  if (!s.is_ok()) return s;

  // Route to the application module and write receipt + acknowledgement.
  IbcModule* module = module_for(p.destination_port);
  if (!module) {
    return err(util::ErrorCode::kNotFound,
               "no module bound to " + p.destination_port);
  }
  if (chan.ordering != ChannelOrdering::kOrdered) {
    constexpr std::uint8_t kReceipt = 1;
    store_.set(receipt_key, util::BytesView(&kReceipt, 1));
  }
  // The ICS-20 data, decoded once for the module and both events.
  std::optional<FungibleTokenPacketData> data =
      FungibleTokenPacketData::decode(p.data);
  // The module may defer its acknowledgement (nullopt): the receipt above
  // still guards exactly-once delivery, but no ack is stored or announced
  // until the module calls write_acknowledgement — the forward middleware's
  // hold-until-next-hop-resolves behaviour.
  std::optional<Acknowledgement> ack =
      module->on_recv_packet(p, data ? &*data : nullptr, ctx);
  if (ack.has_value()) {
    store_.set(host::packet_ack_key(p.destination_port, p.destination_channel,
                                    p.sequence),
               ack->commitment());
  }
  ++packets_received_;

  const util::Bytes ack_bytes = ack.has_value() ? ack->encode() : util::Bytes{};
  ctx.events->push_back(
      make_packet_event(PacketEventKind::kRecv, p, ack_bytes, data));
  if (ack.has_value()) {
    ctx.events->push_back(make_packet_event(PacketEventKind::kWriteAck, p,
                                            ack_bytes, std::move(data)));
  }
  return util::Status::ok();
}

util::Status IbcKeeper::write_acknowledgement(const Packet& packet,
                                              const Acknowledgement& ack,
                                              cosmos::MsgContext& ctx) {
  const Packet& p = packet;
  const util::Key ack_key = host::packet_ack_key(
      p.destination_port, p.destination_channel, p.sequence);
  if (store_.contains(ack_key)) {
    return err(util::ErrorCode::kFailedPrecondition,
               "acknowledgement already written for sequence " +
                   std::to_string(p.sequence));
  }
  auto chan_res = channels_.get(p.destination_port, p.destination_channel);
  if (!chan_res.is_ok()) return chan_res.status();
  // The packet must actually have been received here (receipt for UNORDERED
  // channels, an advanced nextSequenceRecv for ORDERED ones).
  const bool received =
      chan_res.value().ordering == ChannelOrdering::kOrdered
          ? channels_.next_sequence_recv(p.destination_port,
                                         p.destination_channel) > p.sequence
          : store_.contains(host::packet_receipt_key(
                p.destination_port, p.destination_channel, p.sequence));
  if (!received) {
    return err(util::ErrorCode::kFailedPrecondition,
               "cannot acknowledge unreceived sequence " +
                   std::to_string(p.sequence));
  }
  store_.set(ack_key, ack.commitment());
  ctx.events->push_back(
      make_packet_event(PacketEventKind::kWriteAck, p, ack.encode()));
  return util::Status::ok();
}

util::Status IbcKeeper::handle_acknowledgement(const chain::Msg& msg,
                                               cosmos::MsgContext& ctx) {
  MsgAcknowledgementMsg m;
  if (!MsgAcknowledgementMsg::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument,
               "malformed MsgAcknowledgement");
  }
  const Packet& p = m.packet;
  ctx.gas_used += jittered_gas(gas_.acknowledge, gas_.ack_jitter, p.sequence);

  auto chan_res = channels_.get(p.source_port, p.source_channel);
  if (!chan_res.is_ok()) return chan_res.status();
  if (chan_res.value().phase != ChannelPhase::kOpen) {
    return err(util::ErrorCode::kFailedPrecondition, "channel not open");
  }
  if (chan_res.value().ordering == ChannelOrdering::kOrdered) {
    util::Status order = util::Status::ok();
    channels_.update_sequence(
        host::next_sequence_ack_key(p.source_port, p.source_channel),
        [&](Sequence next) -> std::optional<Sequence> {
          if (p.sequence != next) {
            order = err(util::ErrorCode::kFailedPrecondition,
                        "ordered channel: expected ack sequence " +
                            std::to_string(next) + ", got " +
                            std::to_string(p.sequence));
            return std::nullopt;
          }
          return next + 1;
        });
    if (!order.is_ok()) return order;
  }

  // The commitment must still exist (deleted = already acknowledged or
  // timed out -> redundant relay).
  const util::Key commitment_key = host::packet_commitment_key(
      p.source_port, p.source_channel, p.sequence);
  const auto stored = store_.get_view(commitment_key);
  if (!stored) {
    ++redundant_messages_;
    return err(util::ErrorCode::kRedundantPacket,
               "packet messages are redundant: ack for sequence " +
                   std::to_string(p.sequence));
  }
  const crypto::Digest expected = p.commitment();
  if (!std::ranges::equal(*stored, expected)) {
    return err(util::ErrorCode::kInvalidArgument,
               "acknowledged packet differs from committed packet");
  }

  // Verify the counterparty wrote exactly this acknowledgement.
  auto client = channel_client(p.source_port, p.source_channel);
  if (!client.is_ok()) return client.status();
  util::Status s = clients_.verify_membership(
      client.value(), m.proof_height, m.proof_ack,
      host::packet_ack_key(p.destination_port, p.destination_channel,
                           p.sequence),
      m.ack.commitment(), verify_now(ctx));
  if (!s.is_ok()) return s;

  IbcModule* module = module_for(p.source_port);
  if (!module) {
    return err(util::ErrorCode::kNotFound,
               "no module bound to " + p.source_port);
  }
  s = module->on_acknowledgement_packet(p, m.ack, ctx);
  if (!s.is_ok()) return s;

  store_.erase(commitment_key);  // life cycle complete (paper Fig. 2, step 7)
  ++packets_acknowledged_;
  ctx.events->push_back(make_packet_event(PacketEventKind::kAcknowledge, p));
  return util::Status::ok();
}

util::Status IbcKeeper::handle_timeout(const chain::Msg& msg,
                                       cosmos::MsgContext& ctx) {
  MsgTimeout m;
  if (!MsgTimeout::from_msg(msg, m)) {
    return err(util::ErrorCode::kInvalidArgument, "malformed MsgTimeout");
  }
  const Packet& p = m.packet;
  ctx.gas_used += gas_.timeout;

  auto chan_res = channels_.get(p.source_port, p.source_channel);
  if (!chan_res.is_ok()) return chan_res.status();
  if (chan_res.value().phase != ChannelPhase::kOpen) {
    return err(util::ErrorCode::kFailedPrecondition, "channel not open");
  }

  const util::Key commitment_key = host::packet_commitment_key(
      p.source_port, p.source_channel, p.sequence);
  const auto stored = store_.get_view(commitment_key);
  if (!stored) {
    ++redundant_messages_;
    return err(util::ErrorCode::kRedundantPacket,
               "packet messages are redundant: timeout for sequence " +
                   std::to_string(p.sequence));
  }
  if (!std::ranges::equal(*stored, p.commitment())) {
    return err(util::ErrorCode::kInvalidArgument,
               "timed-out packet differs from committed packet");
  }

  // The packet must actually be expired as of the proof height: the proof
  // height must be past the timeout height, or the counterparty consensus
  // timestamp past the timeout timestamp.
  auto client = channel_client(p.source_port, p.source_channel);
  if (!client.is_ok()) return client.status();
  bool expired = false;
  if (p.timeout_height != 0 && m.proof_height >= p.timeout_height) {
    expired = true;
  }
  if (!expired && p.timeout_timestamp != 0) {
    auto cs = clients_.consensus_state(client.value(), m.proof_height);
    if (cs.is_ok() && cs.value().timestamp >= p.timeout_timestamp) {
      expired = true;
    }
  }
  if (!expired) {
    return err(util::ErrorCode::kFailedPrecondition,
               "packet has not timed out yet");
  }

  // Verify the packet was never received: UNORDERED channels prove the
  // receipt's absence; ORDERED channels prove nextSequenceRecv has not
  // passed the packet's sequence.
  const bool ordered = chan_res.value().ordering == ChannelOrdering::kOrdered;
  util::Status s;
  if (ordered) {
    if (m.next_sequence_recv > p.sequence) {
      return err(util::ErrorCode::kInvalidArgument,
                 "ordered channel: packet was already received");
    }
    s = clients_.verify_membership(
        client.value(), m.proof_height, m.proof_unreceived,
        host::next_sequence_recv_key(p.destination_port,
                                     p.destination_channel),
        util::u64_be(m.next_sequence_recv), verify_now(ctx));
  } else {
    s = clients_.verify_non_membership(
        client.value(), m.proof_height, m.proof_unreceived,
        host::packet_receipt_key(p.destination_port, p.destination_channel,
                                 p.sequence),
        verify_now(ctx));
  }
  if (!s.is_ok()) return s;

  IbcModule* module = module_for(p.source_port);
  if (!module) {
    return err(util::ErrorCode::kNotFound,
               "no module bound to " + p.source_port);
  }
  s = module->on_timeout_packet(p, ctx);
  if (!s.is_ok()) return s;

  store_.erase(commitment_key);
  ++packets_timed_out_;
  if (ordered) {
    // A timeout on an ORDERED channel closes it (ICS-04): ordering can no
    // longer be guaranteed once a sequence is skipped.
    ChannelEnd chan = chan_res.take();
    chan.phase = ChannelPhase::kClosed;
    channels_.set(p.source_port, p.source_channel, chan);
    ctx.events->push_back(chain::Event{
        "channel_close",
        {{"port_id", p.source_port}, {"channel_id", p.source_channel}}});
  }
  ctx.events->push_back(make_packet_event(PacketEventKind::kTimeout, p));
  return util::Status::ok();
}

}  // namespace ibc
