#include "ibc/msgs.hpp"

namespace ibc {

void write_proof(Writer& w, const chain::StoreProof& proof) {
  w.str(proof.key);
  w.bytes(proof.value);
  w.u8(proof.exists ? 1 : 0);
  w.digest(proof.root);
  w.digest(proof.binding);
}

bool read_proof(Reader& r, chain::StoreProof& proof) {
  std::uint8_t exists = 0;
  if (!r.str(proof.key) || !r.bytes(proof.value) || !r.u8(exists) ||
      !r.digest(proof.root) || !r.digest(proof.binding)) {
    return false;
  }
  proof.exists = exists != 0;
  return true;
}

namespace {
chain::Msg envelope(const std::string& url, Writer&& w) {
  return chain::Msg{url, w.take()};
}
bool check_url(const chain::Msg& msg, const std::string& url) {
  return msg.type_url == url;
}
}  // namespace

// --- MsgCreateClient ------------------------------------------------------

chain::Msg MsgCreateClient::to_msg() const {
  Writer w;
  w.bytes(client_state.encode());
  w.i64(initial_height);
  w.bytes(initial_consensus.encode());
  return envelope(kMsgCreateClientUrl, std::move(w));
}

bool MsgCreateClient::from_msg(const chain::Msg& msg, MsgCreateClient& out) {
  if (!check_url(msg, kMsgCreateClientUrl)) return false;
  Reader r(msg.value);
  util::Bytes cs_raw, cons_raw;
  if (!r.bytes(cs_raw) || !r.i64(out.initial_height) || !r.bytes(cons_raw) ||
      !r.done()) {
    return false;
  }
  return ClientState::decode(cs_raw, out.client_state) &&
         ConsensusState::decode(cons_raw, out.initial_consensus);
}

// --- MsgUpdateClient -------------------------------------------------------

chain::Msg MsgUpdateClient::to_msg() const {
  Writer w;
  w.str(client_id);
  w.bytes(header.encode());
  return envelope(kMsgUpdateClientUrl, std::move(w));
}

bool MsgUpdateClient::from_msg(const chain::Msg& msg, MsgUpdateClient& out) {
  if (!check_url(msg, kMsgUpdateClientUrl)) return false;
  Reader r(msg.value);
  util::Bytes header_raw;
  if (!r.str(out.client_id) || !r.bytes(header_raw) || !r.done()) return false;
  return Header::decode(header_raw, out.header);
}

// --- MsgSubmitMisbehaviour -------------------------------------------------

chain::Msg MsgSubmitMisbehaviour::to_msg() const {
  Writer w;
  w.str(client_id);
  w.bytes(header_1.encode());
  w.bytes(header_2.encode());
  return envelope(kMsgSubmitMisbehaviourUrl, std::move(w));
}

bool MsgSubmitMisbehaviour::from_msg(const chain::Msg& msg,
                                     MsgSubmitMisbehaviour& out) {
  if (!check_url(msg, kMsgSubmitMisbehaviourUrl)) return false;
  Reader r(msg.value);
  util::Bytes h1_raw, h2_raw;
  if (!r.str(out.client_id) || !r.bytes(h1_raw) || !r.bytes(h2_raw) ||
      !r.done()) {
    return false;
  }
  return Header::decode(h1_raw, out.header_1) &&
         Header::decode(h2_raw, out.header_2);
}

// --- MsgRecoverClient ------------------------------------------------------

chain::Msg MsgRecoverClient::to_msg() const {
  Writer w;
  w.str(subject_client_id);
  w.bytes(substitute_state.encode());
  w.i64(substitute_height);
  w.bytes(substitute_consensus.encode());
  return envelope(kMsgRecoverClientUrl, std::move(w));
}

bool MsgRecoverClient::from_msg(const chain::Msg& msg, MsgRecoverClient& out) {
  if (!check_url(msg, kMsgRecoverClientUrl)) return false;
  Reader r(msg.value);
  util::Bytes state_raw, cons_raw;
  if (!r.str(out.subject_client_id) || !r.bytes(state_raw) ||
      !r.i64(out.substitute_height) || !r.bytes(cons_raw) || !r.done()) {
    return false;
  }
  return ClientState::decode(state_raw, out.substitute_state) &&
         ConsensusState::decode(cons_raw, out.substitute_consensus);
}

// --- Connection handshake ---------------------------------------------------

chain::Msg MsgConnOpenInit::to_msg() const {
  Writer w;
  w.str(client_id);
  w.str(counterparty_client_id);
  return envelope(kMsgConnOpenInitUrl, std::move(w));
}

bool MsgConnOpenInit::from_msg(const chain::Msg& msg, MsgConnOpenInit& out) {
  if (!check_url(msg, kMsgConnOpenInitUrl)) return false;
  Reader r(msg.value);
  return r.str(out.client_id) && r.str(out.counterparty_client_id) && r.done();
}

chain::Msg MsgConnOpenTry::to_msg() const {
  Writer w;
  w.str(client_id);
  w.str(counterparty_client_id);
  w.str(counterparty_connection);
  write_proof(w, proof_init);
  w.i64(proof_height);
  return envelope(kMsgConnOpenTryUrl, std::move(w));
}

bool MsgConnOpenTry::from_msg(const chain::Msg& msg, MsgConnOpenTry& out) {
  if (!check_url(msg, kMsgConnOpenTryUrl)) return false;
  Reader r(msg.value);
  return r.str(out.client_id) && r.str(out.counterparty_client_id) &&
         r.str(out.counterparty_connection) && read_proof(r, out.proof_init) &&
         r.i64(out.proof_height) && r.done();
}

chain::Msg MsgConnOpenAck::to_msg() const {
  Writer w;
  w.str(connection_id);
  w.str(counterparty_connection);
  write_proof(w, proof_try);
  w.i64(proof_height);
  return envelope(kMsgConnOpenAckUrl, std::move(w));
}

bool MsgConnOpenAck::from_msg(const chain::Msg& msg, MsgConnOpenAck& out) {
  if (!check_url(msg, kMsgConnOpenAckUrl)) return false;
  Reader r(msg.value);
  return r.str(out.connection_id) && r.str(out.counterparty_connection) &&
         read_proof(r, out.proof_try) && r.i64(out.proof_height) && r.done();
}

chain::Msg MsgConnOpenConfirm::to_msg() const {
  Writer w;
  w.str(connection_id);
  write_proof(w, proof_ack);
  w.i64(proof_height);
  return envelope(kMsgConnOpenConfirmUrl, std::move(w));
}

bool MsgConnOpenConfirm::from_msg(const chain::Msg& msg,
                                  MsgConnOpenConfirm& out) {
  if (!check_url(msg, kMsgConnOpenConfirmUrl)) return false;
  Reader r(msg.value);
  return r.str(out.connection_id) && read_proof(r, out.proof_ack) &&
         r.i64(out.proof_height) && r.done();
}

// --- Channel handshake -------------------------------------------------------

chain::Msg MsgChanOpenInit::to_msg() const {
  Writer w;
  w.str(port);
  w.str(connection);
  w.str(counterparty_port);
  w.u8(static_cast<std::uint8_t>(ordering));
  w.str(version);
  return envelope(kMsgChanOpenInitUrl, std::move(w));
}

bool MsgChanOpenInit::from_msg(const chain::Msg& msg, MsgChanOpenInit& out) {
  if (!check_url(msg, kMsgChanOpenInitUrl)) return false;
  Reader r(msg.value);
  std::uint8_t ord = 0;
  if (!r.str(out.port) || !r.str(out.connection) ||
      !r.str(out.counterparty_port) || !r.u8(ord) || !r.str(out.version) ||
      !r.done()) {
    return false;
  }
  out.ordering = static_cast<ChannelOrdering>(ord);
  return true;
}

chain::Msg MsgChanOpenTry::to_msg() const {
  Writer w;
  w.str(port);
  w.str(connection);
  w.str(counterparty_port);
  w.str(counterparty_channel);
  w.u8(static_cast<std::uint8_t>(ordering));
  w.str(version);
  write_proof(w, proof_init);
  w.i64(proof_height);
  return envelope(kMsgChanOpenTryUrl, std::move(w));
}

bool MsgChanOpenTry::from_msg(const chain::Msg& msg, MsgChanOpenTry& out) {
  if (!check_url(msg, kMsgChanOpenTryUrl)) return false;
  Reader r(msg.value);
  std::uint8_t ord = 0;
  if (!r.str(out.port) || !r.str(out.connection) ||
      !r.str(out.counterparty_port) || !r.str(out.counterparty_channel) ||
      !r.u8(ord) || !r.str(out.version) || !read_proof(r, out.proof_init) ||
      !r.i64(out.proof_height) || !r.done()) {
    return false;
  }
  out.ordering = static_cast<ChannelOrdering>(ord);
  return true;
}

chain::Msg MsgChanOpenAck::to_msg() const {
  Writer w;
  w.str(port);
  w.str(channel);
  w.str(counterparty_channel);
  write_proof(w, proof_try);
  w.i64(proof_height);
  return envelope(kMsgChanOpenAckUrl, std::move(w));
}

bool MsgChanOpenAck::from_msg(const chain::Msg& msg, MsgChanOpenAck& out) {
  if (!check_url(msg, kMsgChanOpenAckUrl)) return false;
  Reader r(msg.value);
  return r.str(out.port) && r.str(out.channel) &&
         r.str(out.counterparty_channel) && read_proof(r, out.proof_try) &&
         r.i64(out.proof_height) && r.done();
}

chain::Msg MsgChanOpenConfirm::to_msg() const {
  Writer w;
  w.str(port);
  w.str(channel);
  write_proof(w, proof_ack);
  w.i64(proof_height);
  return envelope(kMsgChanOpenConfirmUrl, std::move(w));
}

bool MsgChanOpenConfirm::from_msg(const chain::Msg& msg,
                                  MsgChanOpenConfirm& out) {
  if (!check_url(msg, kMsgChanOpenConfirmUrl)) return false;
  Reader r(msg.value);
  return r.str(out.port) && r.str(out.channel) &&
         read_proof(r, out.proof_ack) && r.i64(out.proof_height) && r.done();
}

chain::Msg MsgChanCloseInit::to_msg() const {
  Writer w;
  w.str(port);
  w.str(channel);
  return envelope(kMsgChanCloseInitUrl, std::move(w));
}

bool MsgChanCloseInit::from_msg(const chain::Msg& msg, MsgChanCloseInit& out) {
  if (!check_url(msg, kMsgChanCloseInitUrl)) return false;
  Reader r(msg.value);
  return r.str(out.port) && r.str(out.channel) && r.done();
}

chain::Msg MsgChanCloseConfirm::to_msg() const {
  Writer w;
  w.str(port);
  w.str(channel);
  write_proof(w, proof_init);
  w.i64(proof_height);
  return envelope(kMsgChanCloseConfirmUrl, std::move(w));
}

bool MsgChanCloseConfirm::from_msg(const chain::Msg& msg,
                                   MsgChanCloseConfirm& out) {
  if (!check_url(msg, kMsgChanCloseConfirmUrl)) return false;
  Reader r(msg.value);
  return r.str(out.port) && r.str(out.channel) &&
         read_proof(r, out.proof_init) && r.i64(out.proof_height) && r.done();
}

// --- Packet life cycle --------------------------------------------------------

chain::Msg MsgRecvPacket::to_msg() const {
  Writer w;
  w.bytes(packet.encode());
  write_proof(w, proof_commitment);
  w.i64(proof_height);
  return envelope(kMsgRecvPacketUrl, std::move(w));
}

bool MsgRecvPacket::from_msg(const chain::Msg& msg, MsgRecvPacket& out) {
  if (!check_url(msg, kMsgRecvPacketUrl)) return false;
  Reader r(msg.value);
  util::Bytes pkt_raw;
  if (!r.bytes(pkt_raw) || !read_proof(r, out.proof_commitment) ||
      !r.i64(out.proof_height) || !r.done()) {
    return false;
  }
  return Packet::decode(pkt_raw, out.packet);
}

chain::Msg MsgAcknowledgementMsg::to_msg() const {
  Writer w;
  w.bytes(packet.encode());
  w.bytes(ack.encode());
  write_proof(w, proof_ack);
  w.i64(proof_height);
  return envelope(kMsgAcknowledgementUrl, std::move(w));
}

bool MsgAcknowledgementMsg::from_msg(const chain::Msg& msg,
                                     MsgAcknowledgementMsg& out) {
  if (!check_url(msg, kMsgAcknowledgementUrl)) return false;
  Reader r(msg.value);
  util::Bytes pkt_raw, ack_raw;
  if (!r.bytes(pkt_raw) || !r.bytes(ack_raw) || !read_proof(r, out.proof_ack) ||
      !r.i64(out.proof_height) || !r.done()) {
    return false;
  }
  return Packet::decode(pkt_raw, out.packet) &&
         Acknowledgement::decode(ack_raw, out.ack);
}

chain::Msg MsgTimeout::to_msg() const {
  Writer w;
  w.bytes(packet.encode());
  write_proof(w, proof_unreceived);
  w.i64(proof_height);
  w.u64(next_sequence_recv);
  return envelope(kMsgTimeoutUrl, std::move(w));
}

bool MsgTimeout::from_msg(const chain::Msg& msg, MsgTimeout& out) {
  if (!check_url(msg, kMsgTimeoutUrl)) return false;
  Reader r(msg.value);
  util::Bytes pkt_raw;
  if (!r.bytes(pkt_raw) || !read_proof(r, out.proof_unreceived) ||
      !r.i64(out.proof_height) || !r.u64(out.next_sequence_recv) ||
      !r.done()) {
    return false;
  }
  return Packet::decode(pkt_raw, out.packet);
}

// --- ICS-20 transfer -----------------------------------------------------------

chain::Msg MsgTransfer::to_msg() const {
  Writer w(Writer::str_size(source_port) + Writer::str_size(source_channel) +
           Writer::str_size(denom) + 8 + Writer::str_size(sender) +
           Writer::str_size(receiver) + 8 + 8);
  w.str(source_port);
  w.str(source_channel);
  w.str(denom);
  w.u64(amount);
  w.str(sender);
  w.str(receiver);
  w.i64(timeout_height);
  w.i64(timeout_timestamp);
  return envelope(kMsgTransferUrl, std::move(w));
}

bool MsgTransfer::from_msg(const chain::Msg& msg, MsgTransfer& out) {
  if (!check_url(msg, kMsgTransferUrl)) return false;
  Reader r(msg.value);
  return r.str(out.source_port) && r.str(out.source_channel) &&
         r.str(out.denom) && r.u64(out.amount) && r.str(out.sender) &&
         r.str(out.receiver) && r.i64(out.timeout_height) &&
         r.i64(out.timeout_timestamp) && r.done();
}

}  // namespace ibc
