#include "ibc/forward.hpp"

namespace ibc {

namespace {

constexpr std::string_view kRoutePrefix = "fwd:";

util::Status err(util::ErrorCode code, std::string msg) {
  return util::Status::error(code, std::move(msg));
}

}  // namespace

ForwardMiddleware::ForwardMiddleware(cosmos::CosmosApp& app, IbcKeeper& ibc,
                                     TransferModule& inner,
                                     std::int64_t hop_timeout_blocks)
    : app_(app),
      ibc_(ibc),
      inner_(inner),
      hop_timeout_blocks_(hop_timeout_blocks) {
  ibc_.bind_port(kTransferPort, this);  // rebind: callbacks come here first
}

std::string ForwardMiddleware::encode_route(const std::vector<ChannelId>& hops,
                                            const std::string& final_receiver) {
  std::string route{kRoutePrefix};
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i > 0) route += '/';
    route += hops[i];
  }
  route += ':';
  route += final_receiver;
  return route;
}

bool ForwardMiddleware::parse_route(const std::string& receiver,
                                    std::vector<ChannelId>& hops,
                                    std::string& final_receiver) {
  hops.clear();
  if (receiver.rfind(kRoutePrefix, 0) != 0) return false;
  const std::size_t colon = receiver.find(':', kRoutePrefix.size());
  if (colon == std::string::npos) return false;
  final_receiver = receiver.substr(colon + 1);
  if (final_receiver.empty()) return false;
  std::size_t start = kRoutePrefix.size();
  while (start <= colon) {
    std::size_t end = receiver.find('/', start);
    if (end == std::string::npos || end > colon) end = colon;
    if (end == start) return false;  // empty hop
    hops.push_back(receiver.substr(start, end - start));
    start = end + 1;
  }
  return !hops.empty();
}

bool ForwardMiddleware::is_forward_route(std::string_view receiver) {
  return receiver.starts_with(kRoutePrefix);
}

util::Key ForwardMiddleware::forward_key(const ChannelId& channel,
                                         Sequence seq) {
  return util::Key("ibc/forwards/", channel, "/", seq);
}

util::Result<std::int64_t> ForwardMiddleware::client_height(
    const ChannelId& channel) const {
  auto chan = ibc_.channels().get(kTransferPort, channel);
  if (!chan.is_ok()) return chan.status();
  auto conn = ibc_.connections().get(chan.value().connection);
  if (!conn.is_ok()) return conn.status();
  auto client = ibc_.clients().client_state(conn.value().client_id);
  if (!client.is_ok()) return client.status();
  return client.value().latest_height;
}

std::optional<Acknowledgement> ForwardMiddleware::on_recv_packet(
    const Packet& packet, const FungibleTokenPacketData* decoded,
    cosmos::MsgContext& ctx) {
  if (decoded == nullptr || !is_forward_route(decoded->receiver)) {
    return inner_.on_recv_packet(packet, decoded, ctx);  // no route
  }
  const FungibleTokenPacketData& data = *decoded;
  std::vector<ChannelId> hops;
  std::string final_receiver;
  if (!parse_route(data.receiver, hops, final_receiver)) {
    return Acknowledgement{false, "malformed forward route"};
  }

  // Validate the onward channel before any state change, so a bad route is
  // rejected with a clean synchronous error ack.
  const ChannelId& next_channel = hops.front();
  auto chan = ibc_.channels().get(kTransferPort, next_channel);
  if (!chan.is_ok() || chan.value().phase != ChannelPhase::kOpen) {
    return Acknowledgement{
        false, "forward route references unopen channel " + next_channel};
  }
  auto height = client_height(next_channel);
  if (!height.is_ok()) {
    return Acknowledgement{false, height.status().message()};
  }

  // Deliver this hop to the forwarding agent (mint voucher / unescrow) via
  // the wrapped module, exactly as if the agent were the receiver.
  FungibleTokenPacketData local = data;
  local.receiver = kForwardAgent;
  Packet delivery = packet;
  delivery.data = local.to_json();
  std::optional<Acknowledgement> delivered =
      inner_.on_recv_packet(delivery, &local, ctx);
  if (!delivered.has_value() || !delivered->success) {
    return delivered;  // inner failed without state change; propagate its ack
  }

  // What the agent now holds locally for the on-wire denom.
  std::string held;
  if (TransferModule::is_returning(data.denom, packet.source_port,
                                   packet.source_channel)) {
    const std::string prefix =
        packet.source_port + "/" + packet.source_channel + "/";
    held = TransferModule::local_denom(data.denom.substr(prefix.size()));
  } else {
    held = voucher_denom(packet.destination_port + "/" +
                         packet.destination_channel + "/" + data.denom);
  }

  MsgTransfer next;
  next.source_port = kTransferPort;
  next.source_channel = next_channel;
  next.denom = held;
  next.amount = data.amount;
  next.sender = kForwardAgent;
  next.receiver =
      hops.size() > 1
          ? encode_route({hops.begin() + 1, hops.end()}, final_receiver)
          : final_receiver;
  next.timeout_height = height.value() + hop_timeout_blocks_;
  next.timeout_timestamp = 0;

  const util::Result<Sequence> sent = inner_.send_transfer(next, ctx);
  if (!sent.is_ok()) {
    util::Status undo = unwind_local_delivery(packet, data);
    return Acknowledgement{false, undo.is_ok() ? sent.status().message()
                                               : undo.message()};
  }

  // Park the original packet until the onward hop settles; its ack stays
  // unwritten (async ack) so the previous hop cannot finalize early.
  app_.store().set(forward_key(next_channel, sent.value()), packet.encode());
  ++packets_forwarded_;
  return std::nullopt;
}

util::Status ForwardMiddleware::unwind_local_delivery(
    const Packet& orig, const FungibleTokenPacketData& data) {
  if (TransferModule::is_returning(data.denom, orig.source_port,
                                   orig.source_channel)) {
    // We unescrowed to the agent; put the tokens back under escrow.
    const std::string prefix =
        orig.source_port + "/" + orig.source_channel + "/";
    const std::string held =
        TransferModule::local_denom(data.denom.substr(prefix.size()));
    return app_.bank().send(
        kForwardAgent,
        escrow_address(orig.destination_port, orig.destination_channel),
        cosmos::Coin{held, data.amount});
  }
  // We minted a voucher to the agent; burn it again.
  const std::string denom =
      voucher_denom(orig.destination_port + "/" + orig.destination_channel +
                    "/" + data.denom);
  return app_.bank().burn(kForwardAgent, cosmos::Coin{denom, data.amount});
}

util::Status ForwardMiddleware::settle(const Packet& next_hop_packet,
                                       bool success, const std::string& error,
                                       cosmos::MsgContext& ctx) {
  const util::Key key =
      forward_key(next_hop_packet.source_channel, next_hop_packet.sequence);
  const auto stored = app_.store().get(key);
  if (!stored) {
    return err(util::ErrorCode::kInternal,
               "missing forward state for " + key.str());
  }
  app_.store().erase(key);  // exactly-once: a replayed settle delegates
  Packet orig;
  if (!Packet::decode(*stored, orig)) {
    return err(util::ErrorCode::kInternal,
               "corrupt forward state for " + key.str());
  }
  if (success) {
    util::Status s =
        ibc_.write_acknowledgement(orig, Acknowledgement{true, ""}, ctx);
    if (!s.is_ok()) return s;
    ++forwards_completed_;
    return util::Status::ok();
  }
  // Onward hop failed or timed out: take back the agent's outbound tokens,
  // undo this hop's delivery, and propagate an error ack so every earlier
  // hop unwinds and the origin refunds the sender exactly once.
  util::Status refunded = inner_.refund(next_hop_packet, ctx);
  if (!refunded.is_ok()) return refunded;
  FungibleTokenPacketData data;
  if (!FungibleTokenPacketData::from_json(orig.data, data)) {
    return err(util::ErrorCode::kInternal,
               "corrupt forward packet data for " + key.str());
  }
  util::Status undone = unwind_local_delivery(orig, data);
  if (!undone.is_ok()) return undone;
  util::Status s = ibc_.write_acknowledgement(
      orig, Acknowledgement{false, "forwarded hop failed: " + error}, ctx);
  if (!s.is_ok()) return s;
  ++forwards_unwound_;
  return util::Status::ok();
}

util::Status ForwardMiddleware::on_acknowledgement_packet(
    const Packet& packet, const Acknowledgement& ack, cosmos::MsgContext& ctx) {
  if (!app_.store().contains(
          forward_key(packet.source_channel, packet.sequence))) {
    return inner_.on_acknowledgement_packet(packet, ack, ctx);
  }
  return settle(packet, ack.success, ack.error, ctx);
}

util::Status ForwardMiddleware::on_timeout_packet(const Packet& packet,
                                                  cosmos::MsgContext& ctx) {
  if (!app_.store().contains(
          forward_key(packet.source_channel, packet.sequence))) {
    return inner_.on_timeout_packet(packet, ctx);
  }
  return settle(packet, /*success=*/false, "hop timed out", ctx);
}

}  // namespace ibc
