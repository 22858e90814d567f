#include "ibc/transfer.hpp"

#include <algorithm>
#include <deque>

namespace ibc {

namespace {
/// Store key of a voucher's trace path, "ibc/denomTraces/<voucher>".
util::Key denom_trace_key(std::string_view voucher) {
  return util::Key("ibc/denomTraces/", voucher);
}
}  // namespace

std::string voucher_denom(std::string_view trace_path) {
  // Memoised by the full trace path, which is all the result depends on,
  // so an entry never goes stale. Shared by every chain and the checker on
  // this thread; a deployment has few paths. Bounded; the oldest goes first.
  struct Memo {
    std::string path;
    std::string denom;
  };
  constexpr std::size_t kMemoSize = 64;
  thread_local std::deque<Memo> memo;
  for (const Memo& m : memo) {
    if (m.path == trace_path) return m.denom;
  }
  const crypto::Digest d = crypto::sha256(util::as_bytes(trace_path));
  std::string hex = crypto::digest_hex(d);
  std::transform(hex.begin(), hex.end(), hex.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (memo.size() == kMemoSize) memo.pop_front();
  memo.push_back(Memo{std::string(trace_path), "ibc/" + hex});
  return memo.back().denom;
}

util::Key escrow_address(const PortId& port, const ChannelId& channel) {
  return util::Key("escrow-", port, "-", channel);
}

bool TransferModule::is_returning(std::string_view denom_path,
                                  std::string_view port,
                                  std::string_view channel) {
  // denom_path == "<port>/<channel>/<rest>" with a non-empty rest.
  const std::size_t prefix = port.size() + 1 + channel.size() + 1;
  return denom_path.size() > prefix && denom_path.starts_with(port) &&
         denom_path[port.size()] == '/' &&
         denom_path.substr(port.size() + 1, channel.size()) == channel &&
         denom_path[prefix - 1] == '/';
}

// MsgTransfer handler object.
class TransferModule::Handler : public cosmos::MsgHandler {
 public:
  explicit Handler(TransferModule& owner) : owner_(owner) {}
  util::Status handle(const chain::Msg& msg, cosmos::MsgContext& ctx) override {
    return owner_.handle_transfer(msg, ctx);
  }

 private:
  TransferModule& owner_;
};

TransferModule::TransferModule(cosmos::CosmosApp& app, IbcKeeper& ibc)
    : app_(app), ibc_(ibc), handler_(std::make_unique<Handler>(*this)) {
  app_.register_handler(kMsgTransferUrl, handler_.get());
  ibc_.bind_port(kTransferPort, this);
}

TransferModule::~TransferModule() = default;

std::string TransferModule::local_denom(std::string_view trace_path) {
  return trace_path.find('/') == std::string_view::npos
             ? std::string(trace_path)
             : voucher_denom(trace_path);
}

util::Status TransferModule::handle_transfer(const chain::Msg& msg,
                                             cosmos::MsgContext& ctx) {
  MsgTransfer m;
  if (!MsgTransfer::from_msg(msg, m)) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "malformed MsgTransfer");
  }
  return send_transfer(m, ctx).status();
}

util::Result<Sequence> TransferModule::send_transfer(const MsgTransfer& m,
                                                     cosmos::MsgContext& ctx) {
  const GasTable& gas = ibc_.gas();
  // The upcoming send sequence, read once: it keys the gas jitter and
  // becomes the packet's sequence.
  const Sequence seq =
      ibc_.channels().next_sequence_send(m.source_port, m.source_channel);
  ctx.gas_used += jittered_gas(gas.transfer, gas.transfer_jitter, seq);

  if (m.amount == 0) {
    return util::Status::error(util::ErrorCode::kInvalidArgument,
                               "transfer amount must be positive");
  }

  // Determine the on-wire denom path and move the tokens.
  std::string denom_path = m.denom;
  if (m.denom.rfind("ibc/", 0) == 0) {
    denom_path = trace_path(m.denom);
    if (denom_path.empty()) {
      return util::Status::error(util::ErrorCode::kNotFound,
                                 "unknown voucher denom " + m.denom);
    }
  }

  if (is_returning(denom_path, m.source_port, m.source_channel)) {
    // Returning voucher: burn it here; the counterparty unescrows.
    util::Status s = app_.bank().burn(m.sender, cosmos::Coin{m.denom, m.amount});
    if (!s.is_ok()) return s;
  } else {
    // Source-zone send: escrow the tokens for this channel.
    util::Status s = app_.bank().send(
        m.sender, escrow_address(m.source_port, m.source_channel),
        cosmos::Coin{m.denom, m.amount});
    if (!s.is_ok()) return s;
  }

  FungibleTokenPacketData data;
  data.denom = denom_path;
  data.amount = m.amount;
  data.sender = m.sender;
  data.receiver = m.receiver;

  util::Bytes json = data.to_json();  // before `data` is moved below
  auto seq_res =
      ibc_.send_packet(m.source_port, m.source_channel, seq, std::move(json),
                       m.timeout_height, m.timeout_timestamp, ctx,
                       std::move(data));
  if (!seq_res.is_ok()) return seq_res.status();

  ++transfers_initiated_;
  ctx.events->push_back(chain::Event{
      "ibc_transfer",
      {{"sender", m.sender},
       {"receiver", m.receiver},
       {"amount", std::to_string(m.amount)},
       {"denom", m.denom}}});
  return seq;
}

std::optional<Acknowledgement> TransferModule::on_recv_packet(
    const Packet& packet, const FungibleTokenPacketData* data,
    cosmos::MsgContext& ctx) {
  if (data == nullptr) {
    return Acknowledgement{false, "cannot unmarshal ICS-20 packet data"};
  }

  Acknowledgement ack{true, ""};
  if (is_returning(data->denom, packet.source_port, packet.source_channel)) {
    // Token is coming home: strip one hop and unescrow the inner denom.
    const std::string_view inner = std::string_view(data->denom).substr(
        packet.source_port.size() + packet.source_channel.size() + 2);
    util::Status s = app_.bank().send(
        escrow_address(packet.destination_port, packet.destination_channel),
        data->receiver, cosmos::Coin{local_denom(inner), data->amount});
    if (!s.is_ok()) {
      return Acknowledgement{false, s.message()};
    }
  } else {
    // We are the sink: mint a voucher under the extended trace path.
    const std::string path = packet.destination_port + "/" +
                             packet.destination_channel + "/" + data->denom;
    const std::string denom = voucher_denom(path);
    app_.store().set(denom_trace_key(denom), util::as_bytes(path));
    app_.bank().mint(data->receiver, cosmos::Coin{denom, data->amount});
  }

  ctx.events->push_back(chain::Event{
      "fungible_token_packet",
      {{"receiver", data->receiver},
       {"denom", data->denom},
       {"amount", std::to_string(data->amount)},
       {"success", ack.success ? "true" : "false"}}});
  return ack;
}

util::Status TransferModule::refund(const Packet& packet,
                                    cosmos::MsgContext& ctx) {
  FungibleTokenPacketData data;
  if (!FungibleTokenPacketData::from_json(packet.data, data)) {
    return util::Status::error(util::ErrorCode::kInternal,
                               "cannot unmarshal own packet data for refund");
  }
  ++refunds_;
  if (is_returning(data.denom, packet.source_port, packet.source_channel)) {
    // We burned a voucher on send; mint it back.
    const std::string denom = voucher_denom(data.denom);
    app_.bank().mint(data.sender, cosmos::Coin{denom, data.amount});
    (void)ctx;
    return util::Status::ok();
  }
  // We escrowed on send; release back. The escrow holds the LOCAL denom —
  // the voucher hash when a multi-hop token was forwarded onward, not the
  // on-wire trace path (refunding data.denom verbatim would conjure a
  // denomination this chain never held).
  return app_.bank().send(
      escrow_address(packet.source_port, packet.source_channel), data.sender,
      cosmos::Coin{local_denom(data.denom), data.amount});
}

util::Status TransferModule::on_acknowledgement_packet(
    const Packet& packet, const Acknowledgement& ack, cosmos::MsgContext& ctx) {
  if (ack.success) return util::Status::ok();  // transfer finalized
  return refund(packet, ctx);
}

util::Status TransferModule::on_timeout_packet(const Packet& packet,
                                               cosmos::MsgContext& ctx) {
  return refund(packet, ctx);
}

std::string TransferModule::trace_path(const std::string& voucher) const {
  const auto raw = app_.store().get_view(denom_trace_key(voucher));
  if (!raw) return {};
  return util::to_string(*raw);
}

}  // namespace ibc
