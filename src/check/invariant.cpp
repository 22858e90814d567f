#include "check/invariant.hpp"

#include <algorithm>
#include <stdexcept>

#include "ibc/client.hpp"
#include "ibc/connection.hpp"
#include "ibc/host.hpp"
#include "ibc/packet.hpp"
#include "ibc/transfer.hpp"
#include "util/bytes.hpp"

namespace check {

namespace {

std::string chan_str(const std::string& port, const std::string& channel) {
  return port + "/" + channel;
}

// Store key families the model follows.
constexpr std::string_view kBalancePrefix = "bank/bal/";  // <addr>|<denom>
constexpr std::string_view kSupplyPrefix = "bank/supply/";  // <denom>
constexpr std::string_view kClientPrefix = "ibc/clients/";  // <id>/clientState
constexpr std::string_view kClientSuffix = "/clientState";
constexpr std::string_view kChannelPrefix = "ibc/channelEnds/ports/";

/// Consensus-state entries share the client prefix.
bool is_client_state_key(std::string_view key) {
  return key.size() > kClientPrefix.size() + kClientSuffix.size() &&
         key.starts_with(kClientPrefix) && key.ends_with(kClientSuffix);
}

/// The denom of a "bank/bal/<addr>|<denom>" key; nullopt without the '|'.
std::optional<std::string_view> balance_denom(std::string_view key) {
  const std::size_t sep = key.find('|', kBalancePrefix.size());
  if (sep == std::string_view::npos) return std::nullopt;
  return key.substr(sep + 1);
}

/// map[key] for a key of views, allocating the key only when it is new.
template <typename Map, typename View>
typename Map::mapped_type& slot(Map& map, const View& key) {
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.try_emplace(typename Map::key_type(key)).first;
  }
  return it->second;
}

using ViewPair = std::pair<std::string_view, std::string_view>;

}  // namespace

std::string Violation::to_string() const {
  return "[" + chain + " @" + std::to_string(height) + "] " + invariant +
         ": " + detail;
}

InvariantViolation::InvariantViolation(const Violation& v)
    : std::runtime_error("IBC invariant violated " + v.to_string()),
      violation(v) {}

bool InvariantChecker::SeqWindow::insert(ibc::Sequence s) {
  if (contains(s)) return false;
  if (s == contiguous + 1) {
    ++contiguous;
    // Absorb any sparse sequences that became contiguous.
    auto it = sparse.begin();
    while (it != sparse.end() && *it == contiguous + 1) {
      ++contiguous;
      it = sparse.erase(it);
    }
  } else {
    sparse.insert(s);
  }
  return true;
}

bool InvariantChecker::SeqWindow::contains(ibc::Sequence s) const {
  return (s >= 1 && s <= contiguous) || sparse.count(s) > 0;
}

InvariantChecker::InvariantChecker(std::vector<ChainHandles> chains,
                                   CheckerConfig config)
    : config_(config), chains_(chains.size()) {
  for (const ChainHandles& h : chains) {
    if (h.app->store().write_hook()) {
      throw std::logic_error("store of " + h.id + " already has a write hook");
    }
  }
  for (std::size_t i = 0; i < chains.size(); ++i) {
    ChainState& c = chains_[i];
    c.h = chains[i];
    chain_index_[c.h.id] = i;
    // Seed the model as if every live entry had just been written, so the
    // first commit checks everything, like a full scan would.
    chain::KvStore& store = c.h.app->store();
    store.for_each_unordered(
        "", [this, &c](std::string_view key, util::BytesView value) {
          observe(c, key, std::nullopt, value);
        });
    store.set_write_hook([this, &c](std::string_view key,
                                    std::optional<util::BytesView> before,
                                    std::optional<util::BytesView> after) {
      observe(c, key, before, after);
    });
    c.h.engine->subscribe_block(
        [this, i](const chain::Block& block,
                  const std::vector<chain::DeliverTxResult>& results) {
          on_block(i, block, results);
        });
  }
}

InvariantChecker::InvariantChecker(ChainHandles a, ChainHandles b,
                                   CheckerConfig config)
    : InvariantChecker(std::vector<ChainHandles>{a, b}, config) {}

InvariantChecker::~InvariantChecker() {
  for (ChainState& c : chains_) c.h.app->store().set_write_hook(nullptr);
}

InvariantChecker::ChannelTrack& InvariantChecker::track(
    ChainState& c, std::string_view port, std::string_view channel) {
  return slot(c.channels, ViewPair(port, channel));
}

std::uint64_t& InvariantChecker::escrow_of(ChainState& c,
                                           const std::string& port,
                                           const std::string& channel,
                                           std::string_view denom_path) {
  // Held locally as the base denom at the origin zone, as a voucher hash
  // everywhere else.
  const util::Key address = ibc::escrow_address(port, channel);
  if (denom_path.find('/') == std::string_view::npos) {
    return slot(c.escrow, ViewPair(address, denom_path));
  }
  const std::string voucher = ibc::voucher_denom(denom_path);
  return slot(c.escrow, ViewPair(address, voucher));
}

InvariantChecker::ChainState* InvariantChecker::counterparty_of(
    ChainState& c, const std::string& port, const std::string& channel,
    chain::Height height) {
  // Every recv, ack and timeout event asks; the answer changes only if one
  // of the three stored values does. A memo validated by all three costs
  // three probes and compares instead of three decodes, a validator set
  // among them.
  CounterpartyMemo& memo = track(c, port, channel).counterparty;
  const chain::KvStore& store = c.h.app->store();
  const auto stored = [&store](std::string_view key) {
    const auto v = store.get_view(key);
    return v ? util::Bytes(v->begin(), v->end()) : util::Bytes();
  };
  const auto unchanged = [&store](std::string_view key,
                                  const util::Bytes& bytes) {
    const auto v = store.get_view(key);
    return v && std::ranges::equal(*v, bytes);
  };
  if (memo.chain != nullptr &&
      unchanged(ibc::host::channel_key(port, channel), memo.channel_end) &&
      unchanged(ibc::host::connection_key(memo.connection),
                memo.connection_end) &&
      unchanged(ibc::host::client_state_key(memo.client),
                memo.client_state)) {
    return memo.chain;
  }

  ibc::ChannelKeeper channels(c.h.app->store());
  auto end = channels.get(port, channel);
  if (!end.is_ok()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " has no channel end");
    return nullptr;
  }
  ibc::ConnectionKeeper connections(c.h.app->store());
  auto conn = connections.get(end.value().connection);
  if (!conn.is_ok()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " references missing connection " +
             end.value().connection);
    return nullptr;
  }
  ibc::ClientKeeper clients(c.h.app->store());
  auto client = clients.client_state(conn.value().client_id);
  if (!client.is_ok()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " references missing client " +
             conn.value().client_id);
    return nullptr;
  }
  const auto it = chain_index_.find(client.value().chain_id);
  if (it == chain_index_.end()) {
    fail(c.h.id, height, "unknown-counterparty",
         chan_str(port, channel) + " client tracks unknown chain " +
             client.value().chain_id);
    return nullptr;
  }
  const ibc::ConnectionId& connection = end.value().connection;
  const ibc::ClientId& client_id = conn.value().client_id;
  memo = CounterpartyMemo{stored(ibc::host::channel_key(port, channel)),
                          stored(ibc::host::connection_key(connection)),
                          stored(ibc::host::client_state_key(client_id)),
                          connection, client_id, &chains_[it->second]};
  return memo.chain;
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += v.to_string();
    out += '\n';
  }
  if (overflowed_) out += "(further violations suppressed)\n";
  return out;
}

void InvariantChecker::fail(const chain::ChainId& chain, chain::Height height,
                            std::string invariant, std::string detail) {
  Violation v{std::move(invariant), chain, height, std::move(detail)};
  if (hook_) hook_(v);
  if (config_.fail_fast) throw InvariantViolation(v);
  if (violations_.size() >= config_.max_violations) {
    overflowed_ = true;
    return;
  }
  violations_.push_back(std::move(v));
}

void InvariantChecker::on_block(
    std::size_t chain_idx, const chain::Block& block,
    const std::vector<chain::DeliverTxResult>& results) {
  ChainState& c = chains_[chain_idx];
  const chain::Height height = block.header.height;
  ++blocks_checked_;

  check_account_sequences(c, block, results);
  for (const chain::DeliverTxResult& res : results) {
    if (!res.status.is_ok()) continue;  // failed txs mutate nothing
    process_events(c, height, res.events);
  }
  check_channel_counters(c, height);
  check_client_heights(c, height);
  check_bank_conservation(c, height);
  check_escrow_model(c, height);
  if (++c.commits % kAuditPeriod == 0) audit_chain(c, height);
}

void InvariantChecker::observe(ChainState& c, std::string_view key,
                               std::optional<util::BytesView> before,
                               std::optional<util::BytesView> after) {
  // Runs inside every store write: no allocation unless the key is new to
  // the model.
  if (key.starts_with(kBalancePrefix)) {
    const auto denom = balance_denom(key);
    if (!denom) return;
    DenomTrack& d = slot(c.denoms, *denom);
    // Only 8-byte values are balances (BankKeeper's big-endian u64).
    d.balance_sum +=
        util::stored_u64(after) - util::stored_u64(before);  // wrapping
    d.dirty = true;
  } else if (key.starts_with(kSupplyPrefix)) {
    slot(c.denoms, key.substr(kSupplyPrefix.size())).dirty = true;
  } else if (is_client_state_key(key)) {
    ClientTrack& cl = slot(c.clients, key);
    cl.live = after.has_value();
    cl.dirty = true;
  } else if (key.starts_with(kChannelPrefix)) {
    const auto it = c.channel_ends.find(key);
    if (after && it == c.channel_ends.end()) c.channel_ends.emplace(key);
    if (!after && it != c.channel_ends.end()) c.channel_ends.erase(it);
  }
}

void InvariantChecker::process_events(ChainState& c, chain::Height height,
                                      const std::vector<chain::Event>& events) {
  ibc::ChannelKeeper channels(c.h.app->store());
  for (const chain::Event& ev : events) {
    if (ev.type != "send_packet" && ev.type != "recv_packet" &&
        ev.type != "write_acknowledgement" &&
        ev.type != "acknowledge_packet" && ev.type != "timeout_packet") {
      continue;
    }
    const ibc::PacketEvent* pe = ibc::packet_event(ev);
    if (pe == nullptr) {
      fail(c.h.id, height, "event-format",
           "unparseable packet event " + ev.type);
      continue;
    }
    const ibc::Packet& p = pe->packet;
    const auto& data = pe->transfer_data;  // ICS-20, decoded at emission

    if (pe->kind == ibc::PacketEventKind::kSend) {
      ChannelTrack& ch = track(c, p.source_port, p.source_channel);
      if (p.sequence != ch.last_send + 1) {
        fail(c.h.id, height, "send-sequence-gap",
             chan_str(p.source_port, p.source_channel) + " sent sequence " +
                 std::to_string(p.sequence) + ", expected " +
                 std::to_string(ch.last_send + 1));
      }
      if (p.sequence > ch.last_send) ch.last_send = p.sequence;

      if (p.source_port == ibc::kTransferPort && data) {
        PendingTransfer pending{
            data->amount, data->denom,
            ibc::TransferModule::is_returning(data->denom, p.source_port,
                                              p.source_channel)};
        if (pending.returning) {
          // Voucher burnt on send; supply shrinks until refund (if any).
          auto& supply = c.voucher_supply[ibc::voucher_denom(data->denom)];
          if (supply < data->amount) {
            fail(c.h.id, height, "token-conservation",
                 "burnt more " + data->denom + " than was ever minted");
            supply = 0;
          } else {
            supply -= data->amount;
          }
        } else {
          escrow_of(c, p.source_port, p.source_channel, data->denom) +=
              data->amount;
        }
        ch.pending[p.sequence] = std::move(pending);
      }

    } else if (pe->kind == ibc::PacketEventKind::kRecv) {
      ChannelTrack& ch = track(c, p.destination_port, p.destination_channel);
      const ibc::Sequence prev_contiguous = ch.recvs.contiguous;
      if (!ch.recvs.insert(p.sequence)) {
        fail(c.h.id, height, "exactly-once-recv",
             chan_str(p.destination_port, p.destination_channel) +
                 " received sequence " + std::to_string(p.sequence) +
                 " twice");
      }
      // The counterparty must have sent it first (commits are totally
      // ordered in virtual time, so its send event was already observed).
      if (ChainState* other = counterparty_of(c, p.destination_port,
                                              p.destination_channel, height)) {
        const ChannelTrack& src =
            track(*other, p.source_port, p.source_channel);
        if (p.sequence > src.last_send) {
          fail(c.h.id, height, "recv-unsent",
               chan_str(p.destination_port, p.destination_channel) +
                   " received sequence " + std::to_string(p.sequence) +
                   " but counterparty only sent " +
                   std::to_string(src.last_send));
        }
      }
      auto end = channels.get(p.destination_port, p.destination_channel);
      if (end.is_ok() &&
          end.value().ordering == ibc::ChannelOrdering::kOrdered &&
          p.sequence != prev_contiguous + 1) {
        fail(c.h.id, height, "ordered-delivery",
             chan_str(p.destination_port, p.destination_channel) +
                 " delivered sequence " + std::to_string(p.sequence) +
                 " out of order (expected " +
                 std::to_string(prev_contiguous + 1) + ")");
      }

      // When the acknowledgement is deferred past this message (async
      // ack, packet-forward middleware), the mint/unescrow has already
      // happened here at recv: account for it optimistically and remember
      // to reverse if the eventual ack reports failure.
      if (p.destination_port == ibc::kTransferPort && data &&
          pe->ack.empty()) {
        account_recv_success(c, p.source_port, p.source_channel,
                             p.destination_port, p.destination_channel,
                             data->amount, data->denom, height);
        ch.async_recv[p.sequence] = AsyncRecv{data->amount, data->denom};
      }

    } else if (pe->kind == ibc::PacketEventKind::kWriteAck) {
      ChannelTrack& ch = track(c, p.destination_port, p.destination_channel);
      ibc::Acknowledgement ack;
      if (!ibc::Acknowledgement::decode(pe->ack, ack)) {
        fail(c.h.id, height, "event-format",
             "undecodable packet_ack for sequence " +
                 std::to_string(p.sequence));
        continue;
      }
      ch.ack_success[p.sequence] = ack.success;

      const auto async_it = ch.async_recv.find(p.sequence);
      if (async_it != ch.async_recv.end()) {
        // Deferred ack resolving: the recv already accounted optimistically;
        // a failure means the middleware unwound its delivery (burn /
        // re-escrow) in this same transaction, so reverse the model too.
        if (!ack.success && p.destination_port == ibc::kTransferPort) {
          const AsyncRecv& ar = async_it->second;
          if (ibc::TransferModule::is_returning(ar.denom_path, p.source_port,
                                                p.source_channel)) {
            const std::string_view inner = std::string_view(ar.denom_path)
                .substr(p.source_port.size() + p.source_channel.size() + 2);
            escrow_of(c, p.destination_port, p.destination_channel, inner) +=
                ar.amount;
          } else {
            const std::string path = p.destination_port + "/" +
                                     p.destination_channel + "/" +
                                     ar.denom_path;
            auto& supply = c.voucher_supply[ibc::voucher_denom(path)];
            if (supply < ar.amount) {
              fail(c.h.id, height, "token-conservation",
                   "unwound more " + ar.denom_path +
                       " than the deferred recv minted");
              supply = 0;
            } else {
              supply -= ar.amount;
            }
          }
        }
        ch.async_recv.erase(async_it);
      } else if (ack.success && p.destination_port == ibc::kTransferPort &&
                 data) {
        account_recv_success(c, p.source_port, p.source_channel,
                             p.destination_port, p.destination_channel,
                             data->amount, data->denom, height);
      }

    } else if (pe->kind == ibc::PacketEventKind::kAcknowledge) {
      ChannelTrack& ch = track(c, p.source_port, p.source_channel);
      if (!ch.acks.insert(p.sequence)) {
        fail(c.h.id, height, "exactly-once-ack",
             chan_str(p.source_port, p.source_channel) +
                 " acknowledged sequence " + std::to_string(p.sequence) +
                 " twice");
      }
      if (ch.timeouts.contains(p.sequence)) {
        fail(c.h.id, height, "ack-after-timeout",
             chan_str(p.source_port, p.source_channel) + " sequence " +
                 std::to_string(p.sequence) +
                 " acknowledged after timing out");
      }
      ChainState* other =
          counterparty_of(c, p.source_port, p.source_channel, height);
      bool wrote_ack = false, ack_ok = false;
      if (other != nullptr) {
        const ChannelTrack& dst =
            track(*other, p.destination_port, p.destination_channel);
        const auto outcome = dst.ack_success.find(p.sequence);
        wrote_ack = outcome != dst.ack_success.end();
        ack_ok = wrote_ack && outcome->second;
        if (!wrote_ack) {
          fail(c.h.id, height, "ack-without-write",
               chan_str(p.source_port, p.source_channel) + " sequence " +
                   std::to_string(p.sequence) +
                   " acknowledged but counterparty never wrote an ack");
        }
      }
      const auto pending = ch.pending.find(p.sequence);
      if (pending != ch.pending.end()) {
        const bool success = ack_ok;
        if (!success) {
          // Failed transfer: the module refunds the sender.
          if (pending->second.returning) {
            c.voucher_supply[ibc::voucher_denom(pending->second.denom_path)] +=
                pending->second.amount;
          } else {
            auto& escrow = escrow_of(c, p.source_port, p.source_channel,
                                     pending->second.denom_path);
            if (escrow < pending->second.amount) {
              fail(c.h.id, height, "token-conservation",
                   "refunded more than remained in escrow for " +
                       chan_str(p.source_port, p.source_channel));
              escrow = 0;
            } else {
              escrow -= pending->second.amount;
            }
          }
        }
        ch.pending.erase(pending);
      }

    } else {  // timeout_packet
      ChannelTrack& ch = track(c, p.source_port, p.source_channel);
      if (!ch.timeouts.insert(p.sequence)) {
        fail(c.h.id, height, "exactly-once-timeout",
             chan_str(p.source_port, p.source_channel) +
                 " timed out sequence " + std::to_string(p.sequence) +
                 " twice");
      }
      if (ch.acks.contains(p.sequence)) {
        fail(c.h.id, height, "timeout-after-ack",
             chan_str(p.source_port, p.source_channel) + " sequence " +
                 std::to_string(p.sequence) + " timed out after an ack");
      }
      if (ChainState* other =
              counterparty_of(c, p.source_port, p.source_channel, height)) {
        const ChannelTrack& dst =
            track(*other, p.destination_port, p.destination_channel);
        if (dst.recvs.contains(p.sequence)) {
          fail(c.h.id, height, "timeout-after-recv",
               chan_str(p.source_port, p.source_channel) + " sequence " +
                   std::to_string(p.sequence) +
                   " timed out although the counterparty received it");
        }
      }
      const auto pending = ch.pending.find(p.sequence);
      if (pending != ch.pending.end()) {
        if (pending->second.returning) {
          c.voucher_supply[ibc::voucher_denom(pending->second.denom_path)] +=
              pending->second.amount;
        } else {
          auto& escrow = escrow_of(c, p.source_port, p.source_channel,
                                   pending->second.denom_path);
          if (escrow < pending->second.amount) {
            fail(c.h.id, height, "token-conservation",
                 "timeout refunded more than remained in escrow for " +
                     chan_str(p.source_port, p.source_channel));
            escrow = 0;
          } else {
            escrow -= pending->second.amount;
          }
        }
        ch.pending.erase(pending);
      }
    }
  }
}

void InvariantChecker::account_recv_success(
    ChainState& c, const std::string& src_port, const std::string& src_channel,
    const std::string& dst_port, const std::string& dst_channel,
    std::uint64_t amount, const std::string& denom_path,
    chain::Height height) {
  if (ibc::TransferModule::is_returning(denom_path, src_port, src_channel)) {
    // Token came home: the local escrow released the inner denom.
    const std::string_view inner = std::string_view(denom_path).substr(
        src_port.size() + src_channel.size() + 2);
    auto& escrow = escrow_of(c, dst_port, dst_channel, inner);
    if (escrow < amount) {
      fail(c.h.id, height, "token-conservation",
           "unescrowed more " + std::string(inner) + " than was escrowed");
      escrow = 0;
    } else {
      escrow -= amount;
    }
  } else {
    // We are the sink: the trace extends by this hop, so a denom forwarded
    // A->B->C and one sent A->C directly mint *different* vouchers.
    const std::string path = dst_port + "/" + dst_channel + "/" + denom_path;
    c.voucher_supply[ibc::voucher_denom(path)] += amount;
  }
}

void InvariantChecker::check_account_sequences(
    ChainState& c, const chain::Block& block,
    const std::vector<chain::DeliverTxResult>& results) {
  const chain::Height height = block.header.height;
  // (sender -> txs in this block), plus per-sender sequences consumed by
  // successful txs (a repeat would be a double-spent account sequence).
  std::map<chain::Address, std::uint64_t> tx_count;
  std::map<chain::Address, std::set<std::uint64_t>> consumed;
  for (std::size_t i = 0; i < block.txs.size() && i < results.size(); ++i) {
    const chain::Tx& tx = *block.txs[i];
    ++tx_count[tx.sender];
    if (!results[i].status.is_ok()) continue;
    if (!consumed[tx.sender].insert(tx.sequence).second) {
      fail(c.h.id, height, "account-sequence-reuse",
           tx.sender + " executed two txs with sequence " +
               std::to_string(tx.sequence) + " in one block");
    }
  }
  for (const auto& [sender, count] : tx_count) {
    const std::uint64_t now = c.h.app->auth().sequence(sender);
    const auto it = c.auth_seq.find(sender);
    if (it != c.auth_seq.end()) {
      if (now < it->second) {
        fail(c.h.id, height, "account-sequence-decrease",
             sender + " sequence went from " + std::to_string(it->second) +
                 " to " + std::to_string(now));
      } else if (now - it->second > count) {
        fail(c.h.id, height, "account-sequence-overrun",
             sender + " sequence advanced by " +
                 std::to_string(now - it->second) + " with only " +
                 std::to_string(count) + " txs in the block");
      }
    }
    c.auth_seq[sender] = now;
  }
}

void InvariantChecker::check_channel_counters(ChainState& c,
                                              chain::Height height) {
  for (const std::string& key : c.channel_ends) {
    check_channel(c, key, height, &ChannelTrack::snap);
  }
}

void InvariantChecker::check_channel(ChainState& c, std::string_view key,
                                     chain::Height height,
                                     CounterSnap ChannelTrack::*snap) {
  ibc::ChannelKeeper channels(c.h.app->store());
  // Key shape: ibc/channelEnds/ports/<port>/channels/<channel>.
  const std::size_t port_start = kChannelPrefix.size();
  const std::size_t marker = key.find("/channels/", port_start);
  if (marker == std::string_view::npos) return;
  const std::string port(key.substr(port_start, marker - port_start));
  const std::string channel(key.substr(marker + 10));

  auto end_res = channels.get(port, channel);
  if (!end_res.is_ok()) return;
  const ibc::ChannelEnd& end = end_res.value();
  const ibc::Sequence s = channels.next_sequence_send(port, channel);
  const ibc::Sequence r = channels.next_sequence_recv(port, channel);
  const ibc::Sequence a = channels.next_sequence_ack(port, channel);

  ChannelTrack& ch = track(c, port, channel);
  CounterSnap& prev = ch.*snap;
  if (s < prev.send || r < prev.recv || a < prev.ack) {
    fail(c.h.id, height, "sequence-monotonicity",
         chan_str(port, channel) + " counters regressed: send " +
             std::to_string(prev.send) + "->" + std::to_string(s) +
             ", recv " + std::to_string(prev.recv) + "->" +
             std::to_string(r) + ", ack " + std::to_string(prev.ack) +
             "->" + std::to_string(a));
  }
  prev = CounterSnap{s, r, a};

  if (end.phase != ibc::ChannelPhase::kOpen &&
      end.phase != ibc::ChannelPhase::kClosed) {
    return;  // counters are installed when the channel opens
  }
  if (s < 1 || r < 1 || a < 1) {
    fail(c.h.id, height, "sequence-monotonicity",
         chan_str(port, channel) + " open with uninitialized counters");
    return;
  }
  // Counters must agree with the event history: sends allocate strictly
  // contiguous sequences...
  if (s != ch.last_send + 1) {
    fail(c.h.id, height, "send-counter-mismatch",
         chan_str(port, channel) + " nextSequenceSend " +
             std::to_string(s) + " but " + std::to_string(ch.last_send) +
             " send events were observed");
  }
  // ...and ORDERED channels bump recv/ack one at a time, in order.
  if (end.ordering == ibc::ChannelOrdering::kOrdered) {
    if (r != ch.recvs.contiguous + 1) {
      fail(c.h.id, height, "ordered-recv-counter",
           chan_str(port, channel) + " nextSequenceRecv " +
               std::to_string(r) + " but contiguous receives reach " +
               std::to_string(ch.recvs.contiguous));
    }
    if (a != ch.acks.contiguous + 1) {
      fail(c.h.id, height, "ordered-ack-counter",
           chan_str(port, channel) + " nextSequenceAck " +
               std::to_string(a) + " but contiguous acks reach " +
               std::to_string(ch.acks.contiguous));
    }
    // Cross-chain: the counterparty cannot have received or acked past
    // what this end sent/the counterparty received. Resolved per channel
    // through the connection's client, not "the other chain".
    ChainState* other = counterparty_of(c, port, channel, height);
    if (other != nullptr) {
      ibc::ChannelKeeper other_channels(other->h.app->store());
      if (other_channels.exists(end.counterparty_port,
                                end.counterparty_channel)) {
        const ibc::Sequence other_r = other_channels.next_sequence_recv(
            end.counterparty_port, end.counterparty_channel);
        if (other_r > s) {
          fail(c.h.id, height, "ordered-recv-ahead-of-send",
               chan_str(port, channel) + " counterparty nextSequenceRecv " +
                   std::to_string(other_r) + " exceeds nextSequenceSend " +
                   std::to_string(s));
        }
        if (other_r >= 1 && a > other_r) {
          fail(c.h.id, height, "ordered-ack-ahead-of-recv",
               chan_str(port, channel) + " nextSequenceAck " +
                   std::to_string(a) + " exceeds counterparty recv " +
                   std::to_string(other_r));
        }
      }
    }
  }
}


void InvariantChecker::check_client_heights(ChainState& c,
                                            chain::Height height) {
  for (auto& [key, cl] : c.clients) {
    if (!cl.dirty && !cl.failing) continue;
    cl.dirty = false;
    cl.failing = false;
    const auto value = c.h.app->store().get_view(key);
    if (!value) continue;
    cl.failing = !check_client_state(c, key, *value, height, cl.snap);
  }
}

std::optional<std::int64_t> InvariantChecker::check_client_state(
    ChainState& c, std::string_view key, util::BytesView value,
    chain::Height height, HeightSnap& snap) {
  const std::string client(key.substr(
      kClientPrefix.size(),
      key.size() - kClientPrefix.size() - kClientSuffix.size()));
  ibc::ClientState state;
  if (!ibc::ClientState::decode(value, state)) {
    fail(c.h.id, height, "client-state-decode",
         "client " + client + " state is undecodable");
    return std::nullopt;
  }
  if (snap.seen && state.latest_height < snap.height) {
    fail(c.h.id, height, "client-height-monotonicity",
         "client " + client + " latest height went from " +
             std::to_string(snap.height) + " to " +
             std::to_string(state.latest_height));
  }
  snap = HeightSnap{true, state.latest_height};
  return state.latest_height;
}

void InvariantChecker::check_bank_conservation(ChainState& c,
                                               chain::Height height) {
  // Per-chain: for every denom, the sum of balances equals the recorded
  // supply (bank mints/burns maintain the supply; everything else is a
  // transfer). A denom nobody wrote since it last passed still passes.
  for (auto& [denom, d] : c.denoms) {
    if (!d.dirty && !d.failing) continue;
    d.dirty = false;
    d.failing = !check_denom(c, denom, d.balance_sum, height);
  }
}

bool InvariantChecker::check_denom(ChainState& c, const std::string& denom,
                                   std::uint64_t balance_sum,
                                   chain::Height height) {
  const std::uint64_t supply = c.h.app->bank().supply(denom);
  if (supply == balance_sum) return true;
  fail(c.h.id, height, "bank-conservation",
       "denom " + denom + ": balances sum to " + std::to_string(balance_sum) +
           " but supply is " + std::to_string(supply));
  return false;
}

void InvariantChecker::audit() {
  for (ChainState& c : chains_) audit_chain(c, c.h.app->current_height());
}

void InvariantChecker::audit_chain(ChainState& c, chain::Height height) {
  // One unordered walk collects what the store-derived checks read.
  std::map<std::string, std::uint64_t, std::less<>> sums;  // by denom
  std::map<std::string, util::Bytes, std::less<>> client_states;
  std::set<std::string, std::less<>> channel_ends;
  c.h.app->store().for_each_unordered(
      "", [&](std::string_view key, util::BytesView value) {
        if (key.starts_with(kBalancePrefix)) {
          const auto denom = balance_denom(key);
          if (denom && value.size() == 8) {
            slot(sums, *denom) += util::read_u64_be(value, 0);
          }
        } else if (key.starts_with(kSupplyPrefix)) {
          slot(sums, key.substr(kSupplyPrefix.size()));  // checked even at 0
        } else if (is_client_state_key(key)) {
          client_states.emplace(key, util::Bytes(value.begin(), value.end()));
        } else if (key.starts_with(kChannelPrefix)) {
          channel_ends.emplace(key);
        }
      });

  // Per family: the per-commit verdicts, each against the previous audit's
  // snapshot, then drift wherever the walk and the hook-fed model disagree.
  const auto drift = [&](const std::string& detail) {
    fail(c.h.id, height, "checker-drift", detail);
  };
  const std::string only_store = " is in the store but not the model";
  const std::string only_model = " is in the model but not the store";
  for (const std::string& key : channel_ends) {
    check_channel(c, key, height, &ChannelTrack::audit_snap);
    if (!c.channel_ends.contains(key)) drift(key + only_store);
  }
  for (const std::string& key : c.channel_ends) {
    if (!channel_ends.contains(key)) drift(key + only_model);
  }

  for (const auto& [key, value] : client_states) {
    const auto h =
        check_client_state(c, key, value, height, c.audit_clients[key]);
    const auto m = c.clients.find(key);
    if (m == c.clients.end() || !m->second.live) {
      drift(key + only_store);
    } else if (const ClientTrack& cl = m->second;
               h && !cl.dirty && cl.snap.seen && *h != cl.snap.height) {
      drift(key + " holds height " + std::to_string(*h) + ", model " +
            std::to_string(cl.snap.height));
    }
  }
  for (const auto& [key, cl] : c.clients) {
    if (cl.live && !client_states.contains(key)) drift(key + only_model);
  }

  for (const auto& [denom, sum] : sums) {
    check_denom(c, denom, sum, height);
    const auto m = c.denoms.find(denom);
    const std::uint64_t model = m != c.denoms.end() ? m->second.balance_sum : 0;
    if (sum != model) {
      drift("denom " + denom + ": balances sum to " + std::to_string(sum) +
            ", model " + std::to_string(model));
    }
  }
  for (const auto& [denom, d] : c.denoms) {
    if (d.balance_sum != 0 && !sums.contains(denom)) {
      drift("denom " + denom + ": balances sum to 0, model " +
            std::to_string(d.balance_sum));
    }
  }
}

void InvariantChecker::check_escrow_model(ChainState& c,
                                          chain::Height height) {
  // Cross-chain conservation: actual escrow balances and voucher supplies
  // must match the model maintained from the packet events of *both* chains
  // (escrowed == minted on the other side + in flight, expressed per chain).
  for (const auto& [key, expected] : c.escrow) {
    const std::uint64_t actual = c.h.app->bank().balance(key.first,
                                                         key.second);
    if (actual != expected) {
      fail(c.h.id, height, "escrow-conservation",
           key.first + " holds " + std::to_string(actual) + " " +
               key.second + ", packet history implies " +
               std::to_string(expected));
    }
  }
  for (const auto& [denom, expected] : c.voucher_supply) {
    const std::uint64_t actual = c.h.app->bank().supply(denom);
    if (actual != expected) {
      fail(c.h.id, height, "voucher-conservation",
           "voucher " + denom + " supply is " + std::to_string(actual) +
               ", packet history implies " + std::to_string(expected));
    }
  }
}

}  // namespace check
