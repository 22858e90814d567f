#pragma once
// ICS-04 channels.
//
// Channels are routes between two port-bound modules over a connection
// (paper §II-B1): they provide ordering (ORDERED delivers in send order,
// UNORDERED in any order — the paper's testbed uses UNORDERED), exactly-once
// delivery, and permissioning. Multiple channels can share one connection.

#include <optional>
#include <string>
#include <string_view>

#include "chain/store.hpp"
#include "ibc/codec.hpp"
#include "ibc/ids.hpp"
#include "util/status.hpp"

namespace ibc {

enum class ChannelPhase : std::uint8_t {
  kInit = 1,
  kTryOpen = 2,
  kOpen = 3,
  kClosed = 4,
};

enum class ChannelOrdering : std::uint8_t {
  kUnordered = 1,
  kOrdered = 2,
};

std::string channel_phase_name(ChannelPhase s);
std::string channel_ordering_name(ChannelOrdering o);

struct ChannelEnd {
  ChannelPhase phase = ChannelPhase::kInit;
  ChannelOrdering ordering = ChannelOrdering::kUnordered;
  ConnectionId connection;
  PortId counterparty_port;
  ChannelId counterparty_channel;  // filled in from Try/Ack
  std::string version;             // "ics20-1" for transfer channels

  util::Bytes encode() const;
  static bool decode(util::BytesView data, ChannelEnd& out);
};

/// Channel keeper: channel ends plus per-channel sequence counters.
///
/// get() decodes each stored channel-end value once: decodes are memoised
/// by the bytes they came from, and a read that finds the same bytes in the
/// store reuses one. The stored bytes are the only validity test, so any
/// write (a handshake step, a close, a reverted tx) shows at the next read,
/// and the memo never needs invalidating.
class ChannelKeeper {
 public:
  explicit ChannelKeeper(chain::KvStore& store) : store_(store) {}

  ChannelId generate_id();
  void set(const PortId& port, const ChannelId& id, const ChannelEnd& end);
  util::Result<ChannelEnd> get(const PortId& port, const ChannelId& id) const;
  bool exists(const PortId& port, const ChannelId& id) const;

  /// Sequence counters (initialized to 1 on channel open).
  Sequence next_sequence_send(const PortId& port, const ChannelId& id) const;
  Sequence next_sequence_recv(const PortId& port, const ChannelId& id) const;
  Sequence next_sequence_ack(const PortId& port, const ChannelId& id) const;
  void set_next_sequence_send(const PortId& port, const ChannelId& id, Sequence s);
  void set_next_sequence_recv(const PortId& port, const ChannelId& id, Sequence s);
  void set_next_sequence_ack(const PortId& port, const ChannelId& id, Sequence s);
  /// Read-modify-write of the counter at `key` (a host::next_sequence_*_key)
  /// in one probe: stores advance(current) unless it returns nullopt, which
  /// leaves the counter as it is.
  template <typename F>
  void update_sequence(std::string_view key, F&& advance) {
    store_.update(key, [&](chain::KvStore::Slot& slot) {
      const std::optional<Sequence> next =
          advance(util::stored_u64(slot.value()));
      if (next) slot.set(util::u64_be(*next));
    });
  }

 private:
  Sequence read_seq(std::string_view key) const;
  void write_seq(std::string_view key, Sequence s);

  chain::KvStore& store_;
  std::uint64_t next_ = 0;
};

}  // namespace ibc
