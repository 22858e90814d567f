#pragma once
// Discrete-event scheduler.
//
// The heart of the simulator: a priority queue of (time, sequence) ordered
// events. Every concurrent activity in the reproduced system — consensus
// timeouts, network message deliveries, RPC queue service completions,
// relayer worker steps — is expressed as a scheduled callback. Sequence
// numbers break time ties in FIFO order, making execution deterministic.
//
// Storage is a slab: each pending event occupies a reusable slot, and an
// EventId encodes (generation << 32 | slot) so cancellation is an O(1)
// slot lookup with a generation check instead of a search. Slots are
// recycled as soon as their queue entry is consumed, so the slab stays
// bounded by the maximum number of *concurrently* pending events, not by
// the total ever scheduled.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace sim {

/// Opaque handle: high 32 bits = slot generation, low 32 bits = slot index.
/// Generations start at 1, so no valid id is ever 0.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now()).
  EventId schedule_at(TimePoint t, std::function<void()> fn);

  /// Schedules `fn` after `delay` (clamped to >= 0).
  EventId schedule_after(Duration delay, std::function<void()> fn);

  /// Cancels a pending event; a no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Runs one (non-cancelled) event; returns false if the queue is empty.
  bool step();

  /// Runs events up to and including virtual time `t`; now() becomes `t`
  /// even if the queue drained earlier.
  void run_until(TimePoint t);

  bool idle() const { return live_ == 0; }
  std::uint64_t executed_events() const { return executed_; }

  /// Events scheduled but not yet fired or cancelled.
  std::size_t pending_events() const { return live_; }
  /// Slots allocated for pending-event bookkeeping; bounded by the peak
  /// number of simultaneously pending events (regression guard: it must NOT
  /// grow with the total number of events ever scheduled).
  std::size_t slab_capacity() const { return slab_.size(); }

 private:
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 1;
    // True while the slot holds a cancellable pending event; cleared by
    // cancel() and when the queue entry is consumed.
    bool armed = false;
  };
  struct QueueEntry {
    TimePoint time;
    std::uint64_t seq;  // global schedule order; FIFO tie-break within a time
    std::uint32_t slot;
  };
  struct EntryOrder {
    // min-heap by (time, seq).
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Drops cancelled entries at the head so top() is an armed event.
  void skim_cancelled();
  /// Pops the (armed) head event, advances the clock to it and runs it.
  void dispatch();

  TimePoint now_ = kTimeZero;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, EntryOrder> queue_;
};

}  // namespace sim
