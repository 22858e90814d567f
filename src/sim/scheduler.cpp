#include "sim/scheduler.hpp"

#include <algorithm>

#include "telemetry/profiler.hpp"

namespace sim {

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.fn = nullptr;
  s.armed = false;
  ++s.gen;
  free_slots_.push_back(slot);
}

EventId Scheduler::schedule_at(TimePoint t, std::function<void()> fn) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slab_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  queue_.push(QueueEntry{std::max(t, now_), next_seq_++, slot});
  ++live_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId Scheduler::schedule_after(Duration delay, std::function<void()> fn) {
  return schedule_at(now_ + std::max<Duration>(delay, 0), std::move(fn));
}

void Scheduler::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slab_.size()) return;
  Slot& s = slab_[slot];
  if (s.gen != gen || !s.armed) return;  // already fired, cancelled or reused
  // Disarm and drop the closure now; the slot itself is recycled when its
  // queue entry surfaces at the heap top.
  s.armed = false;
  s.fn = nullptr;
  --live_;
}

void Scheduler::skim_cancelled() {
  while (!queue_.empty() && !slab_[queue_.top().slot].armed) {
    const std::uint32_t slot = queue_.top().slot;
    queue_.pop();
    release_slot(slot);
  }
}

void Scheduler::dispatch() {
  const QueueEntry e = queue_.top();
  queue_.pop();
  std::function<void()> fn = std::move(slab_[e.slot].fn);
  release_slot(e.slot);
  --live_;
  telemetry::profiler::add_sim_progress(
      static_cast<std::uint64_t>(e.time - now_));
  now_ = e.time;
  ++executed_;
  // The closure was moved out of the slab before invoking, so re-entrant
  // scheduling that reuses (or grows) the slab cannot touch it.
  telemetry::ProfileScope prof(telemetry::ProfileKey::kSchedulerDispatch);
  fn();
}

bool Scheduler::step() {
  skim_cancelled();
  if (queue_.empty()) return false;
  dispatch();
  return true;
}

void Scheduler::run_until(TimePoint t) {
  for (;;) {
    skim_cancelled();
    if (queue_.empty() || queue_.top().time > t) break;
    dispatch();
  }
  now_ = std::max(now_, t);
}

}  // namespace sim
