// Tests for the DES kernel (scheduler, service queue, sim::Task) and the
// network model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "sim/service_queue.hpp"
#include "sim/task.hpp"

namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(sim::seconds(1.0), 1'000'000);
  EXPECT_EQ(sim::millis(1.5), 1'500);
  EXPECT_EQ(sim::micros(7), 7);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(sim::to_millis(sim::millis(3.0)), 3.0);
}

TEST(TimeTest, Format) {
  EXPECT_EQ(sim::format_time(sim::seconds(1.5)), "1.500s");
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  sim::Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(sim::seconds(3), [&] { order.push_back(3); });
  sched.schedule_at(sim::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(sim::seconds(2), [&] { order.push_back(2); });
  sched.run_until(sim::seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), sim::seconds(10));
}

TEST(SchedulerTest, FifoWithinSameTimestamp) {
  sim::Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(sim::seconds(1), [&order, i] { order.push_back(i); });
  }
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, ScheduleAfterUsesNow) {
  sim::Scheduler sched;
  sim::TimePoint fired = -1;
  sched.schedule_at(sim::seconds(5), [&] {
    sched.schedule_after(sim::seconds(2), [&] { fired = sched.now(); });
  });
  sched.run_until(sim::seconds(10));
  EXPECT_EQ(fired, sim::seconds(7));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  sim::Scheduler sched;
  sched.run_until(sim::seconds(5));
  bool fired = false;
  sched.schedule_at(sim::seconds(1), [&] {
    fired = true;
    EXPECT_EQ(sched.now(), sim::seconds(5));
  });
  sched.run_until(sim::seconds(5));
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  sim::Scheduler sched;
  bool fired = false;
  const sim::EventId id =
      sched.schedule_at(sim::seconds(1), [&] { fired = true; });
  sched.cancel(id);
  sched.run_until(sim::seconds(2));
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelAfterFireIsNoOp) {
  sim::Scheduler sched;
  int count = 0;
  const sim::EventId id = sched.schedule_at(sim::seconds(1), [&] { ++count; });
  sched.run_until(sim::seconds(2));
  sched.cancel(id);  // must not crash or re-fire
  sched.run_until(sim::seconds(3));
  EXPECT_EQ(count, 1);
}

TEST(SchedulerTest, RunUntilDoesNotExecuteLaterEvents) {
  sim::Scheduler sched;
  bool early = false, late = false;
  sched.schedule_at(sim::seconds(1), [&] { early = true; });
  sched.schedule_at(sim::seconds(3), [&] { late = true; });
  sched.run_until(sim::seconds(2));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  sched.run_until(sim::seconds(3));
  EXPECT_TRUE(late);
}

TEST(SchedulerTest, StepReturnsFalseWhenEmpty) {
  sim::Scheduler sched;
  EXPECT_FALSE(sched.step());
  sched.schedule_after(0, [] {});
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(SchedulerTest, ReentrantSchedulingDuringEvent) {
  sim::Scheduler sched;
  int fired = 0;
  sched.schedule_after(0, [&] {
    for (int i = 0; i < 100; ++i) {
      sched.schedule_after(0, [&] { ++fired; });
    }
  });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(fired, 100);
}

TEST(SchedulerTest, SlabCapacityStaysBoundedAcrossWaves) {
  // Regression: the pending-event bookkeeping must not grow without bound
  // when events fire or are cancelled (the old implementation kept an
  // ever-growing id map between prune scans). Slots must be recycled, so
  // after many schedule/fire waves the slab stays at one wave's footprint.
  sim::Scheduler sched;
  for (int wave = 0; wave < 100; ++wave) {
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 50; ++i) {
      ids.push_back(sched.schedule_after(sim::millis(1), [] {}));
    }
    // Cancel half, fire the rest.
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
    sched.run_until(sched.now() + sim::millis(2));
    EXPECT_EQ(sched.pending_events(), 0u);
  }
  // 100 waves x 50 events each; capacity must reflect one wave, not all.
  EXPECT_LE(sched.slab_capacity(), 64u);
}

TEST(SchedulerTest, StaleCancelAfterSlotReuseIsNoOp) {
  // A cancelled/fired event's slot is recycled with a bumped generation;
  // cancelling the stale id must not touch the slot's new occupant.
  sim::Scheduler sched;
  bool first = false, second = false;
  const sim::EventId stale =
      sched.schedule_at(sim::millis(1), [&] { first = true; });
  sched.run_until(sim::millis(1));
  EXPECT_TRUE(first);
  // The recycled slot now holds a different event.
  const sim::EventId fresh =
      sched.schedule_at(sim::millis(2), [&] { second = true; });
  EXPECT_NE(stale, fresh);
  sched.cancel(stale);  // must not cancel `fresh`
  sched.run_until(sim::millis(2));
  EXPECT_TRUE(second);
}

TEST(SchedulerTest, PendingEventsTracksLiveCount) {
  sim::Scheduler sched;
  EXPECT_TRUE(sched.idle());
  const sim::EventId a = sched.schedule_at(sim::millis(1), [] {});
  sched.schedule_at(sim::millis(2), [] {});
  EXPECT_EQ(sched.pending_events(), 2u);
  EXPECT_FALSE(sched.idle());
  sched.cancel(a);
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run_until(sim::millis(2));
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_TRUE(sched.idle());
}

TEST(ServiceQueueTest, SerializesJobs) {
  sim::Scheduler sched;
  sim::ServiceQueue q(sched);
  std::vector<sim::TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    q.enqueue(sim::seconds(2),
              [&] { completions.push_back(sched.now()); });
  }
  sched.run_until(sim::seconds(10));
  ASSERT_EQ(completions.size(), 3u);
  // One server: completions at 2, 4, 6 — strictly serialized.
  EXPECT_EQ(completions[0], sim::seconds(2));
  EXPECT_EQ(completions[1], sim::seconds(4));
  EXPECT_EQ(completions[2], sim::seconds(6));
}

TEST(ServiceQueueTest, ParallelServersOverlap) {
  sim::Scheduler sched;
  sim::ServiceQueue q(sched);
  q.set_servers(3);
  std::vector<sim::TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    q.enqueue(sim::seconds(2),
              [&] { completions.push_back(sched.now()); });
  }
  sched.run_until(sim::seconds(10));
  ASSERT_EQ(completions.size(), 3u);
  for (sim::TimePoint t : completions) EXPECT_EQ(t, sim::seconds(2));
}

TEST(ServiceQueueTest, CapacityRejects) {
  sim::Scheduler sched;
  sim::ServiceQueue q(sched, /*capacity=*/2);
  int completed = 0;
  // First job starts service immediately (leaves the pending queue), two
  // more fill the queue, the fourth and fifth are rejected.
  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    if (q.enqueue(sim::seconds(1), [&] { ++completed; })) ++accepted;
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(q.rejected(), 2u);
  sched.run_until(sim::seconds(10));
  EXPECT_EQ(completed, 3);
}

TEST(ServiceQueueTest, TracksBusyTimeAndBacklog) {
  sim::Scheduler sched;
  sim::ServiceQueue q(sched);
  q.enqueue(sim::seconds(1), [] {});
  q.enqueue(sim::seconds(3), [] {});
  EXPECT_EQ(q.in_service(), 1u);
  EXPECT_EQ(q.queued(), 1u);
  EXPECT_EQ(q.backlog(), sim::seconds(3));
  sched.run_until(sim::seconds(10));
  EXPECT_EQ(q.completed(), 2u);
  EXPECT_EQ(q.total_busy_time(), sim::seconds(4));
}

TEST(NetworkTest, LoopbackVsInterMachineLatency) {
  sim::Scheduler sched;
  net::NetworkConfig cfg;
  cfg.jitter_fraction = 0.0;
  net::Network net(sched, cfg);
  sim::TimePoint local = -1, remote = -1;
  net.send(0, 0, 0, [&] { local = sched.now(); });
  net.send(0, 1, 0, [&] { remote = sched.now(); });
  sched.run_until(sim::seconds(1));
  EXPECT_EQ(local, cfg.loopback_latency);
  EXPECT_EQ(remote, cfg.inter_machine_rtt / 2);
}

TEST(NetworkTest, BandwidthBoundsLargePayloads) {
  sim::Scheduler sched;
  net::NetworkConfig cfg;
  cfg.jitter_fraction = 0.0;
  cfg.bandwidth_bytes_per_sec = 1'000'000.0;  // 1 MB/s
  net::Network net(sched, cfg);
  sim::TimePoint done = -1;
  net.send(0, 1, 2'000'000, [&] { done = sched.now(); });  // 2 MB
  sched.run_until(sim::seconds(10));
  EXPECT_EQ(done, cfg.inter_machine_rtt / 2 + sim::seconds(2.0));
}

TEST(NetworkTest, BroadcastReachesAllButSender) {
  sim::Scheduler sched;
  net::Network net(sched, net::NetworkConfig{});
  std::vector<net::MachineId> arrived;
  net.broadcast(2, 100, [&](net::MachineId m) { arrived.push_back(m); });
  sched.run_until(sim::seconds(1));
  std::sort(arrived.begin(), arrived.end());
  EXPECT_EQ(arrived, (std::vector<net::MachineId>{0, 1, 3, 4}));
}

TEST(NetworkTest, CountsTraffic) {
  sim::Scheduler sched;
  net::Network net(sched, net::NetworkConfig{});
  net.send(0, 1, 500, [] {});
  net.send(1, 0, 700, [] {});
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 1200u);
}

TEST(NetworkTest, JitterIsBounded) {
  sim::Scheduler sched;
  net::NetworkConfig cfg;
  cfg.jitter_fraction = 0.10;
  net::Network net(sched, cfg);
  const sim::Duration base = cfg.inter_machine_rtt / 2;
  for (int i = 0; i < 200; ++i) {
    const sim::Duration t = net.transfer_time(0, 1, 0);
    EXPECT_GE(t, base - base / 10 - 1);
    EXPECT_LE(t, base + base / 10 + 1);
  }
}

// --- sim::Task ---------------------------------------------------------------

// One per live test-coroutine frame.
struct Frame {
  static inline int live = 0;
  Frame() { ++live; }
  ~Frame() { --live; }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
};

using Log = std::vector<std::pair<sim::TimePoint, int>>;

// A callback-style query: replies 2x after a 3 us round trip.
void query(sim::Scheduler& s, int x, std::function<void(int)> cb) {
  s.schedule_after(3, [cb = std::move(cb), x] { cb(2 * x); });
}

// A ticker that lands on the same timestamps as the chains below, so the
// logs compare event order and not just times.
void tick(sim::Scheduler& s, Log& log, int n) {
  if (n == 0) return;
  s.schedule_after(1, [&s, &log, n] {
    log.emplace_back(s.now(), -n);
    tick(s, log, n - 1);
  });
}

// The reference: step i queries i, waits i us, then runs step i + 1.
void callback_step(sim::Scheduler& s, Log& log, int i) {
  if (i == 4) return;
  query(s, i, [&s, &log, i](int v) {
    log.emplace_back(s.now(), v);
    s.schedule_after(i, [&s, &log, i] {
      log.emplace_back(s.now(), 100 + i);
      callback_step(s, log, i + 1);
    });
  });
}

sim::Task<int> query_task(sim::Scheduler& s, int x) {
  co_return co_await sim::callback<int>(
      [&](sim::Resume<int> resume) { query(s, x, std::move(resume)); });
}

sim::Task<> steps_task(sim::Scheduler& s, Log& log) {
  for (int i = 0; i < 4; ++i) {
    const int v = co_await query_task(s, i);
    log.emplace_back(s.now(), v);
    co_await sim::delay(s, i);
    log.emplace_back(s.now(), 100 + i);
  }
}

TEST(SimTask, SchedulesTheSameEventsAsTheCallbackChain) {
  sim::Scheduler ref_sched;
  sim::Scheduler task_sched;
  Log ref;
  Log got;
  tick(ref_sched, ref, 20);
  callback_step(ref_sched, ref, 0);
  while (ref_sched.step()) {
  }
  tick(task_sched, got, 20);
  sim::spawn(steps_task(task_sched, got));
  while (task_sched.step()) {
  }
  EXPECT_EQ(got, ref);
  EXPECT_EQ(task_sched.executed_events(), ref_sched.executed_events());
  EXPECT_EQ(task_sched.now(), ref_sched.now());
}

TEST(SimTask, CallbackFiredBeforeTheCallReturnsContinuesInline) {
  std::vector<int> order;
  sim::spawn([](std::vector<int>& order) -> sim::Task<> {
    const int v = co_await sim::callback<int>([&](sim::Resume<int> resume) {
      const std::function<void(int)> cb = resume;
      cb(7);
      cb(8);  // only the first call counts
      order.push_back(1);  // the task has not resumed inside the call
    });
    order.push_back(v);
  }(order));
  EXPECT_EQ(order, (std::vector<int>{1, 7}));
}

sim::Task<int> leaf(std::function<void(int)>& pending) {
  Frame f;
  const int v = co_await sim::callback<int>(
      [&](sim::Resume<int> resume) { pending = std::move(resume); });
  co_return v;
}

sim::Task<int> middle(std::function<void(int)>& pending) {
  Frame f;
  const int v = co_await leaf(pending);
  co_return v + 1;
}

sim::Task<> outer(std::function<void(int)>& pending, int& out) {
  Frame f;
  out = co_await middle(pending);
}

TEST(SimTask, AbandonedChainFreesEveryFrame) {
  std::function<void(int)> pending;
  int out = 0;
  // Dropping the callback a three-deep chain waits on frees all three.
  sim::spawn(outer(pending, out));
  EXPECT_EQ(Frame::live, 3);
  pending = nullptr;
  EXPECT_EQ(Frame::live, 0);
  EXPECT_EQ(out, 0);

  // Firing it finishes the chain, which frees it just the same.
  sim::spawn(outer(pending, out));
  std::function<void(int)> fire = std::move(pending);
  fire(41);
  EXPECT_EQ(out, 42);
  EXPECT_EQ(Frame::live, 0);

  // sim::abandon() ends a chain where it stands.
  sim::spawn([](int& out) -> sim::Task<> {
    Frame f;
    out = 1;
    co_await sim::abandon();
    out = 2;
  }(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(Frame::live, 0);

  // A scheduler torn down with the chain's event pending frees it too.
  {
    sim::Scheduler s;
    sim::spawn([](sim::Scheduler& s) -> sim::Task<> {
      Frame f;
      co_await sim::delay(s, 5);
    }(s));
    EXPECT_EQ(Frame::live, 1);
  }
  EXPECT_EQ(Frame::live, 0);
}

sim::Task<int> fails_later(sim::Scheduler& s) {
  co_await sim::delay(s, 5);
  throw std::runtime_error("child failed");
}

TEST(SimTask, ChildExceptionReachesTheCodeThatResumedIt) {
  sim::Scheduler s;
  std::string caught;
  sim::spawn([](sim::Scheduler& s, std::string& caught) -> sim::Task<> {
    Frame f;
    try {
      co_await fails_later(s);
    } catch (const std::runtime_error& e) {
      caught = e.what();  // the awaiting parent sees it first...
    }
    co_await fails_later(s);  // ...and, uncaught, the event that resumed it
  }(s, caught));
  EXPECT_TRUE(s.step());
  EXPECT_EQ(caught, "child failed");
  EXPECT_THROW(s.step(), std::runtime_error);
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.now(), 10);
  EXPECT_EQ(Frame::live, 0);
}

sim::Task<int> ready(const std::function<void()>& probe) {
  probe();
  co_return 1;
}

TEST(SimTask, ImmediateCompletionsDoNotGrowTheStack) {
  // 10^5 callbacks that fire before their call returns and 10^5 children
  // that finish without suspending: each one starts at the same depth.
  std::uintptr_t lo = UINTPTR_MAX;
  std::uintptr_t hi = 0;
  const std::function<void()> probe = [&] {
    volatile char here = 0;
    const auto at = reinterpret_cast<std::uintptr_t>(&here);
    lo = std::min(lo, at);
    hi = std::max(hi, at);
  };
  long total = 0;
  sim::spawn([](const std::function<void()>& probe,
                long& total) -> sim::Task<> {
    for (int i = 0; i < 100'000; ++i) {
      total += co_await sim::callback<int>([&](sim::Resume<int> resume) {
        probe();
        resume(1);
      });
      total += co_await ready(probe);
    }
  }(probe, total));
  EXPECT_EQ(total, 200'000);
  EXPECT_LT(hi - lo, 1024u);
}

}  // namespace
