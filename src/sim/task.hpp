#pragma once
// Sequential coroutines over the discrete-event scheduler.
//
// sim::Task<T> is a lazily started C++20 coroutine. A task runs when a parent
// task co_awaits it, or when sim::spawn() starts it as the root of a detached
// chain. A child that finishes after suspending resumes its parent by
// symmetric transfer. Code that would thread a step closure through every
// callback reads as one loop, and executes the same events in the same
// order as that closure chain: a task resumes inside the callback that
// would run the closure's next step.
//
// Ownership. A suspended chain (a root and the children it awaits) is owned
// by the callbacks it waits on: each pending sim::Resume holds the root
// strongly, frames hold it only weakly, and a parent frame owns the child it
// awaits. When every pending callback is dropped unfired (an RPC reply lost
// at teardown, sim::abandon()), the root's last owner goes and every frame of
// the chain is destroyed; nothing leaks and nothing dangles.
//
// Exceptions. A child's exception is rethrown by the co_await in its parent;
// one that escapes a root propagates out of whatever resumed it (the
// callback, and so Scheduler::step()).
//
// Rule for callers: no RAII scope whose destructor must run in the same
// event (telemetry::ProfileScope) may stay open across a co_await.

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "sim/scheduler.hpp"

namespace sim {

template <typename T = void>
class Task;
inline void spawn(Task<void> task);

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> parent;  // the awaiting task; null at a root
  std::weak_ptr<void> owner;       // the chain's root frame
  std::exception_ptr error;
  bool starting = false;  // the parent's co_await is running the task
  bool finished = false;

  std::suspend_always initial_suspend() noexcept { return {}; }

  // A task that finishes while its parent's co_await is still starting it
  // hands back to that co_await; one that finishes later resumes the parent
  // by symmetric transfer.
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      p.finished = true;
      if (p.starting || !p.parent) return std::noop_coroutine();
      return p.parent;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() {
    if (!parent) throw;  // a root: out to the code that resumed it
    error = std::current_exception();
  }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object() noexcept;
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  T result() {
    if (error) std::rethrow_exception(error);
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void result() {
    if (error) std::rethrow_exception(error);
  }
};

template <typename T>
using Slot = std::conditional_t<std::is_void_v<T>, std::monostate, T>;

// One wait on a callback.
template <typename T>
struct Pending {
  std::shared_ptr<void> owner;  // the chain, while the callback is pending
  std::coroutine_handle<> waiter;
  std::optional<Slot<T>>* slot = nullptr;  // in the waiting frame
  bool in_await = true;  // the call that received the callback is running
  bool fired = false;
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  /// Starts the task; the awaiting task resumes when it finishes.
  auto operator co_await() && noexcept { return Awaiter{h_}; }

 private:
  friend promise_type;
  friend void spawn(Task<void> task);
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  // Runs the child inline until it first suspends, so that a loop of
  // immediately finishing children does not deepen the stack even where the
  // compiler does not turn symmetric transfer into a tail call.
  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    bool await_ready() noexcept { return false; }
    template <typename P>
    bool await_suspend(std::coroutine_handle<P> parent) {
      promise_type& c = child.promise();
      c.parent = parent;
      c.owner = parent.promise().owner;
      c.starting = true;
      child.resume();
      c.starting = false;
      return !c.finished;
    }
    T await_resume() { return child.promise().result(); }
  };

  std::coroutine_handle<promise_type> h_;
};

namespace detail {
template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}
inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}
}  // namespace detail

/// Starts `task` as the root of a detached chain and runs it to its first
/// suspension. From then on the callbacks it waits on own it; it is
/// destroyed when it finishes or when they are all dropped unfired.
inline void spawn(Task<void> task) {
  const auto h = std::exchange(task.h_, {});
  const std::shared_ptr<void> owner(h.address(), [](void* frame) {
    std::coroutine_handle<>::from_address(frame).destroy();
  });
  h.promise().owner = owner;
  h.resume();
}

/// Spawns `task` and hands its result to `on_done` when it finishes.
template <typename T, typename F>
void spawn(Task<T> task, F on_done) {
  spawn([](Task<T> t, F f) -> Task<void> {
    f(co_await std::move(t));
  }(std::move(task), std::move(on_done)));
}

/// The callback a sim::callback() await hands out: calling it (with a T, or
/// with nothing for T = void) resumes the waiting task inside the call. Only
/// the first call counts. Copies share one wait.
template <typename T = void>
class Resume {
 public:
  explicit Resume(std::shared_ptr<detail::Pending<T>> pending)
      : pending_(std::move(pending)) {}

  template <typename... A>
    requires(sizeof...(A) == (std::is_void_v<T> ? 0 : 1))
  void operator()(A&&... value) const {
    const std::shared_ptr<detail::Pending<T>> p = pending_;
    if (p->fired) return;
    p->fired = true;
    p->slot->emplace(std::forward<A>(value)...);
    if (p->in_await) return;  // the await carries on without suspending
    // Hold the chain while it runs; if it finishes or is abandoned before
    // waiting on anything else, it is destroyed when this returns.
    const std::shared_ptr<void> owner = std::move(p->owner);
    p->waiter.resume();
  }

 private:
  std::shared_ptr<detail::Pending<T>> pending_;
};

/// Awaitable for a callback-style call: `start` receives a sim::Resume<T>
/// and passes it on as the call's callback. The task resumes inside that
/// callback with its argument. A callback that fires before `start` returns
/// continues the task inline, so a loop of immediate completions keeps a
/// flat stack.
template <typename T, typename Start>
class [[nodiscard]] CallbackAwait {
 public:
  explicit CallbackAwait(Start start) : start_(std::move(start)) {}
  // A pending callback writes into result_.
  CallbackAwait(const CallbackAwait&) = delete;
  CallbackAwait& operator=(const CallbackAwait&) = delete;

  bool await_ready() const noexcept { return false; }

  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) {
    const auto p = std::make_shared<detail::Pending<T>>();
    p->owner = h.promise().owner.lock();
    p->waiter = h;
    p->slot = &result_;
    start_(Resume<T>(p));
    p->in_await = false;
    if (!p->fired) return true;
    p->owner.reset();
    return false;
  }

  T await_resume() {
    if constexpr (!std::is_void_v<T>) return std::move(*result_);
  }

 private:
  Start start_;
  std::optional<detail::Slot<T>> result_;
};

/// co_await sim::callback<T>([&](sim::Resume<T> resume) {
///   server.query(..., std::move(resume));
/// });
template <typename T = void, typename Start>
CallbackAwait<T, Start> callback(Start start) {
  return CallbackAwait<T, Start>(std::move(start));
}

/// Resumes the task `d` later on `sched`: one scheduled event.
inline auto delay(Scheduler& sched, Duration d) {
  return callback([&sched, d](Resume<> resume) {
    sched.schedule_after(d, std::move(resume));
  });
}

/// Ends the chain where it stands, as a callback that is never called would:
/// nothing after this point runs, and every frame of the chain is destroyed
/// once the code that resumed it returns.
inline std::suspend_always abandon() noexcept { return {}; }

}  // namespace sim
