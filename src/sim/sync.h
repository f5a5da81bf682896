// Synchronization primitives for simulated processes.
//
// All primitives wake waiters by scheduling resumptions at the current
// simulated time (never by resuming inline), so a `set()` made from one
// process cannot reentrantly run another in the middle of the caller's
// statement. None of these objects may outlive the Engine they reference.
//
// Waiter bookkeeping goes through `WaiterList`, a small-buffer FIFO of
// coroutine handles: the common 0–2-waiter case (one producer parked on a
// channel, one proxy parked on its activity notifier) never allocates.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/check.h"
#include "sim/engine.h"
#include "sim/task.h"

namespace dpu::sim {

/// FIFO of suspended coroutine handles with a two-slot inline buffer that
/// spills to a heap ring only past two concurrent waiters. Push order is
/// pop order, which is what preserves the engine's insertion-order
/// tie-breaking when a wakeup schedules several resumptions at one instant.
class WaiterList {
 public:
  WaiterList() = default;
  WaiterList(const WaiterList&) = delete;
  WaiterList& operator=(const WaiterList&) = delete;
  ~WaiterList() { delete[] heap_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(std::coroutine_handle<> h) {
    if (size_ == cap_) grow();
    data()[(head_ + size_) & (cap_ - 1)] = h;
    ++size_;
  }

  std::coroutine_handle<> pop_front() {
    require(size_ > 0, "pop_front on empty WaiterList");
    auto h = data()[head_];
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return h;
  }

  /// Forgets all waiters (used by tests and by wake-all loops that already
  /// drained via pop_front).
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::coroutine_handle<>* data() { return heap_ ? heap_ : inline_; }
  const std::coroutine_handle<>* data() const { return heap_ ? heap_ : inline_; }

  void grow() {
    // Capacity stays a power of two so ring indexing is a mask.
    const std::uint32_t ncap = cap_ * 2;
    auto* nbuf = new std::coroutine_handle<>[ncap];
    for (std::uint32_t i = 0; i < size_; ++i) nbuf[i] = data()[(head_ + i) & (cap_ - 1)];
    delete[] heap_;
    heap_ = nbuf;
    cap_ = ncap;
    head_ = 0;
  }

  static constexpr std::uint32_t kInlineCap = 2;
  std::coroutine_handle<> inline_[kInlineCap];
  std::coroutine_handle<>* heap_ = nullptr;
  std::uint32_t cap_ = kInlineCap;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

/// One-shot event: once `set`, all current and future waiters proceed.
/// Besides coroutine waiters, lightweight callbacks can subscribe; they run
/// synchronously inside set() (keep them to flag/counter updates).
class Event {
 public:
  explicit Event(Engine& eng) : eng_(&eng) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    while (!waiters_.empty()) eng_->resume_at(eng_->now(), waiters_.pop_front());
    auto subs = std::move(subscribers_);
    subscribers_.clear();
    for (auto& fn : subs) fn();
  }

  /// Runs `fn` when the event fires (immediately if already set).
  void subscribe(std::function<void()> fn) {
    if (set_) {
      fn();
    } else {
      subscribers_.push_back(std::move(fn));
    }
  }

  auto wait() {
    struct Awaiter {
      Event& ev;
      bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  bool set_ = false;
  WaiterList waiters_;
  std::vector<std::function<void()>> subscribers_;
};

/// Reusable notification: `notify_all` wakes the waiters registered at that
/// moment; later waiters block until the next notification. The progress
/// engines use this as "state may have changed, re-poll".
class Notifier {
 public:
  explicit Notifier(Engine& eng) : eng_(&eng) {}
  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  void notify_all() {
    while (!waiters_.empty()) eng_->resume_at(eng_->now(), waiters_.pop_front());
  }

  std::size_t waiter_count() const { return waiters_.size(); }

  auto wait() {
    struct Awaiter {
      Notifier& n;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { n.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* eng_;
  WaiterList waiters_;
};

/// Unbounded FIFO channel. `recv` suspends while empty; `send` never blocks.
/// Values are delivered in send order; competing receivers are served in
/// arrival order.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& eng) : eng_(&eng) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    items_.push_back(std::move(value));
    if (!receivers_.empty()) {
      eng_->resume_at(eng_->now(), receivers_.pop_front());
    }
  }

  /// FIFO send with a caller-supplied tiebreak: `value` is inserted before
  /// every trailing queued item for which `before(value, item)` holds
  /// (stable — equal keys keep arrival order). The verbs inboxes use this
  /// to give same-virtual-time deliveries a schedule-invariant order, so a
  /// receiver's processing sequence cannot depend on how the engine broke
  /// a dispatch tie between the delivery events.
  template <typename Before>
  void send_before(T value, Before&& before) {
    auto it = items_.end();
    while (it != items_.begin() && before(value, *std::prev(it))) --it;
    items_.insert(it, std::move(value));
    if (!receivers_.empty()) {
      eng_->resume_at(eng_->now(), receivers_.pop_front());
    }
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Non-suspending receive; empty optional when no item is queued.
  std::optional<T> try_recv() {
    std::optional<T> v;
    if (!items_.empty()) {
      v.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    return v;
  }

  Task<T> recv() {
    while (items_.empty()) co_await Suspend{*this};
    T v = std::move(items_.front());
    items_.pop_front();
    co_return v;
  }

 private:
  struct Suspend {
    Channel& ch;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ch.receivers_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Engine* eng_;
  std::deque<T> items_;
  WaiterList receivers_;
};

/// Counting semaphore; `acquire` suspends while no permit is available.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::size_t permits) : eng_(&eng), permits_(permits) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  std::size_t available() const { return permits_; }

  void release() {
    ++permits_;
    if (!waiters_.empty()) {
      eng_->resume_at(eng_->now(), waiters_.pop_front());
    }
  }

  Task<void> acquire() {
    while (permits_ == 0) co_await Suspend{*this};
    --permits_;
  }

 private:
  struct Suspend {
    Semaphore& s;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  Engine* eng_;
  std::size_t permits_;
  WaiterList waiters_;
};

}  // namespace dpu::sim
