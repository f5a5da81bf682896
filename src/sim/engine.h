// Discrete-event simulation engine.
//
// The engine owns a virtual clock (picosecond resolution) and a stable
// priority queue of events. Simulated processes are C++20 coroutines spawned
// with `Engine::spawn`; they advance virtual time only by awaiting engine
// awaitables (sleep, Event, Channel, ...). The engine is strictly
// single-threaded and deterministic: ties in time are broken by insertion
// order.
//
// Event representation (the simulator's hottest data structure): each queue
// node is a trivially-copyable 24-byte record with two arms selected by the
// payload's tag bit —
//   * fast arm: a raw coroutine handle address (resume_at). Scheduling and
//     dispatching a resumption never touches the heap.
//   * slow arm: an index into a recycled slot pool of std::function
//     callbacks (schedule_at). Only this arm pays type erasure.
// Nodes live in a calendar-band queue (CalendarQueue): a 1024-bucket wheel
// covering an adaptively-sized near-horizon band — O(1) enqueue into an
// index-linked slab of cache-packed nodes — with a 4-ary min-heap fallback
// for timers beyond the band. Expiry is batched: the earliest instant's
// whole cohort is unlinked from its bucket in one pass, sorted once, and
// dispatched without per-event heap repair. Dispatch order is exactly
// ascending (time, tie_key(seq)) — a strict total order — so simulation
// behaviour is independent of the queue's internal shape (band width,
// bucket boundaries, heap layout). See DESIGN.md §11.
//
// Same-timestamp fast lane: events scheduled at exactly the current time
// (the dominant case — Event/Notifier/Channel wakeups all resume_at(now))
// skip the heap and go to a plain FIFO. Because seq increases monotonically,
// the FIFO is (time, seq)-sorted by construction, and run() merges it with
// the heap by comparing front against top — the dispatch order is provably
// identical to a single heap.
//
// Tie-shuffle mode (race detection): set_tie_shuffle_seed(s != 0) replaces
// the seq tie-break with a seeded bijective permutation of seq, so events
// tied at the same virtual time dispatch in a deterministic but shuffled
// order. A simulation whose outcome is independent of same-time ordering
// produces identical results for every seed; a divergence pinpoints a
// schedule race (see src/analysis/ and tests/determinism_test.cpp).
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/units.h"

namespace dpu::analysis {
class ProtocolChecker;
}

namespace dpu::sim {

class Trace;

template <typename T>
class Task;

class Engine;

/// Observable state of a spawned root process.
struct ProcState {
  std::string name;
  bool done = false;
  std::exception_ptr error;
  std::coroutine_handle<> root;  // owned by the Engine
};

/// Handle returned by Engine::spawn; queryable after Engine::run.
class ProcHandle {
 public:
  ProcHandle() = default;
  explicit ProcHandle(std::shared_ptr<ProcState> state) : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->done; }

  /// Name of the process; empty for a default-constructed (invalid) handle.
  const std::string& name() const {
    static const std::string kInvalid;
    return state_ ? state_->name : kInvalid;
  }

  /// Rethrows the process's terminal exception, if any.
  void rethrow() const {
    if (state_ && state_->error) std::rethrow_exception(state_->error);
  }

 private:
  std::shared_ptr<ProcState> state_;
};

/// Outcome of Engine::run.
enum class RunResult {
  kCompleted,  ///< event queue drained and all processes finished
  kDeadlock,   ///< event queue drained with live processes still blocked
  kTimeLimit,  ///< stopped at the requested horizon
};

class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (must be >= now()).
  void schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` to run `d` after now.
  void schedule_in(SimDuration d, std::function<void()> fn) {
    schedule_at(now_ + d, std::move(fn));
  }

  /// Registers `fn` to run at the *current* timestamp after every event
  /// queued at this timestamp has dispatched — an end-of-instant hook. The
  /// clock never advances past a pending hook. Hooks run in registration
  /// order; a hook may schedule new events (including at the current time,
  /// which dispatch before the clock moves) and may register further hooks.
  ///
  /// This exists for deterministic arbitration of shared resources: a model
  /// that must grant same-instant requests in a canonical order (rather
  /// than in scheduler tie order, which tie-shuffle mode perturbs) collects
  /// the requests and resolves them here, once the instant's cohort is
  /// complete. See fabric::Fabric's link arbiter.
  void at_instant_end(std::function<void()> fn) { settle_.push_back(std::move(fn)); }

  /// Schedules a coroutine resumption (allocation-free fast path).
  void resume_at(SimTime t, std::coroutine_handle<> h) {
    require(t >= now_, "scheduling into the past");
    const auto addr = reinterpret_cast<std::uintptr_t>(h.address());
    require((addr & kCallbackTag) == 0, "coroutine frame address must be even");
    push_node(EvNode{t, next_seq_++, addr});
  }
  void resume_in(SimDuration d, std::coroutine_handle<> h) { resume_at(now_ + d, h); }

  /// Spawns a root process. The coroutine begins executing at the current
  /// simulated time once `run` is called (or immediately if already inside
  /// `run`).
  ProcHandle spawn(Task<void> task, std::string name = "proc");

  /// Runs until the queue drains or `until` is reached. Throws the first
  /// process exception encountered (fail fast); otherwise reports whether
  /// processes remain blocked (deadlock).
  RunResult run(SimTime until = kTimeInfinity);

  /// Names of spawned processes that have not finished (useful in deadlock
  /// diagnostics).
  std::vector<std::string> live_process_names() const;

  /// Number of events executed so far (proxy for simulation work). Thin
  /// adapter over the "engine.events_executed" registry counter.
  std::uint64_t events_executed() const { return events_executed_.value(); }

  /// Per-simulation metrics registry; every layer built on this engine
  /// names its counters here (see common/metrics.h).
  metrics::MetricsRegistry& metrics() { return metrics_; }
  const metrics::MetricsRegistry& metrics() const { return metrics_; }

  /// Optional span recorder; null disables tracing (the default).
  void set_trace(Trace* t) { trace_ = t; }
  Trace* trace() const { return trace_; }

  /// Optional protocol-invariant observer (src/analysis/invariants.h); null
  /// disables checking (the default). The engine never calls it — it is the
  /// rendezvous point through which the offload/proxy/reliable layers find
  /// the checker without a dependency on the analysis library.
  void set_checker(analysis::ProtocolChecker* c) { checker_ = c; }
  analysis::ProtocolChecker* checker() const { return checker_; }

  /// Arms (seed != 0) or disarms (seed == 0) tie-shuffle mode: events tied
  /// at the same virtual time dispatch in a seed-permuted instead of
  /// insertion order. Deterministic for a given seed. Already-queued events
  /// are re-keyed, so this may be called after spawns; calling it mid-run
  /// (between events) is legal but the usual place is before run().
  void set_tie_shuffle_seed(std::uint64_t seed) {
    if (seed == tie_shuffle_seed_) return;
    tie_shuffle_seed_ = seed;
    std::vector<EvNode> pending;
    pending.reserve(queue_.size());
    while (!queue_.empty()) pending.push_back(queue_.pop());
    queue_.set_tie_seed(seed);
    for (const auto& n : pending) queue_.push(n);
    // FIFO entries lose their fast lane once the key function changes.
    while (!now_fifo_.empty()) queue_.push(now_fifo_.pop());
  }
  std::uint64_t tie_shuffle_seed() const { return tie_shuffle_seed_; }

  /// Awaitable: suspends the calling coroutine for `d` simulated time.
  auto sleep(SimDuration d) {
    struct Awaiter {
      Engine& eng;
      SimDuration d;
      bool await_ready() const noexcept { return d == 0; }
      void await_suspend(std::coroutine_handle<> h) { eng.resume_in(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

 private:
  static constexpr std::uintptr_t kCallbackTag = 1;

  /// Two-arm event node. Tag bit 0 of `payload` selects the arm: clear ->
  /// coroutine frame address (frames are at least pointer-aligned, so the
  /// bit is free), set -> callback slot index shifted left by one.
  struct EvNode {
    SimTime time;
    std::uint64_t seq;
    std::uintptr_t payload;
  };
  static_assert(std::is_trivially_copyable_v<EvNode>);

  /// 4-ary min-heap over EvNode with hole-based sifting: shallower than a
  /// binary heap and every move is a 24-byte memcpy, which is what makes
  /// event push/pop allocation- and indirection-free. Post calendar-queue
  /// refactor this is the *far-horizon* store only: timers beyond the
  /// calendar band land here and migrate into the band wholesale when the
  /// band rebases (CalendarQueue::rebase).
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    const EvNode& top() const { return v_.front(); }
    void clear() { v_.clear(); }

    void push(const EvNode& n) {
      std::size_t i = v_.size();
      v_.push_back(n);
      while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!less(n, v_[parent])) break;
        v_[i] = v_[parent];
        i = parent;
      }
      v_[i] = n;
    }

    EvNode pop() {
      const EvNode out = v_.front();
      const EvNode last = v_.back();
      v_.pop_back();
      if (!v_.empty()) {
        const std::size_t n = v_.size();
        std::size_t i = 0;
        for (;;) {
          const std::size_t child = (i << 2) + 1;
          if (child >= n) break;
          std::size_t best = child;
          const std::size_t end = child + 4 < n ? child + 4 : n;
          for (std::size_t c = child + 1; c < end; ++c) {
            if (less(v_[c], v_[best])) best = c;
          }
          if (!less(v_[best], last)) break;
          v_[i] = v_[best];
          i = best;
        }
        v_[i] = last;
      }
      return out;
    }

    /// Arms tie-shuffling. Only legal while the heap is empty: changing the
    /// key function under live nodes would corrupt the heap order.
    void set_tie_seed(std::uint64_t seed) {
      require(v_.empty(), "tie seed change with queued events");
      tie_seed_ = seed;
    }

   private:
    /// Tie-break key. Seed 0 (default) preserves insertion order; otherwise
    /// the seq is passed through the SplitMix64 finalizer, a bijection on
    /// 64-bit values, so distinct seqs still map to distinct keys and the
    /// order stays a strict total order — merely a permuted one.
    std::uint64_t tie_key(std::uint64_t seq) const {
      if (tie_seed_ == 0) return seq;
      std::uint64_t s = seq ^ tie_seed_;
      return splitmix64(s);
    }
    bool less(const EvNode& a, const EvNode& b) const {
      return a.time != b.time ? a.time < b.time : tie_key(a.seq) < tie_key(b.seq);
    }
    std::uint64_t tie_seed_ = 0;
    std::vector<EvNode> v_;
  };

  /// Calendar-band event queue: the engine's general-purpose store.
  ///
  /// Three tiers, by proximity to the clock:
  ///   * ready batch — the earliest instant's cohort, already unlinked from
  ///     its bucket and sorted by (time, tie_key). top()/pop() read it with
  ///     a cursor; no per-event structural repair.
  ///   * wheel      — kBuckets buckets of width 2^band_shift_ ps covering
  ///     the near-horizon band [band_start_, band_start_ + kBuckets<<shift).
  ///     Buckets are singly-linked lists threaded by 32-bit indices through
  ///     a slab of cache-packed 32-byte nodes (two per cache line); enqueue
  ///     is O(1): slab slot off the free list + list prepend.
  ///   * far_       — 4-ary heap for timers beyond the band.
  ///
  /// When the wheel drains, the band *rebases*: a small prefix of far_ is
  /// sampled to estimate event density, the bucket width is re-derived from
  /// the mean gap (power of two, so bucket mapping is a shift), and every
  /// far event inside the new band migrates into the wheel. The band
  /// therefore tracks the workload — microsecond sleeps and picosecond
  /// timer wheels both hit the O(1) path.
  ///
  /// Ordering contract: pops ascend strictly by (time, tie_key(seq)),
  /// bit-identical to a single global heap. Late arrivals that order before
  /// the armed ready batch's last entry (possible only while tie-shuffle
  /// permutes same-instant keys, or when an earlier-instant event fires
  /// into a gap) are merge-inserted into the batch's unread suffix, so the
  /// contract survives batching.
  class CalendarQueue {
   public:
    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    /// Next event in (time, tie_key) order; materializes the ready batch.
    const EvNode& top() {
      if (ready_head_ == ready_.size()) refill_ready();
      return ready_[ready_head_];
    }

    /// Number of events in the armed ready batch (already sorted, no refill
    /// needed to reach them). Lets the dispatch loop prefetch ahead.
    std::size_t ready_remaining() const { return ready_.size() - ready_head_; }
    /// k-th event of the armed batch; only valid for k < ready_remaining().
    const EvNode& ready_peek(std::size_t k) const { return ready_[ready_head_ + k]; }

    EvNode pop() {
      if (ready_head_ == ready_.size()) refill_ready();
      const EvNode out = ready_[ready_head_++];
      --live_;
      if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
      return out;
    }

    void push(const EvNode& n) {
      ++live_;
      // An armed ready batch is the sorted head of the whole queue: a node
      // ordering before its last entry must merge into the unread suffix or
      // it would dispatch late.
      if (ready_head_ != ready_.size() && less(n, ready_.back())) {
        const auto cmp = [this](const EvNode& a, const EvNode& b) { return less(a, b); };
        const auto it = std::lower_bound(
            ready_.begin() + static_cast<std::ptrdiff_t>(ready_head_), ready_.end(), n, cmp);
        ready_.insert(it, n);
        return;
      }
      // Sparse-horizon bypass armed: everything rides the heap (the wheel is
      // guaranteed empty while direct_ holds, so ordering is unaffected).
      if (direct_) {
        far_.push(n);
        return;
      }
      if (n.time >= band_start_) {
        const std::uint64_t idx = (n.time - band_start_) >> band_shift_;
        if (idx < kBuckets) {
          wheel_push(static_cast<std::size_t>(idx), n);
          return;
        }
        far_.push(n);
        return;
      }
      // Before the band origin (the clock lags a freshly rebased band):
      // bucket 0 keeps the time-monotone bucket mapping intact.
      wheel_push(0, n);
    }

    void clear() {
      buckets_.assign(kBuckets, kNil);
      slab_.clear();
      free_head_ = kNil;
      far_.clear();
      ready_.clear();
      ready_head_ = 0;
      live_ = 0;
      wheel_live_ = 0;
      cursor_ = 0;
      band_start_ = 0;
      band_shift_ = 0;
      direct_ = false;
      direct_left_ = 0;
    }

    /// Arms tie-shuffling. Only legal while the queue is empty: changing
    /// the key function under live nodes would corrupt every tier's order.
    void set_tie_seed(std::uint64_t seed) {
      require(live_ == 0, "tie seed change with queued events");
      tie_seed_ = seed;
      far_.set_tie_seed(seed);
    }

   private:
    static constexpr std::size_t kBuckets = 1024;
    static constexpr std::size_t kSample = 64;   ///< far_ prefix sampled at rebase
    static constexpr int kMaxShift = 36;         ///< band ≤ ~70 simulated seconds
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /// Refills served heap-direct before the density estimate is re-sampled.
    static constexpr std::uint32_t kDirectRecheck = 4096;

    /// Slab node: the 24-byte EvNode plus a 32-bit successor index, padded
    /// to 32 bytes so two nodes share a cache line and a bucket walk never
    /// splits a node across lines.
    struct alignas(32) SlabNode {
      EvNode ev;
      std::uint32_t next = kNil;
    };
    static_assert(sizeof(SlabNode) == 32);

    std::uint64_t tie_key(std::uint64_t seq) const {
      if (tie_seed_ == 0) return seq;
      std::uint64_t s = seq ^ tie_seed_;
      return splitmix64(s);
    }
    bool less(const EvNode& a, const EvNode& b) const {
      return a.time != b.time ? a.time < b.time : tie_key(a.seq) < tie_key(b.seq);
    }

    void wheel_push(std::size_t idx, const EvNode& n) {
      std::uint32_t s;
      if (free_head_ != kNil) {
        s = free_head_;
        free_head_ = slab_[s].next;
      } else {
        s = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
      }
      slab_[s].ev = n;
      slab_[s].next = buckets_[idx];
      buckets_[idx] = s;
      if (idx < cursor_) cursor_ = idx;
      ++wheel_live_;
    }

    void refill_ready();  ///< batch-expire the earliest instant's cohort
    void rebase();        ///< re-anchor the band at far_'s horizon

    std::uint64_t tie_seed_ = 0;
    std::size_t live_ = 0;        ///< total events across all tiers
    std::size_t wheel_live_ = 0;  ///< events currently in wheel buckets
    std::size_t cursor_ = 0;      ///< first possibly-nonempty bucket
    SimTime band_start_ = 0;
    int band_shift_ = 0;  ///< bucket width = 1 << band_shift_ ps
    bool direct_ = false;             ///< sparse horizon: serve cohorts straight off far_
    std::uint32_t direct_left_ = 0;   ///< refills until the density re-check
    std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets, kNil);
    std::vector<SlabNode> slab_;
    std::uint32_t free_head_ = kNil;
    EventHeap far_;
    std::vector<EvNode> ready_;  ///< sorted cohort; consumed via ready_head_
    std::size_t ready_head_ = 0;
  };

  /// FIFO for events at the current timestamp. Fully drains before the
  /// clock advances, so a vector with a read cursor (reset on empty) gives
  /// amortised O(1) push/pop with no wraparound bookkeeping.
  class NowFifo {
   public:
    bool empty() const { return head_ == v_.size(); }
    const EvNode& front() const { return v_[head_]; }

    void push(const EvNode& n) { v_.push_back(n); }

    EvNode pop() {
      const EvNode out = v_[head_++];
      if (head_ == v_.size()) {
        v_.clear();
        head_ = 0;
      }
      return out;
    }

    void clear() {
      v_.clear();
      head_ = 0;
    }

   private:
    std::vector<EvNode> v_;
    std::size_t head_ = 0;
  };

  void push_node(const EvNode& n) {
    // The FIFO stays (time, seq)-sorted only while every entry carries the
    // current timestamp; anything else takes the general-purpose calendar
    // queue. With tie-shuffling armed the FIFO's insertion order would
    // defeat the permuted tie-break, so everything routes through the queue.
    if (tie_shuffle_seed_ == 0 && n.time == now_ &&
        (now_fifo_.empty() || now_fifo_.front().time == now_)) {
      now_fifo_.push(n);
    } else {
      queue_.push(n);
    }
  }

  SimTime now_ = 0;
  Trace* trace_ = nullptr;
  analysis::ProtocolChecker* checker_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t tie_shuffle_seed_ = 0;
  metrics::MetricsRegistry metrics_;
  metrics::Counter events_executed_;
  CalendarQueue queue_;
  NowFifo now_fifo_;
  std::vector<std::function<void()>> settle_;  // end-of-instant hooks (FIFO)
  std::vector<std::function<void()>> callback_slots_;  // slow-arm storage
  std::vector<std::size_t> free_slots_;                // recycled slot indices
  std::vector<std::shared_ptr<ProcState>> procs_;
  std::exception_ptr pending_error_;

  friend struct SpawnAccess;
};

}  // namespace dpu::sim
