// google-benchmark microbenches of raw engine event throughput — the number
// the allocation-light event core exists to move. (Wall-clock costs of the
// simulator itself, not simulated time.)
//
// Every workload runs twice: against sim::Engine and against LegacyEngine,
// an in-file replica of the engine this refactor replaced (one
// std::priority_queue of {time, seq, std::function} nodes; resume_at wraps
// the coroutine handle in a lambda). Items/sec IS events/sec, so the
// new-vs-legacy ratio of any workload pair reads directly off the report.
//
// Workload shapes:
//   WakeBurst   — same-timestamp fan-out, the simulator's dominant event
//                 shape (every Event/Notifier/Channel wake lands at now()).
//                 Exercises the same-time FIFO lane.
//   PendingHeap — a deep queue of distinct-time callbacks; exercises the
//                 4-ary heap + callback slot pool against std::function
//                 nodes sifting through a binary heap.
//   HoldModel   — classic DES steady state: a fixed population of
//                 self-rescheduling timers at pseudo-random offsets.
//   SleepChain  — coroutine sleepers; includes intrinsic resume cost, so
//                 the engine-side win is diluted (reported for honesty).
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"

namespace {

using namespace dpu;

/// Replica of the pre-refactor event core (callback-only subset: spawn and
/// error plumbing are irrelevant to event throughput).
class LegacyEngine {
 public:
  SimTime now() const { return now_; }

  void schedule_at(SimTime t, std::function<void()> fn) {
    queue_.push(Ev{t, next_seq_++, std::move(fn)});
  }
  void schedule_in(SimDuration d, std::function<void()> fn) {
    schedule_at(now_ + d, std::move(fn));
  }
  void resume_at(SimTime t, std::coroutine_handle<> h) {
    schedule_at(t, [h] { h.resume(); });
  }
  void resume_in(SimDuration d, std::coroutine_handle<> h) { resume_at(now_ + d, h); }

  std::uint64_t run() {
    std::uint64_t executed = 0;
    while (!queue_.empty()) {
      Ev ev = std::move(const_cast<Ev&>(queue_.top()));
      queue_.pop();
      now_ = ev.time;
      ++executed;
      ev.fn();
    }
    return executed;
  }

 private:
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Ev& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue_;
};

std::uint64_t run_engine(sim::Engine& eng) {
  const std::uint64_t before = eng.events_executed();
  (void)eng.run();
  return eng.events_executed() - before;
}
std::uint64_t run_engine(LegacyEngine& eng) { return eng.run(); }

// ---- WakeBurst ---------------------------------------------------------------

template <typename E>
void BM_WakeBurst(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  const std::uint64_t steps = 4000;
  std::int64_t events = 0;
  for (auto _ : state) {
    E eng;
    std::uint64_t fired = 0;
    // leaf/driver must outlive run_engine: scheduled copies capture them by
    // reference.
    std::function<void()> leaf = [&fired] { ++fired; };
    std::function<void()> driver = [&] {
      ++fired;
      for (int i = 0; i < burst; ++i) eng.schedule_in(0, leaf);
      if (fired < steps * static_cast<std::uint64_t>(burst + 1)) eng.schedule_in(1, driver);
    };
    eng.schedule_at(0, driver);
    events += static_cast<std::int64_t>(run_engine(eng));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(events);
}

// ---- PendingHeap -------------------------------------------------------------

template <typename E>
void BM_PendingHeap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    // Fill outside the timed region: the measured quantity is drain
    // throughput of an n-deep queue (pop + dispatch), not push cost.
    state.PauseTiming();
    auto eng = std::make_unique<E>();
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < n; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      eng->schedule_at(1 + (lcg >> 33), [&sink] { ++sink; });
    }
    state.ResumeTiming();
    events += static_cast<std::int64_t>(run_engine(*eng));
    state.PauseTiming();
    eng.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(events);
}

// ---- HoldModel ---------------------------------------------------------------

template <typename E>
void BM_HoldModel(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  const std::uint64_t total = 500000;
  std::int64_t events = 0;
  for (auto _ : state) {
    E eng;
    std::uint64_t fired = 0;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    std::function<void()> tick = [&] {
      ++fired;
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      if (fired + static_cast<std::uint64_t>(population) <= total) {
        eng.schedule_in(1 + (lcg >> 33) % 1000, tick);
      }
    };
    for (int i = 0; i < population; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      eng.schedule_at(1 + (lcg >> 33) % 1000, tick);
    }
    events += static_cast<std::int64_t>(run_engine(eng));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(events);
}

// ---- SleepChain --------------------------------------------------------------

/// Fire-and-forget coroutine; the frame frees itself at completion.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

template <typename E>
Detached sleeper(E& eng, int sleeps) {
  struct Awaiter {
    E& eng;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { eng.resume_in(1, h); }
    void await_resume() const noexcept {}
  };
  for (int i = 0; i < sleeps; ++i) co_await Awaiter{eng};
}

template <typename E>
void BM_SleepChain(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int sleeps = 64;
  std::int64_t events = 0;
  for (auto _ : state) {
    E eng;
    for (int p = 0; p < procs; ++p) {
      sleeper(eng, sleeps);
    }
    events += static_cast<std::int64_t>(run_engine(eng));
  }
  state.SetItemsProcessed(events);
}

BENCHMARK_TEMPLATE(BM_WakeBurst, sim::Engine)->Arg(64)->Name("BM_WakeBurst/new");
BENCHMARK_TEMPLATE(BM_WakeBurst, LegacyEngine)->Arg(64)->Name("BM_WakeBurst/legacy");
BENCHMARK_TEMPLATE(BM_PendingHeap, sim::Engine)->Arg(500000)->Name("BM_PendingHeap/new");
BENCHMARK_TEMPLATE(BM_PendingHeap, LegacyEngine)->Arg(500000)->Name("BM_PendingHeap/legacy");
BENCHMARK_TEMPLATE(BM_HoldModel, sim::Engine)->Arg(4096)->Name("BM_HoldModel/new");
BENCHMARK_TEMPLATE(BM_HoldModel, LegacyEngine)->Arg(4096)->Name("BM_HoldModel/legacy");
BENCHMARK_TEMPLATE(BM_SleepChain, sim::Engine)->Arg(4096)->Name("BM_SleepChain/new");
BENCHMARK_TEMPLATE(BM_SleepChain, LegacyEngine)->Arg(4096)->Name("BM_SleepChain/legacy");

}  // namespace

BENCHMARK_MAIN();
