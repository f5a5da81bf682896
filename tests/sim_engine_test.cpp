// Unit tests for the discrete-event engine and coroutine task machinery.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/units.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace dpu::sim {
namespace {

// Event nodes live by value in the engine's heap and calendar slab. Their
// types are private, so no code outside the engine can allocate or free
// one: the compiler, not a lint rule, keeps nodes off the heap.
template <class E>
concept NamesEvNode = requires { typename E::EvNode; };
template <class E>
concept NamesCalendarQueue = requires { typename E::CalendarQueue; };
static_assert(!NamesEvNode<Engine>);
static_assert(!NamesCalendarQueue<Engine>);

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0u);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30_ns, [&] { order.push_back(3); });
  eng.schedule_at(10_ns, [&] { order.push_back(1); });
  eng.schedule_at(20_ns, [&] { order.push_back(2); });
  EXPECT_EQ(eng.run(), RunResult::kCompleted);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30_ns);
}

TEST(Engine, BreaksTimeTiesByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(5_ns, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, RejectsSchedulingIntoThePast) {
  Engine eng;
  eng.schedule_at(10_ns, [&] {
    EXPECT_THROW(eng.schedule_at(5_ns, [] {}), std::logic_error);
  });
  eng.run();
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine eng;
  bool late = false;
  eng.schedule_at(100_ns, [&] { late = true; });
  EXPECT_EQ(eng.run(50_ns), RunResult::kTimeLimit);
  EXPECT_FALSE(late);
  EXPECT_EQ(eng.now(), 50_ns);
  EXPECT_EQ(eng.run(), RunResult::kCompleted);
  EXPECT_TRUE(late);
}

TEST(Engine, CountsExecutedEvents) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_in(1_ns, [] {});
  eng.run();
  EXPECT_EQ(eng.events_executed(), 7u);
}

TEST(Engine, SpawnedProcessRuns) {
  Engine eng;
  bool ran = false;
  auto body = [&]() -> Task<void> {
    ran = true;
    co_return;
  };
  auto h = eng.spawn(body(), "p0");
  EXPECT_FALSE(ran);  // lazily started
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(h.done());
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine eng;
  SimTime woke = 0;
  auto body = [&]() -> Task<void> {
    co_await eng.sleep(42_us);
    woke = eng.now();
  };
  eng.spawn(body());
  eng.run();
  EXPECT_EQ(woke, 42_us);
}

TEST(Engine, SleepZeroDoesNotSuspend) {
  Engine eng;
  int steps = 0;
  auto body = [&]() -> Task<void> {
    co_await eng.sleep(0);
    ++steps;
  };
  eng.spawn(body());
  eng.run();
  EXPECT_EQ(steps, 1);
}

TEST(Engine, NestedTasksReturnValues) {
  Engine eng;
  auto inner = [&](int x) -> Task<int> {
    co_await eng.sleep(1_ns);
    co_return x * 2;
  };
  int got = 0;
  auto outer = [&]() -> Task<void> {
    got = co_await inner(21);
  };
  eng.spawn(outer());
  eng.run();
  EXPECT_EQ(got, 42);
}

TEST(Engine, DeeplyNestedTasksChainCorrectly) {
  Engine eng;
  // Recursion depth 100 through task continuations.
  struct Rec {
    Engine& eng;
    Task<int> depth(int n) {
      if (n == 0) co_return 0;
      co_await eng.sleep(1_ns);
      co_return 1 + co_await depth(n - 1);
    }
  };
  Rec rec{eng};
  int got = -1;
  auto outer = [&]() -> Task<void> { got = co_await rec.depth(100); };
  eng.spawn(outer());
  eng.run();
  EXPECT_EQ(got, 100);
  EXPECT_EQ(eng.now(), 100_ns);
}

TEST(Engine, ExceptionPropagatesThroughAwait) {
  Engine eng;
  auto inner = [&]() -> Task<void> {
    co_await eng.sleep(1_ns);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  auto outer = [&]() -> Task<void> {
    try {
      co_await inner();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  eng.spawn(outer());
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, InstantEndHooksRunAfterAllSameTimeEvents) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(0, [&] { order.push_back(1); });
  eng.at_instant_end([&] { order.push_back(100); });
  eng.at_instant_end([&] { order.push_back(101); });  // FIFO among hooks
  eng.schedule_at(0, [&] { order.push_back(2); });
  eng.schedule_at(10_ns, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 100, 101, 3}));
}

TEST(Engine, InstantEndHookEventsDispatchBeforeClockAdvances) {
  Engine eng;
  std::vector<std::pair<int, SimTime>> log;
  eng.schedule_at(10_ns, [&] { log.emplace_back(3, eng.now()); });
  eng.at_instant_end([&] {
    // A hook may queue work at the current instant; it must run before the
    // clock moves on (the fabric arbiter books zero-latency grants so).
    eng.schedule_at(eng.now(), [&] { log.emplace_back(2, eng.now()); });
  });
  eng.schedule_at(0, [&] { log.emplace_back(1, eng.now()); });
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, SimTime>{1, 0}));
  EXPECT_EQ(log[1], (std::pair<int, SimTime>{2, 0}));
  EXPECT_EQ(log[2], (std::pair<int, SimTime>{3, 10_ns}));
}

TEST(Engine, InstantEndHookMayRegisterFurtherHooks) {
  Engine eng;
  std::vector<int> order;
  eng.at_instant_end([&] {
    order.push_back(1);
    eng.at_instant_end([&] { order.push_back(2); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, UncaughtProcessExceptionFailsRun) {
  Engine eng;
  auto body = [&]() -> Task<void> {
    co_await eng.sleep(1_ns);
    throw std::runtime_error("process died");
    co_return;  // unreachable; keeps this a coroutine on all paths
  };
  eng.spawn(body());
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, TwoProcessesInterleaveDeterministically) {
  Engine eng;
  std::vector<std::pair<int, SimTime>> log;
  auto mk = [&](int id, SimDuration step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await eng.sleep(step);
      log.emplace_back(id, eng.now());
    }
  };
  eng.spawn(mk(1, 10_ns), "a");
  eng.spawn(mk(2, 15_ns), "b");
  eng.run();
  // Both wake at 30 ns; process 2 scheduled its resumption first (at t=15)
  // so the stable tie-break runs it first.
  const std::vector<std::pair<int, SimTime>> want = {
      {1, 10_ns}, {2, 15_ns}, {1, 20_ns}, {2, 30_ns}, {1, 30_ns}, {2, 45_ns}};
  EXPECT_EQ(log, want);
}

TEST(Engine, DeadlockDetectedWhenProcessBlocksForever) {
  Engine eng;
  Event never(eng);
  auto body = [&]() -> Task<void> { co_await never.wait(); };
  eng.spawn(body(), "stuck");
  EXPECT_EQ(eng.run(), RunResult::kDeadlock);
  auto live = eng.live_process_names();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], "stuck");
}

TEST(Engine, TeardownWithBlockedProcessDoesNotLeakOrCrash) {
  // Destroying the engine while a process is suspended mid-await must
  // destroy all frames (ASAN-clean when enabled).
  auto run = [] {
    Engine eng;
    auto never = std::make_shared<Event>(eng);
    auto body = [&eng, never]() -> Task<void> {
      co_await eng.sleep(1_ns);
      co_await never->wait();
    };
    eng.spawn(body(), "stuck");
    eng.run();
  };
  EXPECT_NO_THROW(run());
}

TEST(Engine, ManyProcessesScale) {
  Engine eng;
  int done = 0;
  // NB: the lambda must outlive the coroutines (frames reference the
  // closure); parameters, by contrast, are copied into the frame.
  auto body = [&eng, &done](int i) -> Task<void> {
    co_await eng.sleep(static_cast<SimDuration>(i) * 1_ns);
    ++done;
  };
  for (int i = 0; i < 2000; ++i) eng.spawn(body(i));
  EXPECT_EQ(eng.run(), RunResult::kCompleted);
  EXPECT_EQ(done, 2000);
}

TEST(Engine, ProcHandleReportsCompletion) {
  Engine eng;
  auto body = [&]() -> Task<void> { co_await eng.sleep(5_ns); };
  auto h = eng.spawn(body(), "worker");
  EXPECT_FALSE(h.done());
  eng.run();
  EXPECT_TRUE(h.done());
  EXPECT_NO_THROW(h.rethrow());
  EXPECT_EQ(h.name(), "worker");
}

TEST(Task, MoveTransfersOwnership) {
  Engine eng;
  auto body = [&]() -> Task<void> { co_return; };
  Task<void> a = body();
  Task<void> b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  auto outer = [&, t = std::move(b)]() mutable -> Task<void> { co_await std::move(t); };
  eng.spawn(outer());
  EXPECT_EQ(eng.run(), RunResult::kCompleted);
}

TEST(Task, DroppedUnstartedTaskIsSafe) {
  Engine eng;
  auto body = [&]() -> Task<int> { co_return 1; };
  { Task<int> t = body(); }  // destroyed without being awaited
  SUCCEED();
}

}  // namespace
}  // namespace dpu::sim
