// Tests for the runtime-core refactor: the WaiterList small-buffer FIFO,
// the MetricsRegistry (owned and linked counters, gauges, JSON export),
// ProcHandle edge cases, deadlock diagnostics, and a determinism regression
// pinning the engine's (time, insertion-order) tie-breaking through a full
// group-offload scenario.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/units.h"
#include "harness/world.h"
#include "sim/sync.h"

namespace dpu {
namespace {

using harness::Rank;
using harness::World;

// ---- WaiterList --------------------------------------------------------------

/// Distinct non-null handle values for bookkeeping tests; never resumed.
std::coroutine_handle<> fake_handle(std::size_t i) {
  static int anchors[64];
  return std::coroutine_handle<>::from_address(&anchors[i]);
}

TEST(WaiterList, StartsEmpty) {
  sim::WaiterList wl;
  EXPECT_TRUE(wl.empty());
  EXPECT_EQ(wl.size(), 0u);
}

TEST(WaiterList, FifoWithinInlineCapacity) {
  sim::WaiterList wl;
  wl.push_back(fake_handle(0));
  wl.push_back(fake_handle(1));
  EXPECT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.pop_front(), fake_handle(0));
  EXPECT_EQ(wl.pop_front(), fake_handle(1));
  EXPECT_TRUE(wl.empty());
}

TEST(WaiterList, SpillsToHeapPreservingOrder) {
  sim::WaiterList wl;
  for (std::size_t i = 0; i < 40; ++i) wl.push_back(fake_handle(i));
  EXPECT_EQ(wl.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(wl.pop_front(), fake_handle(i));
  EXPECT_TRUE(wl.empty());
}

TEST(WaiterList, RingWrapsUnderInterleavedPushPop) {
  sim::WaiterList wl;
  std::size_t next_push = 0;
  std::size_t next_pop = 0;
  // Keep 3 in flight (just past the inline buffer) across many cycles so
  // head wraps the ring repeatedly.
  for (; next_push < 3; ++next_push) wl.push_back(fake_handle(next_push % 64));
  for (int cycle = 0; cycle < 200; ++cycle) {
    EXPECT_EQ(wl.pop_front(), fake_handle(next_pop++ % 64));
    wl.push_back(fake_handle(next_push++ % 64));
  }
  EXPECT_EQ(wl.size(), 3u);
  while (!wl.empty()) EXPECT_EQ(wl.pop_front(), fake_handle(next_pop++ % 64));
}

TEST(WaiterList, ClearForgetsWaiters) {
  sim::WaiterList wl;
  for (std::size_t i = 0; i < 5; ++i) wl.push_back(fake_handle(i));
  wl.clear();
  EXPECT_TRUE(wl.empty());
  wl.push_back(fake_handle(7));
  EXPECT_EQ(wl.pop_front(), fake_handle(7));
}

TEST(WaiterList, PopOnEmptyThrows) {
  sim::WaiterList wl;
  EXPECT_THROW(wl.pop_front(), std::logic_error);
}

// ---- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, OwnedCounterIsStableAndNamed) {
  metrics::MetricsRegistry reg;
  auto& c = reg.counter("a.count");
  c.inc();
  c += 4;
  ++c;
  EXPECT_EQ(reg.counter_value("a.count"), 6u);
  EXPECT_TRUE(reg.has_counter("a.count"));
  EXPECT_FALSE(reg.has_counter("b.count"));
  EXPECT_EQ(reg.counter_value("b.count"), 0u);
  // Same name -> same counter object.
  EXPECT_EQ(&reg.counter("a.count"), &c);
}

TEST(MetricsRegistry, LinkedCounterIsReadAtExport) {
  metrics::MetricsRegistry reg;
  metrics::Counter mine;
  reg.link("ext.count", &mine);
  mine.set(41);
  mine.inc();
  EXPECT_EQ(reg.counter_value("ext.count"), 42u);
  // Re-linking the same slot is a no-op; a different slot is an error.
  reg.link("ext.count", &mine);
  metrics::Counter other;
  EXPECT_THROW(reg.link("ext.count", &other), std::logic_error);
  EXPECT_THROW(reg.counter("ext.count"), std::logic_error);
}

TEST(MetricsRegistry, JsonExportIsSortedAndEscaped) {
  metrics::MetricsRegistry reg;
  reg.counter("b.two").set(2);
  metrics::Counter linked;
  linked.set(1);
  reg.link("a.one", &linked);
  reg.set_gauge("g\"x", 1.5);
  const std::string js = reg.to_json();
  const auto a = js.find("a.one");
  const auto b = js.find("b.two");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);  // merged across owned/linked in name order
  EXPECT_NE(js.find("\"g\\\"x\": 1.5"), std::string::npos);
  EXPECT_NE(js.find("\"a.one\": 1"), std::string::npos);
}

TEST(MetricsRegistry, CounterConvertsImplicitly) {
  metrics::Counter c;
  c.set(7);
  std::uint64_t sum = 0;
  sum += c;  // the adapter pattern the migrated getters rely on
  EXPECT_EQ(sum, 7u);
  EXPECT_EQ(c, 7u);
}

// ---- ProcHandle / deadlock diagnostics ---------------------------------------

TEST(ProcHandle, DefaultConstructedHandleIsSafe) {
  sim::ProcHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.done());
  EXPECT_EQ(h.name(), "");       // must not dereference a null state
  EXPECT_NO_THROW(h.rethrow());
}

TEST(DeadlockDiagnostics, MessageNamesLiveProcesses) {
  World w(machine::ClusterSpec{}, /*with_offload=*/false);
  w.launch(0, [](Rank& r) -> sim::Task<void> {
    sim::Event never(r.world->engine());
    co_await never.wait();
  });
  try {
    w.run();
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("live processes"), std::string::npos) << msg;
  }
}

// ---- Knob-gated exports ------------------------------------------------------

/// One 256 KiB offloaded pair; striping knobs as given by `s`.
std::unique_ptr<World> run_pair(const machine::ClusterSpec& s) {
  auto w = std::make_unique<World>(s);
  const std::size_t len = 256_KiB;
  w->launch(0, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    r.mem().write(buf, pattern_bytes(71, len));
    auto req = co_await r.off->send_offload(buf, len, 1, 0);
    EXPECT_EQ(co_await r.off->wait(req), offload::Status::kOk);
  });
  w->launch(1, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    auto req = co_await r.off->recv_offload(buf, len, 0, 0);
    EXPECT_EQ(co_await r.off->wait(req), offload::Status::kOk);
  });
  w->run();
  return w;
}

TEST(Metrics, StripeCountersExportOnlyWhenTheKnobIsOn) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 1;
  s.proxies_per_dpu = 2;

  // Knob off (paper default): none of the stripe names exist, so the JSON
  // stays byte-identical to the pre-feature registry.
  auto off_world = run_pair(s);
  World& off = *off_world;
  const std::string off_js = off.metrics_json();
  EXPECT_EQ(off_js.find("chunks_moved"), std::string::npos);
  EXPECT_EQ(off_js.find("bytes_striped"), std::string::npos);
  EXPECT_EQ(off_js.find("stripe."), std::string::npos);
  EXPECT_FALSE(off.metrics().has_counter("offload.host0.bytes_striped"));

  // Knob on: every stripe series is present and accounted.
  s.cost.stripe_threshold = 32_KiB;
  s.cost.chunk_bytes = 64_KiB;
  auto on_world = run_pair(s);
  World& on = *on_world;
  const std::string on_js = on.metrics_json();
  EXPECT_NE(on_js.find("\"offload.proxy2.chunks_moved\""), std::string::npos);
  EXPECT_NE(on_js.find("\"offload.host0.bytes_striped\""), std::string::npos);
  EXPECT_NE(on_js.find("\"stripe.aggregations\""), std::string::npos);
  EXPECT_NE(on_js.find("\"stripe.chunks_in_flight\""), std::string::npos);
  EXPECT_EQ(on.metrics().counter_value("offload.host0.bytes_striped"), 256_KiB);
  EXPECT_EQ(on.metrics().counter_value("offload.proxy2.chunks_moved") +
                on.metrics().counter_value("offload.proxy3.chunks_moved"),
            4u);
  EXPECT_EQ(on.metrics().counter_value("stripe.aggregations"), 1u);
}

TEST(Metrics, BoundedRegCachesEvictAndExportEvictionCounters) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 1;
  s.proxies_per_dpu = 1;

  // Unbounded (default): no eviction series at all.
  auto clean_world = run_pair(s);
  EXPECT_EQ(clean_world->metrics_json().find("evictions"), std::string::npos);

  // Capacity 1: alternating between two buffers thrashes every layer's
  // cache — host GVMI, proxy GVMI, and (via a rendezvous pt2pt) the mpi
  // registration cache — and each layer exports its eviction count.
  s.cost.reg_cache_capacity = 1;
  World w(s);
  const std::size_t len = 64_KiB;  // > eager_threshold: rendezvous registers
  w.launch(0, [&](Rank& r) -> sim::Task<void> {
    const auto a = r.mem().alloc(len);
    const auto b = r.mem().alloc(len);
    for (int i = 0; i < 3; ++i) {
      auto req = co_await r.off->send_offload(i % 2 ? b : a, len, 1, i);
      EXPECT_EQ(co_await r.off->wait(req), offload::Status::kOk);
    }
    const auto c = r.mem().alloc(len);
    const auto d = r.mem().alloc(len);
    for (int i = 0; i < 3; ++i) {
      auto h = co_await r.mpi->isend(i % 2 ? d : c, len, 1, 9);
      co_await r.mpi->wait(h);
    }
  });
  w.launch(1, [&](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    for (int i = 0; i < 3; ++i) {
      auto req = co_await r.off->recv_offload(buf, len, 0, i);
      EXPECT_EQ(co_await r.off->wait(req), offload::Status::kOk);
    }
    const auto e = r.mem().alloc(len);
    const auto f = r.mem().alloc(len);
    for (int i = 0; i < 3; ++i) {
      auto h = co_await r.mpi->irecv(i % 2 ? f : e, len, 0, 9);
      co_await r.mpi->wait(h);
    }
  });
  w.run();
  EXPECT_GE(w.metrics().counter_value("offload.host0.gvmi_cache.evictions"), 2u);
  EXPECT_GE(w.metrics().counter_value("offload.proxy2.gvmi_cache.evictions"), 2u);
  EXPECT_GE(w.metrics().counter_value("mpi.rank1.reg_cache.evictions"), 2u);
}

TEST(Metrics, EveryGatedLinkFamilyLinksOneSlotPerName) {
  // MetricsRegistry::link throws when a name is linked to a second slot, and
  // every link site runs while World is constructed. One world with every
  // knob-gated family armed therefore proves no two sites share a name.
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 2;
  s.proxies_per_dpu = 2;
  for (int t = 0; t < 2; ++t) {
    machine::TenantSpec ts;
    ts.ranks = {t, t + 2};
    s.tenants.push_back(ts);
  }
  s.cost.stripe_threshold = 32_KiB;
  s.fault.enabled = true;
  s.fault.liveness = true;
  s.cost.reg_cache_capacity = 1;
  World w(s);
  const std::string js = w.metrics_json();
  for (const char* name : {
           "engine.events_executed",               // always
           "fabric.node1.messages_tx",             // always
           "mpi.rank3.reg_cache.evictions",        // reg_cache_capacity
           "offload.host3.gvmi_cache.evictions",   // reg_cache_capacity
           "offload.proxy7.gvmi_cache.evictions",  // reg_cache_capacity
           "offload.tenant1.entries_advanced",     // tenants
           "offload.host0.bytes_striped",          // stripe_threshold
           "offload.proxy5.chunks_moved",          // stripe_threshold
           "fault.drops",                          // fault.enabled
           "offload.host1.hb_sent",                // fault.liveness
           "offload.proxy6.fenced_jobs",           // fault.liveness
       }) {
    EXPECT_NE(js.find('"' + std::string(name) + '"'), std::string::npos) << name;
  }
}

// ---- Determinism regression --------------------------------------------------

struct RunFingerprint {
  SimTime final_time = 0;
  std::uint64_t events = 0;
  std::uint64_t wire_msgs = 0;
};

/// A representative group-offload scenario: a scatter-destination exchange
/// run twice per rank (cold + cached) over 2 nodes x 2 ranks.
RunFingerprint group_offload_fingerprint() {
  machine::ClusterSpec spec;
  spec.nodes = 2;
  spec.host_procs_per_node = 2;
  spec.proxies_per_dpu = 1;
  World w(spec);
  w.launch_all([](Rank& r) -> sim::Task<void> {
    const int n = r.world->spec().total_host_ranks();
    const int me = r.rank;
    const std::size_t bpr = 4_KiB;
    const auto nn = static_cast<std::size_t>(n);
    const auto sbuf = r.mem().alloc(bpr * nn, false);
    const auto rbuf = r.mem().alloc(bpr * nn, false);
    auto req = r.off->group_start();
    for (int i = 1; i < n; ++i) {
      const int dst = (me + i) % n;
      const int src = (me - i + n) % n;
      r.off->group_send(req, sbuf + static_cast<machine::Addr>(dst) * bpr, bpr, dst, 0);
      r.off->group_recv(req, rbuf + static_cast<machine::Addr>(src) * bpr, bpr, src, 0);
    }
    r.off->group_end(req);
    for (int it = 0; it < 2; ++it) {
      co_await r.off->group_call(req);
      EXPECT_EQ(co_await r.off->group_wait(req), offload::Status::kOk);
    }
  });
  w.run();
  RunFingerprint fp;
  fp.final_time = w.now();
  fp.events = w.engine().events_executed();
  for (int node = 0; node < spec.nodes; ++node) {
    fp.wire_msgs += w.fab().stats(node).messages_tx;
  }
  return fp;
}

TEST(Determinism, GroupOffloadScenarioIsBitIdenticalAcrossRuns) {
  const RunFingerprint a = group_offload_fingerprint();
  const RunFingerprint b = group_offload_fingerprint();
  EXPECT_GT(a.events, 0u);
  EXPECT_GT(a.final_time, 0u);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.wire_msgs, b.wire_msgs);
}

}  // namespace
}  // namespace dpu
