// Fault-injection regression suite.
//
// The offload control plane (RTS/RTR, group packets, arrival immediates,
// credits, barrier counters, FIN flag writes) must complete correctly when
// the fabric drops, duplicates, or delays its messages — and must stay
// bit-identical to the clean design when the fault plan is disabled. This
// file also pins down the three correctness fixes that the fault layer
// exists to protect: req_id-based arrival matching, single-flight
// registration caches, and run-count carry-forward on template re-record.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/units.h"
#include "harness/world.h"
#include "offload/protocol.h"
#include "sim/sync.h"

namespace dpu::offload {
namespace {

using harness::Rank;
using harness::World;

machine::ClusterSpec small_spec(int nodes = 2, int ppn = 2, int proxies = 1) {
  machine::ClusterSpec s;
  s.nodes = nodes;
  s.host_procs_per_node = ppn;
  s.proxies_per_dpu = proxies;
  return s;
}

/// ~10% drop, ~8% duplication, ~10% delay on the proxy-control and
/// group-metadata channels (plus FIN flag writes, on by default).
machine::ClusterSpec faulty_spec(std::uint64_t seed, int nodes = 2, int ppn = 2,
                                 int proxies = 1) {
  machine::ClusterSpec s = small_spec(nodes, ppn, proxies);
  s.fault.enabled = true;
  s.fault.seed = seed;
  s.fault.drop_prob = 0.10;
  s.fault.dup_prob = 0.08;
  s.fault.delay_prob = 0.10;
  s.fault.channels = {kProxyChannel, kGroupMetaChannel};
  return s;
}

std::uint64_t sum_proxies(World& w, std::uint64_t (Proxy::*stat)() const) {
  std::uint64_t total = 0;
  for (int n = 0; n < w.spec().nodes; ++n) {
    for (int l = 0; l < w.spec().proxies_per_dpu; ++l) {
      total += (w.offload().proxy(w.spec().proxy_id(n, l)).*stat)();
    }
  }
  return total;
}

std::uint64_t sum_hosts(World& w, const std::string& leaf) {
  std::uint64_t total = 0;
  for (int r = 0; r < w.spec().total_host_ranks(); ++r) {
    total += w.metrics().counter_value("offload.host" + std::to_string(r) + "." + leaf);
  }
  return total;
}

std::uint64_t total_retries(World& w) {
  return sum_proxies(w, &Proxy::retries) + sum_hosts(w, "retries");
}

std::uint64_t total_dup_dropped(World& w) {
  return sum_proxies(w, &Proxy::dup_dropped) + sum_hosts(w, "dup_dropped");
}

/// Listing-5 ring broadcast from rank 0 (same shape as the group tests).
sim::Task<void> ring_bcast_group(Rank& r, machine::Addr buf, std::size_t len, int n) {
  const int me = r.rank;
  const int left = (me - 1 + n) % n;
  const int right = (me + 1) % n;
  auto req = r.off->group_start();
  if (me == 0) {
    r.off->group_send(req, buf, len, right, 4);
  } else {
    r.off->group_recv(req, buf, len, left, 4);
    if (me != n - 1) {
      r.off->group_barrier(req);
      r.off->group_send(req, buf, len, right, 4);
    }
  }
  r.off->group_end(req);
  co_await r.off->group_call(req);
  EXPECT_EQ(co_await r.off->group_wait(req), Status::kOk);
}

// ---------------------------------------------------------------------------
// DupFilter unit behaviour
// ---------------------------------------------------------------------------

TEST(DupFilter, SuppressesReplaysPerSender) {
  DupFilter f;
  EXPECT_TRUE(f.accept(3, 1));
  EXPECT_FALSE(f.accept(3, 1));  // replay
  EXPECT_TRUE(f.accept(3, 3));   // out-of-order ahead of the window base
  EXPECT_TRUE(f.accept(3, 2));   // fills the gap, compacting the window
  EXPECT_FALSE(f.accept(3, 2));
  EXPECT_FALSE(f.accept(3, 3));  // replay below the compacted base
  EXPECT_TRUE(f.accept(3, 4));
  EXPECT_TRUE(f.accept(5, 1));   // senders are independent
  EXPECT_FALSE(f.accept(5, 1));
}

// ---------------------------------------------------------------------------
// Tentpole: control plane survives drop / duplication / delay
// ---------------------------------------------------------------------------

TEST(FaultInjection, Pt2PtOffloadSurvivesDropDupDelay) {
  std::uint64_t grand_retries = 0;
  std::uint64_t grand_dups = 0;
  const int iters = 6;
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    World w(faulty_spec(seed));
    int checked = 0;
    w.launch(0, [&](Rank& r) -> sim::Task<void> {
      for (int i = 0; i < iters; ++i) {
        const auto buf = r.mem().alloc(8_KiB);
        r.mem().write(buf, pattern_bytes(seed * 100 + static_cast<std::uint64_t>(i), 8_KiB));
        auto req = co_await r.off->send_offload(buf, 8_KiB, 2, i);
        EXPECT_EQ(co_await r.off->wait(req), Status::kOk);
      }
    });
    w.launch(2, [&](Rank& r) -> sim::Task<void> {
      for (int i = 0; i < iters; ++i) {
        const auto buf = r.mem().alloc(8_KiB);
        auto req = co_await r.off->recv_offload(buf, 8_KiB, 0, i);
        EXPECT_EQ(co_await r.off->wait(req), Status::kOk);
        EXPECT_TRUE(check_pattern(r.mem().read(buf, 8_KiB),
                                  seed * 100 + static_cast<std::uint64_t>(i)))
            << "seed " << seed << " iter " << i;
        ++checked;
      }
    });
    w.run();
    EXPECT_EQ(checked, iters) << "seed " << seed;
    EXPECT_GT(w.metrics().counter_value("fault.injected"), 0u) << "seed " << seed;
    grand_retries += total_retries(w);
    grand_dups += total_dup_dropped(w);
  }
  // Across the seeds the schedule must have exercised both recovery paths:
  // timeout retransmits (drops) and replay suppression (dups + ack races).
  EXPECT_GT(grand_retries, 0u);
  EXPECT_GT(grand_dups, 0u);
}

TEST(FaultInjection, OrderedGroupRingSurvivesFaults) {
  const int n = 4;
  for (std::uint64_t seed : {3ull, 11ull}) {
    World w(faulty_spec(seed, n, 1));
    int checked = 0;
    w.launch_all([&](Rank& r) -> sim::Task<void> {
      const std::size_t len = 32_KiB;
      const auto buf = r.mem().alloc(len);
      if (r.rank == 0) r.mem().write(buf, pattern_bytes(55, len));
      co_await ring_bcast_group(r, buf, len, n);
      EXPECT_TRUE(check_pattern(r.mem().read(buf, len), 55))
          << "rank " << r.rank << " seed " << seed;
      ++checked;
    });
    w.run();
    EXPECT_EQ(checked, n) << "seed " << seed;
    EXPECT_GT(w.metrics().counter_value("fault.injected"), 0u) << "seed " << seed;
  }
}

TEST(FaultInjection, CachedReCallsAndCreditsSurviveFaults) {
  // Re-calls of a recorded group exercise GroupCachedCallMsg and the
  // credit-batch flow; a lost credit must be retransmitted or run i+1 would
  // gate forever.
  const int iters = 5;
  for (std::uint64_t seed : {5ull, 19ull}) {
    World w(faulty_spec(seed, 2, 1));
    w.launch_all([&](Rank& r) -> sim::Task<void> {
      const std::size_t len = 16_KiB;
      const int peer = 1 - r.rank;
      const auto sbuf = r.mem().alloc(len);
      const auto rbuf = r.mem().alloc(len);
      auto req = r.off->group_start();
      r.off->group_send(req, sbuf, len, peer, 0);
      r.off->group_recv(req, rbuf, len, peer, 0);
      r.off->group_end(req);
      for (int i = 0; i < iters; ++i) {
        r.mem().write(sbuf,
                      pattern_bytes(static_cast<std::uint64_t>(100 + 10 * r.rank + i), len));
        co_await r.off->group_call(req);
        EXPECT_EQ(co_await r.off->group_wait(req), Status::kOk);
        EXPECT_TRUE(check_pattern(r.mem().read(rbuf, len),
                                  static_cast<std::uint64_t>(100 + 10 * peer + i)))
            << "rank " << r.rank << " iter " << i << " seed " << seed;
      }
    });
    w.run();
    EXPECT_GT(w.metrics().counter_value("fault.injected"), 0u) << "seed " << seed;
  }
}

TEST(FaultInjection, SameSeedReproducesTheSameRun) {
  auto run_once = [](std::uint64_t seed) {
    World w(faulty_spec(seed, 4, 1));
    w.launch_all([&](Rank& r) -> sim::Task<void> {
      const std::size_t len = 32_KiB;
      const auto buf = r.mem().alloc(len);
      if (r.rank == 0) r.mem().write(buf, pattern_bytes(8, len));
      co_await ring_bcast_group(r, buf, len, 4);
    });
    w.run();
    return std::tuple{w.now(), w.metrics().counter_value("fault.injected"),
                      w.metrics().counter_value("fault.drops"), total_retries(w)};
  };
  EXPECT_EQ(run_once(9), run_once(9));
  EXPECT_EQ(run_once(13), run_once(13));
}

TEST(FaultInjection, DisabledPlanInjectsNothingAndStaysDeterministic) {
  auto run_once = [] {
    World w(small_spec(4, 1));
    w.launch_all([&](Rank& r) -> sim::Task<void> {
      const std::size_t len = 32_KiB;
      const auto buf = r.mem().alloc(len);
      if (r.rank == 0) r.mem().write(buf, pattern_bytes(8, len));
      co_await ring_bcast_group(r, buf, len, 4);
    });
    w.run();
    EXPECT_FALSE(w.metrics().has_counter("fault.injected"));
    EXPECT_EQ(total_retries(w), 0u);
    EXPECT_EQ(total_dup_dropped(w), 0u);
    return w.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Regression: arrival matching keys on the destination request id
// ---------------------------------------------------------------------------

TEST(ProxyMatching, ConcurrentGroupsSharingTagMatchByRequestId) {
  // Two in-flight group requests between the same (src, dst) pair share a
  // tag. The first request's payload is held back ~5 ms behind an upstream
  // dependency, so the *second* request's data overtakes it on the wire.
  // FIFO (src, tag) matching would complete request A with request B's
  // arrival and rank 1 would observe zeroes in A's buffer; req_id matching
  // routes each arrival to its own job.
  const std::size_t len = 16_KiB;
  World w(small_spec(3, 1));
  w.launch(0, [&](Rank& r) -> sim::Task<void> {
    const auto dep = r.mem().alloc(len);   // produced by rank 2, ~5 ms late
    const auto buf_a = r.mem().alloc(len);
    const auto buf_b = r.mem().alloc(len);
    r.mem().write(buf_a, pattern_bytes(127, len));
    r.mem().write(buf_b, pattern_bytes(31, len));
    auto req_a = r.off->group_start();
    r.off->group_recv(req_a, dep, len, 2, 9);
    r.off->group_barrier(req_a);           // holds A's send behind the recv
    r.off->group_send(req_a, buf_a, len, 1, 7);
    r.off->group_end(req_a);
    auto req_b = r.off->group_start();
    r.off->group_send(req_b, buf_b, len, 1, 7);  // same (dst, tag) as A
    r.off->group_end(req_b);
    co_await r.off->group_call(req_a);
    co_await r.off->group_call(req_b);
    EXPECT_EQ(co_await r.off->group_wait(req_a), Status::kOk);
    EXPECT_EQ(co_await r.off->group_wait(req_b), Status::kOk);
    EXPECT_TRUE(check_pattern(r.mem().read(dep, len), 200));
  });
  w.launch(1, [&](Rank& r) -> sim::Task<void> {
    const auto in_a = r.mem().alloc(len);
    const auto in_b = r.mem().alloc(len);
    auto req_a = r.off->group_start();
    r.off->group_recv(req_a, in_a, len, 0, 7);
    r.off->group_end(req_a);
    auto req_b = r.off->group_start();
    r.off->group_recv(req_b, in_b, len, 0, 7);
    r.off->group_end(req_b);
    co_await r.off->group_call(req_a);
    co_await r.off->group_call(req_b);
    // A must not complete off B's early arrival: when its wait returns, its
    // own (delayed) payload has to be in place.
    EXPECT_EQ(co_await r.off->group_wait(req_a), Status::kOk);
    EXPECT_TRUE(check_pattern(r.mem().read(in_a, len), 127));
    EXPECT_EQ(co_await r.off->group_wait(req_b), Status::kOk);
    EXPECT_TRUE(check_pattern(r.mem().read(in_b, len), 31));
  });
  w.launch(2, [&](Rank& r) -> sim::Task<void> {
    co_await r.compute(5_ms);  // make request A's dependency late
    const auto out = r.mem().alloc(len);
    r.mem().write(out, pattern_bytes(200, len));
    auto req = r.off->group_start();
    r.off->group_send(req, out, len, 0, 9);
    r.off->group_end(req);
    co_await r.off->group_call(req);
    EXPECT_EQ(co_await r.off->group_wait(req), Status::kOk);
  });
  w.run();
}

// ---------------------------------------------------------------------------
// Regression: registration caches are single-flight
// ---------------------------------------------------------------------------

// One body for every verbs::RegCache instance: two concurrent gets of one
// key issue one registration (the second waits for it), and a later get of
// the key is a plain hit on the same registration.

std::uint64_t registered_key(const verbs::MrInfo& mr) { return mr.rkey; }
std::uint64_t registered_key(const verbs::GvmiMrInfo& info) { return info.mkey; }
std::uint64_t registered_key(verbs::MKey mkey2) { return mkey2; }

template <class Value, class... Key>
sim::Task<void> get_into(verbs::RegCache<Value>& cache, verbs::ProcCtx& ctx, Value* out,
                         std::shared_ptr<sim::Event> done, Key... key) {
  *out = co_await cache.get(ctx, key...);
  done->set();
}

template <class Value, class... Key>
sim::Task<void> expect_single_flight(sim::Engine& eng, verbs::RegCache<Value>& cache,
                                     verbs::ProcCtx& ctx, Key... key) {
  auto d1 = std::make_shared<sim::Event>(eng);
  auto d2 = std::make_shared<sim::Event>(eng);
  Value v1{};
  Value v2{};
  eng.spawn(get_into(cache, ctx, &v1, d1, key...), "get1");
  eng.spawn(get_into(cache, ctx, &v2, d2, key...), "get2");
  co_await d1->wait();
  co_await d2->wait();
  EXPECT_EQ(cache.stats().misses, 1u);     // one registration on the wire
  EXPECT_EQ(cache.stats().coalesced, 1u);  // the second get waited for it
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(registered_key(v1), registered_key(v2));
  const Value v3 = co_await cache.get(ctx, key...);  // now a plain hit
  EXPECT_EQ(registered_key(v3), registered_key(v1));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheSingleFlight, ConcurrentRegCacheMissesCoalesce) {
  World w(small_spec(2, 1));
  w.launch(0, [&](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(64_KiB);
    co_await expect_single_flight(r.world->engine(), r.off->ib_cache(), *r.vctx, buf, 64_KiB);
  });
  w.run();
}

TEST(CacheSingleFlight, ConcurrentGvmiCacheMissesCoalesce) {
  World w(small_spec(2, 1));
  w.launch(0, [&](Rank& r) -> sim::Task<void> {
    const int proxy = r.world->spec().proxy_for_host(r.rank);
    const verbs::GvmiId gvmi = r.world->offload().gvmi_of(proxy);
    const auto buf = r.mem().alloc(64_KiB);
    co_await expect_single_flight(r.world->engine(), r.off->gvmi_cache(), *r.vctx, proxy,
                                  gvmi, buf, 64_KiB);
  });
  w.run();
}

TEST(CacheSingleFlight, ConcurrentCrossRegMissesCoalesce) {
  World w(small_spec(2, 1));
  w.launch(0, [&](Rank& r) -> sim::Task<void> {
    const int proxy = r.world->spec().proxy_for_host(r.rank);
    const auto buf = r.mem().alloc(64_KiB);
    const verbs::GvmiMrInfo info =
        co_await r.vctx->reg_mr_gvmi(buf, 64_KiB, r.world->offload().gvmi_of(proxy));
    co_await expect_single_flight(r.world->engine(), r.world->offload().proxy(proxy).gvmi_cache(),
                                  r.world->verbs().ctx(proxy), r.rank, info);
  });
  w.run();
}

// ---------------------------------------------------------------------------
// Regression: template re-record keeps the lifetime run count
// ---------------------------------------------------------------------------

TEST(GroupReRecord, ReRecordedTemplateKeepsRunCount) {
  // With the host group cache off, every call re-records the proxy template.
  // The replacement template must inherit the lifetime run count — resetting
  // it to zero would disarm re-call credit gating, letting run i+1's sends
  // race the receiver's instance i.
  const int iters = 3;
  World w(small_spec(2, 1));
  w.launch_all([&](Rank& r) -> sim::Task<void> {
    r.off->set_group_cache_enabled(false);
    const std::size_t len = 8_KiB;
    const int peer = 1 - r.rank;
    const auto sbuf = r.mem().alloc(len);
    const auto rbuf = r.mem().alloc(len);
    auto req = r.off->group_start();
    r.off->group_send(req, sbuf, len, peer, 0);
    r.off->group_recv(req, rbuf, len, peer, 0);
    r.off->group_end(req);
    for (int i = 0; i < iters; ++i) {
      r.mem().write(sbuf, pattern_bytes(static_cast<std::uint64_t>(r.rank + i), len));
      co_await r.off->group_call(req);
      EXPECT_EQ(co_await r.off->group_wait(req), Status::kOk);
      EXPECT_TRUE(
          check_pattern(r.mem().read(rbuf, len), static_cast<std::uint64_t>(peer + i)));
    }
    auto& proxy = r.world->offload().proxy(r.world->spec().proxy_for_host(r.rank));
    EXPECT_EQ(proxy.template_runs(r.rank, req->id), static_cast<std::uint64_t>(iters));
  });
  w.run();
}

}  // namespace
}  // namespace dpu::offload
