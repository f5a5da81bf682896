// Schedule-race detector suite (src/analysis determinism matrix).
//
// Replays a matrix of workloads under the engine's tie-shuffle mode: seed 0
// is the legacy FIFO tie order, every other seed dispatches same-virtual-
// time events in a deterministically permuted order. A workload whose
// RunRecord (metrics digest + canonical trace digest + final virtual time)
// is identical across all seeds is schedule-race-free; any divergence is a
// real order dependence, reported with the first diverging trace event.
//
// The matrix covers the four protocol regimes the offload stack has: basic
// rendezvous pingpong, cached group alltoall, a wire-fault sweep (content-
// keyed fates — see FaultSpec::content_keyed), and a proxy crash mid-stripe
// (liveness + degraded completion). Each runs on two fabric shapes: the
// default single leaf, and an active fat-tree core where every node is its
// own leaf and cross-leaf traffic queues at oversubscribed spine ports. A
// planted-race fixture proves the
// detector actually detects; a fault-fate unit test pins the global-stream
// order dependence that content-keyed mode fixes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/determinism.h"
#include "analysis/digest.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/units.h"
#include "fabric/fault.h"
#include "harness/world.h"
#include "offload/coll.h"
#include "offload/protocol.h"
#include "verbs/verbs.h"

namespace dpu::analysis {
namespace {

using harness::Rank;
using harness::World;

constexpr std::size_t kSeeds = 8;  // ISSUE floor: >= 8 seeds per workload

// ---------------------------------------------------------------------------
// Workload replicas. Each builds a FRESH world, arms the tie seed before
// any rank program runs, verifies payloads (require: a corrupt payload is a
// failure regardless of digests), and snapshots the run.
// ---------------------------------------------------------------------------

RunRecord run_pingpong(std::uint64_t tie_seed, const machine::TopologySpec& topo) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 1;
  s.proxies_per_dpu = 1;
  s.topology = topo;
  World w(s);
  w.engine().set_tie_shuffle_seed(tie_seed);
  auto& tr = w.enable_trace();
  const std::size_t len = 32_KiB;  // above eager: full RTS/RTR rendezvous
  constexpr int kIters = 3;
  w.launch(0, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    for (int i = 0; i < kIters; ++i) {
      r.mem().write(buf, pattern_bytes(static_cast<std::uint64_t>(100 + i), len));
      auto qs = co_await r.off->send_offload(buf, len, 1, i);
      require(co_await r.off->wait(qs) == offload::Status::kOk, "pingpong send");
      auto qr = co_await r.off->recv_offload(buf, len, 1, 1000 + i);
      require(co_await r.off->wait(qr) == offload::Status::kOk, "pingpong recv");
      require(check_pattern(r.mem().read(buf, len), static_cast<std::uint64_t>(200 + i)),
              "pingpong payload");
    }
  });
  w.launch(1, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    for (int i = 0; i < kIters; ++i) {
      auto qr = co_await r.off->recv_offload(buf, len, 0, i);
      require(co_await r.off->wait(qr) == offload::Status::kOk, "pingpong recv");
      require(check_pattern(r.mem().read(buf, len), static_cast<std::uint64_t>(100 + i)),
              "pingpong payload");
      r.mem().write(buf, pattern_bytes(static_cast<std::uint64_t>(200 + i), len));
      auto qs = co_await r.off->send_offload(buf, len, 0, 1000 + i);
      require(co_await r.off->wait(qs) == offload::Status::kOk, "pingpong send");
    }
  });
  w.run();
  return capture_run(w.engine(), &tr);
}

RunRecord run_group_alltoall(std::uint64_t tie_seed, machine::ClusterSpec s) {
  World w(s);
  w.engine().set_tie_shuffle_seed(tie_seed);
  auto& tr = w.enable_trace();
  const int n = w.spec().total_host_ranks();
  const std::size_t b = 4_KiB;
  w.launch_all([n, b](Rank& r) -> sim::Task<void> {
    const int me = r.rank;
    const auto nn = static_cast<std::size_t>(n);
    const auto sbuf = r.mem().alloc(b * nn);
    const auto rbuf = r.mem().alloc(b * nn);
    offload::GroupAlltoall a2a(*r.off, *r.mpi);
    for (int it = 0; it < 2; ++it) {  // second pass replays the template cache
      for (int d = 0; d < n; ++d) {
        r.mem().write(sbuf + static_cast<machine::Addr>(d) * b,
                      pattern_bytes(static_cast<std::uint64_t>(1000 * it + me * n + d), b));
      }
      auto req = co_await a2a.icall(sbuf, rbuf, b, r.world->mpi().world());
      require(co_await a2a.wait(req) == offload::Status::kOk, "alltoall wait");
      for (int src = 0; src < n; ++src) {
        require(check_pattern(r.mem().read(rbuf + static_cast<machine::Addr>(src) * b, b),
                              static_cast<std::uint64_t>(1000 * it + src * n + me)),
                "alltoall payload");
      }
    }
  });
  w.run();
  return capture_run(w.engine(), &tr);
}

RunRecord run_group_alltoall_clean(std::uint64_t tie_seed, const machine::TopologySpec& topo) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 2;
  s.proxies_per_dpu = 1;
  s.topology = topo;
  return run_group_alltoall(tie_seed, s);
}

RunRecord run_fault_sweep(std::uint64_t tie_seed, const machine::TopologySpec& topo) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 2;
  s.proxies_per_dpu = 1;
  s.topology = topo;
  s.fault.enabled = true;
  s.fault.seed = 77;
  s.fault.drop_prob = 0.10;
  s.fault.dup_prob = 0.08;
  s.fault.delay_prob = 0.10;
  s.fault.channels = {offload::kProxyChannel, offload::kGroupMetaChannel};
  // Content-keyed fates: the fault pattern is a function of what was sent,
  // not of global wire order — the property that makes a fault-injected
  // workload order-independent at all. (The legacy global stream is itself
  // a schedule dependence; FaultFates.* below pins that down.)
  s.fault.content_keyed = true;
  return run_group_alltoall(tie_seed, s);
}

RunRecord run_crash_mid_stripe(std::uint64_t tie_seed, const machine::TopologySpec& topo) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 1;
  s.proxies_per_dpu = 2;
  s.topology = topo;
  s.cost.stripe_threshold = 32_KiB;
  s.cost.chunk_bytes = 32_KiB;
  s.cost.dpu_qp_GBps = 1.0;  // slow QPs so the crash lands mid-stripe
  s.fault.proxy_failures.push_back({/*proxy=*/3, /*at_us=*/30.0, /*hang=*/false, -1.0});
  World w(s);
  w.engine().set_tie_shuffle_seed(tie_seed);
  auto& tr = w.enable_trace();
  const std::size_t len = 512_KiB;  // 16 chunks striped over 2 workers
  w.launch(0, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    r.mem().write(buf, pattern_bytes(13, len));
    auto req = co_await r.off->send_offload(buf, len, 1, 4);
    require(co_await r.off->wait(req) == offload::Status::kDegraded, "crash send degrades");
  });
  w.launch(1, [len](Rank& r) -> sim::Task<void> {
    const auto buf = r.mem().alloc(len);
    auto req = co_await r.off->recv_offload(buf, len, 0, 4);
    require(co_await r.off->wait(req) == offload::Status::kDegraded, "crash recv degrades");
    require(check_pattern(r.mem().read(buf, len), 13), "crash-mid-stripe payload");
  });
  w.run();
  return capture_run(w.engine(), &tr);
}

// ---------------------------------------------------------------------------
// The matrix: >= 8 seeds x 4 workloads x 2 fabric shapes, byte-identical
// records everywhere.
// ---------------------------------------------------------------------------

struct FabricShape {
  const char* name;
  machine::TopologySpec topo;
};

const FabricShape kShapes[] = {
    {"single leaf", {}},
    {"fat-tree core (1 node/leaf, 2 spines, 2:1)",
     {/*spines=*/2, /*leaf_radix=*/1, /*oversubscription=*/2.0}},
};

using Workload = RunRecord (*)(std::uint64_t, const machine::TopologySpec&);

MatrixReport run_shape(Workload workload, const machine::TopologySpec& topo) {
  const auto seeds = default_seeds(kSeeds);
  return run_matrix([&](std::uint64_t seed) { return workload(seed, topo); }, seeds);
}

TEST(DeterminismMatrix, PingpongIsTieOrderIndependent) {
  for (const FabricShape& sh : kShapes) {
    const auto rep = run_shape(run_pingpong, sh.topo);
    EXPECT_TRUE(rep.identical()) << sh.name << ": " << rep.summary();
  }
}

TEST(DeterminismMatrix, GroupAlltoallIsTieOrderIndependent) {
  for (const FabricShape& sh : kShapes) {
    const auto rep = run_shape(run_group_alltoall_clean, sh.topo);
    EXPECT_TRUE(rep.identical()) << sh.name << ": " << rep.summary();
  }
}

TEST(DeterminismMatrix, FaultSweepIsTieOrderIndependent) {
  for (const FabricShape& sh : kShapes) {
    const auto rep = run_shape(run_fault_sweep, sh.topo);
    EXPECT_TRUE(rep.identical()) << sh.name << ": " << rep.summary();
    // The sweep must actually have injected faults, or it proves nothing.
    bool saw_faults = false;
    for (const auto& line : rep.baseline.metric_lines) {
      if (line.rfind("fault.injected=", 0) == 0 && line != "fault.injected=0") {
        saw_faults = true;
      }
    }
    EXPECT_TRUE(saw_faults) << sh.name << ": fault sweep ran clean; raise the rates";
  }
}

TEST(DeterminismMatrix, CrashMidStripeIsTieOrderIndependent) {
  for (const FabricShape& sh : kShapes) {
    const auto rep = run_shape(run_crash_mid_stripe, sh.topo);
    EXPECT_TRUE(rep.identical()) << sh.name << ": " << rep.summary();
  }
}

// ---------------------------------------------------------------------------
// Planted race: the detector must detect. Two same-time updates to one cell
// compose differently under permutation (x*2 vs x+3); the final value is
// exported as a gauge, so the records diverge and name the seed.
// ---------------------------------------------------------------------------

RunRecord run_planted_race(std::uint64_t tie_seed) {
  sim::Engine eng;
  eng.set_tie_shuffle_seed(tie_seed);
  auto cell = std::make_shared<double>(1.0);
  // Both mutations scheduled for the same instant from one event: only the
  // tie order decides whether the result is (1*2)+3 or (1+3)*2.
  eng.schedule_at(from_us(1.0), [cell] { *cell = *cell * 2.0; });
  eng.schedule_at(from_us(1.0), [cell] { *cell = *cell + 3.0; });
  (void)eng.run();
  eng.metrics().set_gauge("planted.cell", *cell);
  return capture_run(eng, nullptr);
}

TEST(DeterminismMatrix, PlantedRaceIsDetected) {
  const auto seeds = default_seeds(kSeeds);
  const auto rep = run_matrix(run_planted_race, seeds);
  EXPECT_FALSE(rep.identical())
      << "the planted non-commutative tie was not surfaced by any of the "
      << kSeeds << " seeds";
  ASSERT_FALSE(rep.divergences.empty());
  // The report must name the offending state, not just disagree in silence.
  EXPECT_NE(rep.divergences.front().detail.find("planted.cell"), std::string::npos)
      << rep.divergences.front().detail;
}

// ---------------------------------------------------------------------------
// Regression pin for the fault-fate order dependence (the race this PR's
// matrix surfaced): in legacy mode the fate of a message is the next draw
// of one global stream, so presenting the same two messages in swapped
// order swaps their fates; in content-keyed mode each fate sticks to the
// message identity under any presentation order.
// ---------------------------------------------------------------------------

machine::ClusterSpec fate_spec(bool content_keyed) {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 1;
  s.proxies_per_dpu = 1;
  s.fault.enabled = true;
  s.fault.seed = 9;
  s.fault.drop_prob = 0.5;  // coarse: makes fate swaps overwhelmingly likely
  s.fault.channels = {offload::kProxyChannel};
  s.fault.content_keyed = content_keyed;
  return s;
}

/// Per-message fates for two senders (procs 0 and 1) that each put 8
/// messages on the wire in program order. `b_first` swaps which sender wins
/// each same-time tie — exactly what tie-shuffle does — while preserving
/// each sender's own order, which no reordering can change. Returned keyed
/// by (sender, message index) so fates are compared per logical message.
std::vector<bool> fates(bool content_keyed, bool b_first, int rounds) {
  const auto s = fate_spec(content_keyed);
  sim::Engine eng;
  fabric::FaultPlan plan(s.fault, s, eng.metrics());
  std::vector<bool> by_msg(static_cast<std::size_t>(2 * rounds));
  for (int i = 0; i < rounds; ++i) {
    const int first = b_first ? 1 : 0;
    const int second = 1 - first;
    by_msg[static_cast<std::size_t>(2 * i + first)] =
        plan.decide(offload::kProxyChannel, first, /*dst_proc=*/2, true).drop;
    by_msg[static_cast<std::size_t>(2 * i + second)] =
        plan.decide(offload::kProxyChannel, second, /*dst_proc=*/2, true).drop;
  }
  return by_msg;
}

TEST(FaultFates, LegacyGlobalStreamDependsOnTieOrder) {
  // Documented order dependence of the legacy mode: same messages, swapped
  // tie winners, different per-message fates. This is exactly why a
  // fault-injected workload cannot pass the tie-shuffle matrix in legacy
  // mode, and why it stays opt-out for the historical benches.
  EXPECT_NE(fates(false, false, 8), fates(false, true, 8));
}

TEST(FaultFates, ContentKeyedFatesAreTieOrderInvariant) {
  EXPECT_EQ(fates(true, false, 8), fates(true, true, 8));
}

// ---------------------------------------------------------------------------
// Regression pin for the inbox delivery race (the other race the matrix
// surfaced): two control messages landing in one inbox at the same virtual
// time used to be processed in delivery-event order — which is exactly
// what tie-shuffle permutes, and per-message receiver CPU cost
// (proxy_entry_us) turned the permutation into divergent issue times. The
// fix keys same-time arrivals by (src, sender program-order stamp); cross-
// time order stays FIFO.
// ---------------------------------------------------------------------------

verbs::Msg<int> ctrl_msg(int src, std::uint64_t stamp, SimTime delivered_at) {
  verbs::Msg<int> m;
  m.src = src;
  m.post_stamp = stamp;
  m.delivered_at = delivered_at;
  return m;
}

std::vector<std::pair<int, std::uint64_t>> drain(sim::Channel<verbs::Msg<int>>& box) {
  std::vector<std::pair<int, std::uint64_t>> out;
  while (auto m = box.try_recv()) out.emplace_back(m->src, m->post_stamp);
  return out;
}

TEST(InboxOrdering, SameTimeArrivalsSortBySenderAndStamp) {
  sim::Engine eng;
  sim::Channel<verbs::Msg<int>> box(eng);
  // Adversarial arrival order at one instant: the drain order must be the
  // canonical (src, stamp) order no matter how the tie was dispatched.
  box.send_before(ctrl_msg(1, 7, 100), verbs::inbox_before);
  box.send_before(ctrl_msg(0, 9, 100), verbs::inbox_before);
  box.send_before(ctrl_msg(1, 6, 100), verbs::inbox_before);
  box.send_before(ctrl_msg(0, 8, 100), verbs::inbox_before);
  const std::vector<std::pair<int, std::uint64_t>> want = {{0, 8}, {0, 9}, {1, 6}, {1, 7}};
  EXPECT_EQ(drain(box), want);
}

TEST(InboxOrdering, DistinctTimesStayFifoEvenAgainstKeyOrder) {
  sim::Engine eng;
  sim::Channel<verbs::Msg<int>> box(eng);
  box.send_before(ctrl_msg(5, 1, 100), verbs::inbox_before);  // earlier time, "late" key
  box.send_before(ctrl_msg(0, 0, 200), verbs::inbox_before);  // later time, "early" key
  const std::vector<std::pair<int, std::uint64_t>> want = {{5, 1}, {0, 0}};
  EXPECT_EQ(drain(box), want);
}

TEST(InboxOrdering, DuplicateDeliveriesKeepArrivalOrder) {
  sim::Engine eng;
  sim::Channel<verbs::Msg<int>> box(eng);
  // A duplicated fault delivery lands the same (src, stamp) twice; equal
  // keys must be stable so the dup filter sees a deterministic sequence.
  auto a = ctrl_msg(2, 4, 100);
  a.wire_bytes = 1;  // first copy marker
  auto b = ctrl_msg(2, 4, 100);
  b.wire_bytes = 2;
  box.send_before(std::move(a), verbs::inbox_before);
  box.send_before(std::move(b), verbs::inbox_before);
  auto first = box.try_recv();
  auto second = box.try_recv();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->wire_bytes, 1u);
  EXPECT_EQ(second->wire_bytes, 2u);
}

}  // namespace
}  // namespace dpu::analysis
