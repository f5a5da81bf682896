// Tests for the BluesMPI staging baseline: correctness of staged alltoall
// and worker-tree bcast, first-touch setup behaviour, overlap, and the
// latency penalty relative to the proposed (GVMI, no-staging) framework.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/units.h"
#include "harness/world.h"

namespace dpu::baselines {
namespace {

using harness::Rank;
using harness::World;

machine::ClusterSpec spec_of(int nodes, int ppn, int proxies = 1) {
  machine::ClusterSpec s;
  s.nodes = nodes;
  s.host_procs_per_node = ppn;
  s.proxies_per_dpu = proxies;
  return s;
}

TEST(BluesMpi, StagedAlltoallDeliversAllBlocks) {
  World w(spec_of(2, 2));
  const int n = 4;
  int checked = 0;
  w.launch_all([&](Rank& r) -> sim::Task<void> {
    const std::size_t b = 8_KiB;
    const int me = r.rank;
    const auto nn = static_cast<std::size_t>(n);
    const auto sbuf = r.mem().alloc(b * nn);
    const auto rbuf = r.mem().alloc(b * nn);
    for (int d = 0; d < n; ++d) {
      r.mem().write(sbuf + static_cast<machine::Addr>(d) * b,
                    pattern_bytes(static_cast<std::uint64_t>(me * n + d), b));
    }
    auto req = co_await r.blues->ialltoall(sbuf, rbuf, b, r.world->mpi().world());
    co_await r.blues->wait(req);
    for (int s = 0; s < n; ++s) {
      EXPECT_TRUE(check_pattern(r.mem().read(rbuf + static_cast<machine::Addr>(s) * b, b),
                                static_cast<std::uint64_t>(s * n + me)))
          << "rank " << me << " block " << s;
    }
    ++checked;
  });
  w.run();
  EXPECT_EQ(checked, n);
}

TEST(BluesMpi, StagedBcastDeliversFromAnyRoot) {
  for (int root : {0, 2, 5}) {
    World w(spec_of(3, 2));
    w.launch_all([&, root](Rank& r) -> sim::Task<void> {
      const std::size_t len = 64_KiB;
      const auto buf = r.mem().alloc(len);
      if (r.rank == root) r.mem().write(buf, pattern_bytes(31, len));
      auto req = co_await r.blues->ibcast(buf, len, root, r.world->mpi().world());
      co_await r.blues->wait(req);
      EXPECT_TRUE(check_pattern(r.mem().read(buf, len), 31))
          << "rank " << r.rank << " root " << root;
    });
    w.run();
  }
}

TEST(BluesMpi, OverlapIsNearPerfect) {
  // Hosts compute immediately after posting; the staged collective
  // completes during the compute window (the baseline's strong suit).
  World w(spec_of(2, 2));
  std::vector<SimDuration> wait_time(4, 0);
  w.launch_all([&](Rank& r) -> sim::Task<void> {
    const std::size_t b = 32_KiB;
    const auto sbuf = r.mem().alloc(b * 4, /*backed=*/false);
    const auto rbuf = r.mem().alloc(b * 4, /*backed=*/false);
    auto req = co_await r.blues->ialltoall(sbuf, rbuf, b, r.world->mpi().world());
    co_await r.compute(50_ms);
    const SimTime before = r.world->now();
    co_await r.blues->wait(req);
    wait_time[static_cast<std::size_t>(r.rank)] = r.world->now() - before;
  });
  w.run();
  for (auto t : wait_time) EXPECT_LT(t, 20_us);
}

TEST(BluesMpi, FirstTouchSetupPaidOncePerBufferSet) {
  World w(spec_of(2, 1));
  w.launch_all([&](Rank& r) -> sim::Task<void> {
    const std::size_t b = 16_KiB;
    const auto sbuf = r.mem().alloc(b * 2, /*backed=*/false);
    const auto rbuf = r.mem().alloc(b * 2, /*backed=*/false);
    for (int i = 0; i < 4; ++i) {
      auto req = co_await r.blues->ialltoall(sbuf, rbuf, b, r.world->mpi().world());
      co_await r.blues->wait(req);
    }
  });
  w.run();
  // Two arenas (sbuf-side, rbuf-side) per host; each worker serves 1 host.
  EXPECT_EQ(w.blues().worker_for_host(0).staging_setups(), 2u);
  EXPECT_EQ(w.blues().worker_for_host(0).alltoalls_completed(), 4u);
}

TEST(BluesMpi, AlternatingBufferSetsPaySetupTwice) {
  // The P3DFFT effect (§VIII-D): back-to-back collectives on two distinct
  // buffer sets double the first-touch cost; warmed-up runs are fast.
  World w(spec_of(2, 1));
  std::vector<SimDuration> iter_time;
  w.launch_all([&](Rank& r) -> sim::Task<void> {
    const std::size_t b = 16_KiB;
    const auto s1 = r.mem().alloc(b * 2, false);
    const auto r1 = r.mem().alloc(b * 2, false);
    const auto s2 = r.mem().alloc(b * 2, false);
    const auto r2 = r.mem().alloc(b * 2, false);
    for (int i = 0; i < 3; ++i) {
      const SimTime t0 = r.world->now();
      auto q1 = co_await r.blues->ialltoall(s1, r1, b, r.world->mpi().world());
      auto q2 = co_await r.blues->ialltoall(s2, r2, b, r.world->mpi().world());
      co_await r.blues->wait(q1);
      co_await r.blues->wait(q2);
      if (r.rank == 0) iter_time.push_back(r.world->now() - t0);
    }
  });
  w.run();
  ASSERT_EQ(iter_time.size(), 3u);
  // First iteration pays 4 arena setups; later ones none.
  EXPECT_GT(iter_time[0], iter_time[1] + 2 * from_us(w.spec().cost.staging_setup_us));
  EXPECT_NEAR(static_cast<double>(iter_time[1]), static_cast<double>(iter_time[2]),
              static_cast<double>(iter_time[1]) * 0.2);
  EXPECT_EQ(w.blues().worker_for_host(0).staging_setups(), 4u);
}

TEST(BluesMpi, RegCacheHonoursCapacity) {
  // CostModel::reg_cache_capacity bounds BluesMPI's registration cache like
  // every other one: four ialltoalls alternating two buffer pairs at
  // capacity 1 keep one entry and evict the rest.
  machine::ClusterSpec s = spec_of(2, 1);
  s.cost.reg_cache_capacity = 1;
  World w(s);
  w.launch_all([&](Rank& r) -> sim::Task<void> {
    const std::size_t b = 16_KiB;
    const auto s1 = r.mem().alloc(b * 2, false);
    const auto r1 = r.mem().alloc(b * 2, false);
    const auto s2 = r.mem().alloc(b * 2, false);
    const auto r2 = r.mem().alloc(b * 2, false);
    for (int i = 0; i < 4; ++i) {
      auto q = co_await r.blues->ialltoall(i % 2 ? s2 : s1, i % 2 ? r2 : r1, b,
                                           r.world->mpi().world());
      co_await r.blues->wait(q);
    }
    EXPECT_GT(r.blues->reg_cache().stats().evictions, 0u);
    EXPECT_LE(r.blues->reg_cache().size(), 1u);
  });
  w.run();
}

TEST(BluesMpi, StagingSlowerThanProposedGvmiPath) {
  // Same pairwise exchange, measured once via BluesMPI (staged) and once
  // via the proposed group offload (direct GVMI): the staging hop must
  // cost measurably more once both are warm.
  const std::size_t b = 128_KiB;
  auto run_blues = [&](SimDuration& comm) {
    World w(spec_of(2, 1));
    w.launch_all([&](Rank& r) -> sim::Task<void> {
      const auto sbuf = r.mem().alloc(b * 2, false);
      const auto rbuf = r.mem().alloc(b * 2, false);
      SimTime t0 = 0;
      for (int i = 0; i < 3; ++i) {  // warm-up + timed
        t0 = r.world->now();
        auto req = co_await r.blues->ialltoall(sbuf, rbuf, b, r.world->mpi().world());
        co_await r.blues->wait(req);
      }
      if (r.rank == 0) comm = r.world->now() - t0;
    });
    w.run();
  };
  auto run_group = [&](SimDuration& comm) {
    World w(spec_of(2, 1));
    w.launch_all([&](Rank& r) -> sim::Task<void> {
      const auto sbuf = r.mem().alloc(b * 2, false);
      const auto rbuf = r.mem().alloc(b * 2, false);
      const int peer = 1 - r.rank;
      auto req = r.off->group_start();
      r.off->group_send(req, sbuf + static_cast<machine::Addr>(peer) * b, b, peer, 0);
      r.off->group_recv(req, rbuf + static_cast<machine::Addr>(peer) * b, b, peer, 0);
      r.off->group_end(req);
      SimTime t0 = 0;
      for (int i = 0; i < 3; ++i) {
        t0 = r.world->now();
        co_await r.off->group_call(req);
        EXPECT_EQ(co_await r.off->group_wait(req), offload::Status::kOk);
      }
      if (r.rank == 0) comm = r.world->now() - t0;
    });
    w.run();
  };
  SimDuration blues_time = 0;
  SimDuration group_time = 0;
  run_blues(blues_time);
  run_group(group_time);
  EXPECT_GT(blues_time, group_time);
}

TEST(BluesMpi, ManyRanksStagedAlltoall) {
  World w(spec_of(4, 4, 2));
  const int n = 16;
  int done = 0;
  w.launch_all([&, n](Rank& r) -> sim::Task<void> {
    const std::size_t b = 2_KiB;
    const auto nn = static_cast<std::size_t>(n);
    const auto sbuf = r.mem().alloc(b * nn);
    const auto rbuf = r.mem().alloc(b * nn);
    for (int d = 0; d < n; ++d) {
      r.mem().write(sbuf + static_cast<machine::Addr>(d) * b,
                    pattern_bytes(static_cast<std::uint64_t>(r.rank * n + d), b));
    }
    auto req = co_await r.blues->ialltoall(sbuf, rbuf, b, r.world->mpi().world());
    co_await r.blues->wait(req);
    for (int s = 0; s < n; ++s) {
      EXPECT_TRUE(check_pattern(r.mem().read(rbuf + static_cast<machine::Addr>(s) * b, b),
                                static_cast<std::uint64_t>(s * n + r.rank)));
    }
    ++done;
  });
  w.run();
  EXPECT_EQ(done, n);
}

}  // namespace
}  // namespace dpu::baselines
