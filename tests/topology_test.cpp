// Fat-tree topology tests: spec validation, d-mod-k path selection,
// congestion shape, determinism under tie-shuffle, and the regression pin
// that a 1-spine 1:1 core is byte-identical to the pre-fat-tree flat
// single-switch model (digests captured from the last flat-model build on
// the exact workload replicated in legacy_workload_digest below).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "fabric/fabric.h"
#include "machine/spec.h"
#include "sim/engine.h"

namespace dpu::fabric {
namespace {

struct RunDigest {
  std::size_t deliveries = 0;
  SimTime final_time = 0;
  std::uint64_t digest = 0;
};

// The exact mixed workload (ring + incast + same-leaf + loopback, plus a
// late burst at t=5us) whose delivery times were FNV-1a-hashed against the
// flat single-switch model before the fat-tree refactor. Do not alter: the
// pinned digests below are only meaningful against this byte pattern.
RunDigest legacy_workload_digest(machine::ClusterSpec s) {
  sim::Engine eng;
  Fabric fab(eng, s);
  std::vector<SimTime> del;
  const int n = s.nodes;
  for (int i = 0; i < n; ++i) {
    fab.transfer(i, (i + 1) % n, 1_MiB, [&] { del.push_back(eng.now()); }, false, i);
    fab.transfer(i, (i + 3) % n, 256_KiB, [&] { del.push_back(eng.now()); }, false, i);
    fab.transfer(i, i, 64_KiB, [&] { del.push_back(eng.now()); }, true, i);
  }
  eng.schedule_at(from_us(5), [&] {
    for (int i = 0; i < n; ++i) {
      fab.transfer(i, 0, 512_KiB, [&] { del.push_back(eng.now()); }, false, 100 + i);
    }
  });
  eng.run();
  RunDigest d;
  d.deliveries = del.size();
  d.final_time = eng.now();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (SimTime t : del) {
    h ^= static_cast<std::uint64_t>(t);
    h *= 0x100000001b3ull;
  }
  d.digest = h;
  return d;
}

// ---- regression pins: 1-spine / 1:1 == old flat model ----------------------

TEST(TopologyPin, DefaultNonBlockingCoreMatchesFlatModel) {
  // Defaults: radix 16, oversub 1.0 -> a single leaf, no core. A 1-spine
  // 1:1 core is non-blocking, so splitting the same 8 nodes across 1..8
  // leaves must leave every delivery time untouched.
  for (int radix : {16, 8, 4, 2, 1}) {
    SCOPED_TRACE("leaf_radix=" + std::to_string(radix));
    machine::ClusterSpec s;
    s.nodes = 8;
    s.topology.leaf_radix = radix;
    const RunDigest d = legacy_workload_digest(s);
    EXPECT_EQ(d.deliveries, 32u);
    EXPECT_EQ(d.final_time, SimTime{252121332});
    EXPECT_EQ(d.digest, 0x214d3e5d238ff45dull);
  }
}

TEST(TopologyPin, OversubscribedSingleSpineMatchesFlatPooledCore) {
  machine::ClusterSpec s;
  s.nodes = 8;
  s.topology.leaf_radix = 2;  // 4 leaves of 2
  s.topology.oversubscription = 4.0;
  const RunDigest d = legacy_workload_digest(s);
  EXPECT_EQ(d.deliveries, 32u);
  EXPECT_EQ(d.final_time, SimTime{962094664});
  EXPECT_EQ(d.digest, 0x532a331341217663ull);
}

TEST(TopologyPin, MidOversubscriptionMatchesFlatPooledCore) {
  machine::ClusterSpec s;
  s.nodes = 16;
  s.topology.leaf_radix = 4;  // 4 leaves of 4
  s.topology.oversubscription = 2.0;
  const RunDigest d = legacy_workload_digest(s);
  EXPECT_EQ(d.deliveries, 64u);
  EXPECT_EQ(d.final_time, SimTime{426883996});
  EXPECT_EQ(d.digest, 0xaac4b4f934414083ull);
}

// ---- spec validation -------------------------------------------------------

TEST(TopologySpecValidation, AcceptsAndResolvesInheritedDefaults) {
  machine::ClusterSpec s;
  s.nodes = 8;
  const machine::Topology t = s.resolve_topology();
  EXPECT_EQ(t.leaf_radix, 16);
  EXPECT_EQ(t.spines, 1);
  EXPECT_DOUBLE_EQ(t.oversubscription, 1.0);
  EXPECT_EQ(t.leaves, 1);  // 8 nodes fit one radix-16 leaf
  EXPECT_FALSE(t.core_active());
  EXPECT_DOUBLE_EQ(t.link_GBps, s.cost.nic_bandwidth_GBps);
}

TEST(TopologySpecValidation, RejectsZeroRateLinkNamingField) {
  machine::ClusterSpec n;
  n.cost.nic_bandwidth_GBps = 0.0;
  try {
    (void)n.resolve_topology();
    FAIL() << "zero NIC rate accepted";
  } catch (const machine::SpecError& e) {
    EXPECT_EQ(e.field(), "CostModel.nic_bandwidth_GBps");
  }
}

TEST(TopologySpecValidation, RejectsNonDivisibleLeafPopulation) {
  machine::ClusterSpec s;
  s.nodes = 10;
  s.topology.leaf_radix = 4;  // 2.5 leaves
  try {
    (void)s.resolve_topology();
    FAIL() << "ragged trailing leaf accepted";
  } catch (const machine::SpecError& e) {
    EXPECT_EQ(e.field(), "TopologySpec.leaf_radix");
  }
  // Fewer nodes than a leaf holds is fine: one partially-filled leaf.
  s.nodes = 3;
  EXPECT_EQ(s.resolve_topology().leaves, 1);
}

TEST(TopologySpecValidation, RejectsSubUnityOversubscriptionAndZeroSpines) {
  machine::ClusterSpec s;
  s.topology.oversubscription = 0.5;
  try {
    (void)s.resolve_topology();
    FAIL() << "oversubscription < 1 accepted";
  } catch (const machine::SpecError& e) {
    EXPECT_EQ(e.field(), "TopologySpec.oversubscription");
  }
  machine::ClusterSpec z;
  z.topology.spines = 0;
  try {
    (void)z.resolve_topology();
    FAIL() << "0 spines accepted";
  } catch (const machine::SpecError& e) {
    EXPECT_EQ(e.field(), "TopologySpec.spines");
  }
}

TEST(TopologySpecValidation, FabricConstructorAppliesTheChecks) {
  sim::Engine eng;
  machine::ClusterSpec s;
  s.nodes = 10;
  s.topology.leaf_radix = 4;
  EXPECT_THROW(Fabric(eng, s), machine::SpecError);
}

// ---- d-mod-k path selection ------------------------------------------------

machine::ClusterSpec fat_tree(int nodes, int leaf, int spines, double oversub) {
  machine::ClusterSpec s;
  s.nodes = nodes;
  s.topology.leaf_radix = leaf;
  s.topology.spines = spines;
  s.topology.oversubscription = oversub;
  return s;
}

TEST(TopologyPaths, SameLeafTrafficSkipsTheCore) {
  // Oversubscribed core; same-leaf neighbours still talk at full edge rate.
  sim::Engine eng;
  auto s = fat_tree(8, 4, 2, 4.0);
  Fabric fab(eng, s);
  SimTime local = 0;
  SimTime cross = 0;
  fab.transfer(0, 1, 1_MiB, [&] { local = eng.now(); }, false, 0);
  fab.transfer(4, 5, 1_MiB, [&] { /* same-leaf on the far leaf */ }, false, 4);
  eng.run();
  EXPECT_EQ(local, fab.uncontended_time(0, 1, 1_MiB));

  sim::Engine eng2;
  Fabric fab2(eng2, s);
  fab2.transfer(0, 4, 1_MiB, [&] { cross = eng2.now(); }, false, 0);
  eng2.run();
  // Cross-leaf rides an uplink at 1/4 the edge rate: strictly slower.
  EXPECT_GT(cross, local);
}

TEST(TopologyPaths, DestinationsStripeAcrossSpines) {
  // Two flows from one leaf to distinct destinations on another leaf take
  // different spines (dst % spines differs) and do not queue behind each
  // other in the core; two flows to the SAME spine do. Edge effects are
  // removed by using distinct sources and a 1:1 core whose per-uplink rate
  // halves the edge rate (leaf_radix 4, spines 2 -> uplink = 2x link / 2).
  auto s = fat_tree(16, 4, 2, 2.0);

  // Distinct spines: dst 8 -> spine 0, dst 9 -> spine 1.
  sim::Engine ea;
  Fabric fa(ea, s);
  SimTime t8 = 0;
  SimTime t9 = 0;
  fa.transfer(0, 8, 1_MiB, [&] { t8 = ea.now(); }, false, 0);
  fa.transfer(1, 9, 1_MiB, [&] { t9 = ea.now(); }, false, 1);
  ea.run();

  // Same spine: dst 8 and dst 10 both map to spine 0 and share the uplink.
  sim::Engine eb;
  Fabric fb(eb, s);
  SimTime u8 = 0;
  SimTime u10 = 0;
  fb.transfer(0, 8, 1_MiB, [&] { u8 = eb.now(); }, false, 0);
  fb.transfer(1, 10, 1_MiB, [&] { u10 = eb.now(); }, false, 1);
  eb.run();

  EXPECT_EQ(t8, u8);   // first grant identical in both runs
  EXPECT_GT(u10, t9);  // second flow queues only when it shares the spine
}

TEST(TopologyPaths, OversubscriptionQueuesCrossLeafIncast) {
  // 4 leaves x 4 nodes, 2 spines. All of leaf 1..3's first nodes blast node
  // 0: with a 4:1 core the finish spreads out far beyond the edge-only
  // bound; with a 1:1 core the same pattern finishes strictly earlier.
  auto congested = fat_tree(16, 4, 2, 4.0);
  auto roomy = fat_tree(16, 4, 2, 1.0);
  auto run_incast = [](const machine::ClusterSpec& s) {
    sim::Engine eng;
    Fabric fab(eng, s);
    SimTime last = 0;
    for (int leaf = 1; leaf < 4; ++leaf) {
      const int src = leaf * 4;
      fab.transfer(src, 0, 4_MiB, [&] { last = eng.now(); }, false, src);
    }
    eng.run();
    return last;
  };
  EXPECT_GT(run_incast(congested), run_incast(roomy));
}

// ---- determinism under tie-shuffle ----------------------------------------

// Same-instant cross-leaf requests from many ranks, chained two deep so
// grant order feeds back into later traffic. The delivery digest must be
// identical under every tie-shuffle seed: arbitration is canonical (by
// requester), and d-mod-k leaves no scheduler-dependent path choice.
std::uint64_t shuffled_digest(std::uint64_t seed) {
  sim::Engine eng;
  eng.set_tie_shuffle_seed(seed);
  auto s = fat_tree(16, 4, 4, 2.0);
  Fabric fab(eng, s);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&](SimTime t) {
    h ^= static_cast<std::uint64_t>(t);
    h *= 0x100000001b3ull;
  };
  for (int i = 0; i < 16; ++i) {
    const int second = (i + 5) % 16;
    fab.transfer(i, (i + 4) % 16, 512_KiB,
                 [&, i, second] {
                   fold(eng.now());
                   fab.transfer(i, second, 128_KiB, [&] { fold(eng.now()); }, false, i);
                 },
                 false, i);
  }
  eng.run();
  fold(eng.now());
  return h;
}

TEST(TopologyDeterminism, DigestInvariantUnderEightTieShuffleSeeds) {
  const std::uint64_t baseline = shuffled_digest(0);
  for (std::uint64_t seed : {0x1ull, 0x2ull, 0xdeadbeefull, 0x9e3779b97f4a7c15ull,
                             0x5555555555555555ull, 0x123456789abcdef0ull, 0x7ull}) {
    EXPECT_EQ(shuffled_digest(seed), baseline) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dpu::fabric
