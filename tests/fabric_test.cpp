// Unit tests for the fabric timing model: pipelining, port serialization,
// incast contention, loopback.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "fabric/fabric.h"
#include "machine/spec.h"
#include "sim/engine.h"

namespace dpu::fabric {
namespace {

machine::ClusterSpec two_nodes() {
  machine::ClusterSpec s;
  s.nodes = 2;
  s.host_procs_per_node = 2;
  s.proxies_per_dpu = 1;
  return s;
}

TEST(Fabric, UncontendedTransferIsLatencyPlusSerialization) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  SimTime delivered = 0;
  fab.transfer(0, 1, 64_KiB, [&] { delivered = eng.now(); });
  eng.run();
  const SimDuration expect =
      from_us(spec.cost.wire_latency_us) + spec.cost.wire_time(64_KiB);
  EXPECT_EQ(delivered, expect);
  EXPECT_EQ(delivered, fab.uncontended_time(0, 1, 64_KiB));
}

TEST(Fabric, LoopbackIsCheaperThanWire) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  EXPECT_LT(fab.uncontended_time(0, 0, 1_KiB), fab.uncontended_time(0, 1, 1_KiB));
}

TEST(Fabric, ZeroByteMessageStillPaysLatency) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  SimTime delivered = 0;
  fab.transfer(0, 1, 0, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_EQ(delivered, from_us(spec.cost.wire_latency_us));
}

TEST(Fabric, TxPortSerializesBackToBackSends) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  std::vector<SimTime> deliveries;
  for (int i = 0; i < 3; ++i) {
    fab.transfer(0, 1, 1_MiB, [&] { deliveries.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(deliveries.size(), 3u);
  const SimDuration ser = spec.cost.wire_time(1_MiB);
  // Deliveries spaced by the serialization time: the port is the bottleneck.
  EXPECT_EQ(deliveries[1] - deliveries[0], ser);
  EXPECT_EQ(deliveries[2] - deliveries[1], ser);
}

TEST(Fabric, IncastSerializesAtReceiverPort) {
  sim::Engine eng;
  machine::ClusterSpec spec = two_nodes();
  spec.nodes = 4;
  Fabric fab(eng, spec);
  std::vector<SimTime> deliveries;
  // Nodes 0..2 each send 1 MiB to node 3 at t=0: distinct TX ports, shared
  // RX port.
  for (int n = 0; n < 3; ++n) {
    fab.transfer(n, 3, 1_MiB, [&] { deliveries.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(deliveries.size(), 3u);
  const SimDuration ser = spec.cost.wire_time(1_MiB);
  EXPECT_EQ(deliveries[1] - deliveries[0], ser);
  EXPECT_EQ(deliveries[2] - deliveries[1], ser);
}

TEST(Fabric, DisjointPairsDoNotInterfere) {
  sim::Engine eng;
  machine::ClusterSpec spec = two_nodes();
  spec.nodes = 4;
  Fabric fab(eng, spec);
  std::vector<SimTime> deliveries;
  fab.transfer(0, 1, 1_MiB, [&] { deliveries.push_back(eng.now()); });
  fab.transfer(2, 3, 1_MiB, [&] { deliveries.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], deliveries[1]);  // full bisection bandwidth
}

TEST(Fabric, StatsAccumulate) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  fab.transfer(0, 1, 100, [] {});
  fab.transfer(0, 1, 200, [] {});
  fab.transfer(1, 0, 50, [] {});
  eng.run();
  EXPECT_EQ(fab.stats(0).messages_tx, 2u);
  EXPECT_EQ(fab.stats(0).bytes_tx, 300u);
  EXPECT_EQ(fab.stats(0).messages_rx, 1u);
  EXPECT_EQ(fab.stats(1).bytes_rx, 300u);
}

TEST(Fabric, BandwidthConvergesToLinkRateForLargeMessages) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  SimTime last = 0;
  const int n = 16;
  for (int i = 0; i < n; ++i) fab.transfer(0, 1, 4_MiB, [&] { last = eng.now(); });
  eng.run();
  const double gbps = static_cast<double>(n) * 4.0 * 1024 * 1024 / to_ns(last);
  EXPECT_NEAR(gbps, spec.cost.nic_bandwidth_GBps, spec.cost.nic_bandwidth_GBps * 0.05);
}

TEST(Fabric, OversubscriptionThrottlesCrossLeafAggregate) {
  // 8 nodes, leaf radix 2: nodes {0,1} share a leaf. With 4x
  // oversubscription, many concurrent cross-leaf flows from one leaf finish
  // later than at full bisection; same-leaf traffic is unaffected.
  auto mk_spec = [](double oversub) {
    machine::ClusterSpec s;
    s.nodes = 8;
    s.host_procs_per_node = 1;
    s.proxies_per_dpu = 1;
    s.topology.leaf_radix = 2;
    s.topology.oversubscription = oversub;
    return s;
  };
  auto last_delivery = [&](double oversub) {
    sim::Engine eng;
    auto spec = mk_spec(oversub);
    Fabric fab(eng, spec);
    SimTime last = 0;
    // Both nodes of leaf 0 blast two remote leaves at once.
    for (int i = 0; i < 4; ++i) {
      fab.transfer(0, 2 + i, 4_MiB, [&] { last = std::max(last, eng.now()); });
      fab.transfer(1, 2 + i, 4_MiB, [&] { last = std::max(last, eng.now()); });
    }
    eng.run();
    return last;
  };
  EXPECT_GT(last_delivery(4.0), last_delivery(1.0));
}

TEST(Fabric, ArbiterGrantsSameInstantRequestsByRequesterId) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  std::vector<int> order;
  // Adversarial call order: the higher-id requester posts first within the
  // instant. The link arbiter must still grant the lower id the early slot —
  // same-instant grant order is a property of the requesters, not of the
  // incidental order the scheduler ran their posts (the race class
  // tests/determinism_test.cpp's tie-shuffle matrix exposes).
  fab.transfer(0, 1, 1_MiB, [&] { order.push_back(5); }, false, 5);
  fab.transfer(0, 1, 1_MiB, [&] { order.push_back(2); }, false, 2);
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 5);
}

TEST(Fabric, ArbiterKeepsProgramOrderWithinOneRequester) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  std::vector<int> order;
  fab.transfer(0, 1, 1_MiB, [&] { order.push_back(1); }, false, 7);
  fab.transfer(0, 1, 1_MiB, [&] { order.push_back(2); }, false, 7);
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Fabric, ArbiterOnlyReordersWithinOneInstant) {
  sim::Engine eng;
  auto spec = two_nodes();
  Fabric fab(eng, spec);
  std::vector<int> order;
  // A high-id requester that posts at an *earlier instant* keeps the early
  // slot: arbitration is per-picosecond cohort, never across time.
  fab.transfer(0, 1, 1_MiB, [&] { order.push_back(9); }, false, 9);
  eng.schedule_at(from_us(1), [&] {
    fab.transfer(0, 1, 1_MiB, [&] { order.push_back(1); }, false, 1);
  });
  eng.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 9);
  EXPECT_EQ(order[1], 1);
}

TEST(Fabric, SameLeafTrafficIgnoresOversubscription) {
  machine::ClusterSpec s;
  s.nodes = 4;
  s.host_procs_per_node = 1;
  s.proxies_per_dpu = 1;
  s.topology.leaf_radix = 4;  // all nodes on one leaf
  s.topology.oversubscription = 8.0;
  sim::Engine eng;
  Fabric fab(eng, s);
  SimTime t = 0;
  fab.transfer(0, 1, 1_MiB, [&] { t = eng.now(); });
  eng.run();
  EXPECT_EQ(t, fab.uncontended_time(0, 1, 1_MiB));
}

}  // namespace
}  // namespace dpu::fabric
