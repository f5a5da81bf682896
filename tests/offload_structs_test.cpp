// Direct unit tests of the offload framework's data structures: the
// RTS/RTR matching queues (fig. 8) and the array-of-BST GVMI caches
// (§VII-B), outside any full simulation.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <type_traits>

#include "common/units.h"
#include "fabric/fabric.h"
#include "machine/spec.h"
#include "offload/gvmi_cache.h"
#include "offload/match_queues.h"
#include "sim/engine.h"
#include "verbs/verbs.h"

namespace dpu::offload {
namespace {

RtsProxyMsg rts(int src, int dst, int tag, std::size_t len = 64) {
  RtsProxyMsg m;
  m.src_rank = src;
  m.dst_rank = dst;
  m.tag = tag;
  m.len = len;
  return m;
}

RtrProxyMsg rtr(int src, int dst, int tag, std::size_t len = 64) {
  RtrProxyMsg m;
  m.src_rank = src;
  m.dst_rank = dst;
  m.tag = tag;
  m.len = len;
  return m;
}

TEST(MatchQueues, RtsWaitsForRtr) {
  MatchQueues q;
  EXPECT_FALSE(q.on_rts(rts(0, 1, 7)).has_value());
  EXPECT_EQ(q.pending_sends(), 1u);
  auto m = q.on_rtr(rtr(0, 1, 7));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->src_rank, 0);
  EXPECT_EQ(q.pending_sends(), 0u);
}

TEST(MatchQueues, RtrWaitsForRts) {
  MatchQueues q;
  EXPECT_FALSE(q.on_rtr(rtr(2, 3, 1)).has_value());
  EXPECT_EQ(q.pending_recvs(), 1u);
  auto m = q.on_rts(rts(2, 3, 1));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->dst_rank, 3);
  EXPECT_EQ(q.pending_recvs(), 0u);
}

TEST(MatchQueues, TagMismatchDoesNotMatch) {
  MatchQueues q;
  (void)q.on_rts(rts(0, 1, 7));
  EXPECT_FALSE(q.on_rtr(rtr(0, 1, 8)).has_value());
  EXPECT_EQ(q.pending_sends(), 1u);
  EXPECT_EQ(q.pending_recvs(), 1u);
}

TEST(MatchQueues, SourceMismatchDoesNotMatch) {
  MatchQueues q;
  (void)q.on_rts(rts(0, 1, 7));
  EXPECT_FALSE(q.on_rtr(rtr(5, 1, 7)).has_value());
}

TEST(MatchQueues, FifoWithinSameKey) {
  MatchQueues q;
  (void)q.on_rts(rts(0, 1, 7, 100));
  (void)q.on_rts(rts(0, 1, 7, 200));
  auto first = q.on_rtr(rtr(0, 1, 7));
  auto second = q.on_rtr(rtr(0, 1, 7));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->len, 100u);
  EXPECT_EQ(second->len, 200u);
}

TEST(MatchQueues, QueuesSeparatedByDestination) {
  MatchQueues q;
  (void)q.on_rts(rts(0, 1, 7));
  (void)q.on_rts(rts(0, 2, 7));
  auto m = q.on_rtr(rtr(0, 2, 7));
  ASSERT_TRUE(m);
  EXPECT_EQ(m->dst_rank, 2);
  EXPECT_EQ(q.pending_sends(), 1u);
}

TEST(MatchQueues, ManyInterleavedPairsAllMatch) {
  MatchQueues q;
  for (int i = 0; i < 100; ++i) (void)q.on_rts(rts(i % 7, i, i % 3));
  int matched = 0;
  for (int i = 0; i < 100; ++i) {
    if (q.on_rtr(rtr(i % 7, i, i % 3))) ++matched;
  }
  EXPECT_EQ(matched, 100);
  EXPECT_EQ(q.pending_sends(), 0u);
  EXPECT_EQ(q.pending_recvs(), 0u);
}

// ---------------------------------------------------------------------------
// GVMI caches against a live verbs runtime.
// ---------------------------------------------------------------------------

struct CacheFixture {
  machine::ClusterSpec spec;
  sim::Engine eng;
  std::unique_ptr<fabric::Fabric> fab;
  std::unique_ptr<verbs::Runtime> rt;

  CacheFixture() {
    spec.nodes = 2;
    spec.host_procs_per_node = 2;
    spec.proxies_per_dpu = 2;
    fab = std::make_unique<fabric::Fabric>(eng, spec);
    rt = std::make_unique<verbs::Runtime>(eng, spec, *fab);
  }

  void drive(sim::Task<void> t) {
    eng.spawn(std::move(t), "driver");
    ASSERT_EQ(eng.run(), sim::RunResult::kCompleted);
  }
};

TEST(HostGvmiCacheTest, HitSkipsRegistrationCost) {
  CacheFixture f;
  f.drive([](CacheFixture& f) -> sim::Task<void> {
    HostGvmiCache cache(f.spec.total_procs());
    const int proxy = f.spec.proxy_id(0, 0);
    const auto gvmi = f.rt->ctx(proxy).alloc_gvmi_id();
    const auto buf = f.rt->ctx(0).mem().alloc(64_KiB, false);
    const SimTime t0 = f.eng.now();
    auto a = co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 64_KiB);
    const SimDuration miss_cost = f.eng.now() - t0;
    const SimTime t1 = f.eng.now();
    auto b = co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 64_KiB);
    const SimDuration hit_cost = f.eng.now() - t1;
    EXPECT_EQ(a.mkey, b.mkey);
    EXPECT_GT(miss_cost, 0u);
    EXPECT_EQ(hit_cost, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
  }(f));
}

TEST(HostGvmiCacheTest, DistinctRanksDistinctTrees) {
  CacheFixture f;
  f.drive([](CacheFixture& f) -> sim::Task<void> {
    HostGvmiCache cache(f.spec.total_procs());
    const int proxy_a = f.spec.proxy_id(0, 0);
    const int proxy_b = f.spec.proxy_id(0, 1);
    const auto gvmi_a = f.rt->ctx(proxy_a).alloc_gvmi_id();
    const auto gvmi_b = f.rt->ctx(proxy_b).alloc_gvmi_id();
    const auto buf = f.rt->ctx(0).mem().alloc(4_KiB, false);
    auto a = co_await cache.get(f.rt->ctx(0), proxy_a, gvmi_a, buf, 4_KiB);
    auto b = co_await cache.get(f.rt->ctx(0), proxy_b, gvmi_b, buf, 4_KiB);
    // Same buffer registered against two GVMI-IDs: two distinct entries.
    EXPECT_NE(a.mkey, b.mkey);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.entries(), 2u);
  }(f));
}

TEST(HostGvmiCacheTest, DifferentLengthIsDifferentEntry) {
  CacheFixture f;
  f.drive([](CacheFixture& f) -> sim::Task<void> {
    HostGvmiCache cache(f.spec.total_procs());
    const int proxy = f.spec.proxy_id(0, 0);
    const auto gvmi = f.rt->ctx(proxy).alloc_gvmi_id();
    const auto buf = f.rt->ctx(0).mem().alloc(64_KiB, false);
    auto a = co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 32_KiB);
    auto b = co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 64_KiB);
    EXPECT_NE(a.mkey, b.mkey);
    EXPECT_EQ(cache.stats().misses, 2u);
  }(f));
}

TEST(HostGvmiCacheTest, EvictForcesReRegistration) {
  CacheFixture f;
  f.drive([](CacheFixture& f) -> sim::Task<void> {
    HostGvmiCache cache(f.spec.total_procs());
    const int proxy = f.spec.proxy_id(0, 0);
    const auto gvmi = f.rt->ctx(proxy).alloc_gvmi_id();
    const auto buf = f.rt->ctx(0).mem().alloc(4_KiB, false);
    (void)co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 4_KiB);
    EXPECT_TRUE(cache.evict(proxy, buf, 4_KiB));
    EXPECT_FALSE(cache.evict(proxy, buf, 4_KiB));  // already gone
    (void)co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 4_KiB);
    EXPECT_EQ(cache.stats().misses, 2u);
  }(f));
}

TEST(DpuGvmiCacheTest, CrossRegistrationCachedPerHostRank) {
  CacheFixture f;
  f.drive([](CacheFixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    const auto gvmi = dpu.alloc_gvmi_id();
    const auto buf = host.mem().alloc(16_KiB, false);
    auto info = co_await host.reg_mr_gvmi(buf, 16_KiB, gvmi);
    DpuGvmiCache cache(f.spec.total_procs());
    auto a = co_await cache.get(dpu, 0, info);
    auto b = co_await cache.get(dpu, 0, info);
    EXPECT_EQ(a.mkey2, b.mkey2);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
  }(f));
}

// ---------------------------------------------------------------------------
// Wire-message registry (protocol.h). The kKind tags are what tools/dpulint
// keys its proto-field rule off; pin the mapping so a retag is a deliberate,
// test-visible change.
// ---------------------------------------------------------------------------

static_assert(RtsProxyMsg::kKind == MsgKind::kRtsProxy);
static_assert(RtrProxyMsg::kKind == MsgKind::kRtrProxy);
static_assert(ChunkWorkMsg::kKind == MsgKind::kChunkWork);
static_assert(GroupPacketMsg::kKind == MsgKind::kGroupPacket);
static_assert(GroupCachedCallMsg::kKind == MsgKind::kGroupCachedCall);
static_assert(RecvArrivedMsg::kKind == MsgKind::kRecvArrived);
static_assert(CreditMsg::kKind == MsgKind::kCredit);
static_assert(CreditBatchMsg::kKind == MsgKind::kCreditBatch);
static_assert(BarrierCntrMsg::kKind == MsgKind::kBarrierCntr);
static_assert(StopMsg::kKind == MsgKind::kStop);
static_assert(InvalidateMsg::kKind == MsgKind::kInvalidate);
static_assert(GroupMetaMsg::kKind == MsgKind::kGroupMeta);
static_assert(HeartbeatMsg::kKind == MsgKind::kHeartbeat);
static_assert(HeartbeatAckMsg::kKind == MsgKind::kHeartbeatAck);
static_assert(StopAckMsg::kKind == MsgKind::kStopAck);
static_assert(FenceBasicMsg::kKind == MsgKind::kFenceBasic);
static_assert(FenceGroupMsg::kKind == MsgKind::kFenceGroup);
static_assert(DegradeMsg::kKind == MsgKind::kDegrade);
static_assert(SendDeliveredMsg::kKind == MsgKind::kSendDelivered);

// Tenant fields are plain ints defaulting to tenant 0 so single-tenant runs
// need no plumbing.
static_assert(std::is_same_v<decltype(RtsProxyMsg::tenant), int>);
static_assert(std::is_same_v<decltype(GroupPacketMsg::tenant), int>);
static_assert(std::is_same_v<decltype(FenceGroupMsg::tenant), int>);

TEST(WireRegistryTest, TenantDefaultsToZero) {
  EXPECT_EQ(RtsProxyMsg{}.tenant, 0);
  EXPECT_EQ(RecvArrivedMsg{}.tenant, 0);
  EXPECT_EQ(GroupMetaMsg{}.tenant, 0);
}

TEST(WireRegistryTest, KindNamesAreUniqueAndNamed) {
  std::set<std::string> names;
  for (int k = static_cast<int>(MsgKind::kRtsProxy);
       k <= static_cast<int>(MsgKind::kSendDelivered); ++k) {
    const char* n = kind_name(static_cast<MsgKind>(k));
    EXPECT_STRNE(n, "?") << "enumerator " << k << " missing from kind_name()";
    EXPECT_TRUE(names.insert(n).second) << "duplicate kind name " << n;
  }
  EXPECT_EQ(names.size(), 19u);
  EXPECT_STREQ(kind_name(RtsProxyMsg::kKind), "RtsProxy");
  EXPECT_STREQ(kind_name(CreditBatchMsg::kKind), "CreditBatch");
}

}  // namespace
}  // namespace dpu::offload
