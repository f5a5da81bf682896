// Direct unit tests of the offload framework's data structures: the
// RTS/RTR matching queues (fig. 8) and the wire-message registry, outside
// any full simulation. The §VII-B registration caches are verbs::RegCache,
// tested in verbs_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>

#include "offload/match_queues.h"

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

// No wire message carries a tenant: host ranks are unique across tenants,
// so every receiver derives it with ClusterSpec::tenant_of_host.
template <class T>
concept CarriesTenant = requires(T m) { m.tenant; };
template <class V>
inline constexpr bool kNoneCarryTenant = false;
template <class... Ks>
inline constexpr bool kNoneCarryTenant<std::variant<Ks...>> = (!CarriesTenant<Ks> && ...);
static_assert(kNoneCarryTenant<ProxyCtrl> && kNoneCarryTenant<ProxyLive> &&
              kNoneCarryTenant<HostLive> && !CarriesTenant<GroupMetaMsg> &&
              !CarriesTenant<CreditMsg>);

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
