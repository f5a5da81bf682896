// Unit tests for the simulated verbs layer: registration, key validation,
// RDMA data integrity, GVMI / cross-GVMI semantics, control messages.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/units.h"
#include "fabric/fabric.h"
#include "machine/spec.h"
#include "sim/engine.h"
#include "verbs/reg_cache.h"
#include "verbs/verbs.h"

namespace dpu::verbs {
namespace {

struct Fixture {
  machine::ClusterSpec spec;
  sim::Engine eng;
  std::unique_ptr<fabric::Fabric> fab;
  std::unique_ptr<Runtime> rt;

  explicit Fixture(int nodes = 2, int ppn = 2, int proxies = 1,
                   machine::FaultSpec fault = {}) {
    spec.nodes = nodes;
    spec.host_procs_per_node = ppn;
    spec.proxies_per_dpu = proxies;
    spec.fault = std::move(fault);
    fab = std::make_unique<fabric::Fabric>(eng, spec);
    rt = std::make_unique<Runtime>(eng, spec, *fab);
  }

  /// Runs a single driver coroutine to completion and asserts success.
  void drive(sim::Task<void> t) {
    eng.spawn(std::move(t), "driver");
    ASSERT_EQ(eng.run(), sim::RunResult::kCompleted);
  }
};

TEST(Verbs, RegMrReturnsDistinctKeysAndCharges) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& ctx = f.rt->ctx(0);
    const auto addr = ctx.mem().alloc(64_KiB);
    const SimTime before = f.eng.now();
    auto mr = co_await ctx.reg_mr(addr, 64_KiB);
    EXPECT_GT(f.eng.now(), before);  // registration costs CPU time
    EXPECT_NE(mr.lkey, mr.rkey);
    EXPECT_EQ(mr.owner, 0);
  }(f));
}

TEST(Verbs, RegMrOfUnallocatedBufferFails) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& ctx = f.rt->ctx(0);
    bool threw = false;
    try {
      (void)co_await ctx.reg_mr(Addr{0xdead000}, 64);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, RdmaWriteMovesBytes) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);  // rank 2 is on node 1 (ppn=2)
    const auto src = a.mem().alloc(4_KiB);
    const auto dst = b.mem().alloc(4_KiB);
    a.mem().write(src, pattern_bytes(42, 4_KiB));
    auto src_mr = co_await a.reg_mr(src, 4_KiB);
    auto dst_mr = co_await b.reg_mr(dst, 4_KiB);
    auto c = co_await a.post_rdma_write(src_mr.lkey, src, 2, dst_mr.rkey, dst, 4_KiB);
    co_await a.wait(c);
    EXPECT_TRUE(check_pattern(b.mem().read(dst, 4_KiB), 42));
  }(f));
}

TEST(Verbs, RdmaWriteAtOffsetWithinRegistration) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const auto src = a.mem().alloc(8_KiB);
    const auto dst = b.mem().alloc(8_KiB);
    a.mem().write(src, pattern_bytes(5, 8_KiB));
    auto src_mr = co_await a.reg_mr(src, 8_KiB);
    auto dst_mr = co_await b.reg_mr(dst, 8_KiB);
    auto c = co_await a.post_rdma_write(src_mr.lkey, src + 1024, 2, dst_mr.rkey, dst + 2048,
                                        1_KiB);
    co_await a.wait(c);
    auto got = b.mem().read(dst + 2048, 1_KiB);
    auto want = a.mem().read(src + 1024, 1_KiB);
    EXPECT_EQ(got, want);
  }(f));
}

TEST(Verbs, RdmaWriteWithForeignRkeyFails) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const auto src = a.mem().alloc(1_KiB);
    const auto dst = b.mem().alloc(1_KiB);
    auto src_mr = co_await a.reg_mr(src, 1_KiB);
    auto dst_mr = co_await b.reg_mr(dst, 1_KiB);
    bool threw = false;
    try {
      // rkey valid at b, but we aim it at proc 1's context.
      (void)co_await a.post_rdma_write(src_mr.lkey, src, 1, dst_mr.rkey, dst, 1_KiB);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, RdmaWriteAfterDeregFails) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const auto src = a.mem().alloc(1_KiB);
    const auto dst = b.mem().alloc(1_KiB);
    auto src_mr = co_await a.reg_mr(src, 1_KiB);
    auto dst_mr = co_await b.reg_mr(dst, 1_KiB);
    co_await b.dereg_mr(dst_mr);
    bool threw = false;
    try {
      (void)co_await a.post_rdma_write(src_mr.lkey, src, 2, dst_mr.rkey, dst, 1_KiB);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, RdmaReadPullsBytes) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const auto remote = b.mem().alloc(2_KiB);
    const auto local = a.mem().alloc(2_KiB);
    b.mem().write(remote, pattern_bytes(77, 2_KiB));
    auto r_mr = co_await b.reg_mr(remote, 2_KiB);
    auto l_mr = co_await a.reg_mr(local, 2_KiB);
    auto c = co_await a.post_rdma_read(l_mr.lkey, local, 2, r_mr.rkey, remote, 2_KiB);
    co_await a.wait(c);
    EXPECT_TRUE(check_pattern(a.mem().read(local, 2_KiB), 77));
  }(f));
}

TEST(Verbs, GvmiIdAllocRestrictedToDpuProcs) {
  Fixture f;
  EXPECT_THROW(f.rt->ctx(0).alloc_gvmi_id(), SimError);  // host proc
  const int proxy = f.spec.proxy_id(0, 0);
  EXPECT_NO_THROW(f.rt->ctx(proxy).alloc_gvmi_id());
}

TEST(Verbs, CrossGvmiFullFlowMovesBytesFromHostMemory) {
  // The §V sequence: DPU allocates GVMI-ID; host registers buffer against
  // it (mkey); DPU cross-registers (mkey2); DPU RDMA-writes on behalf of
  // the host directly from host memory to a remote host buffer.
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host_src = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    auto& host_dst = f.rt->ctx(2);

    const auto src = host_src.mem().alloc(16_KiB);
    const auto dst = host_dst.mem().alloc(16_KiB);
    host_src.mem().write(src, pattern_bytes(11, 16_KiB));

    const GvmiId gvmi = dpu.alloc_gvmi_id();
    auto ginfo = co_await host_src.reg_mr_gvmi(src, 16_KiB, gvmi);
    auto dst_mr = co_await host_dst.reg_mr(dst, 16_KiB);
    const MKey mkey2 = co_await dpu.cross_register(ginfo);
    auto c =
        co_await dpu.post_rdma_write_on_behalf(mkey2, src, 2, dst_mr.rkey, dst, 16_KiB);
    co_await dpu.wait(c);
    EXPECT_TRUE(check_pattern(host_dst.mem().read(dst, 16_KiB), 11));
  }(f));
}

TEST(Verbs, CrossRegisterRejectsMismatchedParameters) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    const auto src = host.mem().alloc(4_KiB);
    const GvmiId gvmi = dpu.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    auto tampered = ginfo;
    tampered.len = 8_KiB;  // lies about the registered length
    bool threw = false;
    try {
      (void)co_await dpu.cross_register(tampered);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, CrossRegisterRejectsForeignGvmi) {
  Fixture f(/*nodes=*/2, /*ppn=*/2, /*proxies=*/2);
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& host = f.rt->ctx(0);
    auto& dpu_a = f.rt->ctx(f.spec.proxy_id(0, 0));
    auto& dpu_remote = f.rt->ctx(f.spec.proxy_id(1, 0));
    const auto src = host.mem().alloc(4_KiB);
    const GvmiId gvmi = dpu_a.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    bool threw = false;
    try {
      // A worker on a DIFFERENT node fronts a different HCA: rejected.
      (void)co_await dpu_remote.cross_register(ginfo);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, CrossRegisterAllowsSameNodeSibling) {
  // Workers on one DPU share the device's protection domain, so a sibling
  // of the GVMI-owning worker may cross-register the buffer — the striping
  // path delegates segments on exactly this basis.
  Fixture f(/*nodes=*/2, /*ppn=*/2, /*proxies=*/2);
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& host = f.rt->ctx(0);
    auto& dpu_a = f.rt->ctx(f.spec.proxy_id(0, 0));
    auto& dpu_b = f.rt->ctx(f.spec.proxy_id(0, 1));
    const auto src = host.mem().alloc(4_KiB);
    const GvmiId gvmi = dpu_a.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    const MKey mk = co_await dpu_b.cross_register(ginfo);
    EXPECT_NE(mk, 0u);
  }(f));
}

TEST(Verbs, HostGvmiRegRejectsUnknownId) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& host = f.rt->ctx(0);
    const auto src = host.mem().alloc(1_KiB);
    bool threw = false;
    try {
      (void)co_await host.reg_mr_gvmi(src, 1_KiB, GvmiId{99999});
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, OnBehalfWriteRejectsSourceOutsideCrossRegisteredRange) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    auto& dst_host = f.rt->ctx(2);
    const auto src = host.mem().alloc(4_KiB);
    const auto dst = dst_host.mem().alloc(4_KiB);
    const GvmiId gvmi = dpu.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    auto dst_mr = co_await dst_host.reg_mr(dst, 4_KiB);
    const MKey mkey2 = co_await dpu.cross_register(ginfo);
    // Tamper: range exceeds the cross-registered window.
    bool threw = false;
    try {
      (void)co_await dpu.post_rdma_write_on_behalf(mkey2, src + 1, 2, dst_mr.rkey, dst,
                                                   4_KiB);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, OnBehalfWriteRejectsStaleMkey2AfterHostDereg) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    auto& dst_host = f.rt->ctx(2);
    const auto src = host.mem().alloc(4_KiB);
    const auto dst = dst_host.mem().alloc(4_KiB);
    const GvmiId gvmi = dpu.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    auto dst_mr = co_await dst_host.reg_mr(dst, 4_KiB);
    const MKey mkey2 = co_await dpu.cross_register(ginfo);
    auto ok = co_await dpu.post_rdma_write_on_behalf(mkey2, src, 2, dst_mr.rkey, dst, 4_KiB);
    co_await dpu.wait(ok);
    // Deregistering the host registration revokes the mkey2 derived from it.
    co_await host.dereg_mr_gvmi(ginfo);
    bool threw = false;
    try {
      (void)co_await dpu.post_rdma_write_on_behalf(mkey2, src, 2, dst_mr.rkey, dst, 4_KiB);
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, CtrlMessageArrivesInInbox) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const verbs::Chan<std::string> ch{7};
    std::string hello = "hello";
    co_await a.post_ctrl(2, ch, std::move(hello), 16);
    auto msg = co_await b.inbox(ch).recv();
    EXPECT_EQ(msg.src, 0);
    EXPECT_EQ(msg.channel, 7);
    EXPECT_EQ(msg.body, "hello");
    EXPECT_GT(msg.wire_bytes, 16u);  // envelope included
  }(f));
}

TEST(Verbs, CtrlMessagesPreserveOrderPerChannel) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const verbs::Chan<int> ch{1};
    for (int i = 0; i < 5; ++i) co_await a.post_ctrl(2, ch, i, 8);
    for (int i = 0; i < 5; ++i) {
      auto msg = co_await b.inbox(ch).recv();
      EXPECT_EQ(msg.body, i);
    }
  }(f));
}

TEST(Verbs, DuplicatedCtrlMessageLandsTwiceWithTheFullBody) {
  // The fault plan duplicates every message on channel 7. Delivery copies
  // the message, so both arrivals carry the complete body: a copy moved
  // from by the first delivery would reach the inbox empty.
  machine::FaultSpec dup_all;
  dup_all.enabled = true;
  dup_all.dup_prob = 1.0;
  dup_all.channels = {7};
  Fixture f(2, 2, 1, dup_all);
  f.drive([](Fixture& f) -> sim::Task<void> {
    const Chan<std::vector<int>> ch{7};
    std::vector<int> sent(64);
    std::iota(sent.begin(), sent.end(), 100);
    std::vector<int> body = sent;
    co_await f.rt->ctx(0).post_ctrl(2, ch, std::move(body), 256);
    auto& box = f.rt->ctx(2).inbox(ch);
    auto first = co_await box.recv();
    auto second = co_await box.recv();
    EXPECT_EQ(first.body, sent);
    EXPECT_EQ(second.body, sent);
    EXPECT_EQ(first.src, second.src);
    EXPECT_EQ(first.post_stamp, second.post_stamp);  // one send, two copies
    EXPECT_EQ(first.wire_bytes, second.wire_bytes);
    EXPECT_TRUE(box.empty());
  }(f));
  EXPECT_EQ(f.eng.metrics().counter_value("fault.dups"), 1u);
}

TEST(Verbs, FlagWriteSetsRemoteEvent) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto flag = std::make_shared<sim::Event>(f.eng);
    co_await a.post_flag_write(2, flag, 2);
    co_await flag->wait();
    EXPECT_GT(f.eng.now(), 0u);
  }(f));
}

TEST(Verbs, DpuPostIsSlowerThanHostPost) {
  // Measures the initiation gap that drives the fig. 3 bandwidth shape.
  Fixture f;
  SimDuration host_cost = 0;
  SimDuration dpu_cost = 0;
  f.drive([](Fixture& f, SimDuration& host_cost, SimDuration& dpu_cost) -> sim::Task<void> {
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(f.spec.proxy_id(0, 0));
    auto& peer = f.rt->ctx(2);
    const auto hbuf = host.mem().alloc(1_KiB);
    const auto dbuf = dpu.mem().alloc(1_KiB);
    const auto pbuf = peer.mem().alloc(2_KiB);
    auto hmr = co_await host.reg_mr(hbuf, 1_KiB);
    auto dmr = co_await dpu.reg_mr(dbuf, 1_KiB);
    auto pmr = co_await peer.reg_mr(pbuf, 2_KiB);

    SimTime t0 = f.eng.now();
    (void)co_await host.post_rdma_write(hmr.lkey, hbuf, 2, pmr.rkey, pbuf, 1_KiB);
    host_cost = f.eng.now() - t0;
    t0 = f.eng.now();
    (void)co_await dpu.post_rdma_write(dmr.lkey, dbuf, 2, pmr.rkey, pbuf + 1024, 1_KiB);
    dpu_cost = f.eng.now() - t0;
  }(f, host_cost, dpu_cost));
  EXPECT_GT(dpu_cost, host_cost);
}

TEST(Verbs, WriteWithImmediateDeliversDataAndNotification) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);
    auto& b = f.rt->ctx(2);
    const auto src = a.mem().alloc(2_KiB);
    const auto dst = b.mem().alloc(2_KiB);
    a.mem().write(src, pattern_bytes(3, 2_KiB));
    auto src_mr = co_await a.reg_mr(src, 2_KiB);
    auto dst_mr = co_await b.reg_mr(dst, 2_KiB);
    const verbs::Chan<std::string> imm_ch{9};
    std::string imm = "imm-payload";
    auto c = co_await a.post_rdma_write_imm(src_mr.lkey, src, 2, dst_mr.rkey, dst, 2_KiB,
                                            imm_ch, std::move(imm));
    // Immediate is consumed from the destination inbox, data already placed.
    auto msg = co_await b.inbox(imm_ch).recv();
    EXPECT_EQ(msg.body, "imm-payload");
    EXPECT_TRUE(check_pattern(b.mem().read(dst, 2_KiB), 3));
    co_await a.wait(c);
  }(f));
}

TEST(Verbs, HookedOnBehalfWriteRunsHookAtDelivery) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    auto& dst_host = f.rt->ctx(2);
    const auto src = host.mem().alloc(4_KiB);
    const auto dst = dst_host.mem().alloc(4_KiB);
    host.mem().write(src, pattern_bytes(8, 4_KiB));
    const auto gvmi = dpu.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    auto dst_mr = co_await dst_host.reg_mr(dst, 4_KiB);
    const auto mkey2 = co_await dpu.cross_register(ginfo);
    bool hook_ran = false;
    std::function<void()> hook = [&f, &dst_host, dst, &hook_ran] {
      // Hook fires after the byte copy.
      hook_ran = check_pattern(dst_host.mem().read(dst, 4_KiB), 8);
      (void)f;
    };
    auto c = co_await dpu.post_rdma_write_on_behalf(mkey2, src, 2, dst_mr.rkey, dst, 4_KiB,
                                                    std::move(hook));
    co_await dpu.wait(c);
    EXPECT_TRUE(hook_ran);
  }(f));
}

TEST(Verbs, GvmiDeregInvalidatesCrossRegistration) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    const int proxy = f.spec.proxy_id(0, 0);
    auto& host = f.rt->ctx(0);
    auto& dpu = f.rt->ctx(proxy);
    const auto src = host.mem().alloc(4_KiB);
    const auto gvmi = dpu.alloc_gvmi_id();
    auto ginfo = co_await host.reg_mr_gvmi(src, 4_KiB, gvmi);
    co_await host.dereg_mr_gvmi(ginfo);
    bool threw = false;
    try {
      (void)co_await dpu.cross_register(ginfo);  // mkey now stale
    } catch (const SimError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(f));
}

TEST(Verbs, SameNodeDataUsesPcieNotNicPorts) {
  // A same-node on-behalf write must not serialize behind wire traffic: the
  // loopback path has its own DMA lanes.
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    auto& a = f.rt->ctx(0);      // host, node 0
    auto& b = f.rt->ctx(1);      // host, node 0 (same node)
    auto& c = f.rt->ctx(2);      // host, node 1
    const auto big = a.mem().alloc(8_MiB, false);
    const auto dst_far = c.mem().alloc(8_MiB, false);
    const auto src2 = b.mem().alloc(64_KiB, false);
    const auto dst_near = a.mem().alloc(64_KiB, false);
    auto big_mr = co_await a.reg_mr(big, 8_MiB);
    auto far_mr = co_await c.reg_mr(dst_far, 8_MiB);
    auto src2_mr = co_await b.reg_mr(src2, 64_KiB);
    auto near_mr = co_await a.reg_mr(dst_near, 64_KiB);
    // Saturate the wire with a big inter-node write, then issue a same-node
    // transfer: it must complete long before the big one.
    auto big_c = co_await a.post_rdma_write(big_mr.lkey, big, 2, far_mr.rkey, dst_far, 8_MiB);
    auto near_c =
        co_await b.post_rdma_write(src2_mr.lkey, src2, 0, near_mr.rkey, dst_near, 64_KiB);
    const SimTime t0 = f.eng.now();
    co_await b.wait(near_c);
    const SimDuration near_t = f.eng.now() - t0;
    co_await a.wait(big_c);
    EXPECT_LT(to_us(near_t), 50.0);  // unaffected by the 8 MiB wire transfer
  }(f));
}

// ---------------------------------------------------------------------------
// Registration cache (reg_cache.h): the host GVMI instance stands in for the
// shared template wherever the registration call does not matter.
// ---------------------------------------------------------------------------

using GvmiCache = RegCache<GvmiMrInfo>;

TEST(RegCache, HitSkipsRegistrationCost) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    GvmiCache cache(f.spec.total_procs());
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

TEST(RegCache, DistinctPeersDistinctTrees) {
  Fixture f(/*nodes=*/2, /*ppn=*/2, /*proxies=*/2);
  f.drive([](Fixture& f) -> sim::Task<void> {
    GvmiCache cache(f.spec.total_procs());
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
    EXPECT_EQ(cache.size(), 2u);
  }(f));
}

TEST(RegCache, DifferentLengthIsDifferentEntry) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    GvmiCache cache(f.spec.total_procs());
    const int proxy = f.spec.proxy_id(0, 0);
    const auto gvmi = f.rt->ctx(proxy).alloc_gvmi_id();
    const auto buf = f.rt->ctx(0).mem().alloc(64_KiB, false);
    auto a = co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 32_KiB);
    auto b = co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 64_KiB);
    EXPECT_NE(a.mkey, b.mkey);
    EXPECT_EQ(cache.stats().misses, 2u);
  }(f));
}

TEST(RegCache, EvictForcesReRegistration) {
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    GvmiCache cache(f.spec.total_procs());
    const int proxy = f.spec.proxy_id(0, 0);
    const auto gvmi = f.rt->ctx(proxy).alloc_gvmi_id();
    const auto buf = f.rt->ctx(0).mem().alloc(4_KiB, false);
    (void)co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 4_KiB);
    EXPECT_TRUE(cache.evict(proxy, buf, 4_KiB));
    EXPECT_FALSE(cache.evict(proxy, buf, 4_KiB));  // already gone
    EXPECT_EQ(cache.size(), 0u);
    (void)co_await cache.get(f.rt->ctx(0), proxy, gvmi, buf, 4_KiB);
    EXPECT_EQ(cache.stats().misses, 2u);
  }(f));
}

TEST(RegCache, HitRefreshesLruRecency) {
  // Capacity 2: get A, B, A (a hit), then C. The hit made B the least
  // recently used entry, so C evicts B and A stays.
  Fixture f;
  f.drive([](Fixture& f) -> sim::Task<void> {
    GvmiCache cache(f.spec.total_procs(), /*capacity=*/2);
    const int proxy = f.spec.proxy_id(0, 0);
    const auto gvmi = f.rt->ctx(proxy).alloc_gvmi_id();
    auto& host = f.rt->ctx(0);
    const auto a = host.mem().alloc(4_KiB, false);
    const auto b = host.mem().alloc(4_KiB, false);
    const auto c = host.mem().alloc(4_KiB, false);
    (void)co_await cache.get(host, proxy, gvmi, a, 4_KiB);
    (void)co_await cache.get(host, proxy, gvmi, b, 4_KiB);
    (void)co_await cache.get(host, proxy, gvmi, a, 4_KiB);
    (void)co_await cache.get(host, proxy, gvmi, c, 4_KiB);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.evict(proxy, a, 4_KiB));   // A survived
    EXPECT_FALSE(cache.evict(proxy, b, 4_KiB));  // B was the one evicted
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 3u);
  }(f));
}

}  // namespace
}  // namespace dpu::verbs
