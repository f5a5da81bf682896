// google-benchmark microbenches of the framework's hot data structures:
// the array-of-BST registration cache lookup (a host GVMI instance) and the
// proxy matching queues.
// (Wall-clock costs of the simulator itself, not simulated time.)
#include <benchmark/benchmark.h>

#include "fabric/fabric.h"
#include "machine/spec.h"
#include "offload/match_queues.h"
#include "sim/engine.h"
#include "verbs/reg_cache.h"
#include "verbs/verbs.h"

namespace {

using namespace dpu;
using GvmiCache = verbs::RegCache<verbs::GvmiMrInfo>;

sim::Task<void> warm(GvmiCache& cache, verbs::ProcCtx& host, int proxy, verbs::GvmiId gvmi,
                     int entries, std::vector<machine::Addr>& addrs) {
  for (int i = 0; i < entries; ++i) {
    const auto a = host.mem().alloc(4096, false);
    addrs.push_back(a);
    (void)co_await cache.get(host, proxy, gvmi, a, 4096);
  }
}

sim::Task<void> probe(GvmiCache& cache, verbs::ProcCtx& host, int proxy, verbs::GvmiId gvmi,
                      machine::Addr a) {
  auto info = co_await cache.get(host, proxy, gvmi, a, 4096);
  benchmark::DoNotOptimize(info.mkey);
}

void BM_GvmiCacheHit(benchmark::State& state) {
  machine::ClusterSpec spec;
  spec.nodes = 2;
  spec.host_procs_per_node = 2;
  spec.proxies_per_dpu = 1;
  sim::Engine eng;
  fabric::Fabric fab(eng, spec);
  verbs::Runtime rt(eng, spec, fab);
  GvmiCache cache(spec.total_procs());
  const int proxy = spec.proxy_id(0, 0);
  const auto gvmi = rt.ctx(proxy).alloc_gvmi_id();

  // Warm the cache with range(0) buffers, inside a driver process.
  std::vector<machine::Addr> addrs;
  eng.spawn(warm(cache, rt.ctx(0), proxy, gvmi, static_cast<int>(state.range(0)), addrs));
  (void)eng.run();

  std::size_t i = 0;
  for (auto _ : state) {
    // Hits never suspend, so the returned task completes synchronously when
    // pumped by a trivial driver.
    eng.spawn(probe(cache, rt.ctx(0), proxy, gvmi, addrs[i % addrs.size()]));
    (void)eng.run();
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GvmiCacheHit)->Arg(16)->Arg(256)->Arg(4096);

void BM_MatchQueuesRtsRtr(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    offload::MatchQueues q;
    for (int i = 0; i < pairs; ++i) {
      offload::RtsProxyMsg rts;
      rts.src_rank = 0;
      rts.dst_rank = i;
      rts.tag = i;
      rts.len = 64;
      benchmark::DoNotOptimize(q.on_rts(rts));
    }
    for (int i = 0; i < pairs; ++i) {
      offload::RtrProxyMsg rtr;
      rtr.src_rank = 0;
      rtr.dst_rank = i;
      rtr.tag = i;
      rtr.len = 64;
      benchmark::DoNotOptimize(q.on_rtr(rtr));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * pairs * 2);
}
BENCHMARK(BM_MatchQueuesRtsRtr)->Arg(32)->Arg(512);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    const int n = 100000;
    int sink = 0;
    for (int i = 0; i < n; ++i) {
      eng.schedule_at(static_cast<SimTime>(i), [&sink] { ++sink; });
    }
    (void)eng.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_EngineEventThroughput);

}  // namespace

BENCHMARK_MAIN();
