// Ablation: multi-tenant proxy pool — tenant count x offered load.
//
// One node's worker fleet is shared by T independent tenants (disjoint
// rank sets, own communicators) running cached group pingpongs. The sweep
// varies the tenant count and the offered load (re-calls per rank) and
// reports each configuration's completion time plus the fair-queue service
// split. Shapes that must hold: the implicit single-tenant world and the
// explicit 1-tenant world complete in identical virtual time (the tenant
// machinery prices at zero when it isn't multiplexing), equal-weight
// tenants split the shared worker's service near-evenly at every load, and
// under a 3:1 weight skew every tenant still completes all its jobs. The
// weighted row prints the same time and service split as its equal-weight
// twin: at these loads the weights do not change what the table measures.
// Their effect on pick order is pinned by tenant_test's advance digest.
//
//   ablation_tenants            full sweep
//   ablation_tenants --smoke    one small config per axis (sanitized CI)
#include <cstring>

#include "bench/bench_common.h"
#include "common/bytes.h"

namespace {

using namespace dpu;
using harness::Rank;
using harness::World;

struct Result {
  double total_us = 0;
  std::uint64_t jobs = 0;          ///< group jobs completed, all tenants
  std::uint64_t svc_min = 0;       ///< min per-tenant entries_advanced
  std::uint64_t svc_max = 0;       ///< max per-tenant entries_advanced
  bool correct = true;
};

/// `tenants` tenants x `pairs_per_tenant` pingpong pairs on ONE node's
/// single worker; 0 tenants = implicit single-tenant world (same ranks).
/// Weights: every tenant weight 1, except tenant 0 gets `w0`.
Result run(int tenants, int pairs_per_tenant, int iters, std::size_t len, int w0) {
  const int ranks_per_tenant = 2 * pairs_per_tenant;
  const int ppn = std::max(1, tenants) * ranks_per_tenant;
  machine::ClusterSpec s = bench::spec_of(1, ppn, 1);
  for (int t = 0; t < tenants; ++t) {
    machine::TenantSpec ts;
    for (int i = 0; i < ranks_per_tenant; ++i) ts.ranks.push_back(t * ranks_per_tenant + i);
    ts.weight = t == 0 ? w0 : 1;
    s.tenants.push_back(std::move(ts));
  }
  World w(s);
  Result res;
  w.launch_all([&, len, iters](Rank& r) -> sim::Task<void> {
    const bool sender = r.rank % 2 == 0;
    const int peer = sender ? r.rank + 1 : r.rank - 1;
    const auto sbuf = r.mem().alloc(len);
    const auto rbuf = r.mem().alloc(len);
    auto g = r.off->group_start();
    r.off->group_send(g, sbuf, len, peer, 1);
    r.off->group_recv(g, rbuf, len, peer, 1);
    r.off->group_end(g);
    for (int i = 0; i < iters; ++i) {
      const auto key = static_cast<std::uint64_t>(1000 + 10 * r.rank + i);
      r.mem().write(sbuf, pattern_bytes(key, len));
      co_await r.off->group_call(g);
      if (co_await r.off->group_wait(g) != offload::Status::kOk) res.correct = false;
      const auto pk = static_cast<std::uint64_t>(1000 + 10 * peer + i);
      if (!check_pattern(r.mem().read(rbuf, len), pk)) res.correct = false;
    }
  });
  w.run();
  res.total_us = to_us(w.now());
  res.svc_min = ~0ull;
  for (int t = 0; t < tenants; ++t) {
    const std::string prefix = "offload.tenant" + std::to_string(t) + ".";
    res.jobs += w.metrics().counter_value(prefix + "jobs_completed");
    const std::uint64_t svc = w.metrics().counter_value(prefix + "entries_advanced");
    res.svc_min = std::min(res.svc_min, svc);
    res.svc_max = std::max(res.svc_max, svc);
  }
  if (tenants == 0) {
    res.svc_min = res.svc_max = 0;
    for (int p = 0; p < w.spec().total_proxies(); ++p) {
      res.jobs += w.offload().proxy(w.spec().proxy_id(0, p)).group_jobs_completed();
    }
  }
  char label[64];
  std::snprintf(label, sizeof(label), "tenants=%d iters=%d w0=%d", tenants, iters, w0);
  bench::emit_metrics(w, "ablation_tenants", label);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dpu;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "unknown arg: " << argv[i] << "\n";
      return 2;
    }
  }
  bench::header("Ablation: multi-tenant proxy pool",
                "tenant count x offered load on one shared worker fleet");
  const bool fast = smoke || bench::fast_mode();
  const std::size_t len = 8_KiB;
  const std::vector<int> tenant_sweep = fast ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const std::vector<int> load_sweep = fast ? std::vector<int>{2} : std::vector<int>{2, 8};
  const int pairs = 1;

  Table t({"config", "time (us)", "group jobs", "svc min", "svc max", "fairness", "payloads"});
  // Implicit single-tenant baseline: the machinery-off reference time.
  const Result solo = run(0, pairs, load_sweep.front(), len, 1);
  t.add_row({"implicit single-tenant", Table::num(solo.total_us), std::to_string(solo.jobs), "-",
             "-", "-", solo.correct ? "ok" : "CORRUPT"});
  Result one{};
  std::vector<Result> equal;
  bool fair_ok = true;
  for (int load : load_sweep) {
    for (int tn : tenant_sweep) {
      const Result res = run(tn, pairs, load, len, 1);
      if (tn == 1 && load == load_sweep.front()) one = res;
      char label[48];
      std::snprintf(label, sizeof(label), "T=%d load=%d", tn, load);
      const double fair =
          res.svc_min > 0 ? static_cast<double>(res.svc_max) / static_cast<double>(res.svc_min)
                          : 0.0;
      if (tn > 1) {
        equal.push_back(res);
        fair_ok = fair_ok && res.svc_min > 0 && fair <= 1.5;
      }
      t.add_row({label, Table::num(res.total_us), std::to_string(res.jobs),
                 std::to_string(res.svc_min), std::to_string(res.svc_max),
                 tn > 1 ? Table::num(fair) : "-", res.correct ? "ok" : "CORRUPT"});
    }
  }
  // Weighted row: tenant 0 has weight 3 in the fair queue, the rest 1.
  const Result skew = run(tenant_sweep.back(), pairs, load_sweep.back(), len, 3);
  t.add_row({"weighted w0=3", Table::num(skew.total_us), std::to_string(skew.jobs),
             std::to_string(skew.svc_min), std::to_string(skew.svc_max),
             skew.svc_min > 0 ? Table::num(static_cast<double>(skew.svc_max) /
                                           static_cast<double>(skew.svc_min))
                              : "-",
             skew.correct ? "ok" : "CORRUPT"});
  t.print(std::cout);

  bool all_correct = solo.correct && one.correct && skew.correct;
  std::uint64_t equal_jobs = 0;
  for (const Result& res : equal) {
    all_correct = all_correct && res.correct;
    equal_jobs += res.jobs;
  }
  bench::shape("every configuration completes with intact payloads", all_correct);
  bench::shape("an explicit 1-tenant world matches the implicit world's time",
               one.total_us == solo.total_us);
  bench::shape("equal-weight tenants split the shared worker's service evenly", fair_ok);
  bench::shape("every tenant makes progress under the weight skew (no starvation)",
               skew.svc_min > 0 && skew.jobs == equal.back().jobs);
  return 0;
}
