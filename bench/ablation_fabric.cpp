// Ablation: fabric oversubscription.
//
// The paper's testbed has a full-bisection InfiniBand fabric; production
// fat-trees are often 2:1 or 4:1 oversubscribed. This ablation asks whether
// the proposed framework's win over host MPI survives a congested core —
// it should: overlap matters *more* when communication is slower.
#include "common/check.h"
#include "bench/bench_common.h"
#include "common/bytes.h"
#include "offload/coll.h"

namespace {

using namespace dpu;
using harness::Rank;
using harness::World;

struct Point {
  double intel_overall_us = 0;
  double prop_overall_us = 0;
};

Point run(double oversub, int nodes, int ppn, std::size_t bpr) {
  auto measure = [&](bool proposed, SimDuration compute) {
    machine::ClusterSpec s = bench::spec_of(nodes, ppn);
    s.topology.oversubscription = oversub;
    s.topology.leaf_radix = 4;
    World w(s);
    double out = 0;
    auto prog = [&, proposed, bpr, compute](Rank& r) -> sim::Task<void> {
      const auto n = static_cast<std::size_t>(r.world->spec().total_host_ranks());
      const auto sbuf = r.mem().alloc(bpr * n, false);
      const auto rbuf = r.mem().alloc(bpr * n, false);
      offload::GroupAlltoall group(*r.off, *r.mpi);
      SimTime t0 = 0;
      for (int i = 0; i < 3; ++i) {
        if (i == 1) {
          co_await r.mpi->barrier(*r.world->mpi().world());
          t0 = r.world->now();
        }
        if (proposed) {
          auto q = co_await group.icall(sbuf, rbuf, bpr, r.world->mpi().world());
          if (compute > 0) co_await r.compute(compute);
          require(co_await group.wait(q) == offload::Status::kOk,
                  "offloaded op did not complete cleanly");
        } else {
          auto q = co_await r.mpi->ialltoall(sbuf, rbuf, bpr, *r.world->mpi().world());
          if (compute > 0) co_await r.compute(compute);
          co_await r.mpi->wait(q);
        }
      }
      if (r.rank == 0) out = to_us(r.world->now() - t0) / 2;
    };
    w.launch_all(prog);
    w.run();
    bench::emit_metrics(w, "ablation_fabric",
                        std::string(proposed ? "proposed" : "intel") + " oversub=" +
                            Table::num(oversub, 0) + (compute > 0 ? " overall" : " pure"));
    return out;
  };
  Point p;
  const double pure = measure(true, 0);
  p.prop_overall_us = measure(true, from_us(pure));
  p.intel_overall_us = measure(false, from_us(pure));
  return p;
}

}  // namespace

int main() {
  using namespace dpu;
  bench::header("Ablation: fabric oversubscription",
                "does the offload win survive a congested core?");
  const bool fast = bench::fast_mode();
  const int nodes = 8;
  const int ppn = fast ? 2 : 16;
  Table t({"oversubscription", "Intel overall (us)", "Proposed overall (us)", "benefit %"});
  bool wins_everywhere = true;
  for (double k : {1.0, 2.0, 4.0}) {
    const auto p = run(k, nodes, ppn, 64_KiB);
    const double benefit = 100.0 * (1.0 - p.prop_overall_us / p.intel_overall_us);
    wins_everywhere = wins_everywhere && p.prop_overall_us < p.intel_overall_us;
    t.add_row({Table::num(k, 0) + ":1", Table::num(p.intel_overall_us),
               Table::num(p.prop_overall_us), Table::num(benefit, 1)});
  }
  t.print(std::cout);
  bench::shape("the offload advantage survives core oversubscription", wins_everywhere);
  return 0;
}
