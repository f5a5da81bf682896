#include "harness/world.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace dpu::harness {

World::World(machine::ClusterSpec spec, bool with_offload) : spec_(spec) {
  // DPU_CHECK=1 arms the protocol-invariant checker on every World — the
  // whole existing test suite then runs under online validation for free.
  if (const char* e = std::getenv("DPU_CHECK"); e != nullptr && *e != '\0') {
    enable_checker();
  }
  fab_ = std::make_unique<fabric::Fabric>(eng_, spec_);
  vrt_ = std::make_unique<verbs::Runtime>(eng_, spec_, *fab_);
  mpi_ = std::make_unique<mpi::MpiWorld>(*vrt_);
  if (with_offload) {
    off_ = std::make_unique<offload::OffloadRuntime>(*vrt_);
    // Graceful-degradation path: a confirmed-dead proxy's in-flight work is
    // re-executed on the host-driven minimpi path.
    off_->set_mpi(mpi_.get());
    off_->start();
    blues_ = std::make_unique<baselines::BluesMpi>(*vrt_);
    blues_->start();
  }
}

sim::Task<void> World::invoke(RankProgram prog, Rank rank_ctx) {
  co_await prog(rank_ctx);
}

void World::launch(int rank, RankProgram prog) {
  require(spec_.is_host(rank), "launch target must be a host rank");
  Rank ctx;
  ctx.world = this;
  ctx.rank = rank;
  ctx.mpi = &mpi_->ctx(rank);
  ctx.off = off_ ? &off_->endpoint(rank) : nullptr;
  ctx.blues = blues_ ? &blues_->endpoint(rank) : nullptr;
  ctx.vctx = &vrt_->ctx(rank);
  if (spec_.multi_tenant()) {
    ctx.tenant = spec_.tenant_of_host(rank);
    const auto& ranks = spec_.tenants[static_cast<std::size_t>(ctx.tenant)].ranks;
    ctx.tenant_size = static_cast<int>(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] == rank) ctx.tenant_rank = static_cast<int>(i);
    }
  }
  launched_.push_back(eng_.spawn(invoke(std::move(prog), ctx), "rank" + std::to_string(rank)));
}

void World::launch_all(RankProgram prog) {
  for (int r = 0; r < spec_.total_host_ranks(); ++r) launch(r, prog);
}

void World::launch_tenant(int tenant, RankProgram prog) {
  require(spec_.multi_tenant(), "launch_tenant needs a multi-tenant spec");
  require(tenant >= 0 && tenant < spec_.num_tenants(), "launch_tenant: no such tenant");
  for (int r : spec_.tenants[static_cast<std::size_t>(tenant)].ranks) launch(r, prog);
}

std::string World::stats_summary() const {
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_msgs = 0;
  for (int n = 0; n < spec_.nodes; ++n) {
    wire_bytes += fab_->stats(n).bytes_tx;
    wire_msgs += fab_->stats(n).messages_tx;
  }
  std::uint64_t gvmi_hits = 0;
  std::uint64_t gvmi_misses = 0;
  std::uint64_t group_hits = 0;
  std::uint64_t group_misses = 0;
  if (off_) {
    for (int r = 0; r < spec_.total_host_ranks(); ++r) {
      auto& ep = const_cast<offload::OffloadRuntime&>(*off_).endpoint(r);
      gvmi_hits += ep.gvmi_cache().stats().hits;
      gvmi_misses += ep.gvmi_cache().stats().misses;
      group_hits += ep.group_cache_hits();
      group_misses += ep.group_cache_misses();
    }
  }
  std::ostringstream os;
  os << "fabric: " << wire_msgs << " messages, " << wire_bytes << " bytes; host GVMI cache "
     << gvmi_hits << " hits / " << gvmi_misses << " misses; group cache " << group_hits
     << " hits / " << group_misses << " misses; simulated time " << to_us(eng_.now())
     << " us; events " << eng_.events_executed();
  return os.str();
}

void World::run() {
  const sim::RunResult result = eng_.run();
  std::string stuck;
  for (const auto& h : launched_) {
    h.rethrow();
    if (!h.done()) stuck += (stuck.empty() ? "" : ", ") + h.name();
  }
  if (!stuck.empty()) {
    // Deadlock diagnostics: name every live engine process, not just the
    // launched rank programs, so a hung proxy is visible in the failure.
    std::string live;
    for (const auto& n : eng_.live_process_names()) live += (live.empty() ? "" : ", ") + n;
    sim_expect(false, "rank programs deadlocked: " + stuck +
                          (result == sim::RunResult::kDeadlock
                               ? "; live processes: " + live
                               : ""));
  }
  // Online invariant violations fail the run loudly (they indicate protocol
  // bugs even when every rank program "finished"). check_final() is NOT run
  // here: fault-injected workloads legitimately end with abandoned state.
  if (checker_ && !checker_->ok()) {
    throw analysis::InvariantViolation(checker_->report());
  }
}

std::string World::metrics_json() {
  auto& reg = eng_.metrics();
  reg.set_gauge("sim.now_us", to_us(eng_.now()));
  return reg.to_json();
}

}  // namespace dpu::harness
