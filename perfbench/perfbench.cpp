// perfbench: the measurement program behind the repository benchmark
// (perfbench/run.py builds and drives it; perfbench/README.md records the
// workloads, the metrics and what each per-layer metric should move).
//
// One invocation runs one workload and prints one JSON object on stdout:
//   1. A correctness gate: a reduced instance (2 nodes x 4 ranks) with
//      byte-backed buffers in seeded patterns and the protocol checker armed,
//      run once untraced and once traced. Every received block is compared
//      byte for byte, check_final() must be clean, and the two runs must
//      agree on virt_digest.
//   2. Episodes at full scale until --seconds of host time is spent. Each
//      builds one harness::World and runs one warm-up iteration and the timed
//      iterations on the calling thread; every iteration starts at a world
//      barrier. Host wall-clock is read around construction, whenever rank 0
//      leaves a timed iteration's barrier and after World::run returns. At
//      each of these points, outside the timed stretches, a host-speed probe
//      (SpeedProbe) is timed; run.py scales every host time to the probe's
//      nominal speed.
//   3. With --trace 1 the episodes alternate untraced and traced. A traced
//      episode records one span per call the rank programs make into a layer
//      (offload, mpi, Rank::compute) under a harness.iter parent; the
//      per-layer metrics come from the first traced episode, whose spans are
//      written to --spans at exit.
//
// The seed shapes the inputs only: per-rank compute jitter for the two
// alltoalls and the post order of basic_exchange. The engine's
// tie_shuffle_seed is never set.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "harness/world.h"
#include "offload/coll.h"

namespace {

using namespace dpu;
using harness::Rank;
using harness::World;
using Clock = std::chrono::steady_clock;

enum class Workload { kGroupAlltoall, kBasicExchange, kMpiAlltoall };

struct Options {
  Workload workload = Workload::kGroupAlltoall;
  std::string workload_name = "group_alltoall";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< 2 nodes x 4 ranks instead of 4 x 8
  std::string spans_path;
};

/// Everything one World run needs to know; derived from Options.
struct Config {
  Workload workload = Workload::kGroupAlltoall;
  std::uint64_t seed = 1;
  int nodes = 4;
  int ppn = 8;
  int proxies = 8;
  int warm = 1;
  int iters = 32;  ///< 32 ranks x 32 iterations: 1024 samples, 10 above the p99
  std::size_t bpr = 0;
  SimDuration compute = 0;  ///< per-iteration compute before jitter
  double jitter = 0;        ///< compute varies uniformly by +-jitter
  bool backed = false;      ///< real bytes in seeded patterns, checked on receipt
  bool checked = false;     ///< protocol checker armed, check_final() at the end
  bool traced = false;
};

// ---- spans -------------------------------------------------------------------

enum SpanKind : std::uint8_t {
  kIter,
  kOffloadPost,
  kOffloadWait,
  kMpiPost,
  kMpiWait,
  kMpiBarrier,
  kCompute,
  kNumSpanKinds
};
constexpr const char* kSpanNames[kNumSpanKinds] = {
    "harness.iter", "offload.post", "offload.wait",   "mpi.post",
    "mpi.wait",     "mpi.barrier",  "harness.compute"};

/// One call into a layer. The op id is (workload, rank, iter); the workload
/// is the same for every span of a run and is written once per file.
struct Span {
  SpanKind kind = kIter;
  int rank = 0;
  int iter = 0;
  std::int64_t parent = -1;  ///< index into the episode's span vector
  SimTime v0 = 0;
  SimTime v1 = 0;
  std::int64_t h0 = 0;  ///< host ns since the episode started
  std::int64_t h1 = 0;
};

/// Per rank and iteration virtual stamps; recorded with tracing on or off.
struct IterRecord {
  SimTime start = 0;  ///< first post
  SimTime end = 0;    ///< completed wait
  SimDuration wait = 0;
  SimDuration compute = 0;
};

// ---- registry counters, summed over the layer's instances --------------------

struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t fab_msgs = 0;
  std::uint64_t fab_bytes = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t host_gvmi_hits = 0;
  std::uint64_t host_gvmi_misses = 0;
  std::uint64_t host_ib_misses = 0;
  std::uint64_t dpu_gvmi_hits = 0;
  std::uint64_t dpu_gvmi_misses = 0;
  std::uint64_t group_hits = 0;
  std::uint64_t group_misses = 0;
  std::uint64_t tmpl_hits = 0;
  std::uint64_t tmpl_misses = 0;
  std::uint64_t basic_pairs = 0;
  std::uint64_t group_jobs = 0;
  std::uint64_t credit_gated = 0;
  std::uint64_t retries = 0;
  std::uint64_t dup_dropped = 0;
  std::uint64_t mpi_reg_hits = 0;
  std::uint64_t mpi_reg_misses = 0;
};

struct CounterSum {
  std::string_view prefix;  ///< followed by an instance number and '.'
  std::string_view field;
  std::uint64_t LayerCounts::*slot;
};

constexpr CounterSum kCounterSums[] = {
    {"fabric.node", "messages_tx", &LayerCounts::fab_msgs},
    {"fabric.node", "bytes_tx", &LayerCounts::fab_bytes},
    {"offload.host", "ctrl_msgs_sent", &LayerCounts::ctrl_msgs},
    {"offload.host", "gvmi_cache.hits", &LayerCounts::host_gvmi_hits},
    {"offload.host", "gvmi_cache.misses", &LayerCounts::host_gvmi_misses},
    {"offload.host", "ib_cache.misses", &LayerCounts::host_ib_misses},
    {"offload.host", "group_cache.hits", &LayerCounts::group_hits},
    {"offload.host", "group_cache.misses", &LayerCounts::group_misses},
    {"offload.host", "retries", &LayerCounts::retries},
    {"offload.host", "dup_dropped", &LayerCounts::dup_dropped},
    {"offload.proxy", "gvmi_cache.hits", &LayerCounts::dpu_gvmi_hits},
    {"offload.proxy", "gvmi_cache.misses", &LayerCounts::dpu_gvmi_misses},
    {"offload.proxy", "group_cache.hits", &LayerCounts::tmpl_hits},
    {"offload.proxy", "group_cache.misses", &LayerCounts::tmpl_misses},
    {"offload.proxy", "basic_pairs_completed", &LayerCounts::basic_pairs},
    {"offload.proxy", "group_jobs_completed", &LayerCounts::group_jobs},
    {"offload.proxy", "credit_gated", &LayerCounts::credit_gated},
    {"offload.proxy", "retries", &LayerCounts::retries},
    {"offload.proxy", "dup_dropped", &LayerCounts::dup_dropped},
    {"mpi.rank", "reg_cache.hits", &LayerCounts::mpi_reg_hits},
    {"mpi.rank", "reg_cache.misses", &LayerCounts::mpi_reg_misses},
};

/// The part of `name` after "<prefix><digits>.", or an empty view.
std::string_view field_of(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return {};
  std::size_t i = prefix.size();
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
  if (i == prefix.size() || i >= name.size() || name[i] != '.') return {};
  return name.substr(i + 1);
}

LayerCounts read_counts(sim::Engine& eng) {
  LayerCounts c;
  c.events = eng.events_executed();
  eng.metrics().for_each_counter([&c](const std::string& name, std::uint64_t v) {
    for (const auto& s : kCounterSums) {
      if (field_of(name, s.prefix) == s.field) c.*(s.slot) += v;
    }
  });
  return c;
}

LayerCounts minus(const LayerCounts& a, const LayerCounts& b) {
  LayerCounts d = a;
  d.events -= b.events;
  for (const auto& s : kCounterSums) d.*(s.slot) = a.*(s.slot) - b.*(s.slot);
  return d;
}

// ---- virt_digest ---------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a over every rank's iteration end times plus all fabric.* and
/// offload.* counters: equal digests mean the model produced the same run.
std::string virt_digest(const std::vector<IterRecord>& recs, sim::Engine& eng) {
  std::uint64_t h = kFnvOffset;
  for (const auto& r : recs) fnv(h, &r.end, sizeof r.end);
  eng.metrics().for_each_counter([&h](const std::string& name, std::uint64_t v) {
    if (!name.starts_with("fabric.") && !name.starts_with("offload.")) return;
    fnv(h, name.data(), name.size());
    fnv(h, &v, sizeof v);
  });
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---- host-speed probe ---------------------------------------------------------

/// A random pointer chase over 256 KiB, read in full just before it is
/// timed, so it runs from the core's L2 whatever the simulator left in the
/// caches. On a shared host, neighbours on the same core or cache slow it
/// down together with the simulator: its time is the host's speed at that
/// moment, independent of the program under test.
class SpeedProbe {
 public:
  SpeedProbe() : next_(kEntries) {
    std::vector<std::uint32_t> order(kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i) order[i] = i;
    Rng rng(1);
    for (std::size_t i = kEntries - 1; i > 1; --i) std::swap(order[i], order[1 + rng.below(i)]);
    for (std::size_t i = 0; i < kEntries; ++i) next_[order[i]] = order[(i + 1) % kEntries];
  }

  /// Host seconds of one timed chase.
  double time_s() {
    std::uint64_t touched = 0;
    for (std::size_t i = 0; i < kEntries; i += 16) touched += next_[i];
    const auto t = Clock::now();
    std::uint32_t at = at_;
    for (int i = 0; i < kSteps; ++i) at = next_[at];
    const double s = std::chrono::duration<double>(Clock::now() - t).count();
    at_ = at;
    sink_ = sink_ + touched;  // keeps the untimed read from being optimised out
    return s;
  }

 private:
  static constexpr std::uint32_t kEntries = (256u << 10) / sizeof(std::uint32_t);
  static constexpr int kSteps = 50000;
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
  volatile std::uint64_t sink_ = 0;
};

// ---- one World run ---------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  std::uint64_t s = a;
  for (std::uint64_t x : {b, c, d}) {
    s ^= x + 0x9E3779B97f4A7C15ull + (s << 6) + (s >> 2);
    s = splitmix64(s);
  }
  return s;
}

/// Pattern stream of the block rank `src` sends to rank `dst` in `iter`.
std::uint64_t block_seed(const Config& c, int iter, int src, int dst) {
  return mix(c.seed, static_cast<std::uint64_t>(iter), static_cast<std::uint64_t>(src),
             static_cast<std::uint64_t>(dst));
}

struct Episode {
  Config cfg;
  Clock::time_point t0;
  std::vector<IterRecord> recs;  ///< rank-major, warm-up iterations included
  std::vector<Span> spans;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  // Rank 0 leaving each timed iteration's barrier; the first marks the end
  // of setup and the start of the timed phase.
  std::vector<Clock::time_point> t_iters;
  SpeedProbe* probe = nullptr;
  /// Probe times: before construction, at every timed barrier, after the run.
  std::vector<double> probe_s;
  std::vector<double> probing_s;  ///< host time the probe took at t_iters[i]
  SimTime v_timed = 0;
  LayerCounts at_timed;
  // Results, filled in by run_episode.
  double construct_s = 0;
  double warmup_s = 0;
  double timed_s = 0;
  std::vector<double> iter_s;  ///< host time of each timed iteration
  std::string digest;
  std::string failure;  ///< non-empty when the run threw or the checker objected
  LayerCounts total;    ///< whole run
  LayerCounts timed;    ///< timed phase only

  int iters_total() const { return cfg.warm + cfg.iters; }
  IterRecord& rec(int rank, int it) {
    return recs[static_cast<std::size_t>(rank * iters_total() + it)];
  }
  /// True when recs[i] belongs to a timed (not warm-up) iteration.
  bool timed_rec(std::size_t i) const {
    return static_cast<int>(i % static_cast<std::size_t>(iters_total())) >= cfg.warm;
  }
  /// Times the probe at t_iters.back(), outside the iteration it ends.
  void probe_here() {
    const auto t = Clock::now();
    probe_s.push_back(probe->time_s());
    probing_s.push_back(seconds_between(t, Clock::now()));
  }

  std::int64_t host_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
  }

  std::int64_t open(SpanKind k, const Rank& r, int it, std::int64_t parent) {
    if (!cfg.traced) return -1;
    Span s;
    s.kind = k;
    s.rank = r.rank;
    s.iter = it;
    s.parent = parent;
    s.v0 = r.world->now();
    s.h0 = host_ns();
    spans.push_back(s);
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
  void close(std::int64_t idx, const Rank& r) {
    if (idx < 0) return;
    auto& s = spans[static_cast<std::size_t>(idx)];
    s.v1 = r.world->now();
    s.h1 = host_ns();
  }

  SimDuration compute_for(int rank, int it) const {
    if (cfg.compute == 0) return 0;
    Rng rng(mix(cfg.seed, 0xC0u, static_cast<std::uint64_t>(rank),
                static_cast<std::uint64_t>(it)));
    const double f = 1.0 + cfg.jitter * (2.0 * rng.uniform() - 1.0);
    return static_cast<SimDuration>(std::llround(static_cast<double>(cfg.compute) * f));
  }
};

sim::Task<void> compute_phase(Episode& ep, Rank& r, int it, std::int64_t parent) {
  const SimDuration d = ep.compute_for(r.rank, it);
  ep.rec(r.rank, it).compute = d;
  if (d == 0) co_return;
  const auto s = ep.open(kCompute, r, it, parent);
  co_await r.compute(d);
  ep.close(s, r);
}

sim::Task<void> rank_main(Episode* ep_ptr, Rank& r) {
  Episode& ep = *ep_ptr;
  const Config& c = ep.cfg;
  const int n = r.world->spec().total_host_ranks();
  const int me = r.rank;
  const auto nn = static_cast<std::size_t>(n);
  const auto block = [&c](machine::Addr base, int i) {
    return base + static_cast<machine::Addr>(i) * c.bpr;
  };
  const auto sbuf = r.mem().alloc(c.bpr * nn, c.backed);
  const auto rbuf = r.mem().alloc(c.bpr * nn, c.backed);
  const auto comm = r.world->mpi().world();
  offload::GroupAlltoall group(*r.off, *r.mpi);
  std::vector<int> peers;
  for (int i = 1; i < n; ++i) peers.push_back((me + i) % n);
  std::vector<offload::OffloadReqPtr> reqs;

  for (int it = 0; it < ep.iters_total(); ++it) {
    if (c.backed) {
      for (int d = 0; d < n; ++d) {
        r.mem().write(block(sbuf, d), pattern_bytes(block_seed(c, it, me, d), c.bpr));
      }
    }
    // Every iteration starts at a world barrier, so nobody posts before all
    // ranks finished (and checked) the previous one. Recorded group receive
    // buffers stay posted across calls: without it, a peer an iteration
    // ahead could overwrite a block before its receiver read it.
    const auto iter_span = ep.open(kIter, r, it, -1);
    auto s = ep.open(kMpiBarrier, r, it, iter_span);
    co_await r.mpi->barrier(*comm);
    ep.close(s, r);
    if (it == c.warm && me == 0) {
      ep.v_timed = r.world->now();
      ep.at_timed = read_counts(r.world->engine());
    }
    if (it >= c.warm && me == 0) {
      ep.t_iters.push_back(Clock::now());
      ep.probe_here();
    }
    IterRecord& rec = ep.rec(me, it);
    rec.start = r.world->now();
    std::uint64_t bad = 0;
    SimTime w0 = 0;
    switch (c.workload) {
      case Workload::kGroupAlltoall: {
        s = ep.open(kOffloadPost, r, it, iter_span);
        auto h = co_await group.icall(sbuf, rbuf, c.bpr, comm);
        ep.close(s, r);
        co_await compute_phase(ep, r, it, iter_span);
        s = ep.open(kOffloadWait, r, it, iter_span);
        w0 = r.world->now();
        const offload::Status st = co_await group.wait(h);
        ep.close(s, r);
        ep.ops += 1;
        bad += st != offload::Status::kOk ? 1 : 0;
        break;
      }
      case Workload::kMpiAlltoall: {
        s = ep.open(kMpiPost, r, it, iter_span);
        auto q = co_await r.mpi->ialltoall(sbuf, rbuf, c.bpr, *comm);
        ep.close(s, r);
        co_await compute_phase(ep, r, it, iter_span);
        s = ep.open(kMpiWait, r, it, iter_span);
        w0 = r.world->now();
        co_await r.mpi->wait(q);
        ep.close(s, r);
        ep.ops += 1;
        break;
      }
      case Workload::kBasicExchange: {
        // Seeded post order: a fresh permutation of the peers per iteration.
        Rng rng(mix(c.seed, 0xB0u, static_cast<std::uint64_t>(me),
                    static_cast<std::uint64_t>(it)));
        for (std::size_t i = peers.size(); i > 1; --i) {
          std::swap(peers[i - 1], peers[rng.below(i)]);
        }
        reqs.clear();
        for (int p : peers) {
          s = ep.open(kOffloadPost, r, it, iter_span);
          reqs.push_back(co_await r.off->recv_offload(block(rbuf, p), c.bpr, p, 0));
          ep.close(s, r);
          s = ep.open(kOffloadPost, r, it, iter_span);
          reqs.push_back(co_await r.off->send_offload(block(sbuf, p), c.bpr, p, 0));
          ep.close(s, r);
        }
        co_await compute_phase(ep, r, it, iter_span);
        s = ep.open(kOffloadWait, r, it, iter_span);
        w0 = r.world->now();
        const offload::Status st = co_await r.off->waitall(reqs);
        ep.close(s, r);
        ep.ops += reqs.size();
        if (st != offload::Status::kOk) bad += reqs.size();
        break;
      }
    }
    rec.end = r.world->now();
    rec.wait = rec.end - w0;
    if (c.backed) {
      // The own block travels too (alltoall local copy); basic_exchange
      // leaves it untouched.
      std::uint64_t mismatched = 0;
      for (int src = 0; src < n; ++src) {
        if (src == me && c.workload == Workload::kBasicExchange) continue;
        if (!check_pattern(r.mem().read(block(rbuf, src), c.bpr),
                           block_seed(c, it, src, me))) {
          ++mismatched;
        }
      }
      // One alltoall call is one op; each basic receive is its own op.
      bad += c.workload == Workload::kBasicExchange ? mismatched : std::min<std::uint64_t>(
                                                                       mismatched, 1);
    }
    ep.failed += bad;
    ep.close(iter_span, r);
  }
}

machine::ClusterSpec spec_of(const Config& c) {
  machine::ClusterSpec s;
  s.nodes = c.nodes;
  s.host_procs_per_node = c.ppn;
  s.proxies_per_dpu = c.proxies;
  return s;
}

Episode run_episode(const Config& cfg, SpeedProbe& probe) {
  Episode ep;
  ep.cfg = cfg;
  ep.probe = &probe;
  ep.recs.resize(static_cast<std::size_t>(cfg.nodes * cfg.ppn * ep.iters_total()));
  ep.probe_s.push_back(probe.time_s());
  ep.t0 = Clock::now();
  try {
    World w(spec_of(cfg));
    const auto t_built = Clock::now();
    if (cfg.checked) w.enable_checker();
    w.launch_all([p = &ep](Rank& r) -> sim::Task<void> { return rank_main(p, r); });
    w.run();
    const auto t_end = Clock::now();
    ep.construct_s = seconds_between(ep.t0, t_built);
    ep.warmup_s = seconds_between(t_built, ep.t_iters.front());
    ep.t_iters.push_back(t_end);
    ep.probe_here();
    for (std::size_t i = 1; i < ep.t_iters.size(); ++i) {
      ep.iter_s.push_back(seconds_between(ep.t_iters[i - 1], ep.t_iters[i]) -
                          ep.probing_s[i - 1]);
      ep.timed_s += ep.iter_s.back();
    }
    if (auto* chk = w.checker()) {
      chk->check_final();
      if (!chk->ok()) ep.failure = chk->report();
    }
    ep.total = read_counts(w.engine());
    ep.timed = minus(ep.total, ep.at_timed);
    ep.digest = virt_digest(ep.recs, w.engine());
  } catch (const std::exception& e) {
    ep.failure = e.what();
  }
  if (!ep.failure.empty()) ++ep.failed;
  return ep;
}

// ---- statistics and metrics ------------------------------------------------------

/// Nearest-rank quantile: the ceil(q*n)-th smallest sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto k = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return v[std::min(k, v.size()) - 1];
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Virtual end-to-end metrics over the timed iterations of every rank.
std::vector<Metric> virtual_metrics(const Episode& e, std::size_t* samples) {
  std::vector<double> iter_us;
  std::vector<double> wait_us;
  for (std::size_t i = 0; i < e.recs.size(); ++i) {
    if (!e.timed_rec(i)) continue;
    iter_us.push_back(to_us(e.recs[i].end - e.recs[i].start));
    wait_us.push_back(to_us(e.recs[i].wait));
  }
  *samples = iter_us.size();
  return {{"virt_iter_us_p50", quantile(iter_us, 0.5), "us"},
          {"virt_iter_us_p99", quantile(iter_us, 0.99), "us"},
          {"wait_us_p50", quantile(wait_us, 0.5), "us"}};
}

/// Per-layer metrics of one traced episode (host-derived ones are added by
/// run.py, which sees every episode).
std::vector<Metric> layer_metrics(const Episode& e) {
  std::vector<double> off_post;
  std::vector<double> mpi_post;
  std::uint64_t off_ops = 0;
  for (const auto& s : e.spans) {
    if (s.iter < e.cfg.warm) continue;
    if (s.kind == kOffloadPost) {
      off_post.push_back(to_us(s.v1 - s.v0));
      ++off_ops;
    }
    if (s.kind == kMpiPost) mpi_post.push_back(to_us(s.v1 - s.v0));
  }
  double compute_us = 0;
  SimTime v_end = e.v_timed;
  std::size_t timed = 0;
  for (std::size_t i = 0; i < e.recs.size(); ++i) {
    if (!e.timed_rec(i)) continue;
    compute_us += to_us(e.recs[i].compute);
    v_end = std::max(v_end, e.recs[i].end);
    ++timed;
  }
  const auto& t = e.timed;
  const auto& all = e.total;
  const double span_ns = to_ns(v_end - e.v_timed);
  return {
      {"sim.events", static_cast<double>(t.events), "count"},
      {"sim.events_per_msg", ratio(t.events, t.fab_msgs), "ratio"},
      {"fabric.messages", static_cast<double>(t.fab_msgs), "count"},
      {"fabric.bytes", static_cast<double>(t.fab_bytes), "B"},
      {"fabric.gbps", span_ns > 0 ? 8.0 * static_cast<double>(t.fab_bytes) / span_ns : 0.0,
       "Gbit/s"},
      {"verbs.host_regs", static_cast<double>(all.host_gvmi_misses + all.host_ib_misses),
       "count"},
      {"verbs.cross_regs", static_cast<double>(all.dpu_gvmi_misses), "count"},
      {"offload.ctrl_msgs", static_cast<double>(t.ctrl_msgs), "count"},
      {"offload.ctrl_msgs_per_op", ratio(t.ctrl_msgs, off_ops), "ratio"},
      {"offload.post_us_p50", quantile(off_post, 0.5), "us"},
      {"offload.group_cache_hit_ratio", ratio(t.group_hits, t.group_hits + t.group_misses),
       "ratio"},
      {"offload.template_hit_ratio", ratio(t.tmpl_hits, t.tmpl_hits + t.tmpl_misses), "ratio"},
      {"offload.host_gvmi_hit_ratio",
       ratio(t.host_gvmi_hits, t.host_gvmi_hits + t.host_gvmi_misses), "ratio"},
      {"offload.dpu_gvmi_hit_ratio", ratio(t.dpu_gvmi_hits, t.dpu_gvmi_hits + t.dpu_gvmi_misses),
       "ratio"},
      {"offload.basic_pairs", static_cast<double>(t.basic_pairs), "count"},
      {"offload.group_jobs", static_cast<double>(t.group_jobs), "count"},
      {"offload.credit_gated", static_cast<double>(t.credit_gated), "count"},
      {"offload.retries", static_cast<double>(t.retries), "count"},
      {"offload.dup_dropped", static_cast<double>(t.dup_dropped), "count"},
      {"mpi.post_us_p50", quantile(mpi_post, 0.5), "us"},
      {"mpi.reg_hit_ratio", ratio(t.mpi_reg_hits, t.mpi_reg_hits + t.mpi_reg_misses), "ratio"},
      {"harness.compute_us", timed == 0 ? 0.0 : compute_us / static_cast<double>(timed), "us"},
  };
}

void write_spans(const Options& o, const std::vector<Span>& spans) {
  const std::string& workload = o.workload_name;
  std::ofstream os(o.spans_path);
  os << "# workload=" << workload << " seed=" << o.seed << "; virtual times in ps, host "
     << "times in ns since the episode started; parent is a 0-based line index among the "
     << "span lines\n"
     << "name,workload,rank,iter,parent,v_start,v_end,h_start,h_end\n";
  for (const auto& s : spans) {
    os << kSpanNames[s.kind] << ',' << workload << ',' << s.rank << ',' << s.iter << ','
       << s.parent << ',' << s.v0 << ',' << s.v1 << ',' << s.h0 << ',' << s.h1 << '\n';
  }
  if (!os) throw std::runtime_error("cannot write spans to " + o.spans_path);
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void write_metrics(std::ostream& os, const std::vector<Metric>& ms) {
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << json_str(ms[i].name) << ": {\"value\": " << json_num(ms[i].value)
       << ", \"unit\": " << json_str(ms[i].unit) << '}';
  }
  os << '}';
}

// ---- command line and main ---------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload group_alltoall|basic_exchange|mpi_alltoall\n"
            << "                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
            << "                 [--spans FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload_name = v;
        have_workload = true;
        if (v == "group_alltoall") {
          o.workload = Workload::kGroupAlltoall;
        } else if (v == "basic_exchange") {
          o.workload = Workload::kBasicExchange;
        } else if (v == "mpi_alltoall") {
          o.workload = Workload::kMpiAlltoall;
        } else {
          usage("unknown workload " + v);
        }
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v == "1";
      } else if (a == "--spans") {
        o.spans_path = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

Config smoke_scale(Config c) {
  c.nodes = 2;
  c.ppn = 4;
  c.proxies = 4;
  return c;
}

Config config_of(const Options& o) {
  Config c;
  c.workload = o.workload;
  c.seed = o.seed;
  if (o.smoke) c = smoke_scale(c);
  if (o.workload == Workload::kBasicExchange) {
    c.bpr = 8_KiB;
  } else {
    c.bpr = 128_KiB;
    c.compute = 1_ms;
    c.jitter = 0.4;
  }
  return c;
}

/// The reduced, byte-checked instance run before any timing.
Config gate_of(Config c) {
  c = smoke_scale(c);
  c.iters = 2;
  c.backed = true;
  c.checked = true;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Config cfg = config_of(opt);
  // The whole run stays on the CPU it started on. On a shared guest the
  // vCPUs run at different speeds, and a migration also leaves L1 and L2
  // cold; both moved the host times by 10-15% from run to run.
  if (const int cpu = sched_getcpu(); cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  SpeedProbe probe;
  std::vector<std::string> errors;

  // 1. Correctness gate, untraced then traced.
  Config gate = gate_of(cfg);
  const Episode g0 = run_episode(gate, probe);
  gate.traced = true;
  const Episode g1 = run_episode(gate, probe);
  for (const auto* g : {&g0, &g1}) {
    if (!g->failure.empty()) errors.push_back("gate: " + g->failure);
  }
  if (g0.digest != g1.digest) errors.push_back("gate: traced and untraced virt_digest differ");
  std::uint64_t attempted = g0.ops + g1.ops;
  std::uint64_t failed = g0.failed + g1.failed;

  // 2./3. Timed episodes until the host-time budget is spent.
  std::vector<Episode> eps;
  const auto start = Clock::now();
  double longest = 0;
  for (int i = 0;; ++i) {
    const double used = seconds_between(start, Clock::now());
    const int have = static_cast<int>(eps.size());
    // Enough for a median of setups, or one untraced/traced pair.
    const bool enough = opt.trace ? have >= 2 && have % 2 == 0 : have >= 3;
    if (enough && used + longest > opt.seconds) break;
    Config c = cfg;
    c.traced = opt.trace && i % 2 == 1;
    const auto t = Clock::now();
    eps.push_back(run_episode(c, probe));
    longest = std::max(longest, seconds_between(t, Clock::now()));
    auto& e = eps.back();
    // Only the first traced episode's spans are kept; later ones exist to
    // time the recording.
    if (c.traced && i > 1) e.spans = {};
    attempted += e.ops;
    failed += e.failed;
    if (!e.failure.empty()) {
      errors.push_back("episode " + std::to_string(i) + ": " + e.failure);
      break;
    }
    if (e.digest != eps.front().digest) {
      errors.push_back("episode " + std::to_string(i) + ": virt_digest " + e.digest +
                       " differs from episode 0's " + eps.front().digest);
    }
  }
  if (failed > 0 && errors.empty()) errors.push_back(std::to_string(failed) + " ops failed");

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::size_t samples = 0;
  const auto virt = virtual_metrics(eps.front(), &samples);
  const Episode* traced = nullptr;
  for (const auto& e : eps) {
    if (e.cfg.traced && traced == nullptr) traced = &e;
  }
  if (traced != nullptr && !opt.spans_path.empty() && traced->failure.empty()) {
    try {
      write_spans(opt, traced->spans);
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    }
  }

  std::ostream& os = std::cout;
  os << "{\"workload\": " << json_str(opt.workload_name) << ", \"seed\": " << opt.seed
     << ", \"ranks\": " << cfg.nodes * cfg.ppn << ", \"timed_iters\": " << cfg.iters
     << ",\n \"build\": {\"compiler\": " << json_str(__VERSION__)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE) << ", \"optimized\": "
#ifdef __OPTIMIZE__
     << "true"
#else
     << "false"
#endif
     << "},\n \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"gate_digest\": " << json_str(g0.digest) << ",\n \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) os << (i ? ", " : "") << json_str(errors[i]);
  os << "],\n \"peak_rss_mb\": " << json_num(peak_rss_mb) << ", \"samples\": " << samples
     << ",\n \"episodes\": [";
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const auto& e = eps[i];
    os << (i ? ",\n   " : "\n   ") << "{\"traced\": " << (e.cfg.traced ? "true" : "false")
       << ", \"construct_s\": " << json_num(e.construct_s)
       << ", \"warmup_s\": " << json_num(e.warmup_s) << ", \"timed_s\": " << json_num(e.timed_s)
       << ", \"iter_s\": [";
    for (std::size_t k = 0; k < e.iter_s.size(); ++k) {
      os << (k ? ", " : "") << json_num(e.iter_s[k]);
    }
    os << "], \"probe_s\": [";
    for (std::size_t k = 0; k < e.probe_s.size(); ++k) {
      os << (k ? ", " : "") << json_num(e.probe_s[k]);
    }
    os << ']'
       << ", \"timed_events\": " << e.timed.events << ", \"digest\": " << json_str(e.digest)
       << '}';
  }
  os << "],\n \"virtual\": ";
  write_metrics(os, virt);
  if (traced != nullptr) {
    os << ",\n \"layers\": ";
    write_metrics(os, layer_metrics(*traced));
  }
  os << "}\n";
  return errors.empty() ? 0 : 1;
}
