// Scale bench: a striped alltoall across a 4096-rank fat-tree fabric.
//
// The calendar-queue engine and the hierarchical fabric exist so the
// framework can be exercised past the tens-of-ranks regime of the paper
// benches; this binary is the proof. Every rank (one NIC per node) sends to
// every peer using the classic shifted-round stripe schedule — in round i
// rank r targets (r + i) % N, so each round is a perfect permutation and
// d-mod-k spreads the rounds across the spines — with a bounded window of
// in-flight messages per rank (delivery of one posts the next). That is the
// steady-state event shape the calendar band optimizes: a few hundred
// thousand deliveries pending at once, all within microseconds of the
// clock.
//
// Reported: simulated completion time, host wall-clock, and engine events/s
// (the figure EXPERIMENTS.md's scale-sweep table tracks). Wall-clock here
// is measurement of the simulator itself, not simulated time — this is a
// bench binary, outside the src/ wall-clock lint fence.
//
//   scale_alltoall                 full 4096-rank run
//   scale_alltoall --smoke         256 ranks (sanitized CI stage)
//   scale_alltoall --ranks=N --bytes=B --window=W --spines=S --leaf=L
//                                  --oversub=K
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "fabric/fabric.h"
#include "machine/spec.h"
#include "sim/engine.h"

namespace {

using namespace dpu;

struct Config {
  int ranks = 4096;
  std::size_t bytes = 4_KiB;  ///< per rank pair
  int window = 4;             ///< in-flight messages per rank
  int spines = 8;
  int leaf_radix = 32;
  double oversub = 2.0;
};

struct Result {
  SimTime virtual_end = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  double wall_sec = 0.0;
  bool completed = false;
};

Result run(const Config& c) {
  machine::ClusterSpec spec;
  spec.nodes = c.ranks;
  spec.host_procs_per_node = 1;
  spec.proxies_per_dpu = 0;
  spec.topology.spines = c.spines;
  spec.topology.leaf_radix = c.leaf_radix;
  spec.topology.oversubscription = c.oversub;

  sim::Engine eng;
  fabric::Fabric fab(eng, spec);

  // Per-rank stripe cursor: the next round to post. Round 0 is self.
  std::vector<int> round(static_cast<std::size_t>(c.ranks), 1);
  Result res;
  std::function<void(int)> post_next = [&](int r) {
    auto& rd = round[static_cast<std::size_t>(r)];
    if (rd >= c.ranks) return;
    const int dst = (r + rd) % c.ranks;
    ++rd;
    ++res.messages;
    fab.transfer(r, dst, c.bytes, [&post_next, r] { post_next(r); }, false, r);
  };
  for (int r = 0; r < c.ranks; ++r) {
    for (int w = 0; w < c.window && w < c.ranks - 1; ++w) post_next(r);
  }

  const auto wall0 = std::chrono::steady_clock::now();
  const auto outcome = eng.run();
  const auto wall1 = std::chrono::steady_clock::now();

  res.completed = outcome == sim::RunResult::kCompleted;
  res.virtual_end = eng.now();
  res.events = eng.events_executed();
  res.wall_sec = std::chrono::duration<double>(wall1 - wall0).count();
  return res;
}

long long arg_of(const char* a, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(a, key, n) != 0) return -1;
  return std::atoll(a + n);
}

}  // namespace

int main(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    long long v;
    if (std::strcmp(a, "--smoke") == 0) {
      c.ranks = 256;
      c.bytes = 2_KiB;
    } else if ((v = arg_of(a, "--ranks=")) >= 0) {
      c.ranks = static_cast<int>(v);
    } else if ((v = arg_of(a, "--bytes=")) >= 0) {
      c.bytes = static_cast<std::size_t>(v);
    } else if ((v = arg_of(a, "--window=")) >= 0) {
      c.window = static_cast<int>(v);
    } else if ((v = arg_of(a, "--spines=")) >= 0) {
      c.spines = static_cast<int>(v);
    } else if ((v = arg_of(a, "--leaf=")) >= 0) {
      c.leaf_radix = static_cast<int>(v);
    } else if ((v = arg_of(a, "--oversub=")) >= 0) {
      c.oversub = static_cast<double>(v);
    } else {
      std::cerr << "unknown arg: " << a << "\n";
      return 2;
    }
  }
  if (c.ranks <= c.leaf_radix) c.leaf_radix = c.ranks;  // single leaf for tiny runs

  std::cout << "==============================================================\n"
            << "scale_alltoall — striped alltoall on a k-ary fat-tree\n"
            << "ranks=" << c.ranks << " bytes/pair=" << c.bytes
            << " window=" << c.window << " spines=" << c.spines
            << " leaf_radix=" << c.leaf_radix << " oversub=" << c.oversub << ":1\n"
            << "==============================================================\n";

  const Result r = run(c);
  const double mev_s = r.wall_sec > 0 ? static_cast<double>(r.events) / r.wall_sec / 1e6 : 0;
  const double mmsg_s =
      r.wall_sec > 0 ? static_cast<double>(r.messages) / r.wall_sec / 1e6 : 0;

  Table t({"metric", "value"});
  t.add_row({"messages", std::to_string(r.messages)});
  t.add_row({"events executed", std::to_string(r.events)});
  t.add_row({"simulated time (ms)", Table::num(to_ms(r.virtual_end), 3)});
  t.add_row({"wall clock (s)", Table::num(r.wall_sec, 2)});
  t.add_row({"engine throughput (Mev/s)", Table::num(mev_s, 1)});
  t.add_row({"message throughput (Mmsg/s)", Table::num(mmsg_s, 2)});
  t.print(std::cout);

  const bool all_sent =
      r.messages == static_cast<std::uint64_t>(c.ranks) *
                        static_cast<std::uint64_t>(c.ranks - 1);
  std::cout << "PAPER-SHAPE: every rank pair transferred exactly once -> "
            << (r.completed && all_sent ? "HOLDS" : "VIOLATED") << "\n";
  return r.completed && all_sent ? 0 : 1;
}
