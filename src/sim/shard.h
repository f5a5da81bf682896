// Sharded conservative-parallel execution of event islands.
//
// A ShardScheduler owns N independent sim::Engine instances ("islands") and
// advances them in conservative epochs: every epoch covers the virtual
// window [B, B + L) where B is the global minimum next-event time across
// all islands (event-driven barrier advance — idle stretches are skipped
// wholesale) and L is the lookahead. Islands interact only through Mail —
// trivially-copyable records posted during an epoch and exchanged at the
// epoch barrier. The lookahead discipline is the classic CMB bound: mail
// posted while executing an event at virtual time u must carry
// time >= u + L, hence >= B + L, hence lands strictly beyond the epoch that
// produced it. The scheduler enforces this with a hard require() at post().
//
// Determinism and partition invariance: the epoch window sequence depends
// only on the global multiset of pending events and mail, which evolves
// identically for any island count (same events, same mail, same handlers).
// Routing is zero-copy and unsorted (batches swap wholesale and arrive per
// source island, in post order); the model's handler re-establishes the
// canonical mailbox key order (time, src_key, stamp) — src_key identifies
// the logical producer (e.g. source node) and stamp is its program-order
// counter, so the canonical order never depends on which island produced a
// record or on thread interleaving. A model whose handlers are
// island-confined, whose processing follows that canonical order, and
// whose same-instant effects are canonically arbitrated (see
// fabric::ShardFabric) therefore produces byte-identical results for 1, 2,
// or N islands, sequential or threaded — which is what tests/shard_test.cpp
// certifies against the PR-5 digest matrix.
//
// Threading: islands run on a persistent worker pool when parallel mode is
// on (default: auto-enabled when the host has >1 hardware thread). All
// shared state hands off through one mutex at epoch boundaries; during an
// epoch each worker touches only its own island. Sequential mode drives
// islands in index order on the calling thread and produces the identical
// virtual outcome by construction. This file (with shard.cpp) is the only
// place in the tree allowed to use raw threading primitives — see the
// `thread` rule in tools/dpulint.
#pragma once

#include <condition_variable>  // lint: thread ok: shard scheduler owns the worker pool
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>  // lint: thread ok: shard scheduler owns the worker pool
#include <string>
#include <thread>  // lint: thread ok: shard scheduler owns the worker pool
#include <vector>

#include "common/metrics.h"
#include "common/units.h"
#include "sim/engine.h"

namespace dpu::sim {

/// Cross-island message: a POD record, never a closure — nothing
/// type-erased or heap-owned crosses an island boundary. Payload words are
/// model-defined (the shard fabric packs node ids, byte counts, port
/// clocks and callback-slot indices into them).
struct Mail {
  SimTime time = 0;        ///< virtual arrival time; must respect the lookahead
  std::uint32_t kind = 0;  ///< model-defined discriminator
  std::uint32_t src_key = 0;  ///< canonical producer id (e.g. source node)
  std::uint64_t stamp = 0;    ///< per-src_key program-order counter
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
};
static_assert(std::is_trivially_copyable_v<Mail>);

/// Canonical mailbox order: (time, src_key, stamp). Strict total order for
/// records from a well-behaved producer (stamps unique per src_key).
inline bool mail_less(const Mail& x, const Mail& y) {
  if (x.time != y.time) return x.time < y.time;
  if (x.src_key != y.src_key) return x.src_key < y.src_key;
  return x.stamp < y.stamp;
}

class ShardScheduler {
 public:
  /// `lookahead` must be >= 1 ps: an epoch executes events in
  /// [B, B + lookahead), and a zero-width window could never advance.
  ShardScheduler(std::size_t islands, SimDuration lookahead);
  ~ShardScheduler();

  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  std::size_t islands() const { return islands_.size(); }
  Engine& engine(std::size_t i) { return islands_[i]->eng; }
  SimDuration lookahead() const { return lookahead_; }

  /// Inbound-mail handler for island `i`: invoked on island i's execution
  /// context (worker thread in parallel mode) before the island's epoch
  /// body runs — once per source island with a nonempty batch, in source
  /// order, each batch in post order. The scheduler does NOT sort: imposing
  /// the canonical (time, src_key, stamp) order — which makes results
  /// independent of the partition — is the model's job (see mail_less and
  /// fabric::ShardFabric, which sorts typed records with inlined
  /// comparators instead of paying an indirect-call sort here).
  void set_mail_handler(std::size_t i, std::function<void(const Mail*, std::size_t)> h) {
    islands_[i]->handler = std::move(h);
  }

  /// Replaces island i's epoch body: instead of engine(i).run(until), the
  /// scheduler calls `d(until)`. A model installs this when it interleaves
  /// its own work with engine events inside an epoch (the shard fabric's
  /// island loop delivers transfer completions between engine instants
  /// without materializing them as engine events). The driver must execute
  /// everything the island owes up to and including `until`.
  void set_island_driver(std::size_t i, std::function<void(SimTime)> d) {
    islands_[i]->driver = std::move(d);
  }

  /// Registers an extra horizon source for island `i`: a callable returning
  /// the earliest virtual time of any pending work the island holds outside
  /// its engine queue (kTimeInfinity when none). The epoch window minimum
  /// includes it, so driver-managed work both keeps the run alive and bounds
  /// the barrier just like queued events do.
  void set_extra_horizon(std::size_t i, std::function<SimTime()> h) {
    islands_[i]->horizon = std::move(h);
  }

  /// End (exclusive) of the epoch currently executing — the lookahead bound
  /// every posted Mail's time must meet. Valid inside handlers and drivers.
  SimTime epoch_end() const { return epoch_end_; }

  /// Posts mail from island `from` (must be the island whose engine is
  /// executing, or the scheduler thread between epochs) to island `to`.
  /// Self-mail (`from == to`) is legal and rides the same barrier exchange,
  /// which keeps a model's behaviour independent of the partition. Enforces
  /// the lookahead discipline: m.time must be at or beyond the current
  /// epoch's end.
  void post(std::size_t from, std::size_t to, const Mail& m) {
    require(m.time >= epoch_end_, "mail violates the lookahead discipline");
    const std::size_t idx = from * islands_.size() + to;
    if (m.time < outbox_min_[idx]) outbox_min_[idx] = m.time;
    outbox_[idx].push_back(m);
  }

  /// Forces worker-pool (true) or sequential (false) island execution. The
  /// virtual outcome is identical either way; default is auto (parallel
  /// when the host has more than one hardware thread and islands > 1).
  void set_parallel(bool on) { parallel_ = on; }
  bool parallel() const { return parallel_; }

  /// Arms tie-shuffle mode on every island engine (see Engine).
  void set_tie_shuffle_seed(std::uint64_t seed) {
    for (auto& is : islands_) is->eng.set_tie_shuffle_seed(seed);
  }

  /// Runs epochs until every island is idle and no mail is in flight.
  /// Rethrows the first island error (lowest island index).
  RunResult run();

  /// Max last-dispatched-event time across islands — the run's true virtual
  /// extent (island engines' now() is clobbered by per-epoch horizons).
  SimTime virtual_end() const {
    SimTime t = 0;
    for (const auto& is : islands_) t = std::max(t, is->eng.last_event_time());
    return t;
  }

  /// Live (blocked) process names across islands, in island order.
  std::vector<std::string> live_process_names() const {
    std::vector<std::string> out;
    for (const auto& is : islands_) {
      auto names = is->eng.live_process_names();
      out.insert(out.end(), names.begin(), names.end());
    }
    return out;
  }

  /// Folds every island's registry into `out` in island order — with
  /// MetricsRegistry::merge_from's sorted-name visitation this is fully
  /// deterministic (see common/metrics.h).
  void merged_metrics(metrics::MetricsRegistry& out) const {
    for (const auto& is : islands_) out.merge_from(is->eng.metrics());
  }

 private:
  struct Island {
    Engine eng;
    /// Swapped-in per-source batches (zero-copy routing): staged[from] is
    /// exactly what island `from` posted to us last epoch, in post order.
    std::vector<std::vector<Mail>> staged;
    SimTime inbox_min = kTimeInfinity;
    std::function<void(const Mail*, std::size_t)> handler;
    std::function<void(SimTime)> driver;    ///< optional epoch body override
    std::function<SimTime()> horizon;       ///< optional extra pending-work min
    std::exception_ptr error;
  };

  /// One island's epoch: deliver sorted mail, then run to the horizon.
  void drive_island(std::size_t i, SimTime until);
  /// Moves every outbox into its destination inbox (between epochs).
  void route_mail();

  void start_workers();
  void stop_workers();
  void run_epoch_parallel(SimTime until);
  void worker_main(std::size_t i);

  std::vector<std::unique_ptr<Island>> islands_;
  std::vector<std::vector<Mail>> outbox_;   ///< [from * islands + to]
  std::vector<SimTime> outbox_min_;         ///< earliest time in each outbox
  SimDuration lookahead_;
  SimTime epoch_end_ = 0;
  bool parallel_;

  // Worker pool: all cross-thread state below hands off through mu_.
  std::vector<std::thread> threads_;  // lint: thread ok: the one sanctioned pool
  std::mutex mu_;                     // lint: thread ok: the one sanctioned pool
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t work_gen_ = 0;
  SimTime work_until_ = 0;
  std::size_t done_ = 0;
  bool quit_ = false;
};

}  // namespace dpu::sim
