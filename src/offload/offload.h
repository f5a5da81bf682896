// Host-side API of the offload framework (the paper's §VI primitives).
//
// Basic primitives (Listing 2):
//   send_offload / recv_offload / wait / test — nonblocking point-to-point
//   whose entire protocol runs on the DPU proxy; the host only registers
//   buffers, sends one control message, and later observes a completion
//   flag written into its memory.
//
// Group primitives (Listing 4):
//   group_start .. group_send/group_recv/group_barrier .. group_end record
//   an arbitrary communication DAG; group_call offloads the whole pattern
//   in one shot (with registration-, metadata- and request-caching on both
//   sides); group_wait observes the completion counter. Local barriers give
//   ordered patterns (ring pipelines) with zero host intervention — the
//   capability MPI's nonblocking primitives cannot express (§II-A).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "mpi/mpi.h"
#include "offload/protocol.h"
#include "offload/proxy.h"
#include "offload/reliable.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "verbs/reg_cache.h"
#include "verbs/verbs.h"

namespace dpu::offload {

/// Completion handle for basic-primitive operations.
struct OffloadRequest {
  verbs::Completion flag;
  bool done() const { return flag->is_set(); }

  // ---- failover bookkeeping (populated on liveness runs only) ----
  bool is_send = false;
  machine::Addr addr = 0;
  std::size_t len = 0;
  int peer = -1;
  int tag = 0;
  /// The proxy this op's protocol runs on: the *source-side* proxy for both
  /// directions (basic primitives never involve the receiver's proxy).
  int dep_proxy = -1;
  bool degraded = false;   ///< re-executed on the host-driven MPI path
  bool unreachable = false;  ///< control plane gave up; no failover available
  bool rejected = false;   ///< refused at admission (tenant quota); no-op
  mpi::Request fallback;   ///< in-flight fallback op (null when none)

  // ---- striped (segmented) state: populated only above stripe_threshold ----
  /// Per-chunk failover bookkeeping. Replay is by *ownership*, not by done
  /// bits: when an owner proxy dies, BOTH ends replay every chunk it owned
  /// (ownership is static, so the two sides agree without agreeing on which
  /// chunks landed — a crashed proxy's in-flight RDMA may deliver between
  /// the two hosts' detection times). Duplicate delivery writes the same
  /// bytes at the same offset, so the replay is idempotent.
  struct ChunkState {
    ChunkInfo info;
    bool fb_posted = false;  ///< chunk replayed on the host fallback path
    mpi::Request fb;         ///< in-flight fallback op for this chunk
  };
  std::vector<ChunkState> chunks;      ///< empty = monolithic
  std::shared_ptr<ChunkCountdown> cd;  ///< this side's per-chunk delivery view
};
using OffloadReqPtr = std::shared_ptr<OffloadRequest>;

/// A recorded group communication pattern (paper's OffloadGroupRequest).
struct GroupRequest {
  std::uint64_t id = 0;
  int owner = -1;
  std::vector<GroupEntryWire> ops;  ///< recorded in program order
  bool ended = false;
  bool sent_to_proxy = false;       ///< host-cache state (§VII-D)
  verbs::Completion current_flag;   ///< completion counter of the live call

  // ---- failover bookkeeping (liveness runs only) ----
  int target_proxy = -1;    ///< -1: the spec mapping; else a sibling override
  bool degraded = false;    ///< permanently on the host fallback path
  bool unreachable = false;  ///< control plane gave up; no failover available
  bool rejected = false;    ///< this call refused at admission (tenant quota)
  bool redispatched = false;  ///< live call moved to a sibling proxy
  bool flooded = false;     ///< degrade certificates sent to the peer graph
  // Host-fallback replay state: entries re-posted on minimpi in program
  // order, with barriers acting as stage boundaries (a ring forwards the
  // same buffer, so a send must not be posted before the preceding recv
  // completed — exactly the semantics the proxy's Algorithm-1 cursor gives).
  bool fb_active = false;
  std::size_t fb_next = 0;            ///< next entry index to post
  std::vector<bool> fb_skip;          ///< entries already satisfied pre-degrade
  std::vector<mpi::Request> fb_inflight;
};
using GroupReqPtr = std::shared_ptr<GroupRequest>;

class OffloadRuntime;

/// Per-host-rank endpoint. All Task members must run on the owning rank's
/// coroutine.
class OffloadEndpoint {
 public:
  OffloadEndpoint(OffloadRuntime& rt, int rank);

  int rank() const { return rank_; }
  /// Tenant owning this rank (0 in single-tenant worlds): its admission
  /// quota, stats and failover MPI contexts. Control messages carry only
  /// the rank; receivers derive the tenant from it.
  int tenant() const { return tenant_; }
  OffloadRuntime& runtime() { return rt_; }
  verbs::ProcCtx& vctx();

  // ---- basic primitives ------------------------------------------------------
  sim::Task<OffloadReqPtr> send_offload(machine::Addr addr, std::size_t len, int dst,
                                        int tag);
  sim::Task<OffloadReqPtr> recv_offload(machine::Addr addr, std::size_t len, int src,
                                        int tag);
  /// On liveness-enabled runs Wait supervises the operation: it heartbeats
  /// the involved proxy, and on confirmed death (or control-plane give-up)
  /// transparently re-executes the transfer on the host-driven minimpi path.
  /// Returns kOk on the clean proxy path, kDegraded after failover, and
  /// kUnreachable only when failover is disabled (FaultSpec::failover=false)
  /// and the peer is gone — the one case a Wait can return with the flag
  /// unset. Clean runs (no fault plan, no liveness) take the original
  /// flag-wait path bit-for-bit.
  sim::Task<Status> wait(const OffloadReqPtr& req);
  sim::Task<Status> waitall(std::span<const OffloadReqPtr> reqs);
  sim::Task<bool> test(const OffloadReqPtr& req);

  /// Finalize_Offload (Listing 2): tells this rank's proxy it is done; the
  /// proxy exits once every mapped host finalized and its queues drained.
  /// Call after the last wait; no offload call may follow. Liveness runs
  /// bound the handshake: the proxy acks the stop, and a proxy that fails to
  /// ack within FaultSpec::finalize_drain_us is written off (kDegraded) —
  /// FIN accounting tolerates a proxy that never answers.
  sim::Task<Status> finalize();

  /// Invalidates every cached registration of [addr, addr+len) — host GVMI
  /// cache, IB cache, and the DPU-side cross-registrations on this rank's
  /// proxy — e.g. before freeing or re-purposing a buffer. Mirrors the
  /// registration-cache coherence problem of §II-C: without the DPU-side
  /// eviction the proxy would keep using a stale mkey2.
  sim::Task<void> invalidate(machine::Addr addr, std::size_t len);

  // ---- group primitives ------------------------------------------------------
  GroupReqPtr group_start();
  void group_send(const GroupReqPtr& req, machine::Addr addr, std::size_t len, int dst,
                  int tag);
  void group_recv(const GroupReqPtr& req, machine::Addr addr, std::size_t len, int src,
                  int tag);
  void group_barrier(const GroupReqPtr& req);
  void group_end(const GroupReqPtr& req);
  sim::Task<void> group_call(const GroupReqPtr& req);
  /// Same supervision contract as wait(); a degraded group replays its
  /// recorded entries on minimpi (or, when the home proxy died and the node
  /// has a surviving sibling proxy, re-dispatches send-only templates there).
  sim::Task<Status> group_wait(const GroupReqPtr& req);

  // ---- introspection ----------------------------------------------------------
  // Counter getters are thin adapters over the "offload.host<rank>.*"
  // registry counters.
  verbs::RegCache<verbs::GvmiMrInfo>& gvmi_cache() { return gvmi_cache_; }
  verbs::RegCache<verbs::MrInfo>& ib_cache() { return ib_cache_; }
  std::uint64_t group_cache_hits() const { return group_hits_.value(); }
  std::uint64_t group_cache_misses() const { return group_misses_.value(); }
  std::uint64_t ctrl_msgs_sent() const { return ctrl_sent_.value(); }

  /// Disables the host-side group request cache (ablation benches).
  void set_group_cache_enabled(bool on) { group_cache_enabled_ = on; }

 private:
  sim::Task<GroupMetaMsg> await_meta_from(int peer);

  // ---- liveness / failover (all of it inert unless liveness_enabled) --------
  /// Host-side lease state for one proxy. Monitors are pumped from inside
  /// the wait loops only (the host is otherwise computing, like a real MPI
  /// process that only progresses inside MPI calls).
  struct Monitor {
    SimTime last_ack = 0;   ///< last application-level proof of life
    SimTime last_beat = 0;  ///< when the last probe went out
    SimTime last_pump = 0;  ///< detects long compute gaps between waits
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, SimTime> outstanding;  ///< seq -> send time
    bool suspected = false;
    bool dead = false;
  };

  bool liveness_on() const;
  bool giveup_watch_on() const;  ///< fault-only mode: poison flags on give-up
  void poison_unreachable(int dst_proc);
  Monitor& monitor(int proxy);
  bool proxy_presumed_dead(int proxy) const;
  bool failover_ready() const;
  SimDuration wait_tick() const;
  void drain_liveness();
  // One handler per host liveness-inbox alternative (std::visit dispatch).
  void on(const HeartbeatAckMsg& ack);
  void on(const StopAckMsg& sa);
  void on(const RecvArrivedMsg& arr);
  void on(const SendDeliveredMsg& sd);
  void on(const DegradeMsg& dm);
  sim::Task<void> pump_monitors();
  sim::Task<void> apply_pending_degrades();
  sim::Task<Status> wait_many(std::vector<OffloadReqPtr> reqs);
  sim::Task<Status> group_wait_live(GroupReqPtr req);
  // Basic-op failover.
  sim::Task<void> degrade_basic(const OffloadReqPtr& req);
  /// Striped-op failover: replays the chunks of dead owner proxies on the
  /// host path and fences those owners. Returns true once every chunk is
  /// accounted for (delivered by a live owner or fallback-completed).
  sim::Task<bool> advance_striped(const OffloadReqPtr& req);
  // Group failover.
  int current_target(const GroupRequest& req) const;
  int group_dead_dep(const GroupRequest& req) const;  ///< -1 when all healthy
  int live_sibling_of(int proxy) const;               ///< -1 when none
  static bool send_only(const GroupRequest& req);
  static int fb_tag(int tag, std::uint64_t scope_req);
  sim::Task<void> fail_over_group(const GroupReqPtr& req, int dead_dep);
  sim::Task<void> redispatch_to_sibling(const GroupReqPtr& req, int sib);
  sim::Task<void> degrade_group(const GroupReqPtr& req, int dead_proxy);
  sim::Task<void> flood_degrade(const GroupReqPtr& req, int dead_proxy);
  sim::Task<bool> advance_group_fallback(const GroupReqPtr& req);

  OffloadRuntime& rt_;
  int rank_;
  int tenant_ = 0;
  verbs::RegCache<verbs::GvmiMrInfo> gvmi_cache_;  ///< per proxy rank
  verbs::RegCache<verbs::MrInfo> ib_cache_;
  Retransmitter retx_;      ///< reliable sender for proxy-bound control msgs
  DupFilter dup_filter_;    ///< replay suppression for host-received ctrl msgs
  std::uint64_t next_req_ = 1;
  std::map<int, std::deque<GroupMetaMsg>> meta_buf_;  // per-peer FIFO
  metrics::Counter group_hits_;
  metrics::Counter group_misses_;
  metrics::Counter ctrl_sent_;
  metrics::Counter dup_dropped_;
  metrics::Counter bytes_striped_;  ///< bytes this rank sent via chunked path
  bool group_cache_enabled_ = true;

  std::map<int, Monitor> monitors_;
  std::set<int> dead_proxies_;   ///< confirmed locally or via certificate
  std::set<int> stop_acked_;     ///< proxies whose StopAck arrived
  std::vector<DegradeMsg> pending_degrades_;  ///< unmatched certificates
  std::vector<GroupReqPtr> live_groups_;      ///< called, not yet completed
  /// Fault-only mode (message faults, liveness off): ops watched so a
  /// Retransmitter give-up can poison their completion flags. Weak refs —
  /// bookkeeping must not extend request lifetimes.
  std::vector<std::weak_ptr<OffloadRequest>> watched_basic_;
  std::vector<std::weak_ptr<GroupRequest>> watched_groups_;
  /// Delivery-time ledgers (fed by the NIC hooks on kLivenessChannel):
  /// (my req id, src, tag) -> group-send arrivals into my buffers, and
  /// (my req id, dst, tag) -> my group sends confirmed delivered. Both ends
  /// of a transfer learn of it from the same delivery event, which is what
  /// keeps the two sides' replay skip-sets identical.
  std::map<std::tuple<std::uint64_t, int, int>, int> arrivals_seen_;
  std::map<std::tuple<std::uint64_t, int, int>, int> sends_delivered_;
  metrics::Counter hb_sent_;
  metrics::Counter hb_acked_;
  metrics::Counter hb_missed_;
  metrics::Counter hb_rtt_total_ns_;
  metrics::Counter hb_rtt_max_ns_;
  metrics::Counter suspected_ctr_;
  metrics::Counter confirmed_dead_ctr_;
  metrics::Counter lease_reacquired_;
  metrics::Counter certs_received_;
  metrics::Counter degraded_ops_;
  metrics::Counter finalize_timeouts_;
};

/// Owns the endpoints and the proxy processes (Init_Offload): allocates
/// GVMI-IDs on every proxy, distributes them, and spawns the proxy progress
/// loops.
class OffloadRuntime {
 public:
  /// Per-tenant counters, linked as "offload.tenant<N>.*" only on
  /// multi-tenant worlds (single-tenant metrics JSON stays byte-identical).
  struct TenantStats {
    metrics::Counter ops_admitted;      ///< calls past admission control
    metrics::Counter ops_rejected;      ///< calls refused by max_inflight
    metrics::Counter ops_degraded;      ///< calls finished on fallback paths
    metrics::Counter pairs_completed;   ///< basic pairs FIN'd by the proxies
    metrics::Counter jobs_completed;    ///< group jobs FIN'd by the proxies
    metrics::Counter entries_advanced;  ///< fair-queue service charged
  };

  explicit OffloadRuntime(verbs::Runtime& vrt);

  /// Spawns all proxy processes and installs the FaultSpec::proxy_failures
  /// schedule (crash/hang injections as engine timers — exact virtual times,
  /// no RNG draws); call once before any host uses the API.
  void start();

  /// Wires the host-driven MPI world used as the graceful-degradation path.
  /// Must be set before start() on runs that want failover; without it a
  /// confirmed-dead proxy surfaces Status::kUnreachable instead.
  void set_mpi(mpi::MpiWorld* m) { mpi_ = m; }
  mpi::MpiWorld* mpi_world() { return mpi_; }

  OffloadEndpoint& endpoint(int host_rank) {
    return *endpoints_.at(static_cast<std::size_t>(host_rank));
  }
  Proxy& proxy(int proxy_proc_id);
  verbs::GvmiId gvmi_of(int proxy_proc_id) const;

  verbs::Runtime& verbs() { return vrt_; }
  const machine::ClusterSpec& spec() const { return vrt_.spec(); }
  sim::Engine& engine() { return vrt_.engine(); }

  /// Cluster-wide chunk-RDMA-in-flight gauge feed. Only the striped paths
  /// call these, so the gauge never appears in non-striping runs' JSON.
  void note_chunk_issued() {
    ++stripe_inflight_;
    engine().metrics().set_gauge("stripe.chunks_in_flight",
                                 static_cast<double>(stripe_inflight_));
  }
  void note_chunk_done() {
    --stripe_inflight_;
    engine().metrics().set_gauge("stripe.chunks_in_flight",
                                 static_cast<double>(stripe_inflight_));
  }

  /// Admission control: true when `tenant` may start one more offload op
  /// (inflight < TenantSpec::max_inflight, or no quota). Single-tenant
  /// worlds always admit — no counter is touched, no quota state exists.
  bool admit(int tenant);
  /// Returns one admission slot (fired from the op's completion flag).
  void release(int tenant);
  TenantStats& tenant_stats(int tenant) {
    return *tenant_stats_.at(static_cast<std::size_t>(tenant));
  }

 private:
  verbs::Runtime& vrt_;
  mpi::MpiWorld* mpi_ = nullptr;  ///< host fallback path (optional)
  std::vector<std::unique_ptr<OffloadEndpoint>> endpoints_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  /// One TenantStats per tenant (the implicit tenant included), behind
  /// unique_ptrs: the registry links raw Counter addresses. Quota state
  /// exists only in multi-tenant worlds.
  std::vector<std::unique_ptr<TenantStats>> tenant_stats_;
  std::vector<int> tenant_inflight_;
  int stripe_inflight_ = 0;  ///< currently posted chunk RDMAs (all proxies)
  bool started_ = false;
};

}  // namespace dpu::offload
