// Network fabric timing model: a two-level k-ary fat-tree.
//
// One NIC per node, shared by the host and the DPU (as on BlueField
// systems). Each NIC has a TX and an RX port that serialize traffic at the
// link rate; transfers are pipelined (cut-through), so an uncontended
// message is delivered at  start + latency + bytes/bandwidth,  while
// incast/outcast contention queues at the ports. Same-node transfers
// (host <-> local DPU) ride a per-node PCIe DMA lane instead of the NIC
// ports, as on real BlueField loopback. Per-message *initiation* cost is
// charged by the caller on whichever core posts the operation (see
// CostModel::post_overhead) — the fabric models only the wire.
//
// Above the edge, nodes hang off leaf switches (machine::Topology: nodes /
// leaf_radix / spines / oversubscription). Cross-leaf traffic climbs the
// source leaf's uplink to spine `dst % spines` (deterministic d-mod-k path
// selection — the spine is a function of the destination, so one node's
// inbound traffic never reorders across paths and destinations stripe
// evenly) and descends the destination leaf's downlink from that spine.
// Every up/down link is its own serializing, cut-through port at the
// per-uplink rate `link * leaf_radix / (oversubscription * spines)`, so an
// oversubscribed or spine-starved core queues cross-leaf flows while
// same-leaf traffic stays at full edge rate. A 1-spine 1:1 core is
// non-blocking and models no core ports at all — byte-identical to the old
// flat single-switch fabric (regression-pinned in tests/topology_test.cpp).
//
// A transfer's delivery callback runs at the time the planning core
// (`plan_transfer`) computes by advancing the port clocks; the callback is
// parked in a recycled slot pool until arbitration books it.
//
// Link arbitration: requests are not booked at call time. They are
// collected per virtual instant and granted at the end of that instant in
// a canonical order — stable-sorted by requester process id (ties keep
// call order). Two processes contending for the same lane in the same
// picosecond therefore serialize by *who they are*, not by the incidental
// order the scheduler ran their coroutines — which is what makes outcomes
// independent of same-time event ordering (see tests/determinism_test.cpp;
// tie-shuffle mode perturbs exactly that incidental order). This mirrors a
// real arbiter: PCIe and NIC ports grant same-cycle requestors by fixed
// priority, not by software call order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics.h"
#include "machine/spec.h"
#include "sim/engine.h"

namespace dpu::fabric {

/// Aggregate transfer statistics (per node, for utilization reporting).
/// The counters are registered with the engine's MetricsRegistry as
/// "fabric.node<N>.*"; this struct remains the in-place storage.
struct NicStats {
  metrics::Counter messages_tx;
  metrics::Counter bytes_tx;
  metrics::Counter messages_rx;
  metrics::Counter bytes_rx;
};

class Fabric {
 public:
  Fabric(sim::Engine& eng, const machine::ClusterSpec& spec);

  /// Schedules a wire transfer of `bytes` from `src_node`'s NIC to
  /// `dst_node`'s NIC; `on_delivered` runs when the last byte lands.
  /// For same-node (PCIe) transfers, `to_host` selects the DMA direction
  /// (the lane pair is full duplex). `requester` is the posting process id,
  /// the canonical arbitration key for same-instant contention (-1 keeps
  /// plain call order).
  void transfer(int src_node, int dst_node, std::size_t bytes,
                std::function<void()> on_delivered, bool to_host = false,
                int requester = -1);

  /// Latency-only estimate of an uncontended transfer (used by tests and
  /// calibration, never by protocol logic).
  SimDuration uncontended_time(int src_node, int dst_node, std::size_t bytes) const;

  const NicStats& stats(int node) const { return stats_.at(static_cast<std::size_t>(node)); }

  /// Resolved topology the fabric was built with (validated spec view).
  const machine::Topology& topology() const { return topo_; }

 private:
  struct Port {
    SimTime free_at = 0;
  };

  /// A transfer request awaiting end-of-instant arbitration. The callback
  /// itself lives in the pooled `cb_slots_` storage, so this record stays
  /// trivially copyable and the per-instant stable sort moves 32-byte values
  /// instead of type-erased closures.
  struct PendingXfer {
    int src_node = 0;
    int dst_node = 0;
    std::size_t bytes = 0;
    int requester = -1;
    std::uint32_t cb_slot = 0;
    bool to_host = false;
  };
  static_assert(std::is_trivially_copyable_v<PendingXfer>);

  /// Advances the port/lane clocks for one transfer, updates stats and
  /// trace spans, and returns the delivery time. Does not schedule
  /// anything — callers decide how completion is observed.
  SimTime plan_transfer(int src_node, int dst_node, std::size_t bytes, bool to_host);

  /// Queues a request and arms the end-of-instant arbitration pass.
  void enqueue(PendingXfer p);
  /// Books the instant's cohort in canonical order (stable by requester).
  void settle();

  /// Parks `fn` in the recycled callback-slot pool; returns its index.
  std::uint32_t park_callback(std::function<void()> fn);

  sim::Engine& eng_;
  machine::CostModel cost_;
  machine::Topology topo_;
  std::vector<Port> tx_;
  std::vector<Port> rx_;
  std::vector<Port> up_;         // leaf uplinks: [leaf * spines + spine]
  std::vector<Port> down_;       // spine -> leaf downlinks, same layout
  std::vector<Port> pcie_down_;  // toward the DPU
  std::vector<Port> pcie_up_;    // toward host memory
  std::vector<NicStats> stats_;
  std::vector<PendingXfer> pending_;  // this instant's unarbitrated requests
  std::vector<std::function<void()>> cb_slots_;  // pooled delivery callbacks
  std::vector<std::uint32_t> cb_free_;           // recycled slot indices
  bool settle_armed_ = false;
};

}  // namespace dpu::fabric
