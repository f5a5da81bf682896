#include "fabric/fabric.h"

#include <algorithm>
#include <string>

#include "sim/trace.h"

namespace dpu::fabric {

Fabric::Fabric(sim::Engine& eng, const machine::ClusterSpec& spec)
    : eng_(eng),
      cost_(spec.cost),
      topo_(spec.resolve_topology()),
      tx_(static_cast<std::size_t>(spec.nodes)),
      rx_(static_cast<std::size_t>(spec.nodes)),
      up_(static_cast<std::size_t>(topo_.leaves) * static_cast<std::size_t>(topo_.spines)),
      down_(static_cast<std::size_t>(topo_.leaves) * static_cast<std::size_t>(topo_.spines)),
      pcie_down_(static_cast<std::size_t>(spec.nodes)),
      pcie_up_(static_cast<std::size_t>(spec.nodes)),
      stats_(static_cast<std::size_t>(spec.nodes)) {
  auto& reg = eng_.metrics();
  for (int n = 0; n < spec.nodes; ++n) {
    const std::string prefix = "fabric.node" + std::to_string(n) + ".";
    auto& st = stats_[static_cast<std::size_t>(n)];
    reg.link(prefix + "messages_tx", &st.messages_tx);
    reg.link(prefix + "bytes_tx", &st.bytes_tx);
    reg.link(prefix + "messages_rx", &st.messages_rx);
    reg.link(prefix + "bytes_rx", &st.bytes_rx);
  }
}

SimTime Fabric::plan_transfer(int src_node, int dst_node, std::size_t bytes, bool to_host) {
  const SimTime now = eng_.now();

  if (src_node == dst_node) {
    // Host <-> local-DPU traffic: a full-duplex PCIe DMA lane pair per
    // node, independent of the NIC ports.
    auto& lane = (to_host ? pcie_up_ : pcie_down_)[static_cast<std::size_t>(src_node)];
    const SimDuration ser = cost_.pcie_time(bytes);
    const SimTime start = std::max(now, lane.free_at);
    const SimTime end = start + ser + from_us(cost_.loopback_latency_us);
    lane.free_at = start + ser;
    auto& st = stats_[static_cast<std::size_t>(src_node)];
    ++st.messages_tx;
    st.bytes_tx += bytes;
    if (auto* tr = eng_.trace()) {
      tr->add("pcie:" + std::to_string(src_node), "xfer",
              std::to_string(bytes) + "B " + (to_host ? "up" : "down"), start, end);
    }
    return end;
  }

  auto& tx = tx_[static_cast<std::size_t>(src_node)];
  auto& rx = rx_[static_cast<std::size_t>(dst_node)];
  const SimDuration ser = cost_.wire_time(bytes);
  const SimDuration lat = from_us(cost_.wire_latency_us);

  SimTime tx_start = std::max(now, tx.free_at);
  // Fat-tree core: cross-leaf traffic climbs the d-mod-k spine's uplink and
  // descends its downlink, each a serializing cut-through port at the
  // per-uplink rate; same-leaf traffic stays at the edge. A non-blocking
  // core (1 spine, 1:1) models no core ports at all.
  const int src_leaf = topo_.leaf_of(src_node);
  const int dst_leaf = topo_.leaf_of(dst_node);
  if (src_leaf != dst_leaf && topo_.core_active()) {
    const int spine = topo_.spine_of(dst_node);
    const SimDuration core_ser =
        from_ns(static_cast<double>(bytes) / topo_.uplink_GBps());
    auto& up = up_[static_cast<std::size_t>(src_leaf) *
                       static_cast<std::size_t>(topo_.spines) +
                   static_cast<std::size_t>(spine)];
    auto& down = down_[static_cast<std::size_t>(dst_leaf) *
                           static_cast<std::size_t>(topo_.spines) +
                       static_cast<std::size_t>(spine)];
    const SimTime up_start = std::max(tx_start, up.free_at);
    up.free_at = up_start + core_ser;
    const SimTime down_start = std::max(up.free_at, down.free_at);
    down.free_at = down_start + core_ser;
    tx_start = std::max(tx_start, down.free_at - ser);
  }
  const SimTime tx_end = tx_start + ser;
  tx.free_at = tx_end;

  const SimTime arrive_first = tx_start + lat;
  const SimTime rx_start = std::max(arrive_first, rx.free_at);
  const SimTime rx_end = std::max(rx_start + ser, tx_end + lat);
  rx.free_at = rx_end;

  auto& s_tx = stats_[static_cast<std::size_t>(src_node)];
  auto& s_rx = stats_[static_cast<std::size_t>(dst_node)];
  ++s_tx.messages_tx;
  s_tx.bytes_tx += bytes;
  ++s_rx.messages_rx;
  s_rx.bytes_rx += bytes;

  if (auto* tr = eng_.trace()) {
    tr->add("wire:" + std::to_string(src_node) + "->" + std::to_string(dst_node), "xfer",
            std::to_string(bytes) + "B", tx_start, rx_end);
  }
  return rx_end;
}

std::uint32_t Fabric::park_callback(std::function<void()> fn) {
  std::uint32_t slot;
  if (!cb_free_.empty()) {
    slot = cb_free_.back();
    cb_free_.pop_back();
    cb_slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(cb_slots_.size());
    cb_slots_.push_back(std::move(fn));
  }
  return slot;
}

void Fabric::enqueue(PendingXfer p) {
  pending_.push_back(p);
  if (!settle_armed_) {
    settle_armed_ = true;
    eng_.at_instant_end([this] { settle(); });
  }
}

void Fabric::settle() {
  settle_armed_ = false;
  std::vector<PendingXfer> batch;
  batch.swap(pending_);
  // Canonical grant order: by requester process id, call order within one
  // requester (and for requester-less callers, e.g. unit tests driving the
  // fabric directly). A stable sort is essential — same-requester requests
  // are program-ordered and must stay that way.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const PendingXfer& a, const PendingXfer& b) {
                     return a.requester < b.requester;
                   });
  for (auto& p : batch) {
    const SimTime end = plan_transfer(p.src_node, p.dst_node, p.bytes, p.to_host);
    eng_.schedule_at(end, std::move(cb_slots_[p.cb_slot]));
    // The moved-from slot needs no reset: the next occupant's assignment
    // destroys any residue.
    cb_free_.push_back(p.cb_slot);
  }
}

void Fabric::transfer(int src_node, int dst_node, std::size_t bytes,
                      std::function<void()> on_delivered, bool to_host, int requester) {
  PendingXfer p;
  p.src_node = src_node;
  p.dst_node = dst_node;
  p.bytes = bytes;
  p.to_host = to_host;
  p.requester = requester;
  p.cb_slot = park_callback(std::move(on_delivered));
  enqueue(p);
}

SimDuration Fabric::uncontended_time(int src_node, int dst_node, std::size_t bytes) const {
  if (src_node == dst_node) return from_us(cost_.loopback_latency_us) + cost_.pcie_time(bytes);
  return from_us(cost_.wire_latency_us) + cost_.wire_time(bytes);
}

}  // namespace dpu::fabric
