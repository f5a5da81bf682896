#include "offload/proxy.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <variant>

#include "analysis/invariants.h"
#include "common/check.h"
#include "offload/offload.h"

namespace dpu::offload {

Proxy::Proxy(OffloadRuntime& rt, int proc_id)
    : rt_(rt), proc_(proc_id),
      gvmi_cache_(rt.spec().total_procs(), rt.spec().cost.reg_cache_capacity),
      retx_(rt.verbs().ctx(proc_id)) {
  gvmi_ = rt_.verbs().ctx(proc_).alloc_gvmi_id();
  auto& reg = rt_.engine().metrics();
  const std::string prefix = "offload.proxy" + std::to_string(proc_) + ".";
  reg.link(prefix + "basic_pairs_completed", &basic_done_);
  reg.link(prefix + "group_jobs_completed", &jobs_done_);
  reg.link(prefix + "group_cache.hits", &tmpl_hits_);
  reg.link(prefix + "group_cache.misses", &tmpl_misses_);
  reg.link(prefix + "barrier_cntr_msgs", &barrier_msgs_);
  reg.link(prefix + "retries", &retx_.retries());
  reg.link(prefix + "dup_dropped", &dup_dropped_);
  reg.link(prefix + "credit_gated", &credit_gated_);
  gvmi_cache_.link(reg, prefix + "gvmi_cache.");
  // Gated links so the metrics JSON of existing configurations stays
  // byte-identical: chunk counters only on striping runs.
  if (rt_.spec().cost.stripe_enabled()) {
    reg.link(prefix + "chunks_moved", &chunks_moved_);
  }
  if (rt_.spec().fault.liveness_enabled()) {
    reg.link(prefix + "hb_replies", &hb_replies_);
    reg.link(prefix + "fenced_jobs", &fenced_jobs_);
  }
  tenant_service_.assign(static_cast<std::size_t>(rt_.spec().num_tenants()), 0);
  tenant_cursor_.assign(tenant_service_.size(), 0);
}

void Proxy::inject_crash() {
  crashed_ = true;
  ++rt_.engine().metrics().counter("fault.proxy_crashes");
  // The loop may be parked on its activity notifier; wake it so the crash
  // takes effect now rather than at the next message arrival.
  vctx().activity().notify_all();
}

void Proxy::inject_hang() {
  hung_ = true;
  ++rt_.engine().metrics().counter("fault.proxy_hangs");
}

void Proxy::recover_from_hang() {
  if (crashed_ || !hung_) return;
  hung_ = false;
  ++rt_.engine().metrics().counter("fault.proxy_recoveries");
  vctx().activity().notify_all();
}

verbs::ProcCtx& Proxy::vctx() { return rt_.verbs().ctx(proc_); }

sim::Task<void> Proxy::charge_entry() {
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.proxy_entry_us));
}

std::uint64_t Proxy::template_runs(int host_rank, std::uint64_t req_id) const {
  auto it = templates_.find({host_rank, req_id});
  if (it == templates_.end() || !it->second) return 0;
  return static_cast<std::uint64_t>(it->second->runs);
}

std::size_t Proxy::host_state_entries(int host_rank) const {
  std::size_t n = 0;
  for (const auto& [key, tmpl] : templates_) {
    if (key.first == host_rank) ++n;
  }
  for (const auto& [key, cr] : credits_) {
    if (std::get<0>(key) == host_rank || std::get<1>(key) == host_rank) ++n;
  }
  for (const auto& key : fenced_) {
    if (key.first == host_rank) ++n;
  }
  if (dup_filter_.has_sender(host_rank)) ++n;
  return n;
}

int Proxy::mapped_hosts() const {
  int n = 0;
  for (int r = 0; r < rt_.spec().total_host_ranks(); ++r) {
    if (rt_.spec().proxy_for_host(r) == proc_) ++n;
  }
  return n;
}

int Proxy::expected_stops() const {
  const auto& spec = rt_.spec();
  if (!spec.cost.stripe_enabled()) return mapped_hosts();
  // Striping delegates chunk work only within a tenant's own worker set
  // (fault-domain isolation), so only hosts of tenants this worker serves
  // ever send it a stop; counting every node host would deadlock the loop
  // waiting on stops that never come. A single-tenant world's implicit
  // tenant is served by every worker, so there every node host counts.
  const int node = (proc_ - spec.total_host_ranks()) / spec.proxies_per_dpu;
  int n = 0;
  for (int i = 0; i < spec.host_procs_per_node; ++i) {
    const int h = spec.first_host_on_node(node) + i;
    if (spec.proxy_serves_tenant(proc_, spec.tenant_of_host(h))) ++n;
  }
  return n;
}

void Proxy::prune_host_state(int host_rank) {
  // Finalize_Offload hygiene on a pooled proxy: everything still keyed to
  // the departing host goes now, so the next job (same tenant or another)
  // starts against clean state instead of inheriting stale templates,
  // credits, fences, or a dup-filter seq window.
  for (auto it = templates_.begin(); it != templates_.end();) {
    it = it->first.first == host_rank ? templates_.erase(it) : std::next(it);
  }
  for (auto it = credits_.begin(); it != credits_.end();) {
    it = (std::get<0>(it->first) == host_rank || std::get<1>(it->first) == host_rank)
             ? credits_.erase(it)
             : std::next(it);
  }
  for (auto it = fenced_.begin(); it != fenced_.end();) {
    it = it->first == host_rank ? fenced_.erase(it) : std::next(it);
  }
  dup_filter_.erase_sender(host_rank);
}

bool Proxy::at_chunk_cap() const {
  return inflight_ >= rt_.spec().cost.max_chunks_in_flight;
}

void Proxy::note_chunk_issued() {
  ++inflight_;
  if (inflight_ > inflight_hwm_) inflight_hwm_ = inflight_;
  rt_.note_chunk_issued();
}

void Proxy::note_chunk_done() {
  --inflight_;
  rt_.note_chunk_done();
  // The cap may just have opened; wake the loop in case it parked while
  // chunk work was gated.
  vctx().activity().notify_all();
}

sim::Task<void> Proxy::run() {
  auto& box = vctx().inbox(kProxyInbox);
  const bool liveness = rt_.spec().fault.liveness_enabled();
  // With striping on, EVERY host that may hand this worker delegated chunk
  // work sends a stop here (not just the hosts of the direct mapping — a
  // zero-mapped sibling would otherwise exit at startup and strand its
  // queue); multi-tenant worlds restrict that to the tenants this worker
  // serves. See expected_stops().
  const int want_stops = expected_stops();
  for (;;) {
    // Process-level failure points. A crash ends the loop for good (the
    // process died; its inbox keeps accepting — and transport-acking —
    // deliveries that no one will ever service). A hang parks the loop
    // without draining anything: each arrival wakes it, it observes it is
    // hung, and goes back to sleep, which is exactly the observable
    // behaviour of a wedged ARM core behind a live HCA.
    if (crashed_) co_return;
    while (hung_) {
      co_await vctx().activity().wait();
      if (crashed_) co_return;
    }
    bool moved = false;
    if (liveness) {
      // Liveness plane first: heartbeat replies must not queue behind bulk
      // control work, and fences must land before advance_jobs resumes a
      // job the hosts already failed over (the hang-recovery race).
      auto& live_box = vctx().inbox(kProxyLiveInbox);
      while (auto m = live_box.try_recv()) {
        co_await handle_liveness(*m);
        moved = true;
      }
    }
    while (auto m = box.try_recv()) {
      co_await handle(*m);
      moved = true;
      if (crashed_ || hung_) break;
    }
    if (crashed_ || hung_) continue;
    if (co_await process_combined()) moved = true;
    if (co_await process_chunk_work()) moved = true;
    if (co_await harvest_fins()) moved = true;
    if (co_await advance_jobs()) moved = true;
    if (stops_received_ >= want_stops && jobs_.empty() && combined_.empty() &&
        chunk_work_.empty() && fins_.empty() && box.empty()) {
      co_return;  // Finalize_Offload: all mapped hosts done, queues drained
    }
    if (!moved) {
      co_await vctx().activity().wait();
    } else {
      co_await rt_.engine().sleep(from_us(rt_.spec().cost.proxy_poll_us));
    }
  }
}

sim::Task<void> Proxy::handle_liveness(verbs::Msg<ProxyLive>& msg) {
  co_await charge_entry();
  std::visit([&](auto& m) { on(m, msg.delivered_at); }, msg.body);
  if (reply_) co_await send_reply();
}

sim::Task<void> Proxy::send_reply() {
  Reply r = std::move(*reply_);
  reply_.reset();
  co_await vctx().post_ctrl(r.dst, kHostLiveInbox, std::move(r.msg), 0);
}

void Proxy::on(HeartbeatMsg& hb, SimTime) {
  ++hb_replies_;
  reply_ = Reply{hb.from_rank, HeartbeatAckMsg{proc_, hb.seq}};
}

void Proxy::on(FenceBasicMsg& fb, SimTime) {
  if (auto* chk = rt_.engine().checker()) {
    chk->on_fence_basic(proc_, fb.src_rank, fb.dst_rank, fb.tag);
  }
  (void)queues_.erase_pair(fb.src_rank, fb.dst_rank, fb.tag);
  for (auto it = combined_.begin(); it != combined_.end();) {
    if (it->rts.src_rank == fb.src_rank && it->rts.dst_rank == fb.dst_rank &&
        it->rts.tag == fb.tag) {
      it = combined_.erase(it);
    } else {
      ++it;
    }
  }
}

void Proxy::on(FenceGroupMsg& fg, SimTime) {
  if (auto* chk = rt_.engine().checker()) {
    chk->on_fence_group(proc_, fg.host_rank, fg.req_id);
  }
  fenced_.insert({fg.host_rank, fg.req_id});
  ++fenced_jobs_;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if ((*it)->host_rank == fg.host_rank && (*it)->req_id == fg.req_id) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_arrivals_.begin(); it != pending_arrivals_.end();) {
    if (it->dst_rank == fg.host_rank && it->dst_req_id == fg.req_id) {
      it = pending_arrivals_.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Task<void> Proxy::handle(verbs::Msg<Sequenced<ProxyCtrl>>& msg) {
  co_await charge_entry();
  // Under faults every message carries a sequence header; the transport
  // acked each delivered copy already, so here we only drop replays.
  if (const auto& hdr = msg.body.hdr) {
    // A finalized host's dup-filter window was pruned; its seq space is
    // dead. Any straggler (a delayed duplicate the retransmitter already
    // covered) is dropped wholesale — re-running accept() would wrongly
    // re-admit it as fresh against the reset window.
    if (!finalized_hosts_.empty() && finalized_hosts_.count(hdr->sender) > 0) {
      co_return;
    }
    const bool fresh = dup_filter_.accept(hdr->sender, hdr->seq);
    if (auto* chk = rt_.engine().checker()) {
      chk->on_reliable_delivery(proc_, hdr->sender, hdr->seq, fresh);
    }
    if (!fresh) {
      ++dup_dropped_;
      co_return;
    }
  }
  std::visit([&](auto& m) { on(m, msg.delivered_at); }, msg.body.msg);
  if (reply_) co_await send_reply();
}

void Proxy::on(RtsProxyMsg& rts, SimTime) {
  if (auto rtr = queues_.on_rts(rts)) {
    if (auto* chk = rt_.engine().checker()) {
      chk->on_pair_matched(proc_, rts.src_rank, rts.dst_rank, rts.tag, rts.chunk.index);
    }
    combined_.push_back(BasicPair{rts, std::move(*rtr)});
  }
}

void Proxy::on(RtrProxyMsg& rtr, SimTime) {
  if (auto rts = queues_.on_rtr(rtr)) {
    if (auto* chk = rt_.engine().checker()) {
      chk->on_pair_matched(proc_, rtr.src_rank, rtr.dst_rank, rtr.tag, rtr.chunk.index);
    }
    combined_.push_back(BasicPair{std::move(*rts), rtr});
  }
}

void Proxy::on(GroupPacketMsg& pkt, SimTime at) {
  // First call for this request: build (or replace) the template, then
  // start an instance.
  ++tmpl_misses_;
  auto tmpl = std::make_shared<JobTemplate>();
  tmpl->entries = std::move(pkt.entries);
  tmpl->mkey2.assign(tmpl->entries.size(), 0);
  auto& slot = templates_[{pkt.host_rank, pkt.req_id}];
  // A re-recorded request (host cache disabled or invalidated) is still
  // the same request: its run count — and with it the credit gating of
  // every run after the first — must survive the template swap.
  if (slot) tmpl->runs = slot->runs;
  slot = std::move(tmpl);
  start_instance(pkt.host_rank, pkt.req_id, pkt.flag, at);
}

void Proxy::on(GroupCachedCallMsg& cc, SimTime at) {
  ++tmpl_hits_;
  start_instance(cc.host_rank, cc.req_id, cc.flag, at);
}

void Proxy::on(RecvArrivedMsg& arr, SimTime) {
  if (!match_arrival(arr)) pending_arrivals_.push_back(arr);
}

void Proxy::on(CreditBatchMsg& cb, SimTime) {
  for (const auto& cr : cb.credits) {
    ++credits_[{cr.src_rank, cr.dst_rank, cr.tag}];
  }
}

void Proxy::on(BarrierCntrMsg&, SimTime) {
  // Fig. 10's barrier-counter write: modelled for its wire and CPU cost
  // (counted in barrier_cntr_msgs at the sender). Receive readiness rides
  // the credits and the arrival immediates, so nothing reads the count.
}

void Proxy::on(StopMsg& stop, SimTime) {
  if (finalized_hosts_.insert(stop.host_rank).second) {
    ++stops_received_;
    prune_host_state(stop.host_rank);
  }
  if (rt_.spec().fault.liveness_enabled()) {
    // Liveness runs close the Finalize handshake explicitly, so a host
    // can bound its drain instead of trusting the proxy to be alive.
    reply_ = Reply{stop.host_rank, StopAckMsg{proc_}};
  }
}

void Proxy::on(ChunkWorkMsg& cw, SimTime) {
  // Delegated striped segment from the node's home proxy; queue it for the
  // cap-bounded issue loop.
  chunk_work_.push_back(std::move(cw));
}

void Proxy::on(InvalidateMsg& inv, SimTime) {
  // Cache coherence: drop the cross-registration and un-memoize it from
  // every cached template of that host.
  (void)gvmi_cache_.evict(inv.host_rank, inv.addr, inv.len);
  for (auto& [key, tmpl] : templates_) {
    if (key.first != inv.host_rank) continue;
    for (std::size_t i = 0; i < tmpl->entries.size(); ++i) {
      const auto& e = tmpl->entries[i];
      if (e.type == GopType::kSend && e.src_addr == inv.addr && e.len == inv.len) {
        tmpl->mkey2[i] = 0;
      }
    }
  }
}

void Proxy::start_instance(int host_rank, std::uint64_t req_id, verbs::Completion flag,
                           SimTime arrived_at) {
  auto it = templates_.find({host_rank, req_id});
  sim_expect(it != templates_.end(), "cached group call for unknown request");
  auto job = std::make_unique<JobInstance>();
  job->host_rank = host_rank;
  job->req_id = req_id;
  job->tenant = rt_.spec().tenant_of_host(host_rank);
  job->tmpl = it->second;
  job->state.assign(job->tmpl->entries.size(), JobEntryState{});
  job->sends_done = std::make_shared<std::size_t>(0);
  for (std::size_t i = 0; i < job->tmpl->entries.size(); ++i) {
    const auto& e = job->tmpl->entries[i];
    if (e.type == GopType::kRecv) {
      job->recv_index[{e.peer, e.tag}].push_back(i);
      ++job->recvs_total;
    } else if (e.type == GopType::kSend) {
      ++job->sends_total;
    }
  }
  job->flag = std::move(flag);
  job->arrived_at = arrived_at;
  const int run_index = it->second->runs++;
  job->needs_credits = run_index > 0;
  // Sorted insert (see JobInstance::arrived_at): calls that genuinely
  // arrived earlier stay ahead; same-instant calls take a canonical order
  // independent of the drain interleaving that handled them.
  auto pos = std::upper_bound(
      jobs_.begin(), jobs_.end(), job,
      [](const std::unique_ptr<JobInstance>& a, const std::unique_ptr<JobInstance>& b) {
        return std::make_tuple(a->arrived_at, a->host_rank, a->req_id) <
               std::make_tuple(b->arrived_at, b->host_rank, b->req_id);
      });
  jobs_.insert(pos, std::move(job));
  // Arrivals that raced ahead of this call may already be buffered.
  for (auto a = pending_arrivals_.begin(); a != pending_arrivals_.end();) {
    if (match_arrival(*a)) {
      a = pending_arrivals_.erase(a);
    } else {
      ++a;
    }
  }
}

bool Proxy::match_arrival(const RecvArrivedMsg& a) {
  // Failover fence: the hosts completed this request on the fallback path —
  // swallow its arrivals (consumed, never re-queued) so a late or duplicate
  // delivery from a recovering peer proxy cannot resurrect the job. Keyed
  // by dst_req_id, the same identity the PR-2 matching fix introduced.
  if (!fenced_.empty() && fenced_.count({a.dst_rank, a.dst_req_id}) > 0) {
    if (auto* chk = rt_.engine().checker()) {
      chk->on_fenced_arrival(proc_, a.dst_rank, a.dst_req_id);
    }
    return true;
  }
  // The arrival names the receiver-side request it belongs to: match only
  // that job, never whichever instance happens to be first with the same
  // (src, tag) — two concurrent groups may legally share both. Within the
  // job, program order (FIFO per (src, tag)) still applies.
  for (auto& job : jobs_) {
    if (job->host_rank != a.dst_rank || job->req_id != a.dst_req_id) continue;
    auto it = job->recv_index.find({a.src_rank, a.tag});
    if (it == job->recv_index.end() || it->second.empty()) continue;
    const std::size_t idx = it->second.front();
    it->second.pop_front();
    job->state[idx].arrived = true;
    ++job->arrivals;
    return true;
  }
  return false;
}

sim::Task<bool> Proxy::process_combined() {
  bool moved = false;
  while (!combined_.empty()) {
    // In-flight cap for striped pairs. FIFO order is kept (head-of-line: a
    // gated chunk also parks monolithic pairs queued behind it — the simple,
    // deterministic rule; the cap reopens within one chunk's service time).
    if (combined_.front().rts.chunk.count > 1 && at_chunk_cap()) break;
    BasicPair pair = std::move(combined_.front());
    combined_.pop_front();
    moved = true;
    co_await charge_entry();
    sim_expect(pair.rts.len <= pair.rtr.len, "offloaded send longer than receive buffer");
    // Cross-register the host source buffer (cache-amortized; striped pairs
    // all share the single whole-buffer registration and offset into it),
    // then move the data straight from host memory to the destination host.
    auto mkey2 = co_await gvmi_cache_.get(vctx(), pair.rts.src_rank, pair.rts.src_info);
    if (pair.rts.chunk.count > 1) {
      // Segment of a striped message: delivery hook marks the chunk done on
      // both hosts' countdowns (same NIC event → both sides' views agree).
      auto scd = pair.rts.countdown;
      auto rcd = pair.rtr.countdown;
      const std::uint32_t idx = pair.rts.chunk.index;
      sim::Engine* eng = &rt_.engine();
      std::function<void()> hook = [scd, rcd, idx, eng] {
        if (auto* chk = eng->checker()) chk->on_chunk_delivered(scd.get(), rcd.get(), idx);
        if (scd && idx < scd->done.size()) scd->done[idx] = 1;
        if (rcd && idx < rcd->done.size()) rcd->done[idx] = 1;
      };
      note_chunk_issued();
      ++chunks_moved_;
      auto c = co_await vctx().post_rdma_write_on_behalf(
          mkey2, pair.rts.src_info.addr + pair.rts.chunk.offset,
          pair.rtr.dst_rank, pair.rtr.dst_rkey, pair.rtr.dst_addr, pair.rts.len,
          std::move(hook));
      c->subscribe([this] { note_chunk_done(); });
      fins_.push_back(FinPending{std::move(c), pair.rts.src_flag, pair.rts.src_rank,
                                 pair.rtr.dst_flag, pair.rtr.dst_rank,
                                 pair.rts.countdown});
      continue;
    }
    auto c = co_await vctx().post_rdma_write_on_behalf(
        mkey2, pair.rts.src_info.addr, pair.rtr.dst_rank, pair.rtr.dst_rkey,
        pair.rtr.dst_addr, pair.rts.len);
    fins_.push_back(FinPending{std::move(c), pair.rts.src_flag, pair.rts.src_rank,
                               pair.rtr.dst_flag, pair.rtr.dst_rank});
  }
  co_return moved;
}

sim::Task<bool> Proxy::process_chunk_work() {
  bool moved = false;
  while (!chunk_work_.empty()) {
    if (at_chunk_cap()) break;
    ChunkWorkMsg w = std::move(chunk_work_.front());
    chunk_work_.pop_front();
    moved = true;
    co_await charge_entry();
    // Shared-PD cross-registration of the WHOLE source buffer in this
    // worker's own cache (the node's workers front the same DPU HCA), then
    // the segment RDMA with the delivery hook the home built.
    auto mkey2 = co_await gvmi_cache_.get(vctx(), w.host_rank, w.src_info);
    note_chunk_issued();
    ++chunks_moved_;
    auto c = co_await vctx().post_rdma_write_on_behalf(
        mkey2, w.src_addr, w.dst_rank, w.dst_rkey, w.dst_addr, w.len,
        std::move(w.on_delivered));
    auto done = w.done;
    const int home = w.home_proxy;
    c->subscribe([this, done, home] {
      note_chunk_done();
      if (done) done->set();
      // The home's barrier/FIN logic observes `done`; wake its loop so the
      // observation is not deferred to its next unrelated arrival.
      rt_.verbs().ctx(home).activity().notify_all();
    });
  }
  co_return moved;
}

sim::Task<bool> Proxy::harvest_fins() {
  bool moved = false;
  // Index-based drain: the co_awaits below suspend this coroutine, and a
  // vector iterator held across a suspension dangles as soon as anything
  // grows fins_ in the meantime. Indices survive reallocation, and
  // re-reading size() each step picks up entries appended mid-drain.
  for (std::size_t i = 0; i < fins_.size();) {
    if (!fins_[i].completion->is_set()) {
      ++i;
      continue;
    }
    FinPending fin = std::move(fins_[i]);
    fins_.erase(fins_.begin() + static_cast<std::ptrdiff_t>(i));
    moved = true;
    if (fin.countdown) {
      // Striped pair: aggregate. Only the harvest that zeroes the shared
      // countdown fires the FIN pair — exactly once per chunk-set.
      if (--fin.countdown->remaining > 0) continue;
      ++rt_.engine().metrics().counter("stripe.aggregations");
    }
    if (auto* chk = rt_.engine().checker()) {
      chk->on_fin_pair(fin.src_flag, fin.dst_flag, fin.src_rank, fin.dst_rank);
    }
    // FIN packets: completion-counter updates RDMA-written into both hosts'
    // memory (fig. 8, final step).
    co_await retx_.flag_write(fin.src_rank, fin.src_flag, fin.src_rank);
    co_await retx_.flag_write(fin.dst_rank, fin.dst_flag, fin.dst_rank);
    ++basic_done_;
    ++rt_.tenant_stats(rt_.spec().tenant_of_host(fin.src_rank)).pairs_completed;
  }
  co_return moved;
}

std::function<void()> Proxy::make_group_send_hook(const JobInstance& job,
                                                  const GroupEntryWire& e) {
  const int dst_proxy = rt_.spec().proxy_for_host(e.peer);
  // The write's immediate is consumed by the destination-side proxy and
  // drives its receive tracking. Under faults the immediate becomes a
  // reliable ctrl message fired at delivery time — an immediate lost with
  // its carrier has no hardware retry of its own.
  std::function<void()> imm_hook = retx_.make_hook(
      dst_proxy, kProxyInbox,
      RecvArrivedMsg{job.host_rank, e.peer, e.tag, e.dst_req_id});
  if (rt_.spec().fault.liveness_enabled()) {
    // Liveness runs also notify BOTH hosts at delivery time (NIC events, so
    // they fire even if this proxy has died by then): the receiver learns
    // which transfers already landed in its buffers, the sender learns which
    // of its sends delivered. Because the two notices come from the same
    // delivery event, the two ends' failover skip-sets always agree — the
    // property that makes the host replay free of duplicate delivery.
    auto* pctx = &vctx();
    const RecvArrivedMsg arr{job.host_rank, e.peer, e.tag, e.dst_req_id};
    const SendDeliveredMsg sd{job.req_id, e.peer, e.tag};
    const int src_host = job.host_rank;
    const int dst_host = e.peer;
    std::function<void()> inner = std::move(imm_hook);
    imm_hook = [pctx, inner = std::move(inner), arr, sd, src_host, dst_host] {
      inner();
      // lint: raw-post ok: liveness notices model NIC-generated events that
      // must fire even after this proxy dies; routing them through the
      // retransmitter would tie their delivery to proxy-CPU liveness.
      pctx->post_ctrl_raw(dst_host, kHostLiveInbox, arr, 0);
      pctx->post_ctrl_raw(src_host, kHostLiveInbox, sd, 0);
    };
  }
  return imm_hook;
}

sim::Task<void> Proxy::post_group_send(JobInstance& job, std::size_t idx) {
  auto& tmpl = *job.tmpl;
  const auto& e = tmpl.entries[idx];
  if (e.chunk.count > 1 && e.chunk.owner_proxy >= 0 && e.chunk.owner_proxy != proc_) {
    // Striped entry owned by a sibling worker: delegate the byte movement,
    // keep the bookkeeping here. The home stays the single writer of the
    // job's barrier sets and FIN — the sibling only posts the RDMA and sets
    // the completion the home subscribed.
    ChunkWorkMsg w;
    w.home_proxy = proc_;
    w.host_rank = job.host_rank;
    w.src_info = e.src_info;
    w.src_addr = e.src_addr;
    w.dst_rank = e.peer;
    w.dst_rkey = e.dst_rkey;
    w.dst_addr = e.dst_addr;
    w.len = e.len;
    w.on_delivered = make_group_send_hook(job, e);
    auto done = std::make_shared<sim::Event>(rt_.engine());
    done->subscribe([counter = job.sends_done] { ++*counter; });
    w.done = done;
    job.state[idx].posted = true;
    job.state[idx].completion = std::move(done);
    ProxyCtrl body = std::move(w);
    co_await retx_.send(e.chunk.owner_proxy, kProxyInbox, std::move(body), 64);
    co_return;
  }
  if (tmpl.mkey2[idx] == 0) {
    // Resolve via the DPU GVMI cache and memoize in the template so cached
    // re-runs skip even the cache search (§VII-D).
    tmpl.mkey2[idx] = co_await gvmi_cache_.get(vctx(), job.host_rank, e.src_info);
  }
  // Hook bound to a named local first (GCC 12 temporary-argument bug, see
  // sim/task.h).
  std::function<void()> imm_hook = make_group_send_hook(job, e);
  const bool chunked = e.chunk.count > 1;
  if (chunked) {
    note_chunk_issued();
    ++chunks_moved_;
  }
  auto c = co_await vctx().post_rdma_write_on_behalf(
      tmpl.mkey2[idx], e.src_addr, e.peer, e.dst_rkey, e.dst_addr, e.len,
      std::move(imm_hook));
  job.state[idx].posted = true;
  if (chunked) c->subscribe([this] { note_chunk_done(); });
  c->subscribe([counter = job.sends_done] { ++*counter; });
  job.state[idx].completion = std::move(c);
}

sim::Task<bool> Proxy::advance_one(JobInstance& job) {
  const auto& entries = job.tmpl->entries;
  bool moved = false;
  while (job.next < entries.size()) {
    const auto& e = entries[job.next];
    if (e.type == GopType::kSend) {
      // In-flight cap for striped segments this worker moves itself
      // (delegated segments are capped at their owner). Checked before the
      // credit so a gated chunk never consumes one.
      if (e.chunk.count > 1 &&
          (e.chunk.owner_proxy < 0 || e.chunk.owner_proxy == proc_) &&
          at_chunk_cap()) {
        break;
      }
      // Receive-readiness flow control (re-calls only): block until the
      // destination proxy granted a credit for this (src, dst, tag).
      if (job.needs_credits) {
        auto cit = credits_.find({job.host_rank, e.peer, e.tag});
        if (cit == credits_.end() || cit->second == 0) {
          ++credit_gated_;
          break;
        }
        --cit->second;
      }
      co_await charge_entry();
      co_await post_group_send(job, job.next);
      job.send_rank_set.insert(e.peer);
      ++job.next;
      moved = true;
    } else if (e.type == GopType::kRecv) {
      co_await charge_entry();
      job.recv_rank_set.insert(e.peer);
      ++job.next;
      moved = true;
    } else {  // kBarrier (Algorithm 1)
      // All preceding sends must have completed...
      bool sends_done = true;
      for (std::size_t i = 0; i < job.next; ++i) {
        if (entries[i].type == GopType::kSend && !job.state[i].completion->is_set()) {
          sends_done = false;
          break;
        }
      }
      if (!sends_done) break;  // back to the progress engine
      // ...then the barrier count is written to the proxies of sendRankSet
      // (cost-model faithful to fig. 10)...
      if (!job.send_rank_set.empty()) {
        ++job.num_barriers;
        for (int dst : job.send_rank_set) {
          ProxyCtrl bc = BarrierCntrMsg{job.host_rank, dst, job.num_barriers};
          co_await retx_.send(rt_.spec().proxy_for_host(dst), kProxyInbox, std::move(bc), 0);
          ++barrier_msgs_;
        }
        job.send_rank_set.clear();
      }
      // ...and all preceding receives must have arrived.
      bool recvs_done = true;
      for (std::size_t i = 0; i < job.next; ++i) {
        if (entries[i].type == GopType::kRecv && !job.state[i].arrived) {
          recvs_done = false;
          break;
        }
      }
      if (!recvs_done) break;  // blocked: revisit on next loop iteration
      job.recv_rank_set.clear();
      co_await charge_entry();
      ++job.next;
      moved = true;
    }
  }

  if (job.next >= entries.size() && !job.fin_sent) {
    // Completion condition: every send's write finished and every receive
    // arrived; then update the completion counter in host memory.
    if (*job.sends_done < job.sends_total || job.arrivals < job.recvs_total)
      co_return moved;
    if (auto* chk = rt_.engine().checker()) {
      chk->on_group_fin(proc_, job.host_rank, job.req_id, job.flag);
    }
    co_await retx_.flag_write(job.host_rank, job.flag, job.host_rank);
    job.fin_sent = true;
    ++jobs_done_;
    moved = true;
  }
  co_return moved;
}

sim::Task<void> Proxy::grant_credits(const JobInstance& job) {
  // Receive-readiness credits for the NEXT run of this request, batched per
  // source-side proxy (the fig. 10 counter exchange). Granted as soon as
  // this proxy's instance completes, not when the destination host re-arms
  // its receives with the next group_call. This is not MPI persistent-
  // request semantics, where only MPI_Start re-arms a receive: a sender's
  // next run may overwrite a receive buffer after the host's group_wait
  // returned and before it calls group_call again, so a host still reading
  // that buffer can observe next-run data (an open defect, see ROADMAP.md).
  std::map<int, CreditBatchMsg> batches;
  for (const auto& e : job.tmpl->entries) {
    if (e.type != GopType::kRecv) continue;
    batches[rt_.spec().proxy_for_host(e.peer)].credits.push_back(
        CreditMsg{e.peer, job.host_rank, e.tag});
  }
  for (auto& [proxy, batch] : batches) {
    const auto bytes = batch.credits.size() * 12;
    ProxyCtrl body = std::move(batch);
    co_await retx_.send(proxy, kProxyInbox, std::move(body), bytes);
  }
}

bool Proxy::dwfq_before(const JobInstance& a, const JobInstance& b) const {
  // Normalized service: sa/wa < sb/wb, cross-multiplied so no FP ever enters
  // the schedule (weights are small ints, service counts fit comfortably).
  const std::uint64_t sa = tenant_service_[static_cast<std::size_t>(a.tenant)];
  const std::uint64_t sb = tenant_service_[static_cast<std::size_t>(b.tenant)];
  const auto wa = static_cast<std::uint64_t>(rt_.spec().tenant_weight(a.tenant));
  const auto wb = static_cast<std::uint64_t>(rt_.spec().tenant_weight(b.tenant));
  if (sa * wb != sb * wa) return sa * wb < sb * wa;
  return std::make_tuple(a.arrived_at, a.host_rank, a.req_id) <
         std::make_tuple(b.arrived_at, b.host_rank, b.req_id);
}

sim::Task<bool> Proxy::advance_jobs() {
  // Deficit-weighted fair queueing: each sweep visits every live job once,
  // in the order (normalized tenant service, arrived_at, host, req) — the
  // tenant furthest below its weighted share always advances first, so one
  // tenant's deep backlog cannot starve another's fresh calls. A tenant's
  // jobs share one service count, so among them that order is jobs_ order,
  // and each pick only ranks every tenant's first unvisited job (its cursor
  // into jobs_). With one tenant this is the plain in-order sweep. Nothing
  // else touches jobs_ while the sweep runs: start_instance and the fence
  // handler run from run(), which is suspended in here. The order is a pure
  // function of simulated state (no wall clock, no RNG): the 8-seed
  // tie-shuffle matrix pins it, and advance_digest_ exposes it.
  bool moved = false;
  std::fill(tenant_cursor_.begin(), tenant_cursor_.end(), 0);
  for (;;) {
    std::size_t best = jobs_.size();
    for (std::size_t t = 0; t < tenant_cursor_.size(); ++t) {
      std::size_t& i = tenant_cursor_[t];
      while (i < jobs_.size() && jobs_[i]->tenant != static_cast<int>(t)) ++i;
      if (i == jobs_.size()) continue;
      if (best == jobs_.size() || dwfq_before(*jobs_[i], *jobs_[best])) best = i;
    }
    if (best == jobs_.size()) break;
    JobInstance& job = *jobs_[best];
    const int tenant = job.tenant;
    const std::size_t cursor_before = job.next;
    if (co_await advance_one(job)) {
      moved = true;
      // Service charge: template entries the pick got through (min 1 — a
      // pick that only fired the FIN still consumed the proxy).
      std::uint64_t charge = job.next - cursor_before;
      if (charge == 0) charge = 1;
      tenant_service_[static_cast<std::size_t>(tenant)] += charge;
      rt_.tenant_stats(tenant).entries_advanced += charge;
      for (std::uint64_t v : {static_cast<std::uint64_t>(tenant),
                              static_cast<std::uint64_t>(job.host_rank), job.req_id, charge}) {
        advance_digest_ = (advance_digest_ ^ v) * 1099511628211ull;
      }
    }
    if (!job.fin_sent) {
      ++tenant_cursor_[static_cast<std::size_t>(tenant)];
      continue;
    }
    auto done = std::move(jobs_[best]);
    jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(best));
    for (std::size_t& i : tenant_cursor_) {
      if (i > best) --i;
    }
    ++rt_.tenant_stats(tenant).jobs_completed;
    co_await grant_credits(*done);
  }
  co_return moved;
}

}  // namespace dpu::offload
