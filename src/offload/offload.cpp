#include "offload/offload.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "analysis/invariants.h"
#include "common/check.h"
#include "offload/stripe.h"

namespace dpu::offload {

// ---------------------------------------------------------------------------
// OffloadRuntime
// ---------------------------------------------------------------------------

OffloadRuntime::OffloadRuntime(verbs::Runtime& vrt) : vrt_(vrt) {
  const auto& spec = vrt.spec();
  // One TenantStats per tenant, the implicit tenant of a single-tenant world
  // included. Only multi-tenant worlds link them (and keep quota state), so
  // single-tenant metrics JSON stays byte-identical.
  auto& reg = vrt.engine().metrics();
  for (int t = 0; t < spec.num_tenants(); ++t) {
    auto st = std::make_unique<TenantStats>();
    if (spec.multi_tenant()) {
      const std::string prefix = "offload.tenant" + std::to_string(t) + ".";
      reg.link(prefix + "ops_admitted", &st->ops_admitted);
      reg.link(prefix + "ops_rejected", &st->ops_rejected);
      reg.link(prefix + "ops_degraded", &st->ops_degraded);
      reg.link(prefix + "pairs_completed", &st->pairs_completed);
      reg.link(prefix + "jobs_completed", &st->jobs_completed);
      reg.link(prefix + "entries_advanced", &st->entries_advanced);
    }
    tenant_stats_.push_back(std::move(st));
  }
  if (spec.multi_tenant()) {
    tenant_inflight_.assign(static_cast<std::size_t>(spec.num_tenants()), 0);
  }
  // Proxies first (Init_Offload generates GVMI-IDs on the DPU side and the
  // ids are exchanged with every process in the global communicator).
  for (int p = spec.total_host_ranks(); p < spec.total_procs(); ++p) {
    proxies_.push_back(std::make_unique<Proxy>(*this, p));
  }
  for (int r = 0; r < spec.total_host_ranks(); ++r) {
    endpoints_.push_back(std::make_unique<OffloadEndpoint>(*this, r));
  }
}

bool OffloadRuntime::admit(int tenant) {
  if (tenant_inflight_.empty()) return true;  // single-tenant: no quota state
  const auto& ts = spec().tenants.at(static_cast<std::size_t>(tenant));
  auto& inflight = tenant_inflight_.at(static_cast<std::size_t>(tenant));
  if (ts.max_inflight > 0 && inflight >= ts.max_inflight) {
    ++tenant_stats(tenant).ops_rejected;
    return false;
  }
  ++inflight;
  ++tenant_stats(tenant).ops_admitted;
  return true;
}

void OffloadRuntime::release(int tenant) {
  if (tenant_inflight_.empty()) return;
  --tenant_inflight_.at(static_cast<std::size_t>(tenant));
}

Proxy& OffloadRuntime::proxy(int proxy_proc_id) {
  const int idx = proxy_proc_id - spec().total_host_ranks();
  return *proxies_.at(static_cast<std::size_t>(idx));
}

verbs::GvmiId OffloadRuntime::gvmi_of(int proxy_proc_id) const {
  const int idx = proxy_proc_id - vrt_.spec().total_host_ranks();
  return proxies_.at(static_cast<std::size_t>(idx))->gvmi();
}

void OffloadRuntime::start() {
  require(!started_, "OffloadRuntime::start called twice");
  started_ = true;
  for (auto& p : proxies_) {
    engine().spawn(p->run(), "proxy" + std::to_string(p->proc_id()));
  }
  // Process-level failure schedule: plain engine timers at exact virtual
  // times. No RNG is drawn and no timer exists when the list is empty, so a
  // failure-free schedule stays bit-identical to a build without the model.
  for (const auto& pf : spec().fault.proxy_failures) {
    Proxy* p = &proxy(pf.proxy);
    const bool hang = pf.hang;
    engine().schedule_at(from_us(pf.at_us), [p, hang] {
      if (hang) {
        p->inject_hang();
      } else {
        p->inject_crash();
      }
    });
    if (pf.hang && pf.hang_for_us >= 0.0) {
      engine().schedule_at(from_us(pf.at_us + pf.hang_for_us),
                           [p] { p->recover_from_hang(); });
    }
  }
}

// ---------------------------------------------------------------------------
// OffloadEndpoint — construction and liveness plumbing
// ---------------------------------------------------------------------------

OffloadEndpoint::OffloadEndpoint(OffloadRuntime& rt, int rank)
    : rt_(rt), rank_(rank), tenant_(rt.spec().tenant_of_host(rank)),
      gvmi_cache_(rt.spec().total_procs(), rt.spec().cost.reg_cache_capacity),
      ib_cache_(1, rt.spec().cost.reg_cache_capacity),
      retx_(rt.verbs().ctx(rank)) {
  auto& reg = rt_.engine().metrics();
  const std::string prefix = "offload.host" + std::to_string(rank_) + ".";
  reg.link(prefix + "group_cache.hits", &group_hits_);
  reg.link(prefix + "group_cache.misses", &group_misses_);
  reg.link(prefix + "ctrl_msgs_sent", &ctrl_sent_);
  reg.link(prefix + "retries", &retx_.retries());
  reg.link(prefix + "dup_dropped", &dup_dropped_);
  gvmi_cache_.link(reg, prefix + "gvmi_cache.");
  ib_cache_.link(reg, prefix + "ib_cache.");
  // Gated links keep existing configurations' metrics JSON byte-identical:
  // striping counters only exist when the segmented data path is armed.
  if (rt_.spec().cost.stripe_enabled()) {
    reg.link(prefix + "bytes_striped", &bytes_striped_);
  }
  if (rt_.spec().fault.liveness_enabled()) {
    // Liveness metrics are linked only when the model is armed so clean-run
    // JSON exports stay byte-identical to builds without the feature.
    reg.link(prefix + "hb_sent", &hb_sent_);
    reg.link(prefix + "hb_acked", &hb_acked_);
    reg.link(prefix + "hb_missed", &hb_missed_);
    reg.link(prefix + "hb_rtt_total_ns", &hb_rtt_total_ns_);
    reg.link(prefix + "hb_rtt_max_ns", &hb_rtt_max_ns_);
    reg.link(prefix + "proxy_suspected", &suspected_ctr_);
    reg.link(prefix + "proxy_confirmed_dead", &confirmed_dead_ctr_);
    reg.link(prefix + "lease_reacquired", &lease_reacquired_);
    reg.link(prefix + "degrade_certs_received", &certs_received_);
    reg.link(prefix + "degraded_ops", &degraded_ops_);
    reg.link(prefix + "finalize_timeouts", &finalize_timeouts_);
    reg.link(prefix + "retx_give_ups", &retx_.give_ups());
  }
  if (giveup_watch_on()) {
    retx_.on_give_up([this](int dst) { poison_unreachable(dst); });
  }
}

verbs::ProcCtx& OffloadEndpoint::vctx() { return rt_.verbs().ctx(rank_); }

bool OffloadEndpoint::liveness_on() const {
  return rt_.spec().fault.liveness_enabled();
}

bool OffloadEndpoint::giveup_watch_on() const {
  // Fault-only mode: the supervised polling waits of the liveness model would
  // perturb event timing (and hence reshuffle the seeded fault schedule), so
  // waits stay pure event waits; instead a Retransmitter give-up poisons the
  // flags of every op that depended on the unreachable process, and Wait
  // translates the mark into Status::kUnreachable. In liveness mode the
  // supervised loops observe give-ups themselves (proxy_presumed_dead).
  return rt_.spec().fault.enabled && !liveness_on();
}

void OffloadEndpoint::poison_unreachable(int dst_proc) {
  dead_proxies_.insert(dst_proc);
  for (auto it = watched_basic_.begin(); it != watched_basic_.end();) {
    auto req = it->lock();
    if (!req || req->flag->is_set()) {
      it = watched_basic_.erase(it);
      continue;
    }
    bool depends = req->dep_proxy == dst_proc;
    // Striped ops depend on every chunk-owner proxy, not just the home.
    for (const auto& cs : req->chunks) {
      depends = depends || cs.info.owner_proxy == dst_proc;
    }
    if (depends) {
      req->unreachable = true;
      req->flag->set();
      it = watched_basic_.erase(it);
      continue;
    }
    ++it;
  }
  for (auto it = watched_groups_.begin(); it != watched_groups_.end();) {
    auto g = it->lock();
    if (!g || !g->current_flag || g->current_flag->is_set()) {
      it = watched_groups_.erase(it);
      continue;
    }
    if (current_target(*g) == dst_proc) {
      g->unreachable = true;
      g->current_flag->set();
      it = watched_groups_.erase(it);
      continue;
    }
    ++it;
  }
}

OffloadEndpoint::Monitor& OffloadEndpoint::monitor(int proxy) {
  auto [it, fresh] = monitors_.try_emplace(proxy);
  if (fresh) {
    it->second.last_ack = rt_.engine().now();
    it->second.last_pump = rt_.engine().now();
    if (dead_proxies_.count(proxy) > 0) it->second.dead = true;
  }
  return it->second;
}

bool OffloadEndpoint::proxy_presumed_dead(int proxy) const {
  return dead_proxies_.count(proxy) > 0 || retx_.gave_up_on(proxy);
}

bool OffloadEndpoint::failover_ready() const {
  return rt_.mpi_world() != nullptr && rt_.spec().fault.failover;
}

SimDuration OffloadEndpoint::wait_tick() const {
  return from_us(std::max(1.0, rt_.spec().fault.hb_period_us / 4.0));
}

void OffloadEndpoint::drain_liveness() {
  if (!liveness_on()) return;
  auto& box = vctx().inbox(kHostLiveInbox);
  while (auto msg = box.try_recv()) {
    std::visit([this](const auto& m) { on(m); }, msg->body);
  }
}

void OffloadEndpoint::on(const HeartbeatAckMsg& ack) {
  auto& m = monitor(ack.proxy);
  ++hb_acked_;
  auto it = m.outstanding.find(ack.seq);
  if (it != m.outstanding.end()) {
    const auto rtt_ns =
        static_cast<std::uint64_t>(to_us(rt_.engine().now() - it->second) * 1000.0);
    hb_rtt_total_ns_ += rtt_ns;
    if (rtt_ns > hb_rtt_max_ns_.value()) hb_rtt_max_ns_.set(rtt_ns);
    // Older unanswered probes are superseded by this reply.
    m.outstanding.erase(m.outstanding.begin(), std::next(it));
  }
  // A confirmed death is terminal even if the proxy later answers (an
  // unbounded hang that recovered): failover already committed, and the
  // fences make any late proxy work harmless.
  if (!m.dead) {
    m.last_ack = rt_.engine().now();
    if (m.suspected) {
      m.suspected = false;
      ++lease_reacquired_;
    }
  }
}

void OffloadEndpoint::on(const StopAckMsg& sa) {
  stop_acked_.insert(sa.proxy);
  auto& m = monitor(sa.proxy);
  if (!m.dead) m.last_ack = rt_.engine().now();
}

void OffloadEndpoint::on(const RecvArrivedMsg& arr) {
  ++arrivals_seen_[{arr.dst_req_id, arr.src_rank, arr.tag}];
}

void OffloadEndpoint::on(const SendDeliveredMsg& sd) {
  ++sends_delivered_[{sd.req_id, sd.dst_rank, sd.tag}];
}

void OffloadEndpoint::on(const DegradeMsg& dm) {
  ++certs_received_;
  if (dm.dead_proxy >= 0 && rt_.spec().is_proxy(dm.dead_proxy)) {
    if (dead_proxies_.insert(dm.dead_proxy).second) {
      monitor(dm.dead_proxy).dead = true;
    }
  }
  if (dm.group) pending_degrades_.push_back(dm);
}

sim::Task<void> OffloadEndpoint::pump_monitors() {
  if (!liveness_on()) co_return;
  const auto& f = rt_.spec().fault;
  const SimDuration period = from_us(f.hb_period_us);
  for (auto& [proxy, m] : monitors_) {
    if (m.dead) continue;
    const SimTime now = rt_.engine().now();
    // A long compute gap between waits is host silence, not proxy silence:
    // the host was not listening for replies, so restart the lease clock
    // instead of insta-confirming a death it never probed for.
    if (now - m.last_pump > 2 * period) m.last_ack = now;
    m.last_pump = now;
    if (now - m.last_beat >= period) {
      if (!m.outstanding.empty()) ++hb_missed_;
      const std::uint64_t seq = m.next_seq++;
      m.outstanding.emplace(seq, now);
      m.last_beat = now;
      ++hb_sent_;
      ProxyLive beat = HeartbeatMsg{rank_, seq};
      co_await vctx().post_ctrl(proxy, kProxyLiveInbox, std::move(beat), 0);
    }
    if (!m.suspected && now - m.last_ack > from_us(f.hb_suspect_after_us)) {
      m.suspected = true;
      ++suspected_ctr_;
    }
    if (now - m.last_ack > from_us(f.hb_confirm_after_us)) {
      m.dead = true;
      ++confirmed_dead_ctr_;
      dead_proxies_.insert(proxy);
    }
  }
}

// ---------------------------------------------------------------------------
// OffloadEndpoint — basic primitives
// ---------------------------------------------------------------------------

sim::Task<OffloadReqPtr> OffloadEndpoint::send_offload(machine::Addr addr, std::size_t len,
                                                       int dst, int tag) {
  sim_expect(dst != rank_, "offloaded self-send is not supported");
  auto& vctx = rt_.verbs().ctx(rank_);
  const int proxy = rt_.spec().proxy_for_host(rank_);
  auto req = std::make_shared<OffloadRequest>();
  req->flag = std::make_shared<sim::Event>(rt_.engine());
  req->is_send = true;
  req->addr = addr;
  req->len = len;
  req->peer = dst;
  req->tag = tag;
  req->dep_proxy = proxy;
  if (!rt_.admit(tenant_)) {
    // Tenant over its max_inflight quota: refuse up front — no registration,
    // no control message, no proxy work. The flag is set so Wait returns
    // immediately (with kRejected).
    req->rejected = true;
    req->flag->set();
    co_return req;
  }
  req->flag->subscribe([this] { rt_.release(tenant_); });
  const auto chunks = plan_chunks(rt_.spec(), rank_, len);
  if (giveup_watch_on()) watched_basic_.push_back(req);
  if (liveness_on()) {
    monitor(proxy);
    if (failover_ready() && proxy_presumed_dead(proxy) && chunks.empty()) {
      // The proxy is already written off: skip it (and its registration
      // cost) entirely and issue the op on the host path right away.
      // Striped ops never take this shortcut: both ends must agree
      // PER CHUNK on rdma-vs-fallback, and the only rule that guarantees
      // that without a handshake is "post everything, replay dead owners'
      // chunks in wait" — a monolithic degrade here while the peer stripes
      // would deadlock the live owners' segments.
      co_await degrade_basic(req);
      co_return req;
    }
  }
  // First (host-side) GVMI registration against the proxy's GVMI-ID,
  // amortized by the array-of-BST cache. Striped messages register the WHOLE
  // buffer exactly once against the home proxy's GVMI — every segment
  // offsets into this single entry (no per-chunk cache entries).
  auto info = co_await gvmi_cache_.get(vctx, proxy, rt_.gvmi_of(proxy), addr, len);
  if (!chunks.empty()) {
    req->cd = std::make_shared<ChunkCountdown>();
    req->cd->remaining = static_cast<int>(chunks.size());
    req->cd->done.assign(chunks.size(), 0);
    req->chunks.reserve(chunks.size());
    bytes_striped_ += len;
    if (auto* chk = rt_.engine().checker()) {
      chk->on_countdown(req->cd, /*sender_side=*/true,
                        static_cast<std::uint32_t>(chunks.size()), rank_, dst, tag);
    }
    for (const auto& ck : chunks) {
      req->chunks.push_back(OffloadRequest::ChunkState{ck, false, {}});
      if (liveness_on()) monitor(ck.owner_proxy);
      const std::size_t clen =
          chunk_len(len, rt_.spec().cost.chunk_bytes, ck.index, ck.count);
      if (auto* chk = rt_.engine().checker()) chk->on_rts(rank_, dst, tag, ck.index, ck.count);
      ProxyCtrl rts = RtsProxyMsg{rank_, dst, tag, clen, info, req->flag, ck, req->cd};
      co_await retx_.send(ck.owner_proxy, kProxyInbox, std::move(rts), 0);
      ++ctrl_sent_;
    }
    co_return req;
  }
  // NB: named locals, not temporaries — see the GCC 12 note in sim/task.h.
  if (auto* chk = rt_.engine().checker()) chk->on_rts(rank_, dst, tag, 0, 1);
  ProxyCtrl rts = RtsProxyMsg{rank_, dst, tag, len, info, req->flag, {}, {}};
  co_await retx_.send(proxy, kProxyInbox, std::move(rts), 0);
  ++ctrl_sent_;
  co_return req;
}

sim::Task<OffloadReqPtr> OffloadEndpoint::recv_offload(machine::Addr addr, std::size_t len,
                                                       int src, int tag) {
  sim_expect(src != rank_, "offloaded self-receive is not supported");
  auto& vctx = rt_.verbs().ctx(rank_);
  // The data mover is the proxy mapped to the *source* host process.
  const int proxy = rt_.spec().proxy_for_host(src);
  auto req = std::make_shared<OffloadRequest>();
  req->flag = std::make_shared<sim::Event>(rt_.engine());
  req->is_send = false;
  req->addr = addr;
  req->len = len;
  req->peer = src;
  req->tag = tag;
  req->dep_proxy = proxy;
  if (!rt_.admit(tenant_)) {
    req->rejected = true;
    req->flag->set();
    co_return req;
  }
  req->flag->subscribe([this] { rt_.release(tenant_); });
  const auto chunks = plan_chunks(rt_.spec(), src, len);
  if (giveup_watch_on()) watched_basic_.push_back(req);
  if (liveness_on()) {
    monitor(proxy);
    if (failover_ready() && proxy_presumed_dead(proxy) && chunks.empty()) {
      // Striped ops skip this shortcut — see send_offload.
      co_await degrade_basic(req);
      co_return req;
    }
  }
  // One IB registration of the whole receive buffer; striped RTRs all carry
  // its rkey and per-segment offset addresses.
  auto mr = co_await ib_cache_.get(vctx, addr, len);
  if (!chunks.empty()) {
    // Receiver-side countdown: an independent done-bit view fed by the same
    // delivery hooks (the proxy marks both sides' countdowns per chunk).
    req->cd = std::make_shared<ChunkCountdown>();
    req->cd->remaining = static_cast<int>(chunks.size());
    req->cd->done.assign(chunks.size(), 0);
    req->chunks.reserve(chunks.size());
    if (auto* chk = rt_.engine().checker()) {
      chk->on_countdown(req->cd, /*sender_side=*/false,
                        static_cast<std::uint32_t>(chunks.size()), src, rank_, tag);
    }
    for (const auto& ck : chunks) {
      req->chunks.push_back(OffloadRequest::ChunkState{ck, false, {}});
      if (liveness_on()) monitor(ck.owner_proxy);
      const std::size_t clen =
          chunk_len(len, rt_.spec().cost.chunk_bytes, ck.index, ck.count);
      if (auto* chk = rt_.engine().checker()) chk->on_rtr(src, rank_, tag, ck.index, ck.count);
      ProxyCtrl rtr =
          RtrProxyMsg{src, rank_, tag, clen, addr + ck.offset, mr.rkey, req->flag, ck, req->cd};
      co_await retx_.send(ck.owner_proxy, kProxyInbox, std::move(rtr), 0);
      ++ctrl_sent_;
    }
    co_return req;
  }
  if (auto* chk = rt_.engine().checker()) chk->on_rtr(src, rank_, tag, 0, 1);
  ProxyCtrl rtr = RtrProxyMsg{src, rank_, tag, len, addr, mr.rkey, req->flag, {}, {}};
  co_await retx_.send(proxy, kProxyInbox, std::move(rtr), 0);
  ++ctrl_sent_;
  co_return req;
}

sim::Task<void> OffloadEndpoint::degrade_basic(const OffloadReqPtr& req) {
  req->degraded = true;
  ++rt_.engine().metrics().counter("offload.failover.basic_degraded");
  ++rt_.tenant_stats(tenant_).ops_degraded;
  // Best-effort fence: a hung proxy that later recovers must not re-run a
  // pair the hosts already completed on the fallback path.
  const int src = req->is_send ? rank_ : req->peer;
  const int dst = req->is_send ? req->peer : rank_;
  if (auto* chk = rt_.engine().checker()) {
    chk->on_basic_degraded(src, dst, req->tag);
    chk->on_degrade_cert(rank_, req->peer, req->dep_proxy);
  }
  ProxyLive fence = FenceBasicMsg{src, dst, req->tag};
  co_await vctx().post_ctrl(req->dep_proxy, kProxyLiveInbox, std::move(fence), 0);
  // Death certificate to the counterparty so it degrades without waiting
  // out its own detection window (both ends of a basic pair depend on the
  // same source-side proxy).
  HostLive cert = DegradeMsg{rank_, req->dep_proxy, false, {}};
  co_await vctx().post_ctrl(req->peer, kHostLiveInbox, std::move(cert), 0);
  // Re-execute on the host-driven path, in a context no healthy minimpi
  // traffic — and no OTHER TENANT's concurrent failover — can match: the
  // context is derived from this endpoint's tenant, so two communicators
  // degrading in the same instant replay in disjoint context spaces.
  auto& mc = rt_.mpi_world()->ctx(rank_);
  const int fb_ctx = failover_basic_context(tenant_);
  if (req->is_send) {
    req->fallback = co_await mc.isend(req->addr, req->len, req->peer, req->tag, fb_ctx);
  } else {
    req->fallback = co_await mc.irecv(req->addr, req->len, req->peer, req->tag, fb_ctx);
  }
}

sim::Task<bool> OffloadEndpoint::advance_striped(const OffloadReqPtr& req) {
  // Newly-dead owners: replay ALL their chunks on the host path, regardless
  // of done bits. Ownership is static, so both ends pick the same replay set
  // without agreeing on which chunks landed (a crashed proxy's in-flight
  // RDMA may deliver between the two hosts' detection times); a duplicate
  // delivery writes the same bytes at the same offset and is harmless.
  std::set<int> newly_dead;
  for (const auto& cs : req->chunks) {
    if (!cs.fb_posted && proxy_presumed_dead(cs.info.owner_proxy)) {
      newly_dead.insert(cs.info.owner_proxy);
    }
  }
  if (!newly_dead.empty()) {
    if (!failover_ready()) {
      req->unreachable = true;
      req->flag->set();
      co_return true;
    }
    req->degraded = true;
    ++rt_.tenant_stats(tenant_).ops_degraded;
    const int src = req->is_send ? rank_ : req->peer;
    const int dst = req->is_send ? req->peer : rank_;
    if (auto* chk = rt_.engine().checker()) chk->on_basic_degraded(src, dst, req->tag);
    for (int owner : newly_dead) {
      // Fence the dead owner (erase_pair matches every chunk index of the
      // tag at that proxy only) and send the counterparty a certificate so
      // it replays the same owner's chunks without its own detection wait.
      if (auto* chk = rt_.engine().checker()) {
        chk->on_degrade_cert(rank_, req->peer, owner);
      }
      ProxyLive fence = FenceBasicMsg{src, dst, req->tag};
      co_await vctx().post_ctrl(owner, kProxyLiveInbox, std::move(fence), 0);
      HostLive cert = DegradeMsg{rank_, owner, false, {}};
      co_await vctx().post_ctrl(req->peer, kHostLiveInbox, std::move(cert), 0);
    }
    auto& mc = rt_.mpi_world()->ctx(rank_);
    const int fb_ctx = failover_basic_context(tenant_);
    for (auto& cs : req->chunks) {
      if (cs.fb_posted || newly_dead.count(cs.info.owner_proxy) == 0) continue;
      const std::size_t clen = chunk_len(req->len, rt_.spec().cost.chunk_bytes,
                                         cs.info.index, cs.info.count);
      const int t = chunk_tag(req->tag, cs.info.index);
      if (req->is_send) {
        cs.fb = co_await mc.isend(req->addr + cs.info.offset, clen, req->peer, t, fb_ctx);
      } else {
        cs.fb = co_await mc.irecv(req->addr + cs.info.offset, clen, req->peer, t, fb_ctx);
      }
      cs.fb_posted = true;
      ++rt_.engine().metrics().counter("offload.failover.stripe_chunks_degraded");
    }
  }
  // Completion: every chunk either fallback-finished or delivered by its
  // (live) owner's RDMA. The aggregate FIN may also set the flag first; the
  // caller checks that before coming here.
  bool all = true;
  for (auto& cs : req->chunks) {
    if (cs.fb_posted) {
      auto& mc = rt_.mpi_world()->ctx(rank_);
      if (!co_await mc.test(cs.fb)) all = false;
    } else if (!(req->cd && cs.info.index < req->cd->done.size() &&
                 req->cd->done[cs.info.index])) {
      all = false;
    }
  }
  if (all) {
    if (req->degraded) {
      ++degraded_ops_;
      ++rt_.engine().metrics().counter("offload.failover.completed_degraded");
    }
    req->flag->set();
    co_return true;
  }
  co_return false;
}

sim::Task<Status> OffloadEndpoint::wait_many(std::vector<OffloadReqPtr> reqs) {
  auto& eng = rt_.engine();
  for (;;) {
    drain_liveness();
    co_await apply_pending_degrades();
    co_await pump_monitors();
    bool all_done = true;
    for (auto& req : reqs) {
      if (req->flag->is_set()) continue;
      if (!req->chunks.empty()) {
        if (!co_await advance_striped(req)) all_done = false;
        continue;
      }
      if (req->fallback) {
        auto& mc = rt_.mpi_world()->ctx(rank_);
        const bool done = co_await mc.test(req->fallback);
        if (done) {
          req->flag->set();
          ++degraded_ops_;
          ++eng.metrics().counter("offload.failover.completed_degraded");
          continue;
        }
      } else if (!req->degraded && req->dep_proxy >= 0 &&
                 proxy_presumed_dead(req->dep_proxy)) {
        if (!failover_ready()) co_return Status::kUnreachable;
        co_await degrade_basic(req);
      }
      all_done = false;
    }
    if (all_done) break;
    co_await eng.sleep(wait_tick());
  }
  for (const auto& req : reqs) {
    if (req->unreachable) co_return Status::kUnreachable;
  }
  for (const auto& req : reqs) {
    if (req->rejected) co_return Status::kRejected;
  }
  for (const auto& req : reqs) {
    if (req->degraded) co_return Status::kDegraded;
  }
  co_return Status::kOk;
}

sim::Task<Status> OffloadEndpoint::wait(const OffloadReqPtr& req) {
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.mpi_call_us));
  if (!liveness_on()) {
    co_await req->flag->wait();
    if (req->unreachable) co_return Status::kUnreachable;
    co_return req->rejected ? Status::kRejected : Status::kOk;
  }
  std::vector<OffloadReqPtr> one;
  one.push_back(req);
  co_return co_await wait_many(std::move(one));
}

sim::Task<Status> OffloadEndpoint::waitall(std::span<const OffloadReqPtr> reqs) {
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.mpi_call_us));
  if (!liveness_on()) {
    Status st = Status::kOk;
    for (const auto& r : reqs) {
      co_await r->flag->wait();
      if (r->rejected && st == Status::kOk) st = Status::kRejected;
      if (r->unreachable) st = Status::kUnreachable;
    }
    co_return st;
  }
  co_return co_await wait_many(std::vector<OffloadReqPtr>(reqs.begin(), reqs.end()));
}

sim::Task<Status> OffloadEndpoint::finalize() {
  const int my_proxy = rt_.spec().proxy_for_host(rank_);
  if (rt_.spec().cost.stripe_enabled()) {
    // Striping: every worker on the node may hold delegated chunk work from
    // this host, so each expects a stop from every node-local host (see
    // Proxy::run). Siblings first — they must stop even when the home proxy
    // is dead and the home handling below bails out early.
    const int node = rt_.spec().node_of(rank_);
    for (int l = 0; l < rt_.spec().proxies_per_dpu; ++l) {
      const int p = rt_.spec().proxy_id(node, l);
      if (p == my_proxy) continue;
      // Only this tenant's workers ever received delegated chunks from this
      // host (fault-domain isolation), so only they expect its stop — a stop
      // at a foreign tenant's worker would skew its expected-stop accounting.
      if (!rt_.spec().proxy_serves_tenant(p, tenant_)) continue;
      ProxyCtrl stop = StopMsg{rank_};
      co_await retx_.send(p, kProxyInbox, std::move(stop), 0);
      ++ctrl_sent_;
    }
  }
  if (!liveness_on()) {
    ProxyCtrl stop = StopMsg{rank_};
    co_await retx_.send(my_proxy, kProxyInbox, std::move(stop), 0);
    ++ctrl_sent_;
    co_return retx_.gave_up_on(my_proxy) ? Status::kUnreachable : Status::kOk;
  }
  if (proxy_presumed_dead(my_proxy)) {
    // Nothing to hand over: the proxy is gone and every outstanding op was
    // already settled (or fenced) by the failover machinery.
    co_return Status::kDegraded;
  }
  ProxyCtrl stop = StopMsg{rank_};
  co_await retx_.send(my_proxy, kProxyInbox, std::move(stop), 0);
  ++ctrl_sent_;
  // Bounded drain: wait for the proxy's application-level StopAck instead of
  // trusting it blindly. A proxy that dies mid-shutdown (or hangs past the
  // window) is written off; its FIN accounting never blocks the host.
  auto& eng = rt_.engine();
  const SimTime deadline = eng.now() + from_us(rt_.spec().fault.finalize_drain_us);
  while (eng.now() < deadline) {
    drain_liveness();
    if (stop_acked_.count(my_proxy) > 0) co_return Status::kOk;
    if (proxy_presumed_dead(my_proxy)) break;
    co_await eng.sleep(wait_tick());
  }
  drain_liveness();
  if (stop_acked_.count(my_proxy) > 0) co_return Status::kOk;
  ++finalize_timeouts_;
  dead_proxies_.insert(my_proxy);
  monitor(my_proxy).dead = true;
  co_return Status::kDegraded;
}

sim::Task<void> OffloadEndpoint::invalidate(machine::Addr addr, std::size_t len) {
  const int my_proxy = rt_.spec().proxy_for_host(rank_);
  // Host-side entries (both cache layers).
  (void)gvmi_cache_.evict(my_proxy, addr, len);
  (void)ib_cache_.evict(addr, len);
  // DPU-side cross-registrations of this buffer at my proxy.
  ProxyCtrl inv = InvalidateMsg{rank_, addr, len};
  co_await retx_.send(my_proxy, kProxyInbox, std::move(inv), 0);
  ++ctrl_sent_;
}

sim::Task<bool> OffloadEndpoint::test(const OffloadReqPtr& req) {
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.mpi_call_us));
  if (liveness_on() && !req->flag->is_set() && !req->chunks.empty()) {
    drain_liveness();
    co_await pump_monitors();
    // lint: await-status ok: advance_striped is invoked for its side
    // effects (failover of dead chunks); completion is re-read from the flag.
    (void)co_await advance_striped(req);
    co_return req->flag->is_set();
  }
  if (liveness_on() && !req->flag->is_set() && req->fallback) {
    auto& mc = rt_.mpi_world()->ctx(rank_);
    const bool done = co_await mc.test(req->fallback);
    if (done) {
      req->flag->set();
      ++degraded_ops_;
      ++rt_.engine().metrics().counter("offload.failover.completed_degraded");
    }
  }
  co_return req->flag->is_set();
}

// ---------------------------------------------------------------------------
// OffloadEndpoint — group primitives
// ---------------------------------------------------------------------------

GroupReqPtr OffloadEndpoint::group_start() {
  auto req = std::make_shared<GroupRequest>();
  req->id = next_req_++;
  req->owner = rank_;
  return req;
}

void OffloadEndpoint::group_send(const GroupReqPtr& req, machine::Addr addr, std::size_t len,
                                 int dst, int tag) {
  require(!req->ended, "group_send after group_end");
  // Record-time striping: a large entry becomes `count` contiguous chunk
  // sub-entries with chunk-unique tags and offset addresses. Everything
  // downstream — metadata counts, FIFO matching, credits, barriers, the
  // failover ledgers — then works unchanged at chunk granularity. The plan
  // is keyed by the SENDER's rank, which the receiver also knows.
  const auto chunks = plan_chunks(rt_.spec(), rank_, len);
  if (!chunks.empty()) {
    bytes_striped_ += len;
    for (const auto& ck : chunks) {
      GroupEntryWire e;
      e.type = GopType::kSend;
      e.peer = dst;
      e.tag = chunk_tag(tag, ck.index);
      e.len = chunk_len(len, rt_.spec().cost.chunk_bytes, ck.index, ck.count);
      e.src_addr = addr + ck.offset;
      e.chunk = ck;
      req->ops.push_back(e);
    }
    return;
  }
  GroupEntryWire e;
  e.type = GopType::kSend;
  e.peer = dst;
  e.tag = tag;
  e.len = len;
  e.src_addr = addr;
  req->ops.push_back(e);
}

void OffloadEndpoint::group_recv(const GroupReqPtr& req, machine::Addr addr, std::size_t len,
                                 int src, int tag) {
  require(!req->ended, "group_recv after group_end");
  // Mirror of group_send's record-time split, planned with the SENDER's
  // rank so both sides cut identical segments.
  const auto chunks = plan_chunks(rt_.spec(), src, len);
  if (!chunks.empty()) {
    for (const auto& ck : chunks) {
      GroupEntryWire e;
      e.type = GopType::kRecv;
      e.peer = src;
      e.tag = chunk_tag(tag, ck.index);
      e.len = chunk_len(len, rt_.spec().cost.chunk_bytes, ck.index, ck.count);
      e.dst_addr = addr + ck.offset;
      e.chunk = ck;
      req->ops.push_back(e);
    }
    return;
  }
  GroupEntryWire e;
  e.type = GopType::kRecv;
  e.peer = src;
  e.tag = tag;
  e.len = len;
  e.dst_addr = addr;  // recv side: local destination buffer
  req->ops.push_back(e);
}

void OffloadEndpoint::group_barrier(const GroupReqPtr& req) {
  require(!req->ended, "group_barrier after group_end");
  GroupEntryWire e;
  e.type = GopType::kBarrier;
  req->ops.push_back(e);
}

void OffloadEndpoint::group_end(const GroupReqPtr& req) { req->ended = true; }

sim::Task<GroupMetaMsg> OffloadEndpoint::await_meta_from(int peer) {
  auto& buf = meta_buf_[peer];
  auto& vctx = rt_.verbs().ctx(rank_);
  auto& box = vctx.inbox(kGroupMetaInbox);
  for (;;) {
    if (!buf.empty()) {
      GroupMetaMsg m = std::move(buf.front());
      buf.pop_front();
      co_return m;
    }
    while (auto msg = box.try_recv()) {
      // Under faults the metadata carries a sequence header (the transport
      // acked it at delivery): drop replays.
      if (const auto& hdr = msg->body.hdr) {
        const bool fresh = dup_filter_.accept(hdr->sender, hdr->seq);
        if (auto* chk = rt_.engine().checker()) {
          chk->on_reliable_delivery(rank_, hdr->sender, hdr->seq, fresh);
        }
        if (!fresh) {
          ++dup_dropped_;
          continue;
        }
      }
      GroupMetaMsg& meta = msg->body.msg;
      meta_buf_[meta.from_rank].push_back(std::move(meta));
    }
    if (!buf.empty()) continue;
    co_await vctx.activity().wait();
  }
}

sim::Task<void> OffloadEndpoint::group_call(const GroupReqPtr& req) {
  sim_expect(req->ended, "group_call before group_end");
  sim_expect(req->owner == rank_, "group_call on a foreign request");
  auto& vctx = rt_.verbs().ctx(rank_);
  const auto& cost = rt_.spec().cost;
  co_await rt_.engine().sleep(from_us(cost.mpi_call_us));

  req->current_flag = std::make_shared<sim::Event>(rt_.engine());
  if (!rt_.admit(tenant_)) {
    // Over quota: the call never reaches the proxy (and the checker never
    // hears of it — a rejected call owes no FIN). group_wait returns
    // kRejected; the request stays recorded and may be re-called later.
    req->rejected = true;
    req->current_flag->set();
    co_return;
  }
  req->rejected = false;
  req->current_flag->subscribe([this] { rt_.release(tenant_); });
  if (auto* chk = rt_.engine().checker()) chk->on_group_call(rank_, req->id, req->current_flag);

  if (giveup_watch_on()) {
    bool tracked = false;
    for (auto& w : watched_groups_) tracked = tracked || w.lock().get() == req.get();
    if (!tracked) watched_groups_.push_back(req);
  }

  bool degrade_now = false;
  if (liveness_on()) {
    bool tracked = false;
    for (const auto& g : live_groups_) tracked = tracked || g.get() == req.get();
    if (!tracked) live_groups_.push_back(req);
    monitor(current_target(*req));
    // Delegated striped sends also depend on their owner workers' health.
    for (const auto& op : req->ops) {
      if (op.type == GopType::kSend && op.chunk.count > 1 && op.chunk.owner_proxy >= 0) {
        monitor(op.chunk.owner_proxy);
      }
    }
    if (req->degraded) {
      // Permanently degraded: the peers of the first degraded run hold
      // matching certificates, so every re-call replays symmetrically on
      // the host path. Nothing previously delivered — fresh run.
      req->fb_active = true;
      req->fb_next = 0;
      req->fb_inflight.clear();
      req->fb_skip.assign(req->ops.size(), false);
      co_return;
    }
    if (failover_ready() && proxy_presumed_dead(current_target(*req))) {
      const int dead = current_target(*req);
      const int sib = send_only(*req) ? live_sibling_of(dead) : -1;
      if (sib >= 0) {
        // Home proxy gone before the call even started: aim the whole call
        // at the surviving sibling (full packet; it has no template).
        req->target_proxy = sib;
        req->redispatched = true;
        req->sent_to_proxy = false;
        monitor(sib);
        ++rt_.engine().metrics().counter("offload.failover.sibling_redispatch");
      } else {
        degrade_now = true;
      }
    }
  }
  const int my_proxy = current_target(*req);

  if (!degrade_now && group_cache_enabled_ && req->sent_to_proxy) {
    // §VII-D cache hit: all metadata already lives on the proxy; send only
    // the request id.
    ++group_hits_;
    ProxyCtrl cc = GroupCachedCallMsg{rank_, req->id, req->current_flag};
    co_await retx_.send(my_proxy, kProxyInbox, std::move(cc), 0);
    ++ctrl_sent_;
    co_return;
  }
  ++group_misses_;

  // 1. Register receive buffers (IB cache) and build per-source metadata.
  // A striped entry set registers its WHOLE buffer exactly once (at its
  // index-0 sub-entry; the set is contiguous in ops by construction) and
  // every sub-entry reuses that rkey with its offset address — one cache
  // entry per buffer, never one per chunk.
  std::map<int, std::vector<GroupRecvMeta>> meta_out;
  for (std::size_t i = 0; i < req->ops.size(); ++i) {
    auto& op = req->ops[i];
    if (op.type != GopType::kRecv) continue;
    if (op.chunk.count > 1) {
      if (op.chunk.index != 0) continue;  // covered by its set's first entry
      std::size_t total = 0;
      for (std::size_t j = i; j < i + op.chunk.count; ++j) total += req->ops[j].len;
      auto mr = co_await ib_cache_.get(vctx, op.dst_addr, total);
      for (std::size_t j = i; j < i + op.chunk.count; ++j) {
        auto& cj = req->ops[j];
        cj.dst_rkey = mr.rkey;
        meta_out[cj.peer].push_back(GroupRecvMeta{cj.tag, cj.len, cj.dst_addr, mr.rkey});
      }
      continue;
    }
    auto mr = co_await ib_cache_.get(vctx, op.dst_addr, op.len);
    op.dst_rkey = mr.rkey;
    meta_out[op.peer].push_back(GroupRecvMeta{op.tag, op.len, op.dst_addr, mr.rkey});
  }

  // 2. Ship metadata to each sender (host-to-host: host RDMA is fast, and
  // gathering all entries into one message per peer is the §VIII-C win).
  for (auto& [peer, entries] : meta_out) {
    const auto bytes =
        static_cast<std::size_t>(cost.group_entry_bytes * static_cast<double>(entries.size()));
    GroupMetaMsg meta = GroupMetaMsg{rank_, req->id, std::move(entries)};
    co_await retx_.send(peer, kGroupMetaInbox, std::move(meta), bytes);
    ++ctrl_sent_;
  }

  // 3. Register send buffers (host GVMI cache, against my proxy's GVMI-ID).
  // Skipped when degrading at call time: the host path needs no GVMI keys.
  // Striped sets: one whole-buffer registration at the index-0 sub-entry,
  // shared by the whole set (same rule as step 1).
  if (!degrade_now) {
    for (std::size_t i = 0; i < req->ops.size(); ++i) {
      auto& op = req->ops[i];
      if (op.type != GopType::kSend) continue;
      if (op.chunk.count > 1) {
        if (op.chunk.index != 0) continue;
        std::size_t total = 0;
        for (std::size_t j = i; j < i + op.chunk.count; ++j) total += req->ops[j].len;
        auto info = co_await gvmi_cache_.get(vctx, my_proxy, rt_.gvmi_of(my_proxy),
                                             op.src_addr, total);
        for (std::size_t j = i; j < i + op.chunk.count; ++j) req->ops[j].src_info = info;
        continue;
      }
      op.src_info =
          co_await gvmi_cache_.get(vctx, my_proxy, rt_.gvmi_of(my_proxy), op.src_addr, op.len);
    }
  }

  // 4. Gather metadata from every destination I send to and match my send
  // entries against it (dst rank + tag, FIFO within a tag). The degraded
  // path still needs this: dst_req_id scopes the replay's tag space.
  std::vector<int> dsts;
  for (const auto& op : req->ops) {
    if (op.type == GopType::kSend &&
        std::find(dsts.begin(), dsts.end(), op.peer) == dsts.end()) {
      dsts.push_back(op.peer);
    }
  }
  std::map<int, std::map<int, std::deque<GroupRecvMeta>>> by_dst_tag;
  std::map<int, std::uint64_t> dst_req;  // receiver-side request id per dst
  for (int dst : dsts) {
    GroupMetaMsg meta = co_await await_meta_from(dst);
    // Rank sets are disjoint, so cross-tenant metadata can only mean a
    // mis-specified application (a group spanning two tenants' ranks).
    sim_expect(rt_.spec().tenant_of_host(meta.from_rank) == tenant_,
               "group metadata crossed a tenant boundary");
    dst_req[dst] = meta.req_id;
    for (auto& e : meta.entries) by_dst_tag[dst][e.tag].push_back(e);
  }
  for (auto& op : req->ops) {
    if (op.type != GopType::kSend) continue;
    auto& q = by_dst_tag[op.peer][op.tag];
    sim_expect(!q.empty(), "no matching group receive at destination");
    const GroupRecvMeta m = q.front();
    q.pop_front();
    sim_expect(op.len <= m.len, "group send longer than matched receive buffer");
    op.dst_addr = m.addr;
    op.dst_rkey = m.rkey;
    op.dst_req_id = dst_req[op.peer];
  }

  if (degrade_now) {
    co_await degrade_group(req, my_proxy);
    co_return;
  }

  // 5. One contiguous Group_Offload_packet to my proxy.
  const auto pkt_bytes =
      static_cast<std::size_t>(cost.group_entry_bytes * static_cast<double>(req->ops.size()));
  ProxyCtrl pkt = GroupPacketMsg{rank_, req->id, req->ops, req->current_flag};
  co_await retx_.send(my_proxy, kProxyInbox, std::move(pkt), pkt_bytes);
  ++ctrl_sent_;
  if (group_cache_enabled_) req->sent_to_proxy = true;
}

sim::Task<Status> OffloadEndpoint::group_wait(const GroupReqPtr& req) {
  sim_expect(req->current_flag != nullptr, "group_wait before group_call");
  co_await rt_.engine().sleep(from_us(rt_.spec().cost.mpi_call_us));
  if (req->rejected) co_return Status::kRejected;
  if (!liveness_on()) {
    co_await req->current_flag->wait();
    co_return req->unreachable ? Status::kUnreachable : Status::kOk;
  }
  co_return co_await group_wait_live(req);
}

// ---------------------------------------------------------------------------
// OffloadEndpoint — group failover
// ---------------------------------------------------------------------------

int OffloadEndpoint::current_target(const GroupRequest& req) const {
  return req.target_proxy >= 0 ? req.target_proxy : rt_.spec().proxy_for_host(rank_);
}

int OffloadEndpoint::group_dead_dep(const GroupRequest& req) const {
  // Only the group's own target proxy is a local death sentence. A peer-side
  // proxy death is the *peer's* call: the owner of a send either re-dispatches
  // it to a sibling (nothing for us to do) or degrades and floods a
  // certificate scoped with our request id (apply_pending_degrades picks it
  // up). Deciding here on the peer's behalf would race its sibling recovery.
  const int own = current_target(req);
  if (proxy_presumed_dead(own)) return own;
  // A dead sibling that owns delegated chunks of MY sends stalls my job at
  // the home proxy (the home waits on completions the sibling will never
  // set) — that is this rank's call to make, not the peer's.
  for (const auto& op : req.ops) {
    if (op.type == GopType::kSend && op.chunk.count > 1 && op.chunk.owner_proxy >= 0 &&
        op.chunk.owner_proxy != own && proxy_presumed_dead(op.chunk.owner_proxy)) {
      return op.chunk.owner_proxy;
    }
  }
  return -1;
}

int OffloadEndpoint::live_sibling_of(int proxy) const {
  const auto& spec = rt_.spec();
  const int node = spec.node_of(proxy);
  for (int l = 0; l < spec.proxies_per_dpu; ++l) {
    const int cand = spec.proxy_id(node, l);
    if (cand == proxy || proxy_presumed_dead(cand)) continue;
    // Fault-domain isolation: failover load never rides another tenant's
    // workers. A tenant without a live worker of its own degrades to the
    // host path instead of leaking onto a neighbour's proxy.
    if (!spec.proxy_serves_tenant(cand, tenant_)) continue;
    return cand;
  }
  return -1;
}

bool OffloadEndpoint::send_only(const GroupRequest& req) {
  for (const auto& op : req.ops) {
    if (op.type == GopType::kRecv) return false;
  }
  return true;
}

int OffloadEndpoint::fb_tag(int tag, std::uint64_t scope_req) {
  // Both ends can compute the scope: the receiver uses its own request id,
  // the sender the dst_req_id its matching step recorded — the same value.
  // Disambiguates concurrent degraded groups between the same rank pair
  // with identical tags.
  return static_cast<int>((scope_req & 0x7FFFull) << 16) ^ tag;
}

sim::Task<void> OffloadEndpoint::fail_over_group(const GroupReqPtr& req, int dead_dep) {
  const int own = current_target(*req);
  if (dead_dep == own && send_only(*req)) {
    // Arrival immediates for receive entries land at the *receiver's* home
    // proxy, so only send-only templates can move wholesale to a sibling;
    // anything with receives degrades to the host path instead.
    const int sib = live_sibling_of(own);
    if (sib >= 0) {
      co_await redispatch_to_sibling(req, sib);
      co_return;
    }
  }
  co_await degrade_group(req, dead_dep);
}

sim::Task<void> OffloadEndpoint::redispatch_to_sibling(const GroupReqPtr& req, int sib) {
  auto& vc = vctx();
  // Fence the old home first: a hang-recovery must not double-run the
  // template (receivers would swallow duplicate arrivals, but the fence
  // keeps the dead proxy from burning cycles and credits on it).
  const int old = current_target(*req);
  // The checker treats a sibling re-dispatch like a degrade: it authorizes
  // the fence on the old home (and any fenced-arrival swallows there).
  if (auto* chk = rt_.engine().checker()) chk->on_group_degraded(rank_, req->id);
  ProxyLive fence = FenceGroupMsg{rank_, req->id};
  co_await vc.post_ctrl(old, kProxyLiveInbox, std::move(fence), 0);
  // Re-register the send buffers against the sibling's GVMI and ship the
  // full packet — the sibling has no recorded template for this request.
  // Striped entries owned by dead workers move to the sibling too, and a
  // chunk set re-registers its whole buffer once (as in group_call).
  for (std::size_t i = 0; i < req->ops.size(); ++i) {
    auto& op = req->ops[i];
    if (op.type != GopType::kSend) continue;
    if (op.chunk.count > 1) {
      if (op.chunk.owner_proxy >= 0 && proxy_presumed_dead(op.chunk.owner_proxy)) {
        op.chunk.owner_proxy = sib;
      }
      if (op.chunk.index != 0) continue;
      std::size_t total = 0;
      for (std::size_t j = i; j < i + op.chunk.count; ++j) total += req->ops[j].len;
      auto info = co_await gvmi_cache_.get(vc, sib, rt_.gvmi_of(sib), op.src_addr, total);
      for (std::size_t j = i; j < i + op.chunk.count; ++j) req->ops[j].src_info = info;
      continue;
    }
    op.src_info = co_await gvmi_cache_.get(vc, sib, rt_.gvmi_of(sib), op.src_addr, op.len);
  }
  req->target_proxy = sib;
  req->redispatched = true;
  req->sent_to_proxy = true;  // the sibling records the template from the packet
  monitor(sib);
  const auto& cost = rt_.spec().cost;
  const auto pkt_bytes = static_cast<std::size_t>(
      cost.group_entry_bytes * static_cast<double>(req->ops.size()));
  ProxyCtrl pkt = GroupPacketMsg{rank_, req->id, req->ops, req->current_flag};
  co_await retx_.send(sib, kProxyInbox, std::move(pkt), pkt_bytes);
  ++ctrl_sent_;
  ++rt_.engine().metrics().counter("offload.failover.sibling_redispatch");
}

sim::Task<void> OffloadEndpoint::degrade_group(const GroupReqPtr& req, int dead_proxy) {
  if (req->degraded) co_return;
  req->degraded = true;
  if (auto* chk = rt_.engine().checker()) chk->on_group_degraded(rank_, req->id);
  req->fb_active = true;
  req->fb_next = 0;
  req->fb_inflight.clear();
  ++rt_.engine().metrics().counter("offload.failover.groups_degraded");
  ++rt_.tenant_stats(tenant_).ops_degraded;
  // Snapshot the delivery ledgers into a per-entry skip mask, walking in
  // program order with per-(peer, tag) cursors — the same FIFO order the
  // proxies matched in. Both ends of every transfer heard about it from the
  // same delivery event (see SendDeliveredMsg), so the sender's send-skips
  // and the receiver's recv-skips name exactly the same transfers and the
  // replay's send/recv postings pair up with no duplicate delivery.
  req->fb_skip.assign(req->ops.size(), false);
  std::map<std::tuple<std::uint64_t, int, int>, int> used_s;
  std::map<std::tuple<std::uint64_t, int, int>, int> used_r;
  for (std::size_t i = 0; i < req->ops.size(); ++i) {
    const auto& op = req->ops[i];
    if (op.type == GopType::kSend) {
      const std::tuple<std::uint64_t, int, int> k{req->id, op.peer, op.tag};
      auto it = sends_delivered_.find(k);
      const int have = it == sends_delivered_.end() ? 0 : it->second;
      if (used_s[k] < have) {
        req->fb_skip[i] = true;
        ++used_s[k];
      }
    } else if (op.type == GopType::kRecv) {
      const std::tuple<std::uint64_t, int, int> k{req->id, op.peer, op.tag};
      auto it = arrivals_seen_.find(k);
      const int have = it == arrivals_seen_.end() ? 0 : it->second;
      if (used_r[k] < have) {
        req->fb_skip[i] = true;  // the bytes already landed in the buffer
        ++used_r[k];
      }
    }
  }
  // Fence whichever proxy holds (or held) my job instance, then flood the
  // certificate through the peer graph.
  const int tgt = current_target(*req);
  ProxyLive fence = FenceGroupMsg{rank_, req->id};
  co_await vctx().post_ctrl(tgt, kProxyLiveInbox, std::move(fence), 0);
  co_await flood_degrade(req, dead_proxy);
}

sim::Task<void> OffloadEndpoint::flood_degrade(const GroupReqPtr& req, int dead_proxy) {
  if (req->flooded) co_return;
  req->flooded = true;
  std::set<int> peers;
  for (const auto& op : req->ops) {
    if (op.type != GopType::kBarrier) peers.insert(op.peer);
  }
  for (int peer : peers) {
    if (auto* chk = rt_.engine().checker()) chk->on_degrade_cert(rank_, peer, dead_proxy);
    DegradeMsg cert;
    cert.from_rank = rank_;
    cert.dead_proxy = dead_proxy;
    cert.group = true;
    // Name the peer's request(s) this degrade concerns: my own id (their
    // send entries recorded it as dst_req_id) plus the dst_req_id of my
    // sends to them (their own request id).
    cert.req_ids.push_back(req->id);
    for (const auto& op : req->ops) {
      if (op.type == GopType::kSend && op.peer == peer && op.dst_req_id != 0) {
        cert.req_ids.push_back(op.dst_req_id);
      }
    }
    HostLive body = cert;
    co_await vctx().post_ctrl(peer, kHostLiveInbox, std::move(body), 0);
  }
}

sim::Task<void> OffloadEndpoint::apply_pending_degrades() {
  if (pending_degrades_.empty()) co_return;
  // A group whose flag is already set needs no action: its sends all
  // delivered (so every peer's arrival ledger covers them and their replays
  // skip them) and its receives all arrived. Prune before matching.
  std::erase_if(live_groups_, [](const GroupReqPtr& g) {
    return g->current_flag && g->current_flag->is_set() && !g->fb_active;
  });
  for (std::size_t ci = 0; ci < pending_degrades_.size();) {
    const DegradeMsg cert = pending_degrades_[ci];
    GroupReqPtr match;
    for (const auto& g : live_groups_) {
      if (g->degraded || (g->current_flag && g->current_flag->is_set())) continue;
      bool hit = false;
      for (std::uint64_t id : cert.req_ids) {
        if (g->id == id) hit = true;
      }
      if (!hit) {
        for (const auto& op : g->ops) {
          if (op.type != GopType::kSend || op.peer != cert.from_rank) continue;
          for (std::uint64_t id : cert.req_ids) {
            if (op.dst_req_id == id && id != 0) hit = true;
          }
        }
      }
      if (hit) {
        match = g;
        break;
      }
    }
    if (!match) {
      ++ci;  // may concern a request we have not called yet; keep it
      continue;
    }
    pending_degrades_.erase(pending_degrades_.begin() + static_cast<std::ptrdiff_t>(ci));
    co_await degrade_group(match, cert.dead_proxy);
    ci = 0;  // the erase shifted indices; rescan
  }
}

sim::Task<bool> OffloadEndpoint::advance_group_fallback(const GroupReqPtr& req) {
  auto& mc = rt_.mpi_world()->ctx(rank_);
  // Harvest the in-flight stage; the next stage may not start before it
  // completed (barriers are stage boundaries — a ring forwards the same
  // buffer, so posting the next send before the recv landed would forward
  // stale bytes).
  for (auto& r : req->fb_inflight) {
    const bool done = co_await mc.test(r);
    if (!done) co_return false;
  }
  req->fb_inflight.clear();
  if (req->fb_next >= req->ops.size()) {
    req->fb_active = false;
    ++degraded_ops_;
    ++rt_.engine().metrics().counter("offload.failover.completed_degraded");
    req->current_flag->set();
    co_return true;
  }
  // Tenant-scoped fallback context: two tenants degrading in the same
  // instant replay on disjoint contexts, so their fb_tag streams can never
  // cross-match (the old global -7777 aliased them).
  const int fb_ctx = failover_group_context(tenant_);
  while (req->fb_next < req->ops.size()) {
    const std::size_t i = req->fb_next++;
    const auto& op = req->ops[i];
    if (op.type == GopType::kBarrier) break;  // stage boundary
    if (req->fb_skip[i]) continue;
    if (op.type == GopType::kSend) {
      mpi::Request r = co_await mc.isend(op.src_addr, op.len, op.peer,
                                         fb_tag(op.tag, op.dst_req_id), fb_ctx);
      req->fb_inflight.push_back(std::move(r));
    } else {
      mpi::Request r = co_await mc.irecv(op.dst_addr, op.len, op.peer,
                                         fb_tag(op.tag, req->id), fb_ctx);
      req->fb_inflight.push_back(std::move(r));
    }
  }
  co_return false;
}

sim::Task<Status> OffloadEndpoint::group_wait_live(GroupReqPtr req) {
  auto& eng = rt_.engine();
  for (;;) {
    if (req->current_flag->is_set() && !req->fb_active) {
      std::erase_if(live_groups_, [&](const GroupReqPtr& g) { return g.get() == req.get(); });
      co_return (req->degraded || req->redispatched) ? Status::kDegraded : Status::kOk;
    }
    drain_liveness();
    co_await apply_pending_degrades();
    co_await pump_monitors();
    if (req->fb_active) {
      const bool finished = co_await advance_group_fallback(req);
      if (finished) continue;
    } else if (!req->current_flag->is_set() && !req->degraded) {
      const int dead = group_dead_dep(*req);
      if (dead >= 0) {
        if (!failover_ready()) co_return Status::kUnreachable;
        co_await fail_over_group(req, dead);
        continue;
      }
    }
    co_await eng.sleep(wait_tick());
  }
}

}  // namespace dpu::offload
