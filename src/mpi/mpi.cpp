#include "mpi/mpi.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "common/check.h"
#include "sim/trace.h"

namespace dpu::mpi {

RequestState::~RequestState() = default;

namespace {

/// Reads the payload when the buffer is backed; empty (timing-only)
/// otherwise.
std::vector<std::byte> read_if_backed(const machine::AddressSpace& mem, machine::Addr addr,
                                      std::size_t len) {
  if (!mem.contains(addr, len) || !mem.backed(addr)) return {};
  return mem.read(addr, len);
}

}  // namespace

// ---------------------------------------------------------------------------
// MpiWorld
// ---------------------------------------------------------------------------

MpiWorld::MpiWorld(verbs::Runtime& rt) : rt_(rt) {
  std::vector<int> all(static_cast<std::size_t>(rt.spec().total_host_ranks()));
  for (int i = 0; i < rt.spec().total_host_ranks(); ++i) all[static_cast<std::size_t>(i)] = i;
  world_comm_ = std::make_shared<Communicator>(0, all);
  comm_cache_[all] = world_comm_;
  ctxs_.reserve(all.size());
  for (int r = 0; r < rt.spec().total_host_ranks(); ++r) {
    ctxs_.push_back(std::make_unique<MpiCtx>(*this, r));
  }
  shm_stamp_.assign(all.size(), 0);
}

CommPtr MpiWorld::create_comm(const std::vector<int>& world_ranks) {
  auto it = comm_cache_.find(world_ranks);
  if (it != comm_cache_.end()) return it->second;
  for (int r : world_ranks) require(rt_.spec().is_host(r), "communicator of non-host rank");
  auto comm = std::make_shared<Communicator>(next_context_++, world_ranks);
  comm_cache_[world_ranks] = comm;
  return comm;
}

void MpiWorld::deliver_local(int src_rank, int dst_rank, Wire body, SimDuration delay) {
  auto* dst = ctxs_.at(static_cast<std::size_t>(dst_rank)).get();
  // Same-time mailbox arrivals keep a schedule-invariant order: the stamp
  // folds the sender rank in because msg.src stays -1 on this path (the
  // real src rank rides inside the body), and per-sender counters alone
  // would collide across ranks.
  const std::uint64_t stamp = (static_cast<std::uint64_t>(src_rank + 1) << 32) |
                              ++shm_stamp_.at(static_cast<std::size_t>(src_rank));
  auto msg = std::make_shared<verbs::Msg<Wire>>(-1, kMpiChannel.id, std::size_t{0},
                                                std::move(body), stamp, SimTime{0});
  rt_.engine().schedule_in(delay, [dst, msg] {
    dst->vctx().deliver_to_inbox(std::move(*msg));
    dst->vctx().activity().notify_all();
  });
}

// ---------------------------------------------------------------------------
// MpiCtx basics
// ---------------------------------------------------------------------------

MpiCtx::MpiCtx(MpiWorld& world, int world_rank)
    : world_(world), rank_(world_rank), reg_cache_(1, world.spec().cost.reg_cache_capacity) {
  reg_cache_.link(world_.engine().metrics(), "mpi.rank" + std::to_string(rank_) + ".reg_cache.");
}
MpiCtx::~MpiCtx() = default;

int MpiCtx::size() const { return world_.spec().total_host_ranks(); }
verbs::ProcCtx& MpiCtx::vctx() { return world_.verbs().ctx(rank_); }

sim::Task<void> MpiCtx::compute(SimDuration d) {
  const SimTime t0 = world_.engine().now();
  co_await world_.engine().sleep(d);
  if (auto* tr = world_.engine().trace()) {
    tr->add("host:" + std::to_string(rank_), "compute", "", t0, world_.engine().now());
  }
}

std::string MpiCtx::debug_dump() const {
  std::string out = "rank " + std::to_string(rank_) + ": posted_recvs=[";
  for (const auto& [k, q] : posted_recvs_) {
    out += "(ctx=" + std::to_string(std::get<0>(k)) + ",src=" + std::to_string(std::get<1>(k)) +
           ",tag=" + std::to_string(std::get<2>(k)) + ")x" + std::to_string(q.size());
  }
  out += "] unexpected=[";
  for (const auto& [k, q] : unexpected_) {
    out += "(ctx=" + std::to_string(std::get<0>(k)) + ",src=" + std::to_string(std::get<1>(k)) +
           ",tag=" + std::to_string(std::get<2>(k)) + ")x" + std::to_string(q.size());
  }
  out += "] pending_sends=" + std::to_string(pending_sends_.size()) +
         " awaiting_fin=" + std::to_string(awaiting_fin_.size()) + " colls=[";
  for (const auto& c : active_colls_) {
    out += "(ctx=" + std::to_string(c->coll->context) +
           ",stage=" + std::to_string(c->coll->next_stage) + "/" +
           std::to_string(c->coll->stages.size()) + ",posted=" +
           std::to_string(c->coll->stage_posted) + ",inflight_done=";
    for (const auto& q : c->coll->inflight) out += q->done ? "D" : ".";
    out += ")";
  }
  out += "]";
  return out;
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

sim::Task<Request> MpiCtx::isend(machine::Addr buf, std::size_t len, int dst, int tag,
                                 int context) {
  const auto& spec = world_.spec();
  const auto& cost = spec.cost;
  sim_expect(spec.is_host(dst), "isend to non-host rank");
  auto req = std::make_shared<RequestState>();
  req->kind = RequestState::Kind::kSend;
  req->id = next_req_++;
  req->buf = buf;
  req->len = len;
  const Envelope env{rank_, tag, context};
  auto& eng = world_.engine();

  if (spec.node_of(rank_) == spec.node_of(dst) && dst != rank_) {
    if (len <= cost.eager_threshold) {
      // Copy into the shared-memory mailbox; sender completes immediately.
      co_await eng.sleep(cost.memcpy_time(len));
      EagerShmMsg m{env, len, read_if_backed(vctx().mem(), buf, len)};
      world_.deliver_local(rank_, dst, std::move(m), from_us(cost.shm_latency_us));
      req->done = true;
    } else {
      // CMA rendezvous: receiver will copy straight out of our buffer.
      co_await eng.sleep(from_us(cost.mpi_call_us));
      world_.deliver_local(rank_, dst, RtsShmMsg{env, len, req->id, buf},
                           from_us(cost.shm_latency_us));
      pending_sends_[req->id] = req;
    }
  } else if (dst == rank_) {
    // Self-send: buffer directly into the unexpected queue.
    co_await eng.sleep(cost.memcpy_time(len));
    world_.deliver_local(rank_, dst,
                         EagerShmMsg{env, len, read_if_backed(vctx().mem(), buf, len)}, 0);
    req->done = true;
  } else {
    if (len <= cost.eager_threshold) {
      // Eager: one bounce-buffer copy, then the data rides the message.
      co_await eng.sleep(cost.memcpy_time(len));
      Wire m = EagerNetMsg{env, len, read_if_backed(vctx().mem(), buf, len)};
      co_await vctx().post_ctrl(dst, kMpiChannel, std::move(m), len);
      req->done = true;
    } else {
      // NB: named local, not a temporary argument — GCC 12 destroys
      // non-trivial temporaries in awaited-coroutine argument lists too
      // early (see sim/task.h).
      Wire rts = RtsNetMsg{env, len, req->id};
      co_await vctx().post_ctrl(dst, kMpiChannel, std::move(rts), 0);
      pending_sends_[req->id] = req;
    }
  }
  co_return req;
}

sim::Task<Request> MpiCtx::irecv(machine::Addr buf, std::size_t len, int src, int tag,
                                 int context) {
  auto req = std::make_shared<RequestState>();
  req->kind = RequestState::Kind::kRecv;
  req->id = next_req_++;
  req->env = Envelope{src, tag, context};
  req->buf = buf;
  req->len = len;
  co_await world_.engine().sleep(from_us(world_.spec().cost.mpi_call_us));
  if (!co_await try_match_unexpected(req)) posted_recvs_[key_of(req->env)].push_back(req);
  co_return req;
}

sim::Task<bool> MpiCtx::try_match_unexpected(const Request& recv) {
  auto it = unexpected_.find(key_of(recv->env));
  if (it == unexpected_.end() || it->second.empty()) co_return false;
  Unexpected u = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) unexpected_.erase(it);
  co_await complete_recv_from(u, recv);
  co_return true;
}

sim::Task<void> MpiCtx::complete_recv_from(const Unexpected& u, const Request& recv) {
  const auto& cost = world_.spec().cost;
  sim_expect(u.len <= recv->len, "message longer than the posted receive buffer");
  auto& eng = world_.engine();
  co_await eng.sleep(from_us(cost.match_us));
  switch (u.type) {
    case Unexpected::Type::kEagerNet:
    case Unexpected::Type::kEagerShm:
      co_await eng.sleep(cost.memcpy_time(u.len));
      if (!u.data.empty()) vctx().mem().write(recv->buf, u.data);
      recv->done = true;
      break;
    case Unexpected::Type::kRtsShm: {
      // CMA single copy out of the sender's memory, then ack.
      co_await eng.sleep(cost.memcpy_time(u.len));
      machine::AddressSpace::copy(world_.verbs().ctx(u.env.src_world).mem(), u.src_addr,
                                  vctx().mem(), recv->buf, u.len);
      world_.deliver_local(rank_, u.env.src_world, FinShmMsg{u.sender_req},
                           from_us(cost.shm_latency_us));
      recv->done = true;
      break;
    }
    case Unexpected::Type::kRtsNet:
      co_await start_rndv_reply(recv, u.sender_req, u.env.src_world);
      break;
  }
}

sim::Task<void> MpiCtx::start_rndv_reply(const Request& recv, std::uint64_t sender_req,
                                         int sender_world) {
  // Register the destination buffer (cache-amortized) and return a CTS
  // carrying the rkey; the sender's RDMA write will finish the job.
  auto mr = co_await reg_cache_.get(vctx(), recv->buf, recv->len);
  awaiting_fin_[recv->id] = recv;
  Wire cts = CtsNetMsg{sender_req, recv->id, recv->buf, mr.rkey, recv->len};
  co_await vctx().post_ctrl(sender_world, kMpiChannel, std::move(cts), 0);
}

Request MpiCtx::match_posted(const Envelope& env) {
  auto it = posted_recvs_.find(key_of(env));
  if (it == posted_recvs_.end() || it->second.empty()) return nullptr;
  Request r = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) posted_recvs_.erase(it);
  return r;
}

sim::Task<void> MpiCtx::on(EagerNetMsg& eager, int src) {
  const auto& cost = world_.spec().cost;
  auto& eng = world_.engine();
  co_await eng.sleep(from_us(cost.match_us));
  if (Request r = match_posted(eager.env)) {
    co_await eng.sleep(cost.memcpy_time(eager.len));
    sim_expect(eager.len <= r->len, "eager message overflows receive buffer");
    if (!eager.data.empty()) vctx().mem().write(r->buf, eager.data);
    r->done = true;
  } else {
    unexpected_[key_of(eager.env)].push_back(Unexpected{
        Unexpected::Type::kEagerNet, eager.env, eager.len, std::move(eager.data), 0, 0, src});
  }
}

sim::Task<void> MpiCtx::on(RtsNetMsg& rts, int src) {
  co_await world_.engine().sleep(from_us(world_.spec().cost.match_us));
  if (Request r = match_posted(rts.env)) {
    sim_expect(rts.len <= r->len, "rendezvous message overflows receive buffer");
    co_await start_rndv_reply(r, rts.sender_req, rts.env.src_world);
  } else {
    unexpected_[key_of(rts.env)].push_back(Unexpected{
        Unexpected::Type::kRtsNet, rts.env, rts.len, {}, rts.sender_req, 0, src});
  }
}

sim::Task<void> MpiCtx::on(CtsNetMsg& cts, int src) {
  auto it = pending_sends_.find(cts.sender_req);
  sim_expect(it != pending_sends_.end(), "CTS for unknown send request");
  Request send = it->second;
  pending_sends_.erase(it);
  // Register the source (cache-amortized) and fire the rendezvous RDMA
  // write; its immediate acts as the receiver-side FIN.
  auto mr = co_await reg_cache_.get(vctx(), send->buf, send->len);
  Wire fin = FinNetMsg{cts.receiver_req};
  auto c = co_await vctx().post_rdma_write_imm(mr.lkey, send->buf, src, cts.rkey, cts.raddr,
                                               send->len, kMpiChannel, std::move(fin));
  // The send CQE marks the request complete; the user still only observes
  // it inside an MPI call, and the completion already pokes our activity
  // notifier (so a sleeping wait re-polls).
  c->subscribe([send] { send->done = true; });
}

sim::Task<void> MpiCtx::on(FinNetMsg& fin, int) {
  auto it = awaiting_fin_.find(fin.receiver_req);
  sim_expect(it != awaiting_fin_.end(), "FIN for unknown receive request");
  it->second->done = true;
  awaiting_fin_.erase(it);
  co_return;
}

sim::Task<void> MpiCtx::on(EagerShmMsg& eshm, int) {
  const auto& cost = world_.spec().cost;
  auto& eng = world_.engine();
  co_await eng.sleep(from_us(cost.match_us));
  if (Request r = match_posted(eshm.env)) {
    co_await eng.sleep(cost.memcpy_time(eshm.len));
    sim_expect(eshm.len <= r->len, "eager message overflows receive buffer");
    if (!eshm.data.empty()) vctx().mem().write(r->buf, eshm.data);
    r->done = true;
  } else {
    unexpected_[key_of(eshm.env)].push_back(Unexpected{
        Unexpected::Type::kEagerShm, eshm.env, eshm.len, std::move(eshm.data), 0, 0, -1});
  }
}

sim::Task<void> MpiCtx::on(RtsShmMsg& rshm, int) {
  co_await world_.engine().sleep(from_us(world_.spec().cost.match_us));
  Unexpected u{Unexpected::Type::kRtsShm, rshm.env, rshm.len, {}, rshm.sender_req,
               rshm.src_addr, -1};
  if (Request r = match_posted(rshm.env)) {
    // complete_recv_from charges the copy and sends the FIN.
    co_await complete_recv_from(u, r);
  } else {
    unexpected_[key_of(rshm.env)].push_back(std::move(u));
  }
}

sim::Task<void> MpiCtx::on(FinShmMsg& fshm, int) {
  auto it = pending_sends_.find(fshm.sender_req);
  sim_expect(it != pending_sends_.end(), "shm FIN for unknown send request");
  it->second->done = true;
  pending_sends_.erase(it);
  co_return;
}

sim::Task<bool> MpiCtx::progress() {
  const auto& cost = world_.spec().cost;
  auto& eng = world_.engine();
  co_await eng.sleep(from_us(cost.mpi_call_us));
  bool moved = false;

  // Drain arrivals.
  auto& box = vctx().inbox(kMpiChannel);
  while (auto m = box.try_recv()) {
    co_await std::visit([this, src = m->src](auto& k) { return on(k, src); }, m->body);
    moved = true;
  }

  // Advance nonblocking-collective schedules. Its movement must feed back
  // into `moved`: a stage can complete instantly at posting time (eager
  // sends, receives matching buffered arrivals), and a wait() that slept on
  // a silently-advanceable schedule would never be woken again.
  if (co_await advance_colls()) moved = true;
  co_return moved;
}

sim::Task<bool> MpiCtx::test(const Request& req) {
  // lint: await-status ok: one progress sweep per test() call; whether it
  // moved anything is irrelevant — the caller only reads req->done.
  (void)co_await progress();
  co_return req->done;
}

sim::Task<void> MpiCtx::wait(const Request& req) {
  while (!req->done) {
    const bool moved = co_await progress();
    if (req->done) break;
    if (!moved) co_await vctx().activity().wait();
  }
}

sim::Task<void> MpiCtx::waitall(std::span<const Request> reqs) {
  for (const auto& r : reqs) co_await wait(r);
}

sim::Task<void> MpiCtx::send(machine::Addr buf, std::size_t len, int dst, int tag) {
  auto r = co_await isend(buf, len, dst, tag);
  co_await wait(r);
}

sim::Task<void> MpiCtx::recv(machine::Addr buf, std::size_t len, int src, int tag) {
  auto r = co_await irecv(buf, len, src, tag);
  co_await wait(r);
}

}  // namespace dpu::mpi
