#include "offload/reliable.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/units.h"

namespace dpu::offload {

Retransmitter::Retransmitter(verbs::ProcCtx& ctx) : ctx_(ctx) {}

bool Retransmitter::enabled() const { return ctx_.runtime().fault().enabled(); }

SeqHeader Retransmitter::next_header(int dst_proc) {
  auto& n = next_seq_[dst_proc];
  if (n == 0) n = 1;
  return SeqHeader{n++, ctx_.proc()};
}

std::shared_ptr<Retransmitter::Pending> Retransmitter::make_pending(int dst_proc) {
  auto p = std::make_shared<Pending>();
  p->dst = dst_proc;
  p->ack = std::make_shared<AckState>();
  p->timeout = from_us(ctx_.runtime().spec().fault.retry_timeout_us);
  return p;
}

void Retransmitter::launch(std::shared_ptr<Pending> p) {
  p->post();
  arm(std::move(p));
}

SimDuration Retransmitter::ack_latency(int peer_proc) const {
  const auto& spec = ctx_.runtime().spec();
  return from_us(spec.node_of(ctx_.proc()) == spec.node_of(peer_proc)
                     ? spec.cost.loopback_latency_us
                     : spec.cost.wire_latency_us);
}

std::function<void()> Retransmitter::ack_return(int peer_proc,
                                                std::shared_ptr<AckState> ack) {
  auto* eng = &ctx_.engine();
  const SimDuration lat = ack_latency(peer_proc);
  return [eng, lat, ack] {
    eng->schedule_in(lat, [ack] { ack->acked = true; });
  };
}

void Retransmitter::arm(std::shared_ptr<Pending> p) {
  auto* self = this;
  ctx_.engine().schedule_in(p->timeout, [self, p] {
    if (p->ack->acked) return;
    ++p->attempt;
    const auto& f = self->ctx_.runtime().spec().fault;
    if (p->attempt > f.max_retries) {
      // Typed give-up instead of the old SimError abort: the message is
      // written off, the destination is marked unreachable, and the owner's
      // handler (wired by the endpoint/proxy) decides what to do — e.g.
      // trigger failover from the next Wait. Throwing here would escape
      // straight out of Engine::run and kill ranks that could still degrade
      // gracefully.
      ++self->give_ups_;
      const bool first = self->unreachable_.insert(p->dst).second;
      if (first && self->give_up_cb_) self->give_up_cb_(p->dst);
      return;
    }
    ++self->retries_;
    p->post();
    p->timeout = from_us(
        std::min(to_us(p->timeout) * f.retry_backoff, f.retry_max_timeout_us));
    self->arm(p);
  });
}

sim::Task<void> Retransmitter::flag_write(int dst_proc, verbs::Completion flag,
                                          int wake_proc) {
  if (!enabled()) {
    co_await ctx_.post_flag_write(dst_proc, std::move(flag), wake_proc);
    co_return;
  }
  co_await ctx_.engine().sleep(ctx_.post_overhead());
  auto p = make_pending(dst_proc);
  p->post = [this, dst_proc, flag = std::move(flag), wake_proc, ack = p->ack] {
    ctx_.post_flag_write_raw(dst_proc, flag, wake_proc, ack_return(dst_proc, ack));
  };
  launch(std::move(p));
}

}  // namespace dpu::offload
