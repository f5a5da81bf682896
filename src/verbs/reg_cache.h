// Registration cache (paper §VII-B): an array indexed by peer rank of
// binary search trees keyed by (address, length), so a buffer reused per
// message pays its registration once. The cached value fixes, at compile
// time, which registration a miss issues:
//   * RegCache<MrInfo>     — reg_mr, one tree (minimpi, BluesMPI and the
//     offload endpoint's receive buffers);
//   * RegCache<GvmiMrInfo> — the host's reg_mr_gvmi against a proxy's
//     GVMI-ID, one tree per proxy rank;
//   * RegCache<MKey>       — the DPU's cross_register of a host
//     registration (mkey2), one tree per host rank.
// The two GVMI instances exist because a local cache cannot serve
// cross-GVMI transfers (Challenge 3): the DPU entry depends on the host
// one. The (peer, addr, len) key never aliases two live registrations: the
// mkey is a function of (addr, len, GVMI-ID) and the GVMI-ID of the peer.
//
// Misses are single-flight: a get for a key whose registration is still in
// progress waits for it (counted as `coalesced`) instead of paying for a
// second registration whose insert would shadow the first.
//
// Capacity bounds the entry count by LRU (0 = unbounded). Eviction drops
// the cache entry, never the registration, so a key held by in-flight work
// keeps validating. Recency is a plain tick (no clock, no RNG), so bounded
// runs stay deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "verbs/verbs.h"

namespace dpu::verbs {

template <class Value>
class RegCache {
 public:
  struct Stats {
    metrics::Counter hits;
    metrics::Counter misses;
    metrics::Counter coalesced;  ///< gets that waited on an in-flight miss
    metrics::Counter evictions;  ///< LRU capacity evictions
  };

  /// One tree per peer rank (a standard-registration cache needs one) and
  /// an LRU bound of `capacity` entries; 0 = unbounded.
  explicit RegCache(int peers = 1, std::size_t capacity = 0)
      : trees_(static_cast<std::size_t>(peers)), capacity_(capacity) {}

  /// Standard registration of [addr, len) on `ctx`'s core.
  sim::Task<MrInfo> get(ProcCtx& ctx, Addr addr, std::size_t len)
    requires std::is_same_v<Value, MrInfo>
  {
    return lookup(ctx, 0, GvmiMrInfo{addr, len});
  }

  /// First registration of host buffer [addr, len) against `gvmi`, the
  /// GVMI-ID of proxy `proxy_rank`.
  sim::Task<GvmiMrInfo> get(ProcCtx& host, int proxy_rank, GvmiId gvmi, Addr addr,
                            std::size_t len)
    requires std::is_same_v<Value, GvmiMrInfo>
  {
    return lookup(host, proxy_rank, GvmiMrInfo{addr, len, 0, gvmi});
  }

  /// Cross-registration (mkey2) of host `host_rank`'s registration `info`.
  sim::Task<MKey> get(ProcCtx& dpu, int host_rank, const GvmiMrInfo& info)
    requires std::is_same_v<Value, MKey>
  {
    return lookup(dpu, host_rank, info);
  }

  /// Drops the entry (e.g. the buffer is being freed); the registration
  /// itself stays live. False when there was none.
  bool evict(int peer, Addr addr, std::size_t len) {
    auto& tree = trees_.at(static_cast<std::size_t>(peer));
    auto it = tree.find({addr, len});
    if (it == tree.end()) return false;
    lru_.erase(it->second.tick);
    tree.erase(it);
    return true;
  }
  bool evict(Addr addr, std::size_t len)
    requires std::is_same_v<Value, MrInfo>
  {
    return evict(0, addr, len);
  }

  /// Names the counters `<prefix>hits`, `misses` and `coalesced` in `reg`,
  /// plus `evictions` when the cache is bounded (an unbounded cache never
  /// evicts, and leaving the name out keeps its metrics JSON unchanged).
  void link(metrics::MetricsRegistry& reg, const std::string& prefix) const {
    reg.link(prefix + "hits", &stats_.hits);
    reg.link(prefix + "misses", &stats_.misses);
    reg.link(prefix + "coalesced", &stats_.coalesced);
    if (capacity_ > 0) reg.link(prefix + "evictions", &stats_.evictions);
  }

  const Stats& stats() const { return stats_; }
  std::size_t size() const { return lru_.size(); }

 private:
  using Key = std::tuple<int, Addr, std::size_t>;  ///< (peer, addr, len)
  struct Slot {
    Value value;
    std::uint64_t tick = 0;
  };
  struct Flight {
    explicit Flight(sim::Engine& eng) : done(eng) {}
    sim::Event done;
    Value value{};
  };

  /// The one lookup coroutine. `req.addr`/`req.len` key the entry; a miss
  /// registers them (reg_mr_gvmi also reads `req.gvmi`; cross_register
  /// takes the whole host registration).
  sim::Task<Value> lookup(ProcCtx& ctx, int peer, GvmiMrInfo req) {
    auto& tree = trees_.at(static_cast<std::size_t>(peer));
    if (auto it = tree.find({req.addr, req.len}); it != tree.end()) {
      ++stats_.hits;
      touch(it->second);
      co_return it->second.value;
    }
    const Key key{peer, req.addr, req.len};
    if (auto fit = in_flight_.find(key); fit != in_flight_.end()) {
      ++stats_.coalesced;
      auto flight = fit->second;  // keep alive across the wait
      co_await flight->done.wait();
      co_return flight->value;
    }
    ++stats_.misses;
    auto flight = std::make_shared<Flight>(ctx.engine());
    in_flight_.emplace(key, flight);
    Value value{};
    if constexpr (std::is_same_v<Value, MrInfo>) {
      value = co_await ctx.reg_mr(req.addr, req.len);
    } else if constexpr (std::is_same_v<Value, GvmiMrInfo>) {
      value = co_await ctx.reg_mr_gvmi(req.addr, req.len, req.gvmi);
    } else {
      value = co_await ctx.cross_register(req);
    }
    if (capacity_ > 0 && lru_.size() >= capacity_) evict_oldest();
    const std::uint64_t tick = ++tick_;
    tree.emplace(std::make_pair(req.addr, req.len), Slot{value, tick});
    lru_.emplace(tick, key);
    flight->value = value;
    in_flight_.erase(key);
    flight->done.set();
    co_return value;
  }

  /// Marks `s` most recently used by re-keying its LRU node (no allocation).
  void touch(Slot& s) {
    auto node = lru_.extract(s.tick);
    s.tick = ++tick_;
    node.key() = s.tick;
    lru_.insert(std::move(node));
  }

  void evict_oldest() {
    const auto [peer, addr, len] = lru_.begin()->second;  // a copy: evict() frees the node
    evict(peer, addr, len);
    ++stats_.evictions;
  }

  std::vector<std::map<std::pair<Addr, std::size_t>, Slot>> trees_;  ///< per peer
  std::map<Key, std::shared_ptr<Flight>> in_flight_;
  std::map<std::uint64_t, Key> lru_;  ///< tick -> key, oldest first; one per entry
  std::uint64_t tick_ = 0;
  std::size_t capacity_ = 0;
  Stats stats_;
};

}  // namespace dpu::verbs
