// Unified metrics registry.
//
// Every layer of the runtime (engine, fabric, caches, proxies, endpoints)
// counts work with `Counter` slots and names them in one `MetricsRegistry`,
// so a bench or test can dump a single JSON record covering the whole stack
// instead of stitching together ad-hoc getters. Two ownership modes:
//   * `counter(name)`  — the registry owns the slot (stable address for the
//     component to cache and increment),
//   * `link(name, &c)` — the component owns the slot; the registry only
//     reads it at export time. Linked components must outlive any export.
// The registry is strictly single-threaded, like the simulator it serves.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>

namespace dpu::metrics {

/// A named monotonic count (or settable level). Increments compile down to
/// a plain integer bump, so hot paths can keep per-event counters on the
/// registry without cost. Implicitly readable as an integer so existing
/// `stats().hits == 3`-style comparisons keep working.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::uint64_t v) : v_(v) {}

  void inc(std::uint64_t n = 1) { v_ += n; }
  void set(std::uint64_t v) { v_ = v; }
  std::uint64_t value() const { return v_; }

  Counter& operator++() {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t n) {
    v_ += n;
    return *this;
  }
  operator std::uint64_t() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Counter& c);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get a registry-owned counter. The returned reference is
  /// stable for the registry's lifetime.
  Counter& counter(const std::string& name);

  /// Expose a component-owned counter under `name`. Re-linking the same
  /// slot is a no-op; linking a different slot under a taken name throws.
  void link(const std::string& name, const Counter* c);

  /// Create-or-set a named gauge (point-in-time level, e.g. sim.now_us).
  void set_gauge(const std::string& name, double v);

  /// Value of a named counter (owned or linked); 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;
  bool has_counter(const std::string& name) const;

  std::size_t counter_count() const { return owned_.size() + linked_.size(); }

  /// Visits every counter (owned and linked) in sorted-name order — the
  /// same two-pointer merge the JSON export uses, so visitation order is
  /// deterministic and matches the export.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    auto o = owned_.begin();
    auto l = linked_.begin();
    while (o != owned_.end() || l != linked_.end()) {
      if (l == linked_.end() || (o != owned_.end() && o->first < l->first)) {
        fn(o->first, o->second->value());
        ++o;
      } else {
        fn(l->first, l->second->value());
        ++l;
      }
    }
  }

  /// Visits every gauge in sorted-name order.
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    for (const auto& [name, v] : gauges_) fn(name, v);
  }

  /// One JSON object: {"counters": {...}, "gauges": {...}}, keys sorted, so
  /// exports are deterministic and diffable.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> owned_;
  std::map<std::string, const Counter*> linked_;
  std::map<std::string, double> gauges_;
};

}  // namespace dpu::metrics
