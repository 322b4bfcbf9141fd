// Outside-in tracing for the serving benchmark's traced mode.
//
// Nothing here reaches into src/: layers are timed at their public
// boundaries only —
//  * TracedStrategy forwards every sim::Autoscaler callback to the real
//    strategy and times it (registered in the StrategyRegistry under
//    "traced_<name>", so the fleet builds, swaps and restores it like any
//    other strategy);
//  * TimedTap forwards every api::ServingTap callback to the journal and
//    times it;
//  * the serving loop wraps Observe / PlanAll / Checkpoint / Recover in
//    spans of its own.
// Spans (name, start, end, parent) stay in per-thread memory buffers and
// are written out once, when the run ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rs/api/serving_tap.hpp"
#include "rs/api/strategy_registry.hpp"
#include "rs/simulator/autoscaler.hpp"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names (index into kSpanNames).
enum SpanName : std::uint32_t {
  kSpanRound = 0,
  kSpanSetup,
  kSpanObserve,
  kSpanPlanAll,
  kSpanTick,
  kSpanArrival,
  kSpanTap,
  kSpanCheckpoint,
  kSpanRestart,
  kSpanCount,
};

inline const char* const kSpanNames[kSpanCount] = {
    "bench.round",  "bench.setup",     "api.observe",
    "api.planall",  "core.tick",       "core.arrival",
    "wal.tap",      "wal.checkpoint",  "wal.restart",
};

struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root.
  std::uint32_t name;
};

/// Spans kept per run; later ones are counted, not stored, so a long
/// traced run stays within a fixed memory budget (~64 MB).
inline constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

/// Process-wide span store: one buffer per thread, registered on first
/// use, merged only when the run ends.
class SpanLog {
 public:
  static SpanLog& Get() {
    static SpanLog log;
    return log;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint32_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(const Span& span) {
    if (stored_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Local()->push_back(span);
  }

  /// Parent of spans opened on pool workers (the PlanAll batch span).
  std::atomic<std::uint32_t>& batch_parent() { return batch_parent_; }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& buffer : buffers_) n += buffer->size();
    return n;
  }
  std::size_t dropped() const { return dropped_.load(); }

  /// Writes every span as a little-endian binary file: magic "RSPN", the
  /// name table (u32 count, then u32 length + bytes each), u64 stored span
  /// count, u64 dropped span count, then fixed 32-byte records (start ns,
  /// end ns, id, parent, name, 4 bytes padding).
  bool WriteTo(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fwrite("RSPN", 1, 4, f);
    const std::uint32_t names = kSpanCount;
    std::fwrite(&names, sizeof(names), 1, f);
    for (const char* name : kSpanNames) {
      const auto len = static_cast<std::uint32_t>(std::char_traits<char>::length(name));
      std::fwrite(&len, sizeof(len), 1, f);
      std::fwrite(name, 1, len, f);
    }
    std::uint64_t total = 0;
    for (const auto& buffer : buffers_) total += buffer->size();
    const std::uint64_t dropped = dropped_.load();
    std::fwrite(&total, sizeof(total), 1, f);
    std::fwrite(&dropped, sizeof(dropped), 1, f);
    for (const auto& buffer : buffers_) {
      for (const Span& s : *buffer) std::fwrite(&s, sizeof(Span), 1, f);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::deque<Span>* Local() {
    thread_local std::deque<Span>* local = nullptr;
    if (local == nullptr) {
      auto buffer = std::make_unique<std::deque<Span>>();
      local = buffer.get();
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::move(buffer));
    }
    return local;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint32_t> batch_parent_{0};
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::deque<Span>>> buffers_;
};

/// The innermost open span on this thread (0 = none).
inline std::uint32_t& ThreadParent() {
  thread_local std::uint32_t parent = 0;
  return parent;
}

/// RAII span on the calling thread; nests under the thread's open span or,
/// on a pool worker with none open, under the current PlanAll batch.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, bool batch = false) {
    SpanLog& log = SpanLog::Get();
    if (!log.enabled()) return;
    span_.id = log.NextId();
    span_.parent = ThreadParent() != 0
                       ? ThreadParent()
                       : log.batch_parent().load(std::memory_order_relaxed);
    span_.name = name;
    saved_parent_ = ThreadParent();
    ThreadParent() = span_.id;
    if (batch) log.batch_parent().store(span_.id, std::memory_order_relaxed);
    batch_ = batch;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end_ns = NowNs();
    ThreadParent() = saved_parent_;
    SpanLog& log = SpanLog::Get();
    if (batch_) log.batch_parent().store(0, std::memory_order_relaxed);
    log.Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_{0, 0, 0, 0, 0};
  std::uint32_t saved_parent_ = 0;
  bool batch_ = false;
};

/// Durations of one kind of call.
struct Timings {
  std::vector<std::uint32_t> ns;
  double busy_s = 0.0;

  void Add(std::int64_t d) {
    ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(d, 0xffffffffll)));
    busy_s += static_cast<double>(d) * 1e-9;
  }
  void Merge(const Timings& other) {
    ns.insert(ns.end(), other.ns.begin(), other.ns.end());
    busy_s += other.busy_s;
  }
  /// Merge with every duration multiplied by `factor`.
  void MergeScaled(const Timings& other, double factor) {
    // Grow geometrically: an exact reserve per merge copies the whole
    // vector every time, quadratic over thousands of merged instances.
    const std::size_t need = ns.size() + other.ns.size();
    if (need > ns.capacity()) ns.reserve(std::max(need, 2 * ns.capacity()));
    for (std::uint32_t d : other.ns) {
      ns.push_back(static_cast<std::uint32_t>(
          std::min(static_cast<double>(d) * factor + 0.5, 4294967295.0)));
    }
    busy_s += other.busy_s * factor;
  }
  /// Nearest-rank quantile in ns (0 when empty).
  double Quantile(double q) {
    if (ns.empty()) return 0.0;
    auto k = static_cast<std::size_t>(q * static_cast<double>(ns.size()));
    if (k >= ns.size()) k = ns.size() - 1;
    std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                     ns.end());
    return static_cast<double>(ns[k]);
  }
};

/// Per-strategy-instance callback timings. Each instance is driven by one
/// thread at a time (the fleet plans a tenant on exactly one worker per
/// batch and joins before returning), so no locking is needed per call.
struct StrategyTimings {
  Timings tick;
  Timings arrival;
  /// Callback time spent on the fleet's caller thread (inline plans and
  /// ticks due inside Observe) — what api.mirror_self_s subtracts.
  double caller_thread_s = 0.0;
};

/// Registry of every StrategyTimings a TracedStrategy ever created (they
/// outlive their strategies, which model swaps destroy).
class StrategyTimingsRegistry {
 public:
  static StrategyTimingsRegistry& Get() {
    static StrategyTimingsRegistry registry;
    return registry;
  }
  std::shared_ptr<StrategyTimings> Make() {
    auto t = std::make_shared<StrategyTimings>();
    std::lock_guard<std::mutex> lock(mu_);
    all_.push_back(t);
    return t;
  }
  /// Moves every recorded timing out (the registry starts empty again).
  std::vector<std::shared_ptr<StrategyTimings>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(all_, {});
  }
  /// The fleet's caller thread (callbacks elsewhere are pool workers).
  void SetCallerThread() { caller_ = std::this_thread::get_id(); }
  bool OnCallerThread() const { return std::this_thread::get_id() == caller_; }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<StrategyTimings>> all_;
  std::thread::id caller_;
};

/// Forwarding sim::Autoscaler: behaves exactly like `inner` and times each
/// decision callback.
class TracedStrategy final : public rs::sim::Autoscaler {
 public:
  explicit TracedStrategy(std::unique_ptr<rs::sim::Autoscaler> inner)
      : inner_(std::move(inner)),
        timings_(StrategyTimingsRegistry::Get().Make()) {}

  const char* name() const override { return inner_->name(); }
  double planning_interval() const override {
    return inner_->planning_interval();
  }
  double history_requirement() const override {
    return inner_->history_requirement();
  }
  void SetPlanningPool(rs::common::ThreadPool* pool) override {
    inner_->SetPlanningPool(pool);
  }
  std::size_t planning_workspace_bytes() const override {
    return inner_->planning_workspace_bytes();
  }
  rs::Status SerializeModel(rs::persist::Writer* writer) const override {
    return inner_->SerializeModel(writer);
  }
  rs::Status DeserializeModel(rs::persist::Reader* reader) override {
    return inner_->DeserializeModel(reader);
  }
  rs::sim::ScalingAction Initialize(const rs::sim::SimContext& ctx) override {
    return inner_->Initialize(ctx);
  }
  rs::sim::ScalingAction OnPlanningTick(
      const rs::sim::SimContext& ctx) override {
    ScopedSpan span(kSpanTick);
    const std::int64_t t0 = NowNs();
    auto action = inner_->OnPlanningTick(ctx);
    Note(&timings_->tick, NowNs() - t0);
    return action;
  }
  rs::sim::ScalingAction OnQueryArrival(const rs::sim::SimContext& ctx,
                                        bool cold_start) override {
    ScopedSpan span(kSpanArrival);
    const std::int64_t t0 = NowNs();
    auto action = inner_->OnQueryArrival(ctx, cold_start);
    Note(&timings_->arrival, NowNs() - t0);
    return action;
  }

 private:
  void Note(Timings* timings, std::int64_t d) {
    timings->Add(d);
    if (StrategyTimingsRegistry::Get().OnCallerThread()) {
      timings_->caller_thread_s += static_cast<double>(d) * 1e-9;
    }
  }

  std::unique_ptr<rs::sim::Autoscaler> inner_;
  std::shared_ptr<StrategyTimings> timings_;
};

/// Registers "traced_<name>" for each given strategy name (idempotent).
inline void RegisterTracedStrategies(const std::vector<std::string>& names) {
  auto& registry = rs::api::StrategyRegistry::Global();
  for (const std::string& base : names) {
    const std::string traced = "traced_" + base;
    if (registry.Contains(traced)) continue;
    const rs::Status status = registry.Register(
        traced,
        [base](const rs::api::StrategySpec& spec,
               const rs::api::StrategyContext& context)
            -> rs::Result<std::unique_ptr<rs::sim::Autoscaler>> {
          rs::api::StrategySpec inner = spec;
          inner.name = base;
          auto made = rs::api::StrategyRegistry::Global().Create(inner, context);
          if (!made.ok()) return made.status();
          return std::unique_ptr<rs::sim::Autoscaler>(
              std::make_unique<TracedStrategy>(std::move(made).ValueOrDie()));
        });
    if (!status.ok()) {
      std::fprintf(stderr, "cannot register %s: %s\n", traced.c_str(),
                   status.ToString().c_str());
      std::abort();
    }
  }
}

/// Forwarding api::ServingTap: times each callback into `inner` (the
/// journal). Callbacks fire on the caller thread only.
class TimedTap final : public rs::api::ServingTap {
 public:
  explicit TimedTap(rs::api::ServingTap* inner) : inner_(inner) {}

  Timings timings;

  void OnRegister(const std::string& tenant,
                  const rs::api::Scaler& scaler) override {
    Time([&] { inner_->OnRegister(tenant, scaler); });
  }
  void OnRetire(const std::string& tenant) override {
    Time([&] { inner_->OnRetire(tenant); });
  }
  void OnReplaceModel(const std::string& tenant,
                      const rs::api::Scaler& incoming,
                      bool at_next_plan) override {
    Time([&] { inner_->OnReplaceModel(tenant, incoming, at_next_plan); });
  }
  void OnObserve(const std::string& tenant, double arrival_time,
                 const rs::api::Scaler::ObserveOutcome& outcome) override {
    Time([&] { inner_->OnObserve(tenant, arrival_time, outcome); });
  }
  void OnPlan(const std::string& tenant, double now,
              const rs::sim::ScalingAction& action,
              const rs::api::TapClockMark& clock) override {
    Time([&] { inner_->OnPlan(tenant, now, action, clock); });
  }
  void OnPlanAll(double now,
                 const std::vector<rs::api::ScalerFleet::TenantPlan>& plans,
                 const std::vector<rs::api::TapClockMark>& clocks) override {
    Time([&] { inner_->OnPlanAll(now, plans, clocks); });
  }

 private:
  template <typename F>
  void Time(F&& f) {
    ScopedSpan span(kSpanTap);
    const std::int64_t t0 = NowNs();
    f();
    timings.Add(NowNs() - t0);
  }

  rs::api::ServingTap* inner_;
};

}  // namespace perfbench
