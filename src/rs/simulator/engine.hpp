/// \file engine.hpp
/// \brief The scaling-per-query dynamics of Algorithm 1 — queries consume
///        instances FIFO, wait for pending ones, or trigger reactive cold
///        starts that cancel the earliest still-scheduled creation — written
///        once as InstancePool, and Simulate(), the discrete-event replay
///        of a trace through it. api::Scaler's online serving state drives
///        the same pool from Observe()/Plan().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/simulator/autoscaler.hpp"
#include "rs/simulator/decision_clock.hpp"
#include "rs/simulator/metrics.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"
#include "rs/workload/trace.hpp"

namespace rs::sim {

/// Engine configuration.
struct EngineOptions {
  /// Instance pending/startup time distribution τ_i (paper experiments:
  /// deterministic 13 s).
  stats::DurationDistribution pending =
      stats::DurationDistribution::Deterministic(13.0);

  /// Seed for pending-time draws and any strategy-independent randomness.
  std::uint64_t seed = 20220414;

  /// When true, the wall-clock time the strategy spends inside
  /// OnPlanningTick is charged to the simulation: the returned creations
  /// cannot take effect earlier than now + elapsed wall time. Models the
  /// paper's "real environment" (Table IV) where decision computation
  /// delays scaling actions.
  bool charge_decision_wall_time = false;

  /// Clock used to measure decision wall time when
  /// charge_decision_wall_time is set; not owned. Must outlive every use
  /// of these options: the Simulate() run, or — when passed to
  /// api::Scaler::ConfigureServing — the entire serving session, including
  /// sessions restarted via ResetServing(). nullptr selects a real
  /// SteadyDecisionClock. Inject a FakeDecisionClock to make the charged
  /// latencies deterministic (tests, parity checks).
  DecisionClock* decision_clock = nullptr;

  /// Fixed extra latency added to every instance creation (cluster API
  /// round-trip in the real environment; 0 in the idealized one).
  double creation_latency = 0.0;

  /// Pending times are multiplied by Uniform(1 - jitter, 1 + jitter);
  /// 0 reproduces the idealized environment exactly.
  double pending_jitter = 0.0;

  /// Unconsumed instances at trace end are charged until the horizon.
  bool charge_idle_until_horizon = true;
};

/// \brief Validates one EngineOptions the way the registry validates
///        strategy parameters: out-of-range physical knobs fail with an
///        actionable message instead of silently producing nonsense.
///
/// Shared by Simulate() and api::Scaler::ConfigureServing so the replay and
/// serving paths reject exactly the same configurations.
Status ValidateEngineOptions(const EngineOptions& options);

/// \brief The instance lifecycle of Algorithm 1: the creation schedule,
///        the live set, the planning-tick cursor and the arrival history,
///        advanced in event order.
///
/// Both drivers run on it: Simulate() replays a trace (AdvanceTo each
/// arrival, then Arrive), and api::Scaler serves a live caller (AdvanceTo
/// on every Observe/Plan, Arrive on Observe). Events at one instant run in
/// the order tick → creation → arrival: a tick plans before that instant's
/// creations execute (its actions cannot act before `now` anyway), and an
/// instance created at exactly ξ_i is pending for that query (Algorithm 1's
/// x_i <= ξ_i < x_i + τ_i branch).
///
/// Drivers pass a listener, a template argument so the serving hot path
/// calls it directly:
///   - `Created(const Instance& instance, double t)` after an instance is
///     created at t (scheduled or cold start);
///   - `Applied(ScalingAction action, double effective,
///     const std::vector<Instance>& scaled_in)` after the raw `action` a
///     strategy returned at `now` is applied: its creations were scheduled
///     at max(time, effective) with the emission numbers just below
///     `next_seq`, and `scaled_in` holds the instances it deleted, newest
///     first.
class InstancePool {
 public:
  /// An unconsumed instance.
  struct Instance {
    double ready_time = 0.0;
    /// Creation ordinal within this pool; Simulate() indexes its instance
    /// records by it. Instances restored from a snapshot carry 0.
    std::size_t id = 0;
  };

  /// A scheduled creation. `seq` is its emission number: creations at
  /// equal times execute oldest first, and the serving layer tells
  /// delivered from undelivered creations by it.
  struct Creation {
    double time = 0.0;
    std::uint64_t seq = 0;
    bool operator>(const Creation& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  /// What serving one arrival did.
  struct Arrival {
    Instance instance;        ///< The instance that serves the query.
    bool cold_start = false;  ///< It was created reactively at arrival.
    /// The cold start cancelled the earliest scheduled creation (it was
    /// meant for this query); `cancelled_seq` is that creation's `seq`.
    bool cancelled = false;
    std::uint64_t cancelled_seq = 0;
  };

  /// `options` must already pass ValidateEngineOptions.
  explicit InstancePool(const EngineOptions& options);
  InstancePool(const InstancePool&) = delete;
  InstancePool& operator=(const InstancePool&) = delete;

  const EngineOptions& options() const { return options_; }
  /// The injected decision clock, or the pool's own steady clock.
  DecisionClock* clock() const { return clock_; }

  /// Runs every planning tick and scheduled creation at or before `t` in
  /// event order, then sets `now` to `t`. The first call starts the pool:
  /// it arms the tick cursor and applies strategy->Initialize at t = 0.
  template <typename Listener>
  void AdvanceTo(double t, Autoscaler* strategy, Listener& listener);

  /// Serves a query arriving at `xi` (call AdvanceTo(xi) first): the oldest
  /// live instance serves it; with none live it cold-starts one and cancels
  /// the earliest scheduled creation (Algorithm 1 line 7). Then applies the
  /// strategy's OnQueryArrival action.
  template <typename Listener>
  Arrival Arrive(double xi, Autoscaler* strategy, Listener& listener);

  /// Live instances ready at `t`.
  std::size_t CountReady(double t) const;

  /// \brief Rejects restored state the event loop could not advance from:
  ///        a non-finite `now`, a `next_tick` not later than `now` (+inf
  ///        disarms ticks), a non-finite or past `schedule` time, and a
  ///        non-finite `live` ready time. The message names the field.
  Status CheckRestored() const;

  // Event-loop state. Public so the serving layer can snapshot and restore
  // it field by field; CheckRestored() states what a restore must satisfy.

  stats::Rng rng;  ///< Pending-time draws, in creation order.
  /// Future creations, earliest first.
  std::priority_queue<Creation, std::vector<Creation>, std::greater<>>
      schedule;
  std::uint64_t next_seq = 0;  ///< `seq` of the next scheduled creation.
  std::deque<Instance> live;   ///< Unconsumed instances, creation order.
  /// Arrival times seen, ascending. The serving layer trims the stale
  /// prefix; `total_arrivals` counts every arrival ever served.
  std::vector<double> arrivals;
  std::size_t total_arrivals = 0;
  double now = 0.0;  ///< Time of the last event processed.
  double next_tick = std::numeric_limits<double>::infinity();
  bool started = false;

 private:
  SimContext MakeContext(double t) const;
  /// Creates an instance at `t`: ready after the creation latency plus a
  /// jittered pending time.
  Instance Create(double t);
  template <typename Listener>
  void Apply(ScalingAction action, double effective, Listener& listener);

  EngineOptions options_;
  SteadyDecisionClock own_clock_;
  DecisionClock* clock_;
  std::vector<Instance> scaled_in_;
  std::size_t created_ = 0;
};

/// \brief Replays `trace` under `strategy` and returns the full per-query /
///        per-instance record.
///
/// Events follow InstancePool's order (tick → creation → arrival at equal
/// timestamps). Horizon boundary: events at exactly `trace.horizon()` are
/// still processed (the window is closed on the right). Scaler::Plan(t)
/// likewise processes the planning tick at exactly `t`, so a replay and a
/// serving loop drained to the horizon see the same event sequence,
/// including a tick landing exactly there.
Result<SimulationResult> Simulate(const workload::Trace& trace,
                                  Autoscaler* strategy,
                                  const EngineOptions& options = {});

// -- InstancePool event steps ------------------------------------------------

template <typename Listener>
void InstancePool::AdvanceTo(double t, Autoscaler* strategy,
                             Listener& listener) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const double tick = strategy->planning_interval();
  if (!started) {
    started = true;
    next_tick = tick > 0.0 ? 0.0 : kNever;
    Apply(strategy->Initialize(MakeContext(0.0)), 0.0, listener);
  }
  for (;;) {
    const double next_creation =
        schedule.empty() ? kNever : schedule.top().time;
    if (std::min(next_tick, next_creation) > t) break;
    if (next_tick <= next_creation) {
      // Planning tick. When decision time is charged, its wall time pushes
      // the resulting creations to now + elapsed.
      now = next_tick;
      double effective = now;
      ScalingAction action = ChargedDecision(
          *clock_, options_.charge_decision_wall_time, now, &effective,
          [&] { return strategy->OnPlanningTick(MakeContext(now)); });
      Apply(std::move(action), effective, listener);
      next_tick = now + tick;
    } else {
      now = next_creation;
      schedule.pop();
      listener.Created(Create(now), now);
    }
  }
  now = t;
}

template <typename Listener>
InstancePool::Arrival InstancePool::Arrive(double xi, Autoscaler* strategy,
                                           Listener& listener) {
  Arrival out;
  if (live.empty()) {
    listener.Created(Create(xi), xi);
    out.cold_start = true;
    if (!schedule.empty()) {
      out.cancelled = true;
      out.cancelled_seq = schedule.top().seq;
      schedule.pop();
    }
  }
  out.instance = live.front();
  live.pop_front();
  arrivals.push_back(xi);
  ++total_arrivals;
  Apply(strategy->OnQueryArrival(MakeContext(xi), out.cold_start), xi,
        listener);
  return out;
}

template <typename Listener>
void InstancePool::Apply(ScalingAction action, double effective,
                         Listener& listener) {
  for (const double t : action.creation_times) {
    schedule.push({std::max(t, effective), next_seq++});
  }
  // Scale-in: drop the latest-created unconsumed instances first (they have
  // absorbed the least sunk cost); deletions beyond the live count are
  // skipped.
  scaled_in_.clear();
  for (std::size_t k = 0; k < action.deletions && !live.empty(); ++k) {
    scaled_in_.push_back(live.back());
    live.pop_back();
  }
  listener.Applied(std::move(action), effective, scaled_in_);
}

}  // namespace rs::sim
