#include "rs/simulator/engine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace rs::sim {

InstancePool::InstancePool(const EngineOptions& options)
    : rng(options.seed),
      options_(options),
      clock_(options.decision_clock != nullptr ? options.decision_clock
                                               : &own_clock_) {}

std::size_t InstancePool::CountReady(double t) const {
  std::size_t ready = 0;
  for (const Instance& inst : live) {
    if (inst.ready_time <= t) ++ready;
  }
  return ready;
}

SimContext InstancePool::MakeContext(double t) const {
  SimContext ctx;
  ctx.now = t;
  ctx.queries_arrived = total_arrivals;
  ctx.instances_alive = live.size();
  ctx.instances_ready = CountReady(t);
  ctx.scheduled_creations = schedule.size();
  ctx.arrival_history = &arrivals;
  return ctx;
}

InstancePool::Instance InstancePool::Create(double t) {
  double pending = options_.pending.Sample(&rng);
  if (options_.pending_jitter > 0.0) {
    pending *= 1.0 + options_.pending_jitter * (2.0 * rng.NextDouble() - 1.0);
    pending = std::max(0.0, pending);
  }
  const Instance inst{t + options_.creation_latency + pending, created_++};
  live.push_back(inst);
  return inst;
}

Status InstancePool::CheckRestored() const {
  const auto invalid = [this](const char* field, double value,
                              const char* rule) {
    std::ostringstream msg;
    msg << "restored serving state: `" << field << "` = " << value << " "
        << rule << " (serving clock at " << now << " s)";
    return Status::Invalid(msg.str());
  };
  if (!std::isfinite(now)) return invalid("now", now, "is not finite");
  if (!(next_tick > now)) {
    return invalid("next_tick", next_tick, "must be later than now or +inf");
  }
  for (auto pending = schedule; !pending.empty(); pending.pop()) {
    const double time = pending.top().time;
    if (!std::isfinite(time) || time < now) {
      return invalid("schedule", time, "must be finite and not before now");
    }
  }
  for (const Instance& inst : live) {
    if (!std::isfinite(inst.ready_time)) {
      return invalid("live", inst.ready_time, "ready time is not finite");
    }
  }
  return Status::OK();
}

namespace {

/// Simulate()'s driver and InstancePool listener: one outcome record per
/// query and per instance (indexed by the pool's instance ids).
class Replay {
 public:
  explicit Replay(const EngineOptions& options) : pool_(options) {}

  SimulationResult Run(const workload::Trace& trace, Autoscaler* strategy) {
    const double horizon = trace.horizon();
    result_.horizon = horizon;
    for (const workload::Query& query : trace.queries()) {
      // The window is closed on the right: an event at exactly `horizon`
      // is still processed (tests/api_test.cpp pins a planning tick landing
      // exactly on the horizon).
      if (query.arrival_time > horizon) break;
      pool_.AdvanceTo(query.arrival_time, strategy, *this);
      Record(query, pool_.Arrive(query.arrival_time, strategy, *this));
    }
    pool_.AdvanceTo(horizon, strategy, *this);

    // Wind down: charge idle instances to the horizon.
    if (pool_.options().charge_idle_until_horizon) {
      for (const InstancePool::Instance& inst : pool_.live) {
        auto& rec = result_.instances[inst.id];
        rec.end_time = horizon;
        rec.lifecycle_cost = horizon - rec.creation_time;
      }
    }
    return std::move(result_);
  }

  void Created(const InstancePool::Instance& inst, double t) {
    InstanceOutcome rec;
    rec.creation_time = t;
    rec.ready_time = inst.ready_time;
    rec.end_time = rec.ready_time;  // Updated on consumption / wind-down.
    result_.instances.push_back(rec);
  }

  void Applied(ScalingAction /*action*/, double effective,
               const std::vector<InstancePool::Instance>& scaled_in) {
    for (const InstancePool::Instance& inst : scaled_in) {
      auto& rec = result_.instances[inst.id];
      rec.end_time = effective;
      rec.lifecycle_cost = std::max(0.0, effective - rec.creation_time);
    }
  }

 private:
  void Record(const workload::Query& query,
              const InstancePool::Arrival& arrival) {
    const double xi = query.arrival_time;
    QueryOutcome out;
    out.arrival_time = xi;
    out.processing_time = query.processing_time;
    out.cold_start = arrival.cold_start;
    auto& rec = result_.instances[arrival.instance.id];
    rec.served_query = true;
    if (arrival.instance.ready_time <= xi) {
      // Hit: processing starts immediately (Algorithm 1 line 3).
      out.hit = true;
      out.wait_time = 0.0;
    } else {
      // Pending: wait until the instance finishes startup (line 5).
      out.hit = false;
      out.wait_time = arrival.instance.ready_time - xi;
    }
    out.response_time = out.wait_time + out.processing_time;
    // Lifecycle: creation -> processing completion (Section VI-A cost_i).
    rec.end_time = xi + out.wait_time + out.processing_time;
    rec.lifecycle_cost = rec.end_time - rec.creation_time;
    result_.queries.push_back(out);
  }

  InstancePool pool_;
  SimulationResult result_;
};

}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  if (!(options.creation_latency >= 0.0) ||
      !std::isfinite(options.creation_latency)) {
    std::ostringstream msg;
    msg << "EngineOptions: creation_latency must be finite and >= 0 s, got "
        << options.creation_latency;
    return Status::Invalid(msg.str());
  }
  if (!(options.pending_jitter >= 0.0) || !(options.pending_jitter <= 1.0)) {
    std::ostringstream msg;
    msg << "EngineOptions: pending_jitter must be in [0, 1], got "
        << options.pending_jitter;
    return Status::Invalid(msg.str());
  }
  return Status::OK();
}

Result<SimulationResult> Simulate(const workload::Trace& trace,
                                  Autoscaler* strategy,
                                  const EngineOptions& options) {
  if (strategy == nullptr) return Status::Invalid("Simulate: null strategy");
  if (trace.horizon() <= 0.0) {
    return Status::Invalid("Simulate: trace horizon must be positive");
  }
  RS_RETURN_NOT_OK(ValidateEngineOptions(options));
  Replay replay(options);
  return replay.Run(trace, strategy);
}

}  // namespace rs::sim
