// Caller-side instance ledger: what a real FaaS / container-registry front
// end does with the fleet's answers.
//
// Scaler::Observe's contract asks the caller to keep its own instance pool
// in step with the serving mirror: create an instance on a cold start,
// cancel its earliest still-pending scheduled creation when told to, run
// the creations PlanAll drains at their times and delete the newest idle
// instances on scale-in. The ledger does exactly that with a deterministic
// pending time, so it can measure what the caller experiences (hits = an
// instance already warm on arrival, waits) and cross-check the fleet's own
// counters (cold starts, outstanding instances) from the outside.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "rs/api/scaler.hpp"
#include "rs/simulator/autoscaler.hpp"

namespace perfbench {

class TenantLedger {
 public:
  explicit TenantLedger(double pending_s) : pending_(pending_s) {}

  /// One arrival and the outcome the fleet returned for it.
  void Observe(double arrival, const rs::api::Scaler::ObserveOutcome& outcome) {
    AdvanceTo(arrival);
    ++queries_;
    if (outcome.cold_start) {
      // Reactive creation dedicated to this query: it waits the full
      // pending time.
      ++cold_starts_;
      ++reactive_;
      wait_sum_ += pending_;
      if (outcome.cancel_earliest_scheduled) {
        if (scheduled_.empty()) {
          ++errors_;  // Told to cancel a creation we never received.
        } else {
          scheduled_.pop();
          ++cancels_;
        }
      }
      return;
    }
    if (live_.empty()) {
      // The mirror consumed an instance whose creation has not been drained
      // to us yet (an arrival-time action still sitting in the Plan
      // buffer): the query waits for that creation.
      owed_.push_back(arrival);
      return;
    }
    const double ready = live_.front();
    live_.pop_front();
    if (ready <= arrival) {
      ++hits_;
    } else {
      wait_sum_ += ready - arrival;
    }
  }

  /// One drained PlanAll action at boundary `now`.
  ///
  /// Cadence and planning interval are aligned, so one drain carries the
  /// arrival-time actions since the previous boundary plus the tick at
  /// `now`. The mirror executed the former before the tick and applied the
  /// tick's scale-in before the tick's own creations; the ledger keeps that
  /// order: past-dated creations, then deletions, then the rest.
  void Drain(double now, const rs::sim::ScalingAction& action) {
    AdvanceTo(now);
    for (double t : action.creation_times) {
      if (t < now) Create(now);  // The earliest we can start it is now.
    }
    for (std::size_t k = 0; k < action.deletions; ++k) {
      if (live_.empty()) {
        ++errors_;  // Asked to delete an instance we do not have.
        continue;
      }
      live_.pop_back();
      ++deletions_;
    }
    for (double t : action.creation_times) {
      ++delivered_;
      if (t == now) {
        Create(now);
      } else if (t > now) {
        scheduled_.push(t);
      }
    }
  }

  /// Instances the caller holds or will start (owed ones already belong to
  /// a waiting query).
  std::ptrdiff_t Outstanding() const {
    return static_cast<std::ptrdiff_t>(live_.size() + scheduled_.size()) -
           static_cast<std::ptrdiff_t>(owed_.size());
  }

  std::size_t queries() const { return queries_; }
  std::size_t cold_starts() const { return cold_starts_; }
  std::size_t hits() const { return hits_; }
  double wait_sum() const { return wait_sum_; }
  /// Instances the caller was asked to create, net of cancellations.
  std::size_t requested() const { return delivered_ + reactive_ - cancels_; }
  std::size_t errors() const { return errors_; }

 private:
  void AdvanceTo(double t) {
    while (!scheduled_.empty() && scheduled_.top() <= t) {
      const double at = scheduled_.top();
      scheduled_.pop();
      Create(at);
    }
  }

  void Create(double at) {
    const double ready = at + pending_;
    if (!owed_.empty()) {
      const double arrival = owed_.front();
      owed_.pop_front();
      wait_sum_ += ready > arrival ? ready - arrival : 0.0;
      return;
    }
    live_.push_back(ready);
  }

  double pending_;
  std::priority_queue<double, std::vector<double>, std::greater<>> scheduled_;
  std::deque<double> live_;  ///< Ready times, creation order.
  std::deque<double> owed_;  ///< Arrival times waiting for an undrained
                             ///< creation.
  std::size_t queries_ = 0;
  std::size_t cold_starts_ = 0;
  std::size_t hits_ = 0;
  std::size_t reactive_ = 0;
  std::size_t delivered_ = 0;
  std::size_t cancels_ = 0;
  std::size_t deletions_ = 0;
  std::size_t errors_ = 0;
  double wait_sum_ = 0.0;
};

}  // namespace perfbench
