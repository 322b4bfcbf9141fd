// rs_perfbench — the repository's serving benchmark.
//
// One caller thread drives the public rs::api surface the way a FaaS or
// container-registry front end does: it reports arrivals through
// ScalerFleet::Observe, polls PlanAll at a fixed serving-time cadence and
// executes the returned actions on its own instance ledger. The loop is
// closed: a pre-generated arrival schedule is replayed as fast as the fleet
// returns. A run is a warm-up round followed by timed rounds, each of which
// builds a fresh fleet and serves the whole schedule, so every run attempts
// whole rounds of the same operations.
//
//   rs_perfbench --workload azure-fleet --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// rounds with forwarding strategy / tap wrappers and prints the per-layer
// metrics. The last stdout line is one JSON object (correct, attempted,
// failed, metrics). See README.md for the workloads and the metric map.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "rs/api/scaler.hpp"
#include "rs/api/scaler_fleet.hpp"
#include "rs/api/serving_tap.hpp"
#include "rs/api/strategy_spec.hpp"
#include "rs/core/admm.hpp"
#include "rs/core/kappa.hpp"
#include "rs/persist/persist.hpp"
#include "rs/stats/special_functions.hpp"
#include "rs/timeseries/periodicity.hpp"
#include "rs/trace/trace.hpp"
#include "rs/train/training_session.hpp"
#include "rs/wal/wal.hpp"

namespace pb = perfbench;
namespace fs = std::filesystem;
using namespace rs;

namespace {

/// Deterministic instance pending time τ (the paper's 13 s), on both the
/// scaler side (the builder default) and the caller's ledger.
constexpr double kPendingS = 13.0;

/// drift-retrain: how far a swapped model's mean rate may sit from the
/// generator's post-shift mean (relative).
constexpr double kRegimeTolerance = 0.35;

/// Typical ReferenceKernelSeconds() on the build machine: the host speed
/// every reported time is scaled to (see RunMeasuredRound).
constexpr double kNominalReferenceS = 0.018;

// ---------------------------------------------------------------------------
// Workload description
// ---------------------------------------------------------------------------

/// One model to train: its training window and serving strategy.
struct ModelSpec {
  std::vector<double> train_arrivals;
  double train_horizon = 0.0;
  double bin_width = 60.0;
  double forecast_horizon = 0.0;
  std::string strategy;  ///< Registry spec, e.g. "robust_hp:target=0.9".
  double planning_interval = 1.0;
  std::size_t mc_samples = 20;
  std::uint64_t mc_seed = 31;
};

struct TenantSpec {
  std::string name;
  std::size_t model = 0;
  pb::RateCurve serve;  ///< The generator's serving intensity.
  bool shifted = false;
  double regime_mean = 0.0;  ///< Generator mean rate after the shift.
  // mc-heavy QoS targets (0 = none).
  double hp_target = 0.0;
  double rt_budget = 0.0;
};

struct Workload {
  std::string name;
  std::vector<ModelSpec> models;
  std::vector<TenantSpec> tenants;
  /// Merged arrival schedule, ascending (time, tenant).
  std::vector<double> arrival_t;
  std::vector<std::uint32_t> arrival_tenant;
  double cadence = 10.0;   ///< PlanAll every `cadence` serving seconds.
  double end = 0.0;        ///< Serving horizon (last PlanAll boundary).
  std::size_t worker_threads = 0;
  bool freshness = false;
  api::FreshnessPolicy fresh_policy;
  bool journal = false;
  std::size_t checkpoint_every = 0;  ///< PlanAll batches; 0 = never.
  bool restart = false;              ///< Drop + recover at half the batches.
  /// Journal fsync policy (the default syncs every record).
  wal::FsyncPolicy fsync = wal::FsyncPolicy::kEveryRecord;
  /// Batches of the prefix re-run on another worker count (0 = none).
  std::size_t prefix_batches = 0;
  std::size_t prefix_workers = 0;
  std::vector<std::string> strategy_names;  ///< For the traced registry.

  std::size_t batches() const {
    return static_cast<std::size_t>(std::floor(end / cadence + 1e-9));
  }
};

std::string Tenant(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s-%03zu", prefix, i);
  return buf;
}

/// Training window: `cycles` periods of a sinusoid (mean `qps`, 0.6
/// relative amplitude) sampled at the model bin width.
ModelSpec PeriodicModel(std::uint64_t seed, std::uint64_t index, double qps,
                        double period, double cycles, double bin,
                        double phase) {
  ModelSpec m;
  m.bin_width = bin;
  m.train_horizon = cycles * period;
  pb::RateCurve curve;
  curve.dt = bin;
  for (double t = 0.5 * bin; t < m.train_horizon; t += bin) {
    curve.rates.push_back(pb::SineRate(t, qps, period, 0.6, phase));
  }
  pb::Gen gen(seed, pb::kTrainArrivals, index);
  pb::SampleArrivals(&gen, curve, 0.0, &m.train_arrivals);
  return m;
}

/// Samples every tenant's serving arrivals and merges them.
void BuildSchedule(Workload* w, std::uint64_t seed) {
  std::vector<std::pair<double, std::uint32_t>> all;
  for (std::size_t i = 0; i < w->tenants.size(); ++i) {
    pb::Gen gen(seed, pb::kServeArrivals, i);
    std::vector<double> times;
    pb::SampleArrivals(&gen, w->tenants[i].serve, 0.0, &times);
    for (double t : times) {
      if (t < w->end) all.emplace_back(t, static_cast<std::uint32_t>(i));
    }
  }
  std::sort(all.begin(), all.end());
  w->arrival_t.reserve(all.size());
  w->arrival_tenant.reserve(all.size());
  for (const auto& [t, i] : all) {
    w->arrival_t.push_back(t);
    w->arrival_tenant.push_back(i);
  }
}

/// Standard normal quantile (Acklam's rational approximation, |error| <
/// 1.2e-9), for the stratified rate mix.
double NormalQuantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00, 2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double lo = 0.02425;
  if (p < lo || p > 1.0 - lo) {
    const double q = std::sqrt(-2.0 * std::log(p < lo ? p : 1.0 - p));
    const double x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
                     ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    return p < lo ? x : -x;
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

const char* kAzureSpecs[] = {
    "robust_hp:target=0.9",
    "robust_rt:target=1",
    "robust_cost:target=2",
    "backup_pool:pool_size=2",
    "adaptive_backup_pool:multiplier=1,update_interval=60,estimate_window=120",
};
const std::vector<std::string> kAllStrategies = {
    "robust_hp", "robust_rt", "robust_cost", "backup_pool",
    "adaptive_backup_pool"};

/// Azure-Functions-shaped fleet: lognormal per-tenant rates on a diurnal
/// cycle with 4-10x bursts, models cloned from five trained archetypes
/// (one per registry strategy).
Workload MakeAzureShaped(const std::string& name, std::uint64_t seed,
                         std::size_t tenants, double serve_s, double cadence,
                         double total_qps) {
  constexpr double kDay = 3600.0;  // Compressed diurnal period.
  constexpr double kBin = 60.0;
  Workload w;
  w.name = name;
  w.cadence = cadence;
  w.end = serve_s;
  w.strategy_names = kAllStrategies;
  for (std::size_t k = 0; k < 5; ++k) {
    ModelSpec m = PeriodicModel(seed, k, 1.0, kDay, 8.0, kBin,
                                static_cast<double>(k) / 5.0);
    m.forecast_horizon = serve_s + kBin;
    m.strategy = kAzureSpecs[k];
    m.planning_interval = 10.0;
    m.mc_samples = 20;
    m.mc_seed = 31 + k;
    w.models.push_back(std::move(m));
  }
  // Per-tenant shapes, then one global rescale to `total_qps`. The rate
  // mix is fixed (stratified lognormal quantiles, interleaved across the
  // archetypes) and so are the burst counts and heights; the seed moves
  // phases, burst placement and every arrival, so runs with different
  // seeds serve the same kind of fleet.
  double sum = 0.0;
  std::vector<double> bases(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(tenants);
    bases[i] = std::exp(1.2 * NormalQuantile(u));
  }
  for (std::size_t i = 0; i < tenants; ++i) {
    pb::Gen gen(seed, pb::kTenantShape, i);
    // Rank order i*k mod n spreads hot and cold tenants over archetypes.
    const double base = bases[(i * 37) % tenants];
    const std::size_t model = i % 5;
    const double phase = static_cast<double>(model) / 5.0 + gen.Uniform(-0.03, 0.03);
    struct Burst {
      double start, len, mult;
    };
    std::vector<Burst> bursts(1 + i % 3);
    for (std::size_t b = 0; b < bursts.size(); ++b) {
      bursts[b].start = gen.Uniform(0.0, serve_s - 120.0);
      bursts[b].len = 30.0 + 30.0 * static_cast<double>(b);
      bursts[b].mult = 4.0 + 3.0 * static_cast<double>((i + b) % 3);
    }
    TenantSpec t;
    t.name = Tenant("fn", i);
    t.model = model;
    t.serve.dt = 10.0;
    for (double s = 5.0; s < serve_s; s += 10.0) {
      double r = pb::SineRate(s, base, kDay, 0.6, phase);
      for (const auto& b : bursts) {
        if (s >= b.start && s < b.start + b.len) r *= b.mult;
      }
      t.serve.rates.push_back(r);
      sum += r * 10.0;
    }
    w.tenants.push_back(std::move(t));
  }
  const double scale = total_qps * serve_s / sum;
  for (auto& t : w.tenants) {
    for (double& r : t.serve.rates) r *= scale;
  }
  BuildSchedule(&w, seed);
  return w;
}

Workload MakeAzureFleet(std::uint64_t seed) {
  Workload w = MakeAzureShaped("azure-fleet", seed, 100, 1800.0, 10.0, 160.0);
  w.worker_threads = 0;
  w.prefix_batches = 60;
  w.prefix_workers = 2;
  return w;
}

Workload MakeDurableJournal(std::uint64_t seed) {
  Workload w = MakeAzureShaped("durable-journal", seed, 50, 1200.0, 5.0, 20.0);
  // No fsync per append (checkpoints, rotation and recovery still sync):
  // with one per append, or one per 64, the figures measured the host
  // disk's fsync latency, which moved 30-40% between runs (see README.md).
  w.fsync = wal::FsyncPolicy::kNone;
  w.worker_threads = 0;
  w.journal = true;
  w.checkpoint_every = 80;
  w.restart = true;
  return w;
}

std::size_t PoolWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

/// Few tenants, the paper's scalability planning setting (R=1000, Δ=1 s),
/// each serving traffic from the intensity its own model was trained on.
///
/// The timed rounds plan inline: a pooled PlanAll waits for its slowest
/// worker, so on a shared host its latency follows the scheduler (p99 of
/// 1.4-4.6 ms over five seeds on one worker, 2.3-3.5 ms on three with two
/// busy processes beside it, against 2.4-3.2 ms inline either way). The
/// prefix check runs the pool, and the traced run times a pooled round.
Workload MakeMcHeavy(std::uint64_t seed) {
  constexpr double kPeriod = 1800.0;
  constexpr double kBin = 60.0;
  constexpr double kServe = 600.0;
  const double kMeans[4] = {1.0, 2.0, 3.0, 4.0};
  Workload w;
  w.name = "mc-heavy";
  w.cadence = 1.0;
  w.end = kServe;
  w.worker_threads = 0;
  w.prefix_batches = 40;
  w.prefix_workers = PoolWorkers();
  w.strategy_names = {"robust_hp", "robust_rt", "robust_cost"};
  for (std::size_t i = 0; i < 16; ++i) {
    const double mean = kMeans[i % 4];
    const double phase = static_cast<double>(i) / 16.0;
    ModelSpec m = PeriodicModel(seed, 100 + i, mean, kPeriod, 8.0, kBin, phase);
    m.forecast_horizon = kServe + kBin;
    m.planning_interval = 1.0;
    m.mc_samples = 1000;
    m.mc_seed = 1000 + i;
    TenantSpec t;
    t.name = Tenant("svc", i);
    t.model = i;
    switch (i % 3) {
      case 0:
        m.strategy = "robust_hp:target=0.9";
        t.hp_target = 0.9;
        break;
      case 1:
        m.strategy = "robust_rt:target=2";
        t.rt_budget = 2.0;
        break;
      default:
        m.strategy = "robust_cost:target=5";
        break;
    }
    // Serving continues the training sinusoid past the window's end.
    t.serve.dt = kBin;
    for (double s = 0.5 * kBin; s < kServe; s += kBin) {
      t.serve.rates.push_back(
          pb::SineRate(m.train_horizon + s, mean, kPeriod, 0.6, phase));
    }
    w.models.push_back(std::move(m));
    w.tenants.push_back(std::move(t));
  }
  BuildSchedule(&w, seed);
  return w;
}

/// Freshness loop under scripted regime shifts: half the tenants change
/// from a third of the window on (staggered 30 s apart, so their refits do
/// not pile into one batch), alternating a 4x level change and a same-mean
/// period break (3x shorter cycle).
Workload MakeDriftRetrain(std::uint64_t seed) {
  constexpr double kPeriod = 600.0;
  constexpr double kBin = 30.0;
  constexpr double kServe = 1800.0;
  Workload w;
  w.name = "drift-retrain";
  w.cadence = 5.0;
  w.end = kServe;
  w.worker_threads = 0;
  w.freshness = true;
  w.strategy_names = {"robust_hp"};
  w.fresh_policy.pipeline.dt = kBin;
  w.fresh_policy.pipeline.forecast_horizon = kServe + kBin;
  w.fresh_policy.min_retrain_interval = 120.0;
  w.fresh_policy.retrain_workers = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const double phase = static_cast<double>(i) / 7.3;
    ModelSpec m = PeriodicModel(seed, 200 + i, 1.0, kPeriod, 6.0, kBin, phase);
    m.forecast_horizon = kServe + kBin;
    m.strategy = "robust_hp:target=0.9";
    m.planning_interval = 5.0;
    m.mc_samples = 60;
    m.mc_seed = 2000 + i;
    TenantSpec t;
    t.name = Tenant("drift", i);
    t.model = i;
    t.shifted = i % 2 == 0;
    const bool level = (i / 2) % 2 == 0;
    const double shift_at = kServe / 3.0 + 30.0 * static_cast<double>(i / 2);
    t.regime_mean = level ? 4.0 : 1.0;
    t.serve.dt = kBin;
    for (double s = 0.5 * kBin; s < kServe; s += kBin) {
      const double abs_t = m.train_horizon + s;
      double r = pb::SineRate(abs_t, 1.0, kPeriod, 0.6, phase);
      if (t.shifted && s >= shift_at) {
        r = level ? pb::SineRate(abs_t, 4.0, kPeriod, 0.6, phase)
                  : pb::SineRate(abs_t, 1.0, kPeriod / 3.0, 0.6, phase);
      }
      t.serve.rates.push_back(r);
    }
    w.models.push_back(std::move(m));
    w.tenants.push_back(std::move(t));
  }
  BuildSchedule(&w, seed);
  return w;
}

// ---------------------------------------------------------------------------
// One round: set up, serve the whole schedule, check
// ---------------------------------------------------------------------------

struct RoundOptions {
  bool traced = false;
  std::size_t worker_threads = 0;
  bool journal = false;
  bool freshness = false;
  /// Stop after this many PlanAll batches (prefix runs).
  std::size_t max_batches = std::numeric_limits<std::size_t>::max();
  std::string dir;  ///< Journal directory.
  bool per_layer = false;  ///< Collect the traced-only layer extras.
  bool verbose = false;    ///< Report check details on stderr.
  /// Train the models (a full set-up) instead of restoring them from
  /// `buffers`; freshness fleets always train.
  bool train = true;
  std::vector<std::string>* buffers = nullptr;
};

struct RoundResult {
  double setup_s = 0.0;
  bool trained = false;  ///< Full set-up: the models were trained.
  /// Nominal over measured reference-kernel time around this round.
  double host_factor = 1.0;
  double build_s = 0.0;  ///< ScalerBuilder::Build share of setup.
  double serve_s = 0.0;  ///< Sum of timed program calls.
  std::size_t observes_ok = 0;
  std::size_t observes_failed = 0;
  std::size_t plans_ok = 0;
  std::size_t plans_failed = 0;
  std::size_t journal_records = 0;
  std::size_t journal_failed = 0;
  std::size_t refits = 0;
  std::size_t refit_failures = 0;
  std::size_t batches = 0;
  pb::Timings observe;
  pb::Timings planall;
  pb::Timings checkpoint;
  pb::Timings tap;
  pb::Timings refit_batches;
  double recover_ms = 0.0;
  std::size_t events_replayed = 0;
  std::uint64_t fsyncs = 0;
  double bytes_per_record = 0.0;
  double snapshot_ms = 0.0;
  std::size_t snapshot_bytes = 0;
  std::vector<std::uint64_t> hashes;         ///< Per tenant, whole round.
  std::vector<std::uint64_t> prefix_hashes;  ///< Per tenant, first batches.
  std::vector<pb::TenantLedger> ledgers;
  api::FleetSnapshot snapshot;
  std::size_t drift_latches = 0;
  std::size_t swaps = 0;
  std::vector<std::string> errors;
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

void HashBytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

void HashAction(std::uint64_t* h, const sim::ScalingAction& action) {
  const std::uint64_t n = action.creation_times.size();
  HashBytes(h, &n, sizeof(n));
  if (n != 0) {
    HashBytes(h, action.creation_times.data(), n * sizeof(double));
  }
  const std::uint64_t d = action.deletions;
  HashBytes(h, &d, sizeof(d));
}

std::string StrategyFor(const ModelSpec& m, bool traced) {
  return traced ? "traced_" + m.strategy : m.strategy;
}

Result<api::Scaler> BuildModel(const ModelSpec& m, bool traced) {
  std::vector<workload::Query> queries;
  queries.reserve(m.train_arrivals.size());
  for (double t : m.train_arrivals) queries.push_back({t, 1.0});
  RS_ASSIGN_OR_RETURN(auto spec, api::ParseStrategySpec(StrategyFor(m, traced)));
  return api::ScalerBuilder()
      .WithTrace(workload::Trace(std::move(queries), m.train_horizon))
      .WithBinWidth(m.bin_width)
      .WithForecastHorizon(m.forecast_horizon)
      .WithStrategy(spec)
      .WithPlanningInterval(m.planning_interval)
      .WithMcSamples(m.mc_samples)
      .WithSeed(m.mc_seed)
      .Build();
}

std::string SaveFleetBytes(const api::ScalerFleet& fleet, Status* status) {
  std::ostringstream out(std::ios::binary);
  *status = fleet.SaveFleet(out);
  return std::move(out).str();
}

/// Registers every tenant. With `train` set the models are trained first
/// (`*build_s` gets the ScalerBuilder::Build time) and their
/// Scaler::SaveState buffers kept in `*buffers`; otherwise the tenants are
/// restored from the buffers an earlier round left there. A freshness fleet
/// always trains and registers the built scalers themselves: they keep
/// their training counts, so refits warm-start.
Status PopulateFleet(const Workload& w, bool traced, bool train,
                     bool freshness, std::vector<std::string>* buffers,
                     api::ScalerFleet* fleet, double* build_s) {
  if (train) {
    buffers->assign(w.models.size(), std::string());
    std::vector<std::optional<api::Scaler>> built(w.models.size());
    const std::int64_t t0 = pb::NowNs();
    for (std::size_t k = 0; k < w.models.size(); ++k) {
      RS_ASSIGN_OR_RETURN(auto scaler, BuildModel(w.models[k], traced));
      if (freshness) {
        built[k].emplace(std::move(scaler));
        continue;
      }
      std::ostringstream out(std::ios::binary);
      RS_RETURN_NOT_OK(scaler.SaveState(out));
      (*buffers)[k] = std::move(out).str();
    }
    *build_s = static_cast<double>(pb::NowNs() - t0) * 1e-9;
    if (freshness) {
      for (const auto& t : w.tenants) {
        if (!built[t.model].has_value()) {
          return Status::Invalid("a freshness model serves exactly one tenant");
        }
        RS_RETURN_NOT_OK(fleet->Register(t.name, std::move(*built[t.model])));
        built[t.model].reset();
      }
      return Status::OK();
    }
  }
  for (const auto& t : w.tenants) {
    std::istringstream in((*buffers)[t.model], std::ios::binary);
    RS_ASSIGN_OR_RETURN(auto scaler, api::ScalerBuilder::RestoreState(in));
    RS_RETURN_NOT_OK(fleet->Register(t.name, std::move(scaler)));
  }
  return Status::OK();
}

RoundResult RunRound(const Workload& w, const RoundOptions& o) {
  RoundResult r;
  const std::size_t n = w.tenants.size();
  auto fail = [&r](std::string what) {
    if (r.errors.size() < 20) r.errors.push_back(std::move(what));
  };

  // -- Set-up (timed): train, build the fleet, open the journal. ----------
  std::unique_ptr<api::ScalerFleet> fleet;
  std::unique_ptr<wal::FleetJournal> journal;
  std::unique_ptr<pb::TimedTap> tap;
  wal::JournalPolicy journal_policy;
  journal_policy.fsync = w.fsync;
  if (o.journal) {
    std::error_code ec;
    fs::remove_all(o.dir, ec);  // The previous round's journal.
  }
  std::int64_t t0 = pb::NowNs();
  {
    pb::ScopedSpan span(pb::kSpanSetup);
    fleet = std::make_unique<api::ScalerFleet>(o.worker_threads);
    r.trained = o.train || o.freshness;
    Status status = PopulateFleet(w, o.traced, r.trained, o.freshness,
                                  o.buffers, fleet.get(), &r.build_s);
    if (status.ok() && o.freshness) {
      status = fleet->EnableFreshness(w.fresh_policy);
    }
    if (status.ok() && o.journal) {
      journal = std::make_unique<wal::FleetJournal>();
      status = journal->Open(o.dir, journal_policy);
      if (status.ok()) status = wal::EnableJournal(fleet.get(), journal.get());
    }
    if (!status.ok()) {
      fail("set-up: " + status.ToString());
      return r;
    }
  }
  r.setup_s = static_cast<double>(pb::NowNs() - t0) * 1e-9;
  const auto attach_timed_tap = [&] {
    // The journal attached itself; route its callbacks through the timer.
    if (tap != nullptr) r.tap.Merge(tap->timings);
    tap = std::make_unique<pb::TimedTap>(journal.get());
    fleet->DetachTap();
    const Status status = fleet->AttachTap(tap.get());
    if (!status.ok()) fail("attach timed tap: " + status.ToString());
  };
  if (o.journal && o.traced) attach_timed_tap();

  std::vector<std::string> names;
  for (const auto& t : w.tenants) names.push_back(t.name);
  r.hashes.assign(n, kFnvOffset);
  r.ledgers.assign(n, pb::TenantLedger(kPendingS));
  std::int64_t serve_ns = 0;
  std::size_t journaled = o.journal ? n : 0;  // One kRegister per tenant.
  const std::size_t total_batches = std::min(w.batches(), o.max_batches);
  const std::size_t restart_batch =
      o.journal && w.restart ? total_batches / 2 : 0;

  const auto restart = [&] {
    Status status;
    const std::string before = SaveFleetBytes(*fleet, &status);
    if (!status.ok()) fail("SaveFleet before restart: " + status.ToString());
    const std::int64_t s0 = pb::NowNs();
    {
      pb::ScopedSpan span(pb::kSpanRestart);
      // Drop without shutdown: no checkpoint, no sync, no detach call.
      journal.reset();
      fleet.reset();
      journal = std::make_unique<wal::FleetJournal>();
      status = journal->Open(o.dir, journal_policy);
      wal::RecoveryReport report;
      if (status.ok()) {
        wal::RecoverOptions recover;
        recover.worker_threads = o.worker_threads;
        auto recovered = journal->Recover(recover, &report);
        if (recovered.ok()) {
          fleet = std::make_unique<api::ScalerFleet>(
              std::move(recovered).ValueOrDie());
          status = wal::EnableJournal(fleet.get(), journal.get());
        } else {
          status = recovered.status();
        }
      }
      r.events_replayed += report.events_replayed;
    }
    const std::int64_t d = pb::NowNs() - s0;
    serve_ns += d;
    r.recover_ms += static_cast<double>(d) * 1e-6;
    if (!status.ok() || fleet == nullptr) {
      fail("restart: " + status.ToString());
      return false;
    }
    if (o.traced) attach_timed_tap();
    const std::string after = SaveFleetBytes(*fleet, &status);
    if (!status.ok() || after != before) {
      fail("recovered fleet's SaveFleet bytes differ from the dropped fleet's");
    }
    return true;
  };

  const auto plan_batch = [&](double now) {
    std::vector<api::ScalerFleet::TenantPlan> plans;
    {
      pb::ScopedSpan span(pb::kSpanPlanAll, /*batch=*/true);
      const std::int64_t s0 = pb::NowNs();
      plans = fleet->PlanAll(now);
      const std::int64_t d = pb::NowNs() - s0;
      r.planall.Add(d);
      serve_ns += d;
    }
    if (o.journal) ++journaled;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const auto& plan = plans[i];
      if (!plan.status.ok() || plan.degraded) {
        ++r.plans_failed;
        continue;
      }
      ++r.plans_ok;
      HashAction(&r.hashes[i], plan.action);
      r.ledgers[i].Drain(now, plan.action);
    }
    ++r.batches;
    if (r.batches == w.prefix_batches) r.prefix_hashes = r.hashes;
    if (o.freshness && o.per_layer) {
      // With retrain_workers = 0 the fit runs inline in the batch that
      // enqueues it and leaves the job in flight until the next boundary
      // swaps it in: a batch that leaves a new job in flight ran a refit.
      std::size_t inflight = 0;
      for (const auto& name : names) {
        auto fresh = fleet->Freshness(name);
        if (fresh.ok() && fresh->retrain_inflight) ++inflight;
      }
      if (inflight > 0) r.refit_batches.ns.push_back(r.planall.ns.back());
    }
    // No checkpoint on the last batch: the journal keeps a tail past the
    // final checkpoint for the codec timing to decode.
    if (o.journal && w.checkpoint_every != 0 &&
        r.batches % w.checkpoint_every == 0 && r.batches < total_batches) {
      pb::ScopedSpan span(pb::kSpanCheckpoint);
      const std::int64_t s0 = pb::NowNs();
      const Status status = journal->Checkpoint("perfbench");
      const std::int64_t d = pb::NowNs() - s0;
      r.checkpoint.Add(d);
      serve_ns += d;
      if (!status.ok()) fail("checkpoint: " + status.ToString());
    }
    if (restart_batch != 0 && r.batches == restart_batch) return restart();
    return true;
  };

  double next_plan = w.cadence;
  bool alive = true;
  for (std::size_t k = 0; k < w.arrival_t.size() && alive; ++k) {
    const double t = w.arrival_t[k];
    while (alive && next_plan <= t && r.batches < total_batches) {
      alive = plan_batch(next_plan);
      next_plan += w.cadence;
    }
    if (r.batches >= total_batches) break;
    const std::uint32_t i = w.arrival_tenant[k];
    Result<api::Scaler::ObserveOutcome> outcome = Status::OK();
    {
      pb::ScopedSpan span(pb::kSpanObserve);
      const std::int64_t s0 = pb::NowNs();
      outcome = fleet->Observe(names[i], t);
      const std::int64_t d = pb::NowNs() - s0;
      r.observe.Add(d);
      serve_ns += d;
    }
    if (!outcome.ok()) {
      ++r.observes_failed;
      continue;
    }
    ++r.observes_ok;
    if (o.journal) ++journaled;
    const std::uint8_t bits = (outcome->cold_start ? 1 : 0) |
                              (outcome->cancel_earliest_scheduled ? 2 : 0);
    HashBytes(&r.hashes[i], &bits, 1);
    r.ledgers[i].Observe(t, *outcome);
  }
  while (alive && r.batches < total_batches) {
    alive = plan_batch(next_plan);
    next_plan += w.cadence;
  }
  r.serve_s = static_cast<double>(serve_ns) * 1e-9;
  if (tap != nullptr) r.tap.Merge(tap->timings);
  if (!alive || fleet == nullptr) return r;

  // -- Checks and end-of-round state (untimed). -----------------------------
  r.snapshot = fleet->Snapshot();
  for (std::size_t i = 0; i < n; ++i) {
    const api::Scaler* scaler = fleet->Find(names[i]);
    for (const auto& action : scaler->ActionLog()) {
      HashAction(&r.hashes[i], action);
    }
  }
  if (o.freshness) {
    // A background swap starts the tenant on a fresh serving mirror, so the
    // ledger's balance is not comparable there; report how many differ.
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& snap = r.snapshot.per_tenant[i].second;
      if (r.ledgers[i].Outstanding() !=
          static_cast<std::ptrdiff_t>(snap.instances_alive + snap.scheduled_creations)) {
        ++diverged;
      }
    }
    if (o.verbose) {
      std::fprintf(stderr, "  %zu of %zu tenants: ledger balance differs from the fleet's after swaps\n",
                   diverged, n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto fresh = fleet->Freshness(names[i]);
      if (!fresh.ok()) {
        fail("Freshness(" + names[i] + "): " + fresh.status().ToString());
        continue;
      }
      r.refits += fresh->retrains_completed;
      r.refit_failures += fresh->retrain_failures;
      r.drift_latches += fresh->drift_events;
      r.swaps += fresh->swaps_applied;
      const auto& spec = w.tenants[i];
      if (spec.shifted && (fresh->drift_events == 0 || fresh->swaps_applied == 0)) {
        fail(names[i] + ": shifted tenant did not latch and swap");
      }
      if (!spec.shifted && fresh->drift_events != 0) {
        fail(names[i] + ": unshifted tenant latched drift");
      }
      if (spec.shifted && fresh->swaps_applied != 0) {
        // The live model's forecast (local time 0 = model_origin) must have
        // picked up the new regime: its mean over one 600 s cycle against
        // the generator's post-shift mean rate.
        const auto& forecast = fleet->Find(names[i])->forecast();
        double sum = 0.0;
        for (double s = 0.5; s < 600.0; s += 1.0) sum += forecast.Rate(s);
        const double ratio = sum / 600.0 / spec.regime_mean;
        if (o.verbose) {
          std::fprintf(stderr, "  %s: swapped forecast mean / regime mean %.3f\n",
                       names[i].c_str(), ratio);
        }
        if (std::abs(ratio - 1.0) > kRegimeTolerance) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "%s: swapped forecast mean is %.3f x the generator's "
                        "post-shift rate (tolerance %.0f%%)",
                        names[i].c_str(), ratio, 100.0 * kRegimeTolerance);
          fail(buf);
        }
      }
    }
  } else {
    // The caller's ledger must agree with the fleet's own counters.
    for (std::size_t i = 0; i < n; ++i) {
      const auto& snap = r.snapshot.per_tenant[i].second;
      const auto& ledger = r.ledgers[i];
      if (ledger.errors() != 0) {
        fail(names[i] + ": ledger could not apply an instruction");
      }
      if (ledger.cold_starts() != snap.cold_starts) {
        fail(names[i] + ": ledger cold starts differ from the fleet's");
      }
      const auto mirror = static_cast<std::ptrdiff_t>(snap.instances_alive +
                                                      snap.scheduled_creations);
      if (ledger.Outstanding() != mirror) {
        fail(names[i] + ": ledger instance balance " +
             std::to_string(ledger.Outstanding()) + " vs fleet " +
             std::to_string(mirror));
      }
    }
  }
  if (o.per_layer) {
    // persist: SaveFleet to memory, median of three.
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      Status status;
      const std::int64_t s0 = pb::NowNs();
      const std::string bytes = SaveFleetBytes(*fleet, &status);
      ms.push_back(static_cast<double>(pb::NowNs() - s0) * 1e-6);
      r.snapshot_bytes = bytes.size();
    }
    std::sort(ms.begin(), ms.end());
    r.snapshot_ms = ms[1];
  }
  if (o.journal) {
    r.journal_records = journal->last_lsn();
    r.fsyncs = journal->fsyncs();
    if (!journal->status().ok()) {
      ++r.journal_failed;
      fail("journal: " + journal->status().ToString());
    }
    if (journal->last_lsn() != journaled) {
      fail("journal last_lsn " + std::to_string(journal->last_lsn()) +
           " != journaled operations " + std::to_string(journaled));
    }
    const std::string dir = journal->directory();
    journal.reset();  // Detaches; the fleet stays alive until after.
    std::size_t bytes = 0;
    std::size_t records = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string path = entry.path().string();
      if (path.size() < 6 || path.compare(path.size() - 6, 6, ".rswal") != 0) {
        continue;
      }
      auto report = wal::InspectSegmentFile(path);
      if (!report.ok()) {
        fail("segment " + path + ": " + report.status().ToString());
        continue;
      }
      if (report->torn_tail_bytes != 0) fail("segment " + path + ": torn tail");
      bytes += report->bytes;
      records += report->records;
    }
    if (records == 0) fail("journal directory holds no segment records");
    r.bytes_per_record =
        records == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(records);
  }
  return r;
}

/// Host-speed reference: a fixed mix of the standard-library work the
/// serving path leans on (string-keyed hash lookups, deque and binary-heap
/// push/pop, log1p) over 128 keys. It shares no code with src/, so a change
/// to the program cannot move it; it moves only with the host.
double ReferenceKernelSeconds() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    for (int i = 0; i < 128; ++i) keys.push_back("tenant-" + std::to_string(i));
    return keys;
  }();
  std::unordered_map<std::string, int> index;
  for (int i = 0; i < 128; ++i) index[kKeys[i]] = i;
  std::vector<std::deque<double>> queues(128);
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  double acc = 0.0;
  std::uint64_t x = 88172645463325252ull;
  const std::int64_t t0 = pb::NowNs();
  for (int k = 0; k < 200000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int i = index[kKeys[x & 127]];
    queues[i].push_back(static_cast<double>(k));
    if (queues[i].size() > 16) queues[i].pop_front();
    heap.push(static_cast<double>(x >> 40));
    if (heap.size() > 64) {
      acc += heap.top();
      heap.pop();
    }
    acc += std::log1p(static_cast<double>(x & 1023));
  }
  const double seconds = static_cast<double>(pb::NowNs() - t0) * 1e-9;
  volatile double sink = acc;
  (void)sink;
  return seconds;
}

/// Runs one round between two reference-kernel timings.
///
/// This host's speed drifts by up to 30% over tens of seconds (one binary,
/// one seed, back-to-back runs: 1.01-1.57 M arrivals/s), far more than the
/// effects the benchmark is meant to resolve. The reference kernel drifts
/// with it while the ratio between the two holds within a few percent, so
/// every time a round measures is scaled by host_factor = nominal /
/// measured reference time: timings are reported at the nominal host speed.
///
/// Each round also holds a heap shim of 64 B to 64 KiB (a fixed sequence,
/// independent of the seed) while it runs, so the fleet's allocations land
/// at a different offset in every round and a run averages over cache
/// layouts instead of keeping the one its first round drew. Without it,
/// mc-heavy's observe p99 sat in a fast or a slow mode for many rounds at a
/// time (1.25-1.3 against 1.6-1.9 us raw within one run).
RoundResult RunMeasuredRound(const Workload& w, const RoundOptions& o) {
  static std::uint64_t shim_state = 0x9e3779b97f4a7c15ull;
  shim_state = shim_state * 6364136223846793005ull + 1442695040888963407ull;
  const std::vector<char> shim(64 + (shim_state >> 33) % 65536, 1);
  const double before = ReferenceKernelSeconds();
  RoundResult r = RunRound(w, o);
  const double after = ReferenceKernelSeconds();
  r.host_factor = kNominalReferenceS / (0.5 * (before + after));
  return r;
}

// ---------------------------------------------------------------------------
// Run: rounds, checks, metrics
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
  long workers = -1;  ///< Fleet pool size override (-1: the workload's).
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rs_perfbench: %s\nusage: rs_perfbench --workload "
               "<azure-fleet|mc-heavy|drift-retrain|durable-journal> --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--workers N]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else if (key == "--workers") {
      a.workers = std::stol(value);
    } else {
      Usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be > 0");
  return a;
}

double ReadStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0.0;
}

/// Quantile q of `v` with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Interference from other work on a shared host only ever adds time, and
/// it comes in bursts that can cover several rounds; each run therefore
/// reports its least-disturbed quarter: the lower quartile of per-block
/// latency percentiles and the upper quartile of per-round rates.
constexpr double kQuietQuartile = 0.25;

/// A latency percentile per block of rounds: rounds' samples are streamed
/// into blocks just large enough that ten samples lie beyond the
/// percentile, the percentile is taken per block, and the run reports the
/// blocks' lower quartile (kQuietQuartile). A trailing partial block is
/// dropped.
class BlockQuantile {
 public:
  explicit BlockQuantile(double q)
      : q_(q), need_(static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9))) {}

  void Add(const pb::Timings& t, double factor) {
    pending_.MergeScaled(t, factor);
    samples_ += t.ns.size();
    if (pending_.ns.size() >= need_) {
      values_.push_back(pending_.Quantile(q_));
      pending_ = {};
    }
  }
  std::size_t samples() const { return samples_; }
  /// The blocks' lower-quartile percentile in ns; false when no block
  /// filled up.
  bool Get(double* out) const {
    if (values_.empty()) return false;
    *out = Quantile(values_, kQuietQuartile);
    return true;
  }

 private:
  double q_;
  std::size_t need_;
  pb::Timings pending_;
  std::vector<double> values_;
  std::size_t samples_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

struct Totals {
  std::size_t rounds = 0;
  double serve_s = 0.0;
  std::size_t arrivals = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t observes = 0, observes_failed = 0;
  std::size_t plans = 0, plans_failed = 0, batches = 0;
  std::size_t journal = 0, journal_failed = 0;
  std::size_t refits = 0, refit_failures = 0;
  double observe_busy_s = 0.0, planall_busy_s = 0.0;
  BlockQuantile observe_p50{0.50}, observe_p99{0.99};
  BlockQuantile planall_p50{0.50}, planall_p99{0.99};
  pb::Timings checkpoint, tap, refit_batches;
  std::vector<double> rates;  ///< Per round: arrivals per serving second.
  std::vector<double> setup_s, build_s;
  std::vector<double> host_factors;
  double recover_ms = 0.0;
  std::size_t events_replayed = 0;

  /// Adds one round, its times scaled to the nominal host speed.
  void Add(const RoundResult& r) {
    const double f = r.host_factor;
    ++rounds;
    host_factors.push_back(f);
    serve_s += r.serve_s * f;
    arrivals += r.observes_ok;
    rates.push_back(static_cast<double>(r.observes_ok) / (r.serve_s * f));
    observes += r.observes_ok + r.observes_failed;
    observes_failed += r.observes_failed;
    plans += r.plans_ok + r.plans_failed;
    plans_failed += r.plans_failed;
    batches += r.batches;
    journal += r.journal_records;
    journal_failed += r.journal_failed;
    refits += r.refits + r.refit_failures;
    refit_failures += r.refit_failures;
    observe_busy_s += r.observe.busy_s * f;
    planall_busy_s += r.planall.busy_s * f;
    observe_p50.Add(r.observe, f);
    observe_p99.Add(r.observe, f);
    planall_p50.Add(r.planall, f);
    planall_p99.Add(r.planall, f);
    checkpoint.MergeScaled(r.checkpoint, f);
    tap.MergeScaled(r.tap, f);
    refit_batches.MergeScaled(r.refit_batches, f);
    if (r.trained) {
      setup_s.push_back(r.setup_s * f);
      build_s.push_back(r.build_s * f);
    }
    recover_ms += r.recover_ms * f;
    events_replayed += r.events_replayed;
    attempted = observes + plans + journal + refits;
    failed = observes_failed + plans_failed + journal_failed + refit_failures;
  }
};

/// QoS margins for mc-heavy from the paper's guarantees: Prop. 1's
/// variance bound Var <= 2(κ+m)α(1−α)/(N−κ) (three standard deviations)
/// plus Prop. 2's forecast-error term ε/(1−ε)·(q_{κ+m,α} + τ·sup λ), with
/// ε the forecast's mean relative error against the generator's rate.
void CheckMcQos(const Workload& w, const RoundResult& r, bool traced,
                std::vector<std::string>* errors) {
  for (std::size_t i = 0; i < w.tenants.size(); ++i) {
    const auto& t = w.tenants[i];
    if (t.hp_target <= 0.0 && t.rt_budget <= 0.0) continue;
    auto model = BuildModel(w.models[t.model], traced);
    if (!model.ok()) {
      errors->push_back(t.name + ": " + model.status().ToString());
      continue;
    }
    double eps = 0.0;
    std::size_t bins = 0;
    double sup = 0.0;
    for (double s = 0.5; s < w.end; s += 1.0) {
      const double truth = t.serve.At(s);
      eps += std::abs(model->forecast().Rate(s) - truth) / truth;
      sup = std::max(sup, truth);
      ++bins;
    }
    eps /= static_cast<double>(bins);
    const auto& ledger = r.ledgers[i];
    const double n = static_cast<double>(ledger.queries());
    if (n < 50.0) {
      errors->push_back(t.name + ": too few queries for the QoS check");
      continue;
    }
    const double alpha = t.hp_target > 0.0 ? 1.0 - t.hp_target : 0.1;
    auto kappa = core::ComputeKappaDeterministicTau(alpha, sup, kPendingS);
    const double k = kappa.ok() ? static_cast<double>(*kappa) : 0.0;
    const double var = 2.0 * (k + 1.0) * alpha * (1.0 - alpha) /
                       std::max(1.0, n - k);
    auto q = stats::GammaQuantile(k + 1.0, 1.0, alpha);
    const double prop2 = eps / (1.0 - std::min(eps, 0.99)) *
                         ((q.ok() ? *q : k + 1.0) + kPendingS * sup);
    if (t.hp_target > 0.0) {
      const double hit = static_cast<double>(ledger.hits()) / n;
      const double margin = 3.0 * std::sqrt(var) + prop2;
      std::fprintf(stderr,
                   "  qos %s hp: hit %.4f target %.2f margin %.4f (eps %.3f)\n",
                   t.name.c_str(), hit, t.hp_target, margin, eps);
      if (hit < t.hp_target - margin) {
        errors->push_back(t.name + ": ledger hit rate below target - margin");
      }
    } else {
      const double wait = ledger.wait_sum() / n;
      // RT analogue: the wait scales with the miss share, so the HP
      // margin is carried over in units of the pending time.
      const double margin = kPendingS * (3.0 * std::sqrt(var) + prop2);
      std::fprintf(stderr,
                   "  qos %s rt: wait %.3f s budget %.2f margin %.3f "
                   "(eps %.3f)\n",
                   t.name.c_str(), wait, t.rt_budget, margin, eps);
      if (wait > t.rt_budget + margin) {
        errors->push_back(t.name + ": ledger mean wait above budget + margin");
      }
    }
  }
}

void PrintResult(bool correct, const Totals& totals,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", totals.attempted, totals.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Workload w;
  if (args.workload == "azure-fleet") {
    w = MakeAzureFleet(args.seed);
  } else if (args.workload == "mc-heavy") {
    w = MakeMcHeavy(args.seed);
  } else if (args.workload == "drift-retrain") {
    w = MakeDriftRetrain(args.seed);
  } else if (args.workload == "durable-journal") {
    w = MakeDurableJournal(args.seed);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.workers >= 0) w.worker_threads = static_cast<std::size_t>(args.workers);
  const double rss_inputs_kb = ReadStatusKb("VmRSS:");
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  const std::string journal_dir =
      args.out_dir + "/" + w.name + "-" + std::to_string(::getpid()) + ".wal";
  pb::StrategyTimingsRegistry::Get().SetCallerThread();
  std::fprintf(stderr,
               "%s: %zu tenants, %zu models, %zu arrivals, %zu PlanAll "
               "batches per round (cadence %.0f s, %zu workers)\n",
               w.name.c_str(), w.tenants.size(), w.models.size(),
               w.arrival_t.size(), w.batches(), w.cadence, w.worker_threads);

  RoundOptions base;
  base.worker_threads = w.worker_threads;
  base.journal = w.journal;
  base.freshness = w.freshness;
  base.dir = journal_dir;
  // Full set-ups (training included) on the warm-up and the first four
  // timed rounds give setup_s its samples; later rounds restore the trained
  // models from their SaveState buffers (freshness fleets always train).
  std::vector<std::string> buffers, traced_buffers;
  base.buffers = &buffers;

  std::vector<std::string> errors;
  const auto take_errors = [&errors](const RoundResult& r, const char* what) {
    for (const auto& e : r.errors) errors.push_back(std::string(what) + ": " + e);
  };

  // Warm-up round: the reference every timed round must reproduce.
  RoundOptions warmup = base;
  warmup.verbose = true;
  RoundResult reference = RunMeasuredRound(w, warmup);
  take_errors(reference, "warm-up");
  if (w.name == "mc-heavy") CheckMcQos(w, reference, false, &errors);

  // Timed rounds until the budget is spent (whole rounds only). In traced
  // mode half the budget goes to untraced rounds and the traced replay
  // runs as many rounds again, or fewer if they outlast the other half.
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  Totals totals;
  const std::int64_t start = pb::NowNs();
  while (totals.rounds == 0 ||
         static_cast<double>(pb::NowNs() - start) * 1e-9 < budget) {
    RoundOptions timed = base;
    timed.train = totals.rounds < 4;
    RoundResult r = RunMeasuredRound(w, timed);
    take_errors(r, "round");
    if (r.hashes != reference.hashes) {
      errors.push_back("round " + std::to_string(totals.rounds) +
                       ": actions differ from the warm-up round");
    }
    totals.Add(r);
    std::fprintf(stderr,
                 "  round %zu: setup %.3f s (build %.3f s), serve %.3f s, "
                 "host factor %.3f, observe p50/p99 %.3f/%.3f us\n",
                 totals.rounds - 1, r.setup_s, r.build_s, r.serve_s,
                 r.host_factor, r.observe.Quantile(0.50) * 1e-3,
                 r.observe.Quantile(0.99) * 1e-3);
    if (!errors.empty()) break;
  }
  if (w.prefix_batches != 0 && errors.empty()) {
    // Same actions on another worker count, checked on a prefix.
    RoundOptions other = base;
    other.worker_threads = w.prefix_workers;
    other.max_batches = w.prefix_batches;
    other.train = false;
    RoundResult r = RunMeasuredRound(w, other);
    take_errors(r, "prefix");
    if (r.prefix_hashes != reference.prefix_hashes) {
      errors.push_back("prefix actions differ between " +
                       std::to_string(w.worker_threads) + " and " +
                       std::to_string(w.prefix_workers) + " workers");
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // -- End-to-end metrics ------------------------------------------------
    std::size_t queries = 0, hits = 0, requested = 0;
    for (const auto& ledger : reference.ledgers) {
      queries += ledger.queries();
      hits += ledger.hits();
      requested += ledger.requested();
    }
    double p50_obs = 0, p99_obs = 0, p50_plan = 0, p99_plan = 0;
    const auto get = [&errors](const BlockQuantile& b, double scale,
                               double* out, const char* what) {
      if (b.Get(out)) {
        *out *= scale;
      } else {
        errors.push_back(std::string(what) + ": only " +
                         std::to_string(b.samples()) +
                         " samples, too few for this percentile");
      }
    };
    get(totals.observe_p50, 1e-3, &p50_obs, "observe_p50_us");
    get(totals.observe_p99, 1e-3, &p99_obs, "observe_p99_us");
    get(totals.planall_p50, 1e-6, &p50_plan, "planall_p50_ms");
    get(totals.planall_p99, 1e-6, &p99_plan, "planall_p99_ms");
    const double peak_mb =
        (ReadStatusKb("VmHWM:") - rss_inputs_kb) / 1024.0;
    metrics = {
        {"arrivals_per_s", Quantile(totals.rates, 1.0 - kQuietQuartile), "1/s",
         totals.rounds},
        {"observe_p50_us", p50_obs, "us", totals.observes},
        {"observe_p99_us", p99_obs, "us", totals.observes},
        {"planall_p50_ms", p50_plan, "ms", totals.batches},
        {"planall_p99_ms", p99_plan, "ms", totals.batches},
        {"hit_rate", static_cast<double>(hits) / static_cast<double>(queries),
         "fraction", queries},
        {"creations_per_query",
         static_cast<double>(requested) / static_cast<double>(queries), "ratio",
         queries},
        {"setup_s", Median(totals.setup_s), "s", totals.setup_s.size()},
        {"peak_rss_mb", peak_mb, "MB", 1},
    };
  } else {
    // -- Worker pool -------------------------------------------------------
    // One untraced round on nproc − 1 workers (the timed rounds run inline)
    // must reproduce the warm-up's actions; its PlanAll times give what the
    // pool pays.
    RoundOptions pooled = base;
    pooled.worker_threads = PoolWorkers();
    pooled.train = false;
    RoundResult pool_round = RunMeasuredRound(w, pooled);
    take_errors(pool_round, "pooled round");
    if (pool_round.hashes != reference.hashes) {
      errors.push_back("pooled round (" + std::to_string(pooled.worker_threads) +
                       " workers): actions differ from the inline rounds");
    }
    const double pool_planall_s =
        pool_round.planall.busy_s * pool_round.host_factor;
    const double pool_speedup =
        pool_planall_s > 0.0
            ? totals.planall_busy_s / static_cast<double>(totals.rounds) /
                  pool_planall_s
            : 0.0;

    // -- Traced replay ---------------------------------------------------
    pb::RegisterTracedStrategies(w.strategy_names);
    pb::StrategyTimingsRegistry::Get().Take();
    pb::SpanLog::Get().Enable(true);
    RoundOptions traced = base;
    traced.traced = true;
    traced.per_layer = true;
    traced.buffers = &traced_buffers;
    Totals tt;
    RoundResult last;
    const std::int64_t traced_start = pb::NowNs();
    for (std::size_t k = 0; k < totals.rounds; ++k) {
      if (k != 0 &&
          static_cast<double>(pb::NowNs() - traced_start) * 1e-9 >= budget) {
        break;
      }
      pb::ScopedSpan span(pb::kSpanRound);
      traced.train = k == 0;
      RoundResult r = RunMeasuredRound(w, traced);
      take_errors(r, "traced round");
      if (r.hashes != reference.hashes) {
        errors.push_back("traced round " + std::to_string(k) +
                         ": actions differ from the untraced run");
      }
      tt.Add(r);
      last = std::move(r);
    }
    pb::SpanLog::Get().Enable(false);
    std::fprintf(stderr, "  traced replay: %zu rounds in %.1f s\n", tt.rounds,
                 static_cast<double>(pb::NowNs() - traced_start) * 1e-9);
    const double rounds = static_cast<double>(tt.rounds);
    // Times measured outside the per-round accounting (strategy callbacks,
    // direct calls) are scaled by the traced rounds' median host factor.
    const double f = Median(tt.host_factors);
    pb::Timings ticks, arrivals;
    double caller_cb_s = 0.0;
    for (const auto& s : pb::StrategyTimingsRegistry::Get().Take()) {
      ticks.MergeScaled(s->tick, f);
      arrivals.MergeScaled(s->arrival, f);
      caller_cb_s += s->caller_thread_s * f;
    }

    // Journal layers: the durable workload measures them in its own
    // rounds; the others journal a prefix of their schedule (freshness off,
    // which a journal cannot accompany).
    RoundResult jr = last;
    double j_rounds = rounds;
    pb::Timings jtap = tt.tap, jcheckpoint = tt.checkpoint;
    double jrecover_ms = tt.recover_ms;
    std::size_t jreplayed = tt.events_replayed;
    std::size_t jrecords = tt.journal;
    if (!w.journal) {
      // The first 2000 arrivals, every record fsynced. The schedule is cut
      // there, so batches past it (at least six are run, for the
      // checkpoints and the restart) add no observes: the probe's length
      // stays bounded by its fsync count however slow the disk is.
      const std::size_t cut = std::min<std::size_t>(2000, w.arrival_t.size() - 1);
      const auto batches = std::clamp<std::size_t>(
          static_cast<std::size_t>(w.arrival_t[cut] / w.cadence) + 1, 6,
          w.batches());
      Workload probe_w = w;
      probe_w.arrival_t.resize(cut);
      probe_w.arrival_tenant.resize(cut);
      probe_w.checkpoint_every = batches / 3;
      probe_w.restart = true;
      RoundOptions probe = traced;
      probe.journal = true;
      probe.freshness = false;
      probe.max_batches = batches;
      probe.train = w.freshness;
      pb::SpanLog::Get().Enable(true);
      jr = RunMeasuredRound(probe_w, probe);
      pb::SpanLog::Get().Enable(false);
      pb::StrategyTimingsRegistry::Get().Take();
      take_errors(jr, "journal probe");
      j_rounds = 1.0;
      jtap = {};
      jtap.MergeScaled(jr.tap, jr.host_factor);
      jcheckpoint = {};
      jcheckpoint.MergeScaled(jr.checkpoint, jr.host_factor);
      jrecover_ms = jr.recover_ms * jr.host_factor;
      jreplayed = jr.events_replayed;
      jrecords = jr.journal_records;
    }
    std::fprintf(stderr, "  journal probe done at %.1f s\n",
                 static_cast<double>(pb::NowNs() - traced_start) * 1e-9);
    // trace codec: re-encode the journal's decoded tail.
    double encode_ns = 0.0;
    {
      wal::FleetJournal reader;
      Status status = reader.Open(journal_dir);
      const auto& tail = reader.tail();
      if (!status.ok() || tail.empty()) {
        errors.push_back("journal tail for the codec timing: " +
                         status.ToString());
      } else {
        std::size_t encoded = 0;
        const std::int64_t s0 = pb::NowNs();
        while (encoded < 50000) {
          persist::Writer writer;
          for (const auto& event : tail) trace::EncodeEvent(&writer, event);
          encoded += tail.size();
        }
        encode_ns = f * static_cast<double>(pb::NowNs() - s0) /
                    static_cast<double>(encoded);
      }
    }
    fs::remove_all(journal_dir, ec);

    std::fprintf(stderr, "  codec probe done at %.1f s\n",
                 static_cast<double>(pb::NowNs() - traced_start) * 1e-9);
    // Training layers by direct calls on the workload's own models.
    std::vector<double> detect_ms, fit_ms, refit_ms;
    std::size_t admm_iterations = 0;
    const std::size_t probe_models = std::min<std::size_t>(w.models.size(), 5);
    for (std::size_t k = 0; k < probe_models; ++k) {
      auto scaler = BuildModel(w.models[k], false);
      if (!scaler.ok()) {
        errors.push_back("model probe: " + scaler.status().ToString());
        continue;
      }
      const auto& trained = scaler->trained();
      for (int rep = 0; rep < 3; ++rep) {
        std::int64_t s0 = pb::NowNs();
        auto period = ts::DetectPeriod(trained.counts);
        detect_ms.push_back(f * static_cast<double>(pb::NowNs() - s0) * 1e-6);
        core::AdmmInfo info;
        s0 = pb::NowNs();
        auto model = core::FitNhpp(trained.counts.counts,
                                   trained.model.config(), {}, &info);
        fit_ms.push_back(f * static_cast<double>(pb::NowNs() - s0) * 1e-6);
        if (!period.ok() || !model.ok()) {
          errors.push_back("training probe failed");
        }
        if (rep == 0) admm_iterations += info.iterations;
      }
      if (!w.freshness) {
        // Warm refit over the training window plus one served hour of the
        // model's first tenant, as the freshness loop would run it.
        core::PipelineOptions options;
        options.dt = w.models[k].bin_width;
        options.forecast_horizon = w.models[k].forecast_horizon;
        for (int rep = 0; rep < 3; ++rep) {
          auto session = train::TrainingSession::FromTrained(trained, options);
          std::vector<double> times;
          const double h = w.models[k].train_horizon;
          const double extra = std::min(3600.0, w.end);
          for (std::size_t a = 0; a < w.arrival_t.size(); ++a) {
            if (w.arrival_t[a] >= extra) break;
            if (w.tenants[w.arrival_tenant[a]].model == k) {
              times.push_back(h + w.arrival_t[a]);
            }
          }
          Status status = session.AppendArrivals(times, h + extra);
          const std::int64_t s0 = pb::NowNs();
          auto refit = session.Refit();
          refit_ms.push_back(f * static_cast<double>(pb::NowNs() - s0) * 1e-6);
          if (!status.ok() || !refit.ok()) {
            errors.push_back("refit probe failed");
          }
        }
      }
    }
    std::fprintf(stderr, "  training probes done at %.1f s\n",
                 static_cast<double>(pb::NowNs() - traced_start) * 1e-9);
    const double refit_batch_ms =
        w.freshness ? tt.refit_batches.Quantile(0.5) * 1e-6 : Median(refit_ms);
    if (w.freshness && tt.refit_batches.ns.empty()) {
      errors.push_back("no PlanAll batch carried a refit");
    }

    std::vector<double> build_samples = totals.build_s;
    build_samples.insert(build_samples.end(), tt.build_s.begin(), tt.build_s.end());
    const double observe_busy = tt.observe_busy_s / rounds;
    const double planall_busy = tt.planall_busy_s / rounds;
    const double tick_busy = ticks.busy_s / rounds;
    const double decisions = static_cast<double>(ticks.ns.size()) / rounds;
    const double tap_busy_main = w.journal ? tt.tap.busy_s / rounds : 0.0;
    const double mirror_self =
        observe_busy + planall_busy - caller_cb_s / rounds - tap_busy_main;
    const auto& snap = last.snapshot;
    std::size_t tenant_plans = 0, degraded = 0;
    for (const auto& [name, health] : snap.per_tenant_health) {
      (void)name;
      degraded += health.fallbacks_served;
    }
    tenant_plans = tt.plans / tt.rounds;
    const double untraced_rate = Quantile(totals.rates, 1.0 - kQuietQuartile);
    const double traced_rate = Quantile(tt.rates, 1.0 - kQuietQuartile);
    const std::string spans_path = args.out_dir + "/" + w.name + ".spans";
    const std::size_t span_count = pb::SpanLog::Get().size();
    if (!pb::SpanLog::Get().WriteTo(spans_path)) {
      errors.push_back("cannot write " + spans_path);
    }
    std::fprintf(stderr, "  %zu spans written to %s (%zu over the cap)\n",
                 span_count, spans_path.c_str(), pb::SpanLog::Get().dropped());
    metrics = {
        {"api.observe_busy_s", observe_busy, "s", tt.observes},
        {"api.planall_busy_s", planall_busy, "s", tt.batches},
        {"api.mirror_self_s", mirror_self, "s", tt.rounds},
        {"api.arrivals_retained", static_cast<double>(snap.arrivals_retained),
         "count", 1},
        {"api.workspace_bytes",
         static_cast<double>(snap.planning_workspace_bytes), "bytes", 1},
        {"api.planning_rounds", static_cast<double>(snap.planning_rounds),
         "count", 1},
        {"api.tenant_plans", static_cast<double>(tenant_plans), "count", 1},
        {"api.degraded_plans", static_cast<double>(degraded), "count", 1},
        {"core.tick_busy_s", tick_busy, "s", ticks.ns.size()},
        {"core.ns_per_decision",
         decisions > 0 ? tick_busy * 1e9 / decisions : 0.0, "ns",
         ticks.ns.size()},
        {"core.tick_p50_us", ticks.Quantile(0.50) * 1e-3, "us", ticks.ns.size()},
        {"core.tick_p99_us", ticks.Quantile(0.99) * 1e-3, "us", ticks.ns.size()},
        {"core.arrival_busy_s", arrivals.busy_s / rounds, "s",
         arrivals.ns.size()},
        {"core.decisions", decisions, "count", tt.rounds},
        {"train.build_s", Median(build_samples), "s", build_samples.size()},
        {"timeseries.detect_period_ms", Median(detect_ms), "ms",
         detect_ms.size()},
        {"core.fit_nhpp_ms", Median(fit_ms), "ms", fit_ms.size()},
        {"core.admm_iterations", static_cast<double>(admm_iterations), "count",
         probe_models},
        {"train.refit_batch_p50_ms", refit_batch_ms, "ms",
         w.freshness ? tt.refit_batches.ns.size() : refit_ms.size()},
        {"train.refits", static_cast<double>(tt.refits) / rounds, "count",
         tt.rounds},
        {"train.swaps", static_cast<double>(last.swaps), "count", 1},
        {"timeseries.drift_latches", static_cast<double>(last.drift_latches),
         "count", 1},
        {"wal.tap_busy_s", jtap.busy_s / j_rounds, "s", jtap.ns.size()},
        {"wal.tap_p50_us", jtap.Quantile(0.50) * 1e-3, "us", jtap.ns.size()},
        {"wal.tap_p99_us", jtap.Quantile(0.99) * 1e-3, "us", jtap.ns.size()},
        {"wal.checkpoint_p50_ms", jcheckpoint.Quantile(0.50) * 1e-6, "ms",
         jcheckpoint.ns.size()},
        {"wal.recover_ms", jrecover_ms / j_rounds, "ms",
         static_cast<std::size_t>(j_rounds)},
        {"trace.encode_ns_per_event", encode_ns, "ns", 1},
        {"persist.snapshot_ms", last.snapshot_ms * last.host_factor, "ms", 3},
        {"persist.snapshot_bytes", static_cast<double>(last.snapshot_bytes),
         "bytes", 1},
        {"wal.records", static_cast<double>(jrecords) / j_rounds, "count", 1},
        {"wal.fsyncs", static_cast<double>(jr.fsyncs), "count", 1},
        {"wal.bytes_per_record", jr.bytes_per_record, "bytes", 1},
        {"wal.events_replayed", static_cast<double>(jreplayed) / j_rounds,
         "count", 1},
        {"common.pool_planall_p50_ms",
         pool_round.planall.Quantile(0.50) * pool_round.host_factor * 1e-6,
         "ms", pool_round.planall.ns.size()},
        {"common.pool_speedup", pool_speedup, "ratio", 1},
        {"bench.trace_overhead", traced_rate / untraced_rate, "ratio",
         tt.rounds},
    };
  }
  fs::remove_all(journal_dir, ec);

  // -- Report ------------------------------------------------------------------
  std::fprintf(stderr,
               "%s: %zu timed rounds, serve %.3f s; attempted %zu "
               "(observe %zu, tenant plans %zu, journal appends %zu, refits "
               "%zu), failed %zu (observe %zu, plans %zu, journal %zu, refits "
               "%zu)\n",
               w.name.c_str(), totals.rounds, totals.serve_s, totals.attempted,
               totals.observes, totals.plans, totals.journal, totals.refits,
               totals.failed, totals.observes_failed, totals.plans_failed,
               totals.journal_failed, totals.refit_failures);
  std::printf("host factor (nominal / measured reference time): median %.4f "
              "over %zu rounds; reported times are scaled by it\n",
              Median(totals.host_factors), totals.host_factors.size());
  std::printf("workload %s seed %llu: attempted %zu failed %zu "
              "(observe %zu/%zu, tenant plans %zu/%zu, journal appends "
              "%zu/%zu, refits %zu/%zu)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              totals.attempted, totals.failed, totals.observes_failed,
              totals.observes, totals.plans_failed, totals.plans,
              totals.journal_failed, totals.journal, totals.refit_failures,
              totals.refits);
  for (const auto& m : metrics) {
    std::printf("  %-28s %14.6g %-8s (%zu samples)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  PrintResult(correct, totals, metrics);
  return correct ? 0 : 1;
}
