// Seeded input generation for the serving benchmark.
//
// Every input the benchmark feeds the program — training windows, serving
// arrival schedules, per-tenant rate curves — comes from this file, never
// from rs::workload / rs::stats, so a change to those layers cannot change
// what the program is fed. The generator is a xoshiro256** stream seeded
// through SplitMix64; arrivals are an exact inhomogeneous Poisson process
// over a piecewise-constant rate curve (exponential gaps inside each bin).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** with a SplitMix64-expanded seed. Streams are derived from
/// (run seed, purpose, index) so every tenant's inputs are independent of
/// how many other tenants a workload has.
class Gen {
 public:
  Gen(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0) {
    std::uint64_t sm = seed * 0x2545f4914f6cdd1dull ^ (purpose << 32) ^ index;
    for (auto& word : s_) word = SplitMix64(&sm);
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Exp(1).
  double Exponential() { return -std::log1p(-Uniform()); }

  /// Standard normal (Box-Muller, one value per call).
  double Normal() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Stream purposes (the `purpose` argument of Gen).
enum Purpose : std::uint64_t {
  kTrainArrivals = 1,
  kServeArrivals = 2,
  kTenantShape = 3,
};

/// A rate curve: rates[i] arrivals/s on [i*dt, (i+1)*dt).
struct RateCurve {
  double dt = 60.0;
  std::vector<double> rates;

  double At(double t) const {
    if (rates.empty()) return 0.0;
    auto i = static_cast<std::size_t>(t / dt);
    if (i >= rates.size()) i = rates.size() - 1;
    return rates[i];
  }
};

/// Samples an inhomogeneous Poisson process over `curve`, appending
/// `offset + t` for each arrival (ascending).
inline void SampleArrivals(Gen* gen, const RateCurve& curve, double offset,
                           std::vector<double>* out) {
  for (std::size_t bin = 0; bin < curve.rates.size(); ++bin) {
    const double rate = curve.rates[bin];
    if (!(rate > 0.0)) continue;
    const double lo = static_cast<double>(bin) * curve.dt;
    const double hi = lo + curve.dt;
    double t = lo + gen->Exponential() / rate;
    while (t < hi) {
      out->push_back(offset + t);
      t += gen->Exponential() / rate;
    }
  }
}

/// Sinusoidal rate with relative amplitude `amp` and phase in cycles.
inline double SineRate(double t, double mean, double period, double amp,
                       double phase) {
  return mean * (1.0 + amp * std::sin(2.0 * M_PI * (t / period + phase)));
}

}  // namespace perfbench
