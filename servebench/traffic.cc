#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::Below(uint64_t n) {
  // Rejection sampling keeps the draw unbiased for any n.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t x = Next();
  while (x >= limit) x = Next();
  return x % n;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xd1342543de82ef95ULL));
  mix.Next();
  return mix.Next();
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  due.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  SplitMix64 rng(seed);
  double t = 0.0;
  for (;;) {
    // 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

ZipfSampler::ZipfSampler(size_t n, double s, uint64_t rank_seed,
                         uint64_t draw_seed)
    : cdf_(n), rank_item_(n), rng_(draw_seed) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  if (n > 0) cdf_.back() = 1.0;
  std::iota(rank_item_.begin(), rank_item_.end(), size_t{0});
  SplitMix64 ranks(rank_seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(rank_item_[i - 1], rank_item_[ranks.Below(i)]);
  }
}

size_t ZipfSampler::Next() {
  const double u = rng_.Uniform();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return rank_item_[std::min(rank, rank_item_.size() - 1)];
}

double DueLatencyUs(Clock::time_point due, Clock::time_point done) {
  return std::chrono::duration<double, std::micro>(done - due).count();
}

}  // namespace servebench
