// Seeded traffic generators for the serve-path benchmark.
//
// Everything here is a pure function of its seed and uses only integer and
// IEEE arithmetic the benchmark controls (no <random> distributions, whose
// output is implementation-defined), so a seed names the same request stream
// on every standard library.
#ifndef SERVEBENCH_TRAFFIC_H_
#define SERVEBENCH_TRAFFIC_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform double in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream id).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Open-loop Poisson arrivals: due offsets in seconds from the phase start,
/// ascending, with exponential gaps of mean 1/rate, covering [0, duration).
std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// Zipf(s) draws over n items. Rank k (1-based) has weight 1/k^s. Which item
/// holds which rank is a permutation drawn from `rank_seed`; the draws come
/// from `draw_seed`.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s, uint64_t rank_seed, uint64_t draw_seed);
  /// Next pool index in [0, n).
  size_t Next();

 private:
  std::vector<double> cdf_;        // cumulative rank weights, last == 1
  std::vector<size_t> rank_item_;  // rank - 1 -> pool index
  SplitMix64 rng_;
};

/// Latency of an open-loop request measured from when it was due, not from
/// when the generator got round to sending it: a stall that delays sending
/// is charged to every request it delays. Microseconds.
double DueLatencyUs(Clock::time_point due, Clock::time_point done);

}  // namespace servebench

#endif  // SERVEBENCH_TRAFFIC_H_
