// Deterministic fault injection: named fail points compiled into fallible
// call sites.
//
// A fail point is a named hook (e.g. "serve.preprocess") evaluated on a hot
// path. When nothing is activated the evaluation is one relaxed atomic load
// — no lock, no map lookup, no string construction — so instrumented sites
// are free in production builds. Activating a point (programmatically or via
// the DEEPMAP_FAILPOINTS environment variable) attaches a trigger rule:
//
//   always        fire on every evaluation
//   once          fire on the first evaluation only
//   every:N       fire on every N-th evaluation (N, 2N, 3N, ...)
//   p:P[:SEED]    fire with probability P per evaluation, from a seeded
//                 per-point RNG stream (deterministic across runs)
//
// A spec may also carry an on_trigger callback, run outside the registry
// lock each time the point fires; tests use this as a deterministic sync
// point (e.g. park a serving replica on a gate instead of sleeping).
//
// Call sites consult points through the macros below and surface injected
// failures as Status::Unavailable ("injected fault at <name>"), so every
// induced error is typed and attributable to its injection site.
//
// Env activation: DEEPMAP_FAILPOINTS="name=spec;name=spec", parsed once on
// first registry access. The catalog of instrumented sites lives in
// docs/robustness.md.
#ifndef DEEPMAP_COMMON_FAILPOINT_H_
#define DEEPMAP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace deepmap {

/// Trigger rule of one activated fail point.
struct FailPointSpec {
  enum class Mode { kAlways, kOnce, kEveryNth, kProbability };

  Mode mode = Mode::kAlways;
  double probability = 0.0;  // kProbability: chance per evaluation, [0, 1]
  uint64_t n = 1;            // kEveryNth: fires on evaluations N, 2N, ...
  uint64_t seed = 42;        // kProbability: per-point RNG stream seed
  /// Optional hook run (outside the registry lock) every time the point
  /// fires. May block; used by tests as a deterministic sync point.
  std::function<void()> on_trigger;

  static FailPointSpec Always() { return {}; }
  static FailPointSpec Once() {
    FailPointSpec s;
    s.mode = Mode::kOnce;
    return s;
  }
  static FailPointSpec EveryNth(uint64_t n) {
    FailPointSpec s;
    s.mode = Mode::kEveryNth;
    s.n = n;
    return s;
  }
  static FailPointSpec Probability(double p, uint64_t seed = 42) {
    FailPointSpec s;
    s.mode = Mode::kProbability;
    s.probability = p;
    s.seed = seed;
    return s;
  }
};

/// Process-wide name -> trigger rule map. All methods are thread-safe.
class FailPointRegistry {
 public:
  /// The singleton. First access parses DEEPMAP_FAILPOINTS (a parse error is
  /// logged and ignored so a typo cannot take down a serving binary).
  static FailPointRegistry& Instance();

  /// Activates (or replaces) `name` with `spec`, resetting its counters.
  void Enable(const std::string& name, FailPointSpec spec);

  /// Parses a spec string — "always", "once", "every:N", "p:P[:SEED]", or
  /// "off" — and activates it. InvalidArgument on malformed input.
  Status EnableFromString(const std::string& name, const std::string& spec);

  void Disable(const std::string& name);
  void DisableAll();

  /// Parses DEEPMAP_FAILPOINTS ("name=spec;name=spec"). No-op when unset.
  Status LoadFromEnv();

  /// True when `name` has an active spec.
  bool IsEnabled(const std::string& name) const;
  std::vector<std::string> ActiveNames() const;

  /// Times the named point was evaluated / fired since activation.
  int64_t evaluations(const std::string& name) const;
  int64_t triggers(const std::string& name) const;

  /// Evaluates the point: counts the evaluation, applies the trigger rule,
  /// and runs on_trigger (lock released) when it fires. Prefer the
  /// DEEPMAP_FAILPOINT_TRIGGERED macro, which short-circuits the common
  /// nothing-active case.
  bool ShouldTrigger(const char* name);

  /// True when any point is active anywhere in the process; one relaxed
  /// load, the whole cost of a disabled fail point.
  static bool AnyActive() {
    return active_count_.load(std::memory_order_relaxed) != 0;
  }

 private:
  struct Point {
    FailPointSpec spec;
    int64_t evaluations = 0;
    int64_t triggers = 0;
    bool once_spent = false;
    std::mt19937_64 rng;
  };

  FailPointRegistry() = default;

  static std::atomic<int> active_count_;

  mutable std::mutex mu_;
  std::map<std::string, Point> points_;
};

/// The Status an instrumented site returns when its point fires: Unavailable
/// with the site name, so injected errors are typed and attributable.
Status FailPointError(const char* name);

/// True when the named fail point fires on this evaluation. Zero-cost (one
/// relaxed atomic load) while no point is active in the process.
#define DEEPMAP_FAILPOINT_TRIGGERED(name)       \
  (::deepmap::FailPointRegistry::AnyActive() && \
   ::deepmap::FailPointRegistry::Instance().ShouldTrigger(name))

/// Returns FailPointError(name) from the enclosing function (which must
/// return Status or StatusOr<T>) when the point fires.
#define DEEPMAP_INJECT_FAULT(name)               \
  do {                                           \
    if (DEEPMAP_FAILPOINT_TRIGGERED(name)) {     \
      return ::deepmap::FailPointError(name);    \
    }                                            \
  } while (0)

}  // namespace deepmap

#endif  // DEEPMAP_COMMON_FAILPOINT_H_
