// ModelRegistry: named, validated, ready-to-serve DEEPMAP models.
//
// A servable bundle is more than the weight file nn::SaveParameters writes:
// reproducing a prediction requires the preprocessing state (feature
// vocabulary / column scales / WL dictionary, sequence length) that existed
// at training time. The registry rebuilds that state deterministically from
// the reference dataset + config, instantiates the architecture, loads and
// validates the persisted parameters against it (count/shape mismatches are
// Status errors, never silent misloads), and compiles the weights into the
// immutable inference form (serve::CompiledModel, exact fp32).
//
// Registered models are shared_ptr-held, so a model stays valid for
// in-flight requests even if it is unloaded concurrently.
//
// Hot reload (Reload) replaces a registered model under live traffic:
// a fresh servable is built from the new weight file, shadow-validated
// against the *currently serving* version on a slice of calibration graphs
// (predictions must be finite; argmax flips vs the old model are budgeted),
// and only then swapped into the registry with a bumped version number.
// Any failure — load error, compile error, injected corruption, flip
// budget exceeded — rolls back: the old servable keeps serving untouched. A
// per-model circuit breaker counts consecutive reload failures and, once
// open, fails further reloads fast (FailedPrecondition) until
// ResetBreaker(), so a broken rollout pipeline cannot burn cycles
// revalidating the same corrupt artifact. Subscribers (e.g. a ServeCluster
// via ServableHandle) are notified after each successful swap.
#ifndef DEEPMAP_SERVE_MODEL_REGISTRY_H_
#define DEEPMAP_SERVE_MODEL_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/deepmap.h"
#include "graph/dataset.h"
#include "obs/metrics.h"
#include "serve/compiled_model.h"
#include "serve/preprocessor.h"

namespace deepmap::serve {

/// A loaded model plus everything needed to serve it.
class ServableModel {
 public:
  ServableModel(std::string name, const graph::GraphDataset& reference,
                const core::DeepMapConfig& config);

  const std::string& name() const { return name_; }
  const core::DeepMapConfig& config() const { return config_; }
  /// Monotone per-name version: 1 for the initial Load/Adopt, bumped by
  /// every successful Reload.
  int version() const { return version_; }
  int feature_dim() const { return preprocessor_.feature_dim(); }
  int sequence_length() const { return preprocessor_.sequence_length(); }
  int num_classes() const { return num_classes_; }

  /// Thread-safe request preprocessing (see Preprocessor).
  Preprocessor& preprocessor() { return preprocessor_; }
  /// Immutable compiled weights; valid only after a successful Load/Adopt.
  const CompiledModel& compiled() const { return *compiled_; }

  /// Degraded-mode answer of last resort: the reference dataset's majority
  /// class with the empirical class priors as probabilities. Costs nothing
  /// to serve and beats an error for screening-style workloads.
  const Prediction& fallback_prediction() const { return fallback_; }

 private:
  friend class ModelRegistry;

  std::string name_;
  core::DeepMapConfig config_;
  int version_ = 1;
  int num_classes_;
  Preprocessor preprocessor_;
  Prediction fallback_;
  std::unique_ptr<CompiledModel> compiled_;
};

/// Thread-safe holder of the servable currently serving one traffic
/// surface. Consumers (BatchPipeline) pin the current servable once per
/// batch via Get(); a hot reload Swap()s in the replacement atomically, so
/// in-flight batches finish on the version they pinned while subsequent
/// batches pick up the new one — no pause, no dropped requests.
class ServableHandle {
 public:
  explicit ServableHandle(std::shared_ptr<ServableModel> initial);

  /// The current servable (never null).
  std::shared_ptr<ServableModel> Get() const;

  /// Installs `next` and returns the servable it replaced.
  std::shared_ptr<ServableModel> Swap(std::shared_ptr<ServableModel> next);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<ServableModel> servable_;
};

/// Thread-safe name -> ServableModel map.
class ModelRegistry {
 public:
  /// Per-load options.
  struct Options {
    /// Kept for callers that name the arithmetic explicitly: "fp32" is the
    /// only value; anything else is InvalidArgument.
    std::string backend = "fp32";
  };

  /// Reload counters land in `metrics` (deepmap_serve_reload_*); pass
  /// nullptr for a private registry, inspectable via metrics().
  explicit ModelRegistry(obs::MetricsRegistry* metrics = nullptr);

  /// Builds preprocessing state from `reference` + `config`, loads the
  /// persisted parameters at `params_path` into a fresh architecture
  /// (rejecting count/shape mismatches and corrupt files), and registers the
  /// compiled result under `name`. Fails if `name` is already registered.
  Status Load(const std::string& name, const graph::GraphDataset& reference,
              const core::DeepMapConfig& config,
              const std::string& params_path) {
    return Load(name, reference, config, params_path, Options());
  }
  Status Load(const std::string& name, const graph::GraphDataset& reference,
              const core::DeepMapConfig& config, const std::string& params_path,
              const Options& options);

  /// Same, but adopts the parameters of an already-trained in-memory model
  /// (no file round-trip). `trained` must match the architecture implied by
  /// (reference, config).
  Status Adopt(const std::string& name, const graph::GraphDataset& reference,
               const core::DeepMapConfig& config,
               core::DeepMapModel& trained);

  /// Knobs of one hot reload (Reload).
  struct ReloadOptions {
    /// Consecutive reload failures that open the per-model circuit breaker.
    int breaker_threshold = 3;
  };

  /// Everything a rollout controller wants to log about one reload.
  struct ReloadReport {
    int version = 0;      // version now serving (old on rollback)
    int shadow_size = 0;  // graphs the shadow validation compared on
    int label_flips = 0;  // argmax changes vs the old servable
  };

  /// Hot-reloads `name`: builds a fresh servable from `params_path`
  /// (rejecting load/compile errors exactly as Load does), shadow-validates
  /// it against the currently registered version, atomically swaps the
  /// registry entry, bumps the version, and notifies subscribers. On ANY
  /// failure the old servable keeps serving (rollback; counted by
  /// deepmap_serve_reload_rollback_total) and the per-model circuit breaker
  /// advances; once open, further reloads fail fast with FailedPrecondition
  /// until ResetBreaker. Returns the new servable on success.
  StatusOr<std::shared_ptr<ServableModel>> Reload(
      const std::string& name, const graph::GraphDataset& reference,
      const core::DeepMapConfig& config, const std::string& params_path,
      const ReloadOptions& options, ReloadReport* report = nullptr);
  StatusOr<std::shared_ptr<ServableModel>> Reload(
      const std::string& name, const graph::GraphDataset& reference,
      const core::DeepMapConfig& config, const std::string& params_path) {
    return Reload(name, reference, config, params_path, ReloadOptions());
  }

  /// Registers `fn` to run (outside the registry lock) with the new
  /// servable after every successful Reload of `name`. Typical use: feed a
  /// ServeCluster::UpdateModel so replicas pick up the swap.
  using ReloadSubscriber = std::function<void(std::shared_ptr<ServableModel>)>;
  void Subscribe(const std::string& name, ReloadSubscriber fn);

  /// Circuit-breaker state for `name` (open = reloads fail fast).
  bool breaker_open(const std::string& name) const;
  /// Closes the breaker and zeroes the consecutive-failure count.
  void ResetBreaker(const std::string& name);

  /// The servable registered under `name`, or nullptr.
  std::shared_ptr<ServableModel> Get(const std::string& name) const;

  Status Unload(const std::string& name);

  std::vector<std::string> Names() const;
  size_t size() const;

  /// Registry this instance reports deepmap_serve_reload_* counters into.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Reload lifecycle counters (deepmap_serve_reload_*).
  int64_t reload_attempts() const;
  int64_t reload_successes() const;
  int64_t reload_rollbacks() const;
  /// Reloads rejected by an open circuit breaker.
  int64_t reload_breaker_rejections() const;

 private:
  /// Per-model reload circuit breaker. Guarded by mu_.
  struct BreakerState {
    int consecutive_failures = 0;
    bool open = false;
  };

  Status Register(const std::string& name,
                  std::shared_ptr<ServableModel> servable);

  /// Rollback bookkeeping shared by every Reload failure path: advances the
  /// breaker, counts the rollback, logs, and passes `error` through.
  Status ReloadFailed(const std::string& name, int breaker_threshold,
                      Status error);

  /// Compiles `model` and installs the result into `servable`.
  static Status CompileInto(ServableModel& servable,
                            core::DeepMapModel& model);

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<ServableModel>> models_;
  std::map<std::string, BreakerState> breakers_;
  std::map<std::string, std::vector<ReloadSubscriber>> subscribers_;
};

}  // namespace deepmap::serve

#endif  // DEEPMAP_SERVE_MODEL_REGISTRY_H_
