#include "serve/model_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "nn/serialization.h"

namespace deepmap::serve {
namespace {

constexpr char kReloadAttemptsCounter[] = "deepmap_serve_reload_attempts_total";
constexpr char kReloadSuccessCounter[] = "deepmap_serve_reload_success_total";
constexpr char kReloadRollbackCounter[] = "deepmap_serve_reload_rollback_total";
constexpr char kReloadBreakerOpenCounter[] =
    "deepmap_serve_reload_breaker_open_total";

// Reference graphs a reload replays through the new and old servables.
constexpr int kShadowGraphs = 16;

Status CheckOptions(const ModelRegistry::Options& options) {
  if (options.backend == "fp32") return Status::Ok();
  return Status::InvalidArgument("unknown inference backend '" +
                                 options.backend + "'; the only one is fp32");
}

}  // namespace

ServableModel::ServableModel(std::string name,
                             const graph::GraphDataset& reference,
                             const core::DeepMapConfig& config)
    : name_(std::move(name)),
      config_(config),
      num_classes_(reference.NumClasses()),
      preprocessor_(reference, config) {
  // Majority-class fallback: empirical class priors of the reference
  // dataset, argmax label (lowest id wins ties, matching nn::Predict).
  fallback_.source = PredictionSource::kFallback;
  fallback_.probabilities.assign(static_cast<size_t>(num_classes_), 0.0f);
  for (int label : reference.labels()) {
    fallback_.probabilities[static_cast<size_t>(label)] += 1.0f;
  }
  const float total = static_cast<float>(reference.size());
  for (float& p : fallback_.probabilities) p /= total;
  fallback_.label = static_cast<int>(
      std::max_element(fallback_.probabilities.begin(),
                       fallback_.probabilities.end()) -
      fallback_.probabilities.begin());
}

ServableHandle::ServableHandle(std::shared_ptr<ServableModel> initial)
    : servable_(std::move(initial)) {
  DEEPMAP_CHECK(servable_ != nullptr);
}

std::shared_ptr<ServableModel> ServableHandle::Get() const {
  std::lock_guard<std::mutex> lock(mu_);
  return servable_;
}

std::shared_ptr<ServableModel> ServableHandle::Swap(
    std::shared_ptr<ServableModel> next) {
  DEEPMAP_CHECK(next != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<ServableModel> old = std::move(servable_);
  servable_ = std::move(next);
  return old;
}

ModelRegistry::ModelRegistry(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = metrics;
  }
}

Status ModelRegistry::CompileInto(ServableModel& servable,
                                  core::DeepMapModel& model) {
  StatusOr<CompiledModel> compiled = CompiledModel::Compile(
      model, servable.config(), servable.feature_dim(),
      servable.sequence_length(), servable.num_classes());
  if (!compiled.ok()) return compiled.status();
  servable.compiled_ =
      std::make_unique<CompiledModel>(std::move(compiled).value());
  return Status::Ok();
}

Status ModelRegistry::Load(const std::string& name,
                           const graph::GraphDataset& reference,
                           const core::DeepMapConfig& config,
                           const std::string& params_path,
                           const Options& options) {
  // Injected load failure: storage/permission flakiness before any state is
  // built, the path a rollout controller must handle by keeping the old
  // servable (Load never unregisters on failure).
  DEEPMAP_INJECT_FAULT("serve.registry.load");
  if (Status s = CheckOptions(options); !s.ok()) return s;
  auto servable = std::make_shared<ServableModel>(name, reference, config);
  core::DeepMapModel model(servable->feature_dim(),
                           servable->sequence_length(),
                           servable->num_classes(), config);
  if (Status s = nn::LoadParameters(model.Params(), params_path); !s.ok()) {
    return s;
  }
  if (Status s = CompileInto(*servable, model); !s.ok()) return s;
  return Register(name, std::move(servable));
}

Status ModelRegistry::Adopt(const std::string& name,
                            const graph::GraphDataset& reference,
                            const core::DeepMapConfig& config,
                            core::DeepMapModel& trained) {
  auto servable = std::make_shared<ServableModel>(name, reference, config);
  if (Status s = CompileInto(*servable, trained); !s.ok()) return s;
  return Register(name, std::move(servable));
}

Status ModelRegistry::Register(const std::string& name,
                               std::shared_ptr<ServableModel> servable) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = models_.emplace(name, std::move(servable));
  if (!inserted) {
    return Status::InvalidArgument("model '" + name +
                                   "' is already registered");
  }
  return Status::Ok();
}

Status ModelRegistry::ReloadFailed(const std::string& name,
                                   int breaker_threshold, Status error) {
  bool opened = false;
  int failures = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    BreakerState& breaker = breakers_[name];
    failures = ++breaker.consecutive_failures;
    if (breaker_threshold > 0 && failures >= breaker_threshold &&
        !breaker.open) {
      breaker.open = true;
      opened = true;
    }
  }
  metrics_->GetCounter(kReloadRollbackCounter).Increment();
  DEEPMAP_LOG(Warning) << "model '" << name << "': reload rolled back ("
                       << error.message() << "); old version keeps serving"
                       << " [consecutive failures: " << failures << "]"
                       << (opened ? "; circuit breaker OPEN" : "");
  return error;
}

StatusOr<std::shared_ptr<ServableModel>> ModelRegistry::Reload(
    const std::string& name, const graph::GraphDataset& reference,
    const core::DeepMapConfig& config, const std::string& params_path,
    const ReloadOptions& options, ReloadReport* report) {
  metrics_->GetCounter(kReloadAttemptsCounter).Increment();
  std::shared_ptr<ServableModel> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto breaker = breakers_.find(name);
    if (breaker != breakers_.end() && breaker->second.open) {
      metrics_->GetCounter(kReloadBreakerOpenCounter).Increment();
      return StatusOr<std::shared_ptr<ServableModel>>(
          Status::FailedPrecondition(
              "reload circuit breaker is open for model '" + name +
              "' (" + std::to_string(breaker->second.consecutive_failures) +
              " consecutive failures); ResetBreaker to retry"));
    }
    auto it = models_.find(name);
    if (it == models_.end()) {
      // Caller error, not a broken artifact: does not advance the breaker.
      return StatusOr<std::shared_ptr<ServableModel>>(Status::NotFound(
          "cannot reload model '" + name + "': not registered"));
    }
    old = it->second;
  }
  if (report != nullptr) *report = ReloadReport{old->version(), 0, 0};

  auto fail = [&](Status s) {
    return StatusOr<std::shared_ptr<ServableModel>>(
        ReloadFailed(name, options.breaker_threshold, std::move(s)));
  };

  // Injected reload failure: storage/permission flakiness fetching the new
  // artifact, before any state is built.
  if (DEEPMAP_FAILPOINT_TRIGGERED("serve.registry.reload")) {
    return fail(FailPointError("serve.registry.reload"));
  }

  auto servable = std::make_shared<ServableModel>(name, reference, config);
  core::DeepMapModel model(servable->feature_dim(),
                           servable->sequence_length(),
                           servable->num_classes(), config);
  if (Status s = nn::LoadParameters(model.Params(), params_path); !s.ok()) {
    return fail(std::move(s));
  }
  if (Status s = CompileInto(*servable, model); !s.ok()) {
    return fail(std::move(s));
  }

  // Shadow validation: replay the first kShadowGraphs reference graphs that
  // preprocess cleanly through the NEW servable, reject non-finite logits
  // (the injected-corruption signature) outright, and count argmax flips
  // against the OLD servable for the report and the log line.
  int shadow_used = 0;
  int label_flips = 0;
  ForwardScratch new_scratch, old_scratch;
  const std::vector<graph::Graph>& graphs = reference.graphs();
  for (size_t i = 0; i < graphs.size() && shadow_used < kShadowGraphs; ++i) {
    StatusOr<SparseInput> input =
        servable->preprocessor().PreprocessSparse(graphs[i]);
    if (!input.ok()) continue;  // oversized/empty graphs can't validate
    const Prediction fresh =
        servable->compiled().Predict(input.value(), &new_scratch);
    bool corrupt = DEEPMAP_FAILPOINT_TRIGGERED("serve.reload.corrupt");
    for (int c = 0; c < servable->num_classes(); ++c) {
      if (!std::isfinite(new_scratch.logits[static_cast<size_t>(c)])) {
        corrupt = true;
      }
    }
    if (corrupt) {
      if (report != nullptr) {
        report->shadow_size = shadow_used;
        report->label_flips = label_flips;
      }
      return fail(Status::Internal(
          "reload shadow validation: corrupt (non-finite) logits on "
          "calibration graph " + std::to_string(i)));
    }
    const Prediction stale =
        old->compiled().Predict(input.value(), &old_scratch);
    ++shadow_used;
    if (fresh.label != stale.label) ++label_flips;
  }
  if (shadow_used == 0) {
    return fail(Status::FailedPrecondition(
        "reload shadow validation: no calibration graph preprocessed "
        "cleanly; cannot certify the new servable"));
  }

  servable->version_ = old->version() + 1;
  std::vector<ReloadSubscriber> subscribers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    models_[name] = servable;
    breakers_[name] = BreakerState{};  // success closes the breaker
    auto subs = subscribers_.find(name);
    if (subs != subscribers_.end()) subscribers = subs->second;
  }
  metrics_->GetCounter(kReloadSuccessCounter).Increment();
  if (report != nullptr) {
    *report = ReloadReport{servable->version(), shadow_used, label_flips};
  }
  DEEPMAP_LOG(Info) << "model '" << name << "': hot-reloaded v"
                    << old->version() << " -> v" << servable->version()
                    << " (shadow " << label_flips << "/" << shadow_used
                    << " flips)";
  for (const ReloadSubscriber& fn : subscribers) fn(servable);
  return StatusOr<std::shared_ptr<ServableModel>>(std::move(servable));
}

void ModelRegistry::Subscribe(const std::string& name, ReloadSubscriber fn) {
  std::lock_guard<std::mutex> lock(mu_);
  subscribers_[name].push_back(std::move(fn));
}

bool ModelRegistry::breaker_open(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(name);
  return it != breakers_.end() && it->second.open;
}

void ModelRegistry::ResetBreaker(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  breakers_[name] = BreakerState{};
}

std::shared_ptr<ServableModel> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

Status ModelRegistry::Unload(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (models_.erase(name) == 0) {
    return Status::NotFound("model '" + name + "' is not registered");
  }
  return Status::Ok();
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, servable] : models_) names.push_back(name);
  return names;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

int64_t ModelRegistry::reload_attempts() const {
  return metrics_->GetCounter(kReloadAttemptsCounter).Value();
}

int64_t ModelRegistry::reload_successes() const {
  return metrics_->GetCounter(kReloadSuccessCounter).Value();
}

int64_t ModelRegistry::reload_rollbacks() const {
  return metrics_->GetCounter(kReloadRollbackCounter).Value();
}

int64_t ModelRegistry::reload_breaker_rejections() const {
  return metrics_->GetCounter(kReloadBreakerOpenCounter).Value();
}

}  // namespace deepmap::serve
