#include "serve/model_registry.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "nn/serialization.h"

namespace deepmap::serve {
namespace {

constexpr char kBackendLoadsCounter[] = "deepmap_serve_backend_loads_total";
constexpr char kBackendFallbackCounter[] =
    "deepmap_serve_backend_fallback_total";
constexpr char kReloadAttemptsCounter[] = "deepmap_serve_reload_attempts_total";
constexpr char kReloadSuccessCounter[] = "deepmap_serve_reload_success_total";
constexpr char kReloadRollbackCounter[] = "deepmap_serve_reload_rollback_total";
constexpr char kReloadBreakerOpenCounter[] =
    "deepmap_serve_reload_breaker_open_total";

bool IsKnownBackend(const std::string& name) {
  const std::vector<std::string> known = nn::InferenceBackendNames();
  return std::find(known.begin(), known.end(), name) != known.end();
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
                                  core::DeepMapModel& model,
                                  const graph::GraphDataset& reference,
                                  const Options& options) {
  const std::string requested =
      options.backend.empty() ? "fp32" : options.backend;
  BackendReport report;
  report.requested = requested;
  report.active = requested;

  const core::DeepMapConfig& config = servable.config();
  auto compile = [&](const nn::InferenceBackend* be) {
    return CompiledModel::Compile(model, config, servable.feature_dim(),
                                  servable.sequence_length(),
                                  servable.num_classes(), be);
  };

  if (requested == "fp32") {
    StatusOr<CompiledModel> compiled = compile(nullptr);
    if (!compiled.ok()) return compiled.status();
    servable.compiled_ =
        std::make_unique<CompiledModel>(std::move(compiled).value());
    servable.backend_report_ = report;
    metrics_->GetCounter(kBackendLoadsCounter).Increment();
    return Status::Ok();
  }

  StatusOr<std::unique_ptr<nn::InferenceBackend>> backend =
      nn::MakeInferenceBackend(requested);
  if (!backend.ok()) return backend.status();
  StatusOr<CompiledModel> quantized = compile(backend.value().get());
  if (!quantized.ok()) return quantized.status();

  bool fell_back = false;
  if (options.calibration_graphs <= 0) {
    // Guardrail disabled: install the requested backend unchecked.
    servable.backend_ = std::move(backend).value();
    servable.compiled_ =
        std::make_unique<CompiledModel>(std::move(quantized).value());
  } else {
    // Calibration guardrail: compare against the exact fp32 compile on the
    // first reference graphs that preprocess cleanly.
    StatusOr<CompiledModel> fp32 = compile(nullptr);
    if (!fp32.ok()) return fp32.status();
    ForwardScratch quant_scratch, fp32_scratch;
    const std::vector<graph::Graph>& graphs = reference.graphs();
    const int want = std::min<int>(options.calibration_graphs,
                                   static_cast<int>(graphs.size()));
    int used = 0;
    int disagreements = 0;
    float max_diff = 0.0f;
    for (size_t i = 0; i < graphs.size() && used < want; ++i) {
      StatusOr<SparseInput> input =
          servable.preprocessor_.PreprocessSparse(graphs[i]);
      if (!input.ok()) continue;  // oversized/empty graphs can't calibrate
      const Prediction pq = quantized.value().Predict(input.value(),
                                                      &quant_scratch);
      const Prediction pr = fp32.value().Predict(input.value(), &fp32_scratch);
      ++used;
      // Injected calibration divergence: models a quantization that corrupts
      // this graph's prediction, forcing an argmax disagreement so guardrail
      // trips (and reload shadow-validation failures built on them) are
      // deterministically testable.
      const bool diverged = DEEPMAP_FAILPOINT_TRIGGERED("serve.registry.calibrate");
      if (diverged || pq.label != pr.label) ++disagreements;
      for (int c = 0; c < servable.num_classes(); ++c) {
        const float d = std::fabs(quant_scratch.logits[static_cast<size_t>(c)] -
                                  fp32_scratch.logits[static_cast<size_t>(c)]);
        if (d > max_diff) max_diff = d;
      }
    }
    report.calibration_size = used;
    report.argmax_disagreements = disagreements;
    report.max_abs_logit_diff = max_diff;
    // An empty calibration slice can't certify the backend — treat it as a
    // failed guardrail rather than serving unvalidated quantized logits.
    const bool over_budget =
        used == 0 ||
        static_cast<double>(disagreements) / static_cast<double>(used) >
            options.max_argmax_disagreement;
    if (over_budget) {
      fell_back = true;
      servable.compiled_ =
          std::make_unique<CompiledModel>(std::move(fp32).value());
    } else {
      servable.backend_ = std::move(backend).value();
      servable.compiled_ =
          std::make_unique<CompiledModel>(std::move(quantized).value());
    }
  }

  if (fell_back) {
    report.active = "fp32";
    report.fell_back = true;
    metrics_->GetCounter(kBackendFallbackCounter).Increment();
    DEEPMAP_LOG(Warning) << "model '" << servable.name() << "': backend '"
                         << requested << "' failed the calibration guardrail ("
                         << report.argmax_disagreements << "/"
                         << report.calibration_size
                         << " argmax disagreements, max |logit diff| "
                         << report.max_abs_logit_diff
                         << "); serving fp32 instead";
  }
  servable.backend_report_ = report;
  metrics_->GetCounter(kBackendLoadsCounter).Increment();
  return Status::Ok();
}

Status ModelRegistry::Load(const std::string& name,
                           const graph::GraphDataset& reference,
                           const core::DeepMapConfig& config,
                           const std::string& params_path) {
  Options options;
  options.backend.clear();  // honor a persisted sidecar tag if present
  return Load(name, reference, config, params_path, options);
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
  Options resolved = options;
  if (resolved.backend.empty()) {
    StatusOr<std::string> tag = ReadBackendTag(params_path);
    if (tag.ok()) {
      resolved.backend = tag.value();
    } else if (tag.status().code() != StatusCode::kNotFound) {
      return tag.status();  // corrupt tag: fail loudly, never misload
    } else {
      resolved.backend = "fp32";
    }
  }
  auto servable = std::make_shared<ServableModel>(name, reference, config);
  core::DeepMapModel model(servable->feature_dim(),
                           servable->sequence_length(),
                           servable->num_classes(), config);
  if (Status s = nn::LoadParameters(model.Params(), params_path); !s.ok()) {
    return s;
  }
  if (Status s = CompileInto(*servable, model, reference, resolved); !s.ok()) {
    return s;
  }
  if (options.persist_backend_tag) {
    if (Status s = WriteBackendTag(params_path, resolved.backend); !s.ok()) {
      return s;
    }
  }
  return Register(name, std::move(servable));
}

Status ModelRegistry::Adopt(const std::string& name,
                            const graph::GraphDataset& reference,
                            const core::DeepMapConfig& config,
                            core::DeepMapModel& trained) {
  return Adopt(name, reference, config, trained, Options());
}

Status ModelRegistry::Adopt(const std::string& name,
                            const graph::GraphDataset& reference,
                            const core::DeepMapConfig& config,
                            core::DeepMapModel& trained,
                            const Options& options) {
  auto servable = std::make_shared<ServableModel>(name, reference, config);
  if (Status s = CompileInto(*servable, trained, reference, options); !s.ok()) {
    return s;
  }
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

  Options resolved = options.load;
  if (resolved.backend.empty()) {
    StatusOr<std::string> tag = ReadBackendTag(params_path);
    if (tag.ok()) {
      resolved.backend = tag.value();
    } else if (tag.status().code() != StatusCode::kNotFound) {
      return fail(tag.status());
    } else {
      resolved.backend = "fp32";
    }
  }

  auto servable = std::make_shared<ServableModel>(name, reference, config);
  core::DeepMapModel model(servable->feature_dim(),
                           servable->sequence_length(),
                           servable->num_classes(), config);
  if (Status s = nn::LoadParameters(model.Params(), params_path); !s.ok()) {
    return fail(std::move(s));
  }
  if (Status s = CompileInto(*servable, model, reference, resolved); !s.ok()) {
    return fail(std::move(s));
  }

  // Shadow validation: replay calibration graphs through the NEW servable,
  // reject non-finite logits (the injected-corruption signature) outright,
  // and budget argmax flips against the OLD servable — a reload that changes
  // most answers is more likely a bad artifact than a better model.
  int shadow_used = 0;
  int label_flips = 0;
  if (options.shadow_graphs > 0) {
    ForwardScratch new_scratch, old_scratch;
    const std::vector<graph::Graph>& graphs = reference.graphs();
    for (size_t i = 0;
         i < graphs.size() && shadow_used < options.shadow_graphs; ++i) {
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
    if (options.max_label_flip_fraction < 1.0 &&
        static_cast<double>(label_flips) / static_cast<double>(shadow_used) >
            options.max_label_flip_fraction) {
      if (report != nullptr) {
        report->shadow_size = shadow_used;
        report->label_flips = label_flips;
      }
      return fail(Status::FailedPrecondition(
          "reload shadow validation: " + std::to_string(label_flips) + "/" +
          std::to_string(shadow_used) +
          " argmax flips vs the serving version exceed the budget"));
    }
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
                    << " (backend '" << servable->backend_name()
                    << "', shadow " << label_flips << "/" << shadow_used
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

std::string ModelRegistry::BackendTagPath(const std::string& params_path) {
  return params_path + ".backend";
}

Status ModelRegistry::WriteBackendTag(const std::string& params_path,
                                      const std::string& backend) {
  if (!IsKnownBackend(backend)) {
    return Status::InvalidArgument("cannot persist unknown backend '" +
                                   backend + "'");
  }
  const std::string path = BackendTagPath(params_path);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write backend tag: " + path);
  out << backend << "\n";
  out.flush();
  if (!out) return Status::IoError("short write to backend tag: " + path);
  return Status::Ok();
}

StatusOr<std::string> ModelRegistry::ReadBackendTag(
    const std::string& params_path) {
  const std::string path = BackendTagPath(params_path);
  std::ifstream in(path);
  if (!in) return Status::NotFound("no backend tag at " + path);
  std::string tag;
  std::getline(in, tag);
  while (!tag.empty() && (tag.back() == '\r' || tag.back() == ' ' ||
                          tag.back() == '\t')) {
    tag.pop_back();
  }
  if (!IsKnownBackend(tag)) {
    return Status::InvalidArgument("backend tag at " + path +
                                   " names unknown backend '" + tag + "'");
  }
  return tag;
}

int64_t ModelRegistry::backend_loads() const {
  return metrics_->GetCounter(kBackendLoadsCounter).Value();
}

int64_t ModelRegistry::backend_fallbacks() const {
  return metrics_->GetCounter(kBackendFallbackCounter).Value();
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
