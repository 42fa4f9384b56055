#include "serve/metrics.h"

#include <algorithm>
#include <cmath>

namespace deepmap::serve {
namespace {

/// Microseconds -> seconds for the registry histograms.
constexpr double kMicrosToSeconds = 1e-6;

std::string FormatMicros(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  return buf;
}

/// Lowercases and maps separators so arbitrary stage strings ("admission",
/// "preprocess", ...) form valid metric name tokens.
std::string SanitizeToken(const std::string& raw) {
  std::string token;
  token.reserve(raw.size());
  for (char c : raw) {
    if (c >= 'A' && c <= 'Z') {
      token.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      token.push_back(c);
    } else if (!token.empty() && token.back() != '_') {
      token.push_back('_');
    }
  }
  while (!token.empty() && token.back() == '_') token.pop_back();
  return token.empty() ? "unknown" : token;
}

const char* OutcomeToken(int outcome) {
  switch (static_cast<ServeOutcome>(outcome)) {
    case ServeOutcome::kOk: return "ok";
    case ServeOutcome::kDegraded: return "degraded";
    case ServeOutcome::kShed: return "shed";
    case ServeOutcome::kDeadlineExceeded: return "deadline_exceeded";
    case ServeOutcome::kRejected: return "rejected";
    case ServeOutcome::kError: return "error";
  }
  return "unknown";
}

}  // namespace

size_t NearestRankIndex(size_t n, double q) {
  if (n == 0) return 0;
  // ceil(q*n) - 1, with an epsilon so 0.95 (stored as 0.95000...011 in
  // binary) times 20 does not ceil to 20 and select the max instead of the
  // 19th-smallest sample. The guard is relative to n so it stays effective
  // for large sample counts.
  const double rank = std::ceil(q * static_cast<double>(n) -
                                static_cast<double>(n) * 1e-12 - 1e-9);
  if (rank <= 1.0) return 0;
  const size_t index = static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

ServeMetrics::ServeMetrics(obs::MetricsRegistry* registry)
    : owned_registry_(registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(registry == nullptr ? owned_registry_.get() : registry) {
  obs::MetricsRegistry& r = *registry_;
  cache_hits_ = &r.GetCounter("deepmap_serve_cache_hits_total",
                              "requests answered from the prediction cache");
  cache_misses_ = &r.GetCounter("deepmap_serve_cache_misses_total",
                                "requests that ran the full pipeline");
  rejected_ = &r.GetCounter("deepmap_serve_rejected_total",
                            "enqueue failures (queue full / shutdown)");
  for (int i = 0; i < kNumServeOutcomes; ++i) {
    outcomes_[i] = &r.GetCounter(
        std::string("deepmap_serve_outcome_") + OutcomeToken(i) + "_total",
        "request dispositions; outcomes sum to resolved submissions");
  }
  degraded_stale_ = &r.GetCounter("deepmap_serve_degraded_stale_total",
                                  "degraded answers served stale-from-cache");
  degraded_fallback_ =
      &r.GetCounter("deepmap_serve_degraded_fallback_total",
                    "degraded answers served by the majority-class fallback");
  dynamic_updates_ =
      &r.GetCounter("deepmap_serve_dynamic_updates_total",
                    "edge updates applied to registered dynamic graphs");
  dynamic_incremental_hits_ = &r.GetCounter(
      "deepmap_serve_dynamic_incremental_hits_total",
      "ClassifyDelta calls answered from cache after an incremental "
      "digest update");
  dynamic_full_recomputes_ = &r.GetCounter(
      "deepmap_serve_dynamic_full_recomputes_total",
      "ClassifyDelta calls that ran the full pipeline on the mutated graph");
  batches_ = &r.GetCounter("deepmap_serve_batches_total",
                           "batches run by the replicas");
  batch_items_ = &r.GetCounter("deepmap_serve_batch_items_total",
                               "requests carried by dispatched batches");
  queue_depth_samples_ =
      &r.GetCounter("deepmap_serve_queue_depth_samples_total",
                    "queue-depth observations (one per dispatched batch)");
  queue_depth_sum_ = &r.GetGauge("deepmap_serve_queue_depth_sum",
                                 "running sum of observed queue depths");
  max_queue_depth_ = &r.GetGauge("deepmap_serve_queue_depth_max",
                                 "high-water mark of the replica queue left at dispatch");
  wl_colors_ = &r.GetGauge("deepmap_serve_wl_colors",
                           "WL color dictionary entries, all iterations");
  queue_.histogram = &r.GetHistogram(
      "deepmap_serve_queue_seconds", {}, "submit -> batch dispatch");
  preprocess_.histogram =
      &r.GetHistogram("deepmap_serve_preprocess_seconds", {},
                      "feature map -> alignment -> tensor");
  forward_.histogram = &r.GetHistogram("deepmap_serve_forward_seconds", {},
                                       "batched CNN forward");
  total_.histogram = &r.GetHistogram("deepmap_serve_total_seconds", {},
                                     "submit -> promise fulfilled");
}

obs::Counter& ServeMetrics::DeadlineStageCounter(
    const std::string& stage) const {
  return registry_->GetCounter(
      "deepmap_serve_deadline_" + SanitizeToken(stage) + "_total",
      "deadline expiries attributed to this stage");
}

void ServeMetrics::Series::Record(double value_us) {
  histogram->Observe(value_us * kMicrosToSeconds);
  ++count;
  sum += value_us;
  max = std::max(max, value_us);
  if (samples.size() < kMaxLatencySamples) samples.push_back(value_us);
}

LatencySummary ServeMetrics::Series::Summarize() const {
  LatencySummary s;
  s.count = count;
  if (count == 0) return s;
  s.mean = sum / static_cast<double>(count);
  s.max = max;
  // One sorted copy serves all three percentiles; the pre-fix code copied
  // and nth_element'd the sample vector once per quantile.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = sorted[NearestRankIndex(sorted.size(), 0.50)];
  s.p95 = sorted[NearestRankIndex(sorted.size(), 0.95)];
  s.p99 = sorted[NearestRankIndex(sorted.size(), 0.99)];
  return s;
}

void ServeMetrics::RecordRequest(const RequestTiming& timing) {
  if (timing.cache_hit) {
    cache_hits_->Increment();
    std::lock_guard<std::mutex> lock(mu_);
    total_.Record(timing.total_us);
    return;
  }
  cache_misses_->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  total_.Record(timing.total_us);
  queue_.Record(timing.queue_us);
  preprocess_.Record(timing.preprocess_us);
  forward_.Record(timing.forward_us);
}

void ServeMetrics::RecordBatch(int batch_size) {
  batches_->Increment();
  batch_items_->Increment(batch_size);
  std::lock_guard<std::mutex> lock(mu_);
  ++batch_sizes_[batch_size];
}

void ServeMetrics::RecordQueueDepth(size_t depth) {
  queue_depth_samples_->Increment();
  queue_depth_sum_->Add(static_cast<double>(depth));
  max_queue_depth_->SetMax(static_cast<double>(depth));
}

void ServeMetrics::RecordWlColors(size_t colors) {
  wl_colors_->Set(static_cast<double>(colors));
}

void ServeMetrics::RecordRejected() {
  rejected_->Increment();
  outcomes_[static_cast<int>(ServeOutcome::kRejected)]->Increment();
}

void ServeMetrics::RecordOutcome(ServeOutcome outcome) {
  outcomes_[static_cast<int>(outcome)]->Increment();
}

void ServeMetrics::RecordShed() {
  outcomes_[static_cast<int>(ServeOutcome::kShed)]->Increment();
}

void ServeMetrics::RecordDeadlineExceeded(const std::string& stage) {
  DeadlineStageCounter(stage).Increment();
  outcomes_[static_cast<int>(ServeOutcome::kDeadlineExceeded)]->Increment();
}

void ServeMetrics::RecordDegradedStale() {
  degraded_stale_->Increment();
  outcomes_[static_cast<int>(ServeOutcome::kDegraded)]->Increment();
}

void ServeMetrics::RecordDegradedFallback() {
  degraded_fallback_->Increment();
  outcomes_[static_cast<int>(ServeOutcome::kDegraded)]->Increment();
}

void ServeMetrics::RecordDynamicUpdate(int64_t edges) {
  dynamic_updates_->Increment(edges);
}

void ServeMetrics::RecordDynamicIncrementalHit() {
  dynamic_incremental_hits_->Increment();
}

void ServeMetrics::RecordDynamicFullRecompute() {
  dynamic_full_recomputes_->Increment();
}

const ServeMetrics::Series* ServeMetrics::SeriesFor(
    const std::string& stage) const {
  if (stage == "queue") return &queue_;
  if (stage == "preprocess") return &preprocess_;
  if (stage == "forward") return &forward_;
  if (stage == "total") return &total_;
  return nullptr;
}

LatencySummary ServeMetrics::Latency(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = SeriesFor(stage);
  return series == nullptr ? LatencySummary{} : series->Summarize();
}

int64_t ServeMetrics::stage_count(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = SeriesFor(stage);
  return series == nullptr ? 0 : series->count;
}

int64_t ServeMetrics::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_.count;
}

int64_t ServeMetrics::cache_hits() const { return cache_hits_->Value(); }

int64_t ServeMetrics::cache_misses() const { return cache_misses_->Value(); }

int64_t ServeMetrics::rejected() const { return rejected_->Value(); }

double ServeMetrics::cache_hit_rate() const {
  const int64_t hits = cache_hits_->Value();
  const int64_t n = hits + cache_misses_->Value();
  return n == 0 ? 0.0 : static_cast<double>(hits) / n;
}

int64_t ServeMetrics::outcome_count(ServeOutcome outcome) const {
  return outcomes_[static_cast<int>(outcome)]->Value();
}

int64_t ServeMetrics::total_outcomes() const {
  int64_t total = 0;
  for (int i = 0; i < kNumServeOutcomes; ++i) total += outcomes_[i]->Value();
  return total;
}

int64_t ServeMetrics::shed() const {
  return outcomes_[static_cast<int>(ServeOutcome::kShed)]->Value();
}

int64_t ServeMetrics::deadline_exceeded() const {
  return outcomes_[static_cast<int>(ServeOutcome::kDeadlineExceeded)]->Value();
}

int64_t ServeMetrics::deadline_exceeded(const std::string& stage) const {
  return DeadlineStageCounter(stage).Value();
}

int64_t ServeMetrics::degraded() const {
  return degraded_stale_->Value() + degraded_fallback_->Value();
}

int64_t ServeMetrics::degraded_stale() const {
  return degraded_stale_->Value();
}

int64_t ServeMetrics::degraded_fallback() const {
  return degraded_fallback_->Value();
}

int64_t ServeMetrics::dynamic_updates() const {
  return dynamic_updates_->Value();
}

int64_t ServeMetrics::dynamic_incremental_hits() const {
  return dynamic_incremental_hits_->Value();
}

int64_t ServeMetrics::dynamic_full_recomputes() const {
  return dynamic_full_recomputes_->Value();
}

int64_t ServeMetrics::wl_colors() const {
  return static_cast<int64_t>(wl_colors_->Value());
}

int64_t ServeMetrics::num_batches() const { return batches_->Value(); }

double ServeMetrics::mean_batch_size() const {
  const int64_t batches = batches_->Value();
  return batches == 0
             ? 0.0
             : static_cast<double>(batch_items_->Value()) / batches;
}

std::map<int, int64_t> ServeMetrics::batch_size_histogram() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_sizes_;
}

size_t ServeMetrics::max_queue_depth() const {
  return static_cast<size_t>(max_queue_depth_->Value());
}

double ServeMetrics::mean_queue_depth() const {
  const int64_t samples = queue_depth_samples_->Value();
  return samples == 0
             ? 0.0
             : queue_depth_sum_->Value() / static_cast<double>(samples);
}

Table ServeMetrics::LatencyTable() const {
  Table table({"stage", "count", "p50_us", "p95_us", "p99_us", "mean_us",
               "max_us"});
  for (const char* stage : {"queue", "preprocess", "forward", "total"}) {
    LatencySummary s = Latency(stage);
    table.AddRow({stage, std::to_string(s.count), FormatMicros(s.p50),
                  FormatMicros(s.p95), FormatMicros(s.p99),
                  FormatMicros(s.mean), FormatMicros(s.max)});
  }
  return table;
}

Table ServeMetrics::SummaryTable() const {
  Table table({"metric", "value"});
  table.AddRow({"requests", std::to_string(requests())});
  table.AddRow({"rejected", std::to_string(rejected())});
  table.AddRow({"shed", std::to_string(shed())});
  table.AddRow({"deadline_exceeded", std::to_string(deadline_exceeded())});
  table.AddRow({"degraded_stale", std::to_string(degraded_stale())});
  table.AddRow({"degraded_fallback", std::to_string(degraded_fallback())});
  table.AddRow({"cache_hits", std::to_string(cache_hits())});
  table.AddRow({"cache_misses", std::to_string(cache_misses())});
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.1f%%", 100.0 * cache_hit_rate());
  table.AddRow({"cache_hit_rate", rate});
  table.AddRow({"batches", std::to_string(num_batches())});
  char mean_batch[32];
  std::snprintf(mean_batch, sizeof(mean_batch), "%.2f", mean_batch_size());
  table.AddRow({"mean_batch_size", mean_batch});
  table.AddRow({"max_queue_depth", std::to_string(max_queue_depth())});
  char mean_depth[32];
  std::snprintf(mean_depth, sizeof(mean_depth), "%.2f", mean_queue_depth());
  table.AddRow({"mean_queue_depth", mean_depth});
  return table;
}

ClusterMetrics::ClusterMetrics(obs::MetricsRegistry* registry,
                               size_t num_replicas) {
  obs::MetricsRegistry& r = *registry;
  dispatched_ = &r.GetCounter("deepmap_serve_cluster_dispatched_total",
                              "requests routed into replica queues");
  steals_ = &r.GetCounter("deepmap_serve_cluster_steals_total",
                          "steal operations by idle replicas");
  stolen_requests_ =
      &r.GetCounter("deepmap_serve_cluster_stolen_requests_total",
                    "requests moved between replica queues by stealing");
  continuous_admits_ =
      &r.GetCounter("deepmap_serve_cluster_continuous_admits_total",
                    "requests admitted into an already in-flight batch");
  tenant_sheds_ =
      &r.GetCounter("deepmap_serve_cluster_tenant_shed_total",
                    "requests shed by per-tenant fair-share admission");
  replica_batches_.reserve(num_replicas);
  replica_requests_.reserve(num_replicas);
  for (size_t i = 0; i < num_replicas; ++i) {
    const std::string prefix =
        "deepmap_serve_cluster_replica" + std::to_string(i);
    replica_batches_.push_back(&r.GetCounter(
        prefix + "_batches_total", "batches completed by this replica"));
    replica_requests_.push_back(&r.GetCounter(
        prefix + "_requests_total", "requests completed by this replica"));
  }
}

void ClusterMetrics::RecordDispatch() { dispatched_->Increment(); }

void ClusterMetrics::RecordSteal(int64_t stolen) {
  steals_->Increment();
  stolen_requests_->Increment(stolen);
}

void ClusterMetrics::RecordContinuousAdmit(int64_t admitted) {
  continuous_admits_->Increment(admitted);
}

void ClusterMetrics::RecordTenantShed() { tenant_sheds_->Increment(); }

void ClusterMetrics::RecordReplicaBatch(size_t replica, int64_t requests) {
  replica_batches_[replica]->Increment();
  replica_requests_[replica]->Increment(requests);
}

int64_t ClusterMetrics::dispatched() const { return dispatched_->Value(); }

int64_t ClusterMetrics::steals() const { return steals_->Value(); }

int64_t ClusterMetrics::stolen_requests() const {
  return stolen_requests_->Value();
}

int64_t ClusterMetrics::continuous_admits() const {
  return continuous_admits_->Value();
}

int64_t ClusterMetrics::tenant_sheds() const { return tenant_sheds_->Value(); }

int64_t ClusterMetrics::replica_batches(size_t replica) const {
  return replica_batches_[replica]->Value();
}

int64_t ClusterMetrics::replica_requests(size_t replica) const {
  return replica_requests_[replica]->Value();
}

HealthMetrics::HealthMetrics(obs::MetricsRegistry* registry,
                             size_t num_replicas) {
  obs::MetricsRegistry& r = *registry;
  hangs_ = &r.GetCounter("deepmap_serve_health_hangs_total",
                         "hung replica workers detected by the watchdog");
  crashes_ = &r.GetCounter("deepmap_serve_health_crashes_total",
                           "dead replica workers detected by the watchdog");
  restarts_ = &r.GetCounter("deepmap_serve_health_restarts_total",
                            "replica workers restarted by the supervisor");
  redispatched_ =
      &r.GetCounter("deepmap_serve_health_redispatched_total",
                    "requests re-dispatched away from failed replicas");
  quarantined_ =
      &r.GetCounter("deepmap_serve_health_quarantined_total",
                    "poison-pill requests answered degraded after repeated "
                    "replica failures");
  model_swaps_ = &r.GetCounter("deepmap_serve_reload_swaps_total",
                               "hot model swaps applied to the serving handle");
  unhealthy_ = &r.GetGauge("deepmap_serve_health_unhealthy_replicas",
                           "replicas currently marked unhealthy");
  replica_restarts_.reserve(num_replicas);
  for (size_t i = 0; i < num_replicas; ++i) {
    replica_restarts_.push_back(&r.GetCounter(
        "deepmap_serve_health_replica" + std::to_string(i) + "_restarts_total",
        "worker restarts of this replica"));
  }
}

void HealthMetrics::RecordHang() { hangs_->Increment(); }

void HealthMetrics::RecordCrash() { crashes_->Increment(); }

void HealthMetrics::RecordRestart(size_t replica) {
  restarts_->Increment();
  if (replica < replica_restarts_.size()) {
    replica_restarts_[replica]->Increment();
  }
}

void HealthMetrics::RecordRedispatched(int64_t n) {
  redispatched_->Increment(n);
}

void HealthMetrics::RecordQuarantined() { quarantined_->Increment(); }

void HealthMetrics::RecordModelSwap() { model_swaps_->Increment(); }

void HealthMetrics::AddUnhealthy(int delta) {
  unhealthy_->Add(static_cast<double>(delta));
}

int64_t HealthMetrics::hangs() const { return hangs_->Value(); }

int64_t HealthMetrics::crashes() const { return crashes_->Value(); }

int64_t HealthMetrics::restarts() const { return restarts_->Value(); }

int64_t HealthMetrics::replica_restarts(size_t replica) const {
  return replica_restarts_[replica]->Value();
}

int64_t HealthMetrics::redispatched() const { return redispatched_->Value(); }

int64_t HealthMetrics::quarantined() const { return quarantined_->Value(); }

int64_t HealthMetrics::model_swaps() const { return model_swaps_->Value(); }

int64_t HealthMetrics::unhealthy_replicas() const {
  return static_cast<int64_t>(unhealthy_->Value());
}

void ServeMetrics::Print(std::ostream& os) const {
  os << "Per-stage latency (cache hits excluded from pipeline stages):\n";
  LatencyTable().Print(os);
  os << "\nServing summary:\n";
  SummaryTable().Print(os);
}

}  // namespace deepmap::serve
