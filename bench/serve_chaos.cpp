// Serving under injected faults: a fault-rate sweep and a supervision
// scenario, written to BENCH_serve_chaos.json.
//
//   $ ./build/bench/serve_chaos [--requests=N] [--epochs=N] [--dataset=NAME]
//                               [--out=BENCH_serve_chaos.json] [--full]
//
// Trains a small DEEPMAP-WL model, then
//   (a) sweeps injected preprocessing-fault probabilities over a saturating
//       producer with per-request deadlines, a one-replica cluster with a
//       small queue (64) and degraded mode on, reporting the outcome mix and
//       latency percentiles per fault rate. Overload shows up as `rejected`
//       (queue full). The headline: every submitted request resolves,
//       throughput degrades smoothly, and no outcome goes unaccounted.
//   (b) serves a burst on 4 replicas while one worker hangs and another is
//       killed mid-burst. Gates: no request surfaces an error, both
//       failures are detected, both workers restart and rejoin, and p99
//       stays inside the 5 s deadline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "nn/model.h"
#include "serve/cluster.h"
#include "serve/metrics.h"

using namespace deepmap;

namespace {

struct BenchArgs {
  int requests = 512;
  int epochs = 3;
  std::string dataset = "PTC_MM";
  std::string out = "BENCH_serve_chaos.json";
};

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  const char* env_full = std::getenv("DEEPMAP_BENCH_FULL");
  bool full = env_full != nullptr && std::strcmp(env_full, "1") == 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out = arg.substr(6);
    } else if (arg.rfind("--requests=", 0) == 0) {
      args.requests = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--epochs=", 0) == 0) {
      args.epochs = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--dataset=", 0) == 0) {
      args.dataset = arg.substr(10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (full) {
    args.requests = 10000;
    args.epochs = 10;
  }
  return args;
}

std::string Fmt(double v, const char* spec = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

struct ChaosRun {
  double fault_probability = 0.0;
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t deadline_exceeded = 0;
  int64_t rejected = 0;
  int64_t error = 0;
  int64_t faults_fired = 0;
  double graphs_per_sec = 0.0;
  /// Rate the producer pushed requests at (submissions / submit-loop time)
  /// vs the rate the cluster actually resolved them end to end.
  double offered_qps = 0.0;
  double sustained_qps = 0.0;
  /// Fraction of submissions dropped at admission (shed + rejected).
  double shed_rate = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// Deterministic seed of the chaos sweep's fault-injection RNG stream.
constexpr uint64_t kFaultSeed = 0xc4a05;

ChaosRun RunChaos(const std::shared_ptr<serve::ServableModel>& servable,
                  const std::vector<const graph::Graph*>& requests,
                  double fault_probability) {
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisableAll();
  if (fault_probability > 0.0) {
    registry.Enable("serve.preprocess",
                    FailPointSpec::Probability(fault_probability, kFaultSeed));
  }

  // Overload-shaped configuration: one replica whose queue is much smaller
  // than the request stream, per-request deadlines, degraded mode on.
  serve::ServeCluster::Options options;
  options.num_replicas = 1;
  options.replica.max_batch = 16;
  options.replica.queue_capacity = 64;
  options.replica.enable_degraded = true;
  options.cache_capacity = 0;  // every request exercises the faulty stage
  serve::ServeCluster cluster(servable, options);

  Stopwatch timer;
  std::vector<std::future<StatusOr<serve::Prediction>>> futures;
  futures.reserve(requests.size());
  for (const graph::Graph* g : requests) {
    // Saturating producer: submit as fast as possible, each request with a
    // generous-but-finite deadline.
    futures.push_back(cluster.Submit(
        *g, serve::RequestOptions::WithDeadline(std::chrono::seconds(5))));
  }
  const double submit_elapsed = timer.ElapsedSeconds();
  int64_t resolved = 0;
  for (auto& f : futures) {
    (void)f.get();  // every future must resolve — ok or typed error
    ++resolved;
  }
  const double elapsed = timer.ElapsedSeconds();
  cluster.Drain();
  // Counters die with the fail point, so snapshot before disarming.
  const int64_t faults_fired = registry.triggers("serve.preprocess");
  registry.DisableAll();

  const serve::ServeMetrics& m = cluster.metrics();
  ChaosRun run;
  run.fault_probability = fault_probability;
  run.submitted = static_cast<int64_t>(requests.size());
  run.ok = m.outcome_count(serve::ServeOutcome::kOk);
  run.degraded = m.outcome_count(serve::ServeOutcome::kDegraded);
  run.shed = m.outcome_count(serve::ServeOutcome::kShed);
  run.deadline_exceeded =
      m.outcome_count(serve::ServeOutcome::kDeadlineExceeded);
  run.rejected = m.outcome_count(serve::ServeOutcome::kRejected);
  run.error = m.outcome_count(serve::ServeOutcome::kError);
  run.faults_fired = faults_fired;
  run.graphs_per_sec = static_cast<double>(resolved) / elapsed;
  run.offered_qps = static_cast<double>(run.submitted) / submit_elapsed;
  // Sustained = requests actually answered with a usable prediction.
  run.sustained_qps = static_cast<double>(run.ok + run.degraded) / elapsed;
  run.shed_rate = run.submitted > 0
                      ? static_cast<double>(run.shed + run.rejected) /
                            static_cast<double>(run.submitted)
                      : 0.0;
  serve::LatencySummary latency = m.Latency("total");
  run.p50_us = latency.p50;
  run.p95_us = latency.p95;
  run.p99_us = latency.p99;
  if (m.total_outcomes() != run.submitted) {
    std::fprintf(stderr,
                 "outcome accounting violated: %lld outcomes for %lld "
                 "submissions\n",
                 static_cast<long long>(m.total_outcomes()),
                 static_cast<long long>(run.submitted));
    std::exit(1);
  }
  return run;
}

// Supervision chaos: one replica of four hangs and another is killed
// mid-burst; the Supervisor must recover every in-flight request onto
// healthy siblings (zero lost, zero duplicate replies), restart both
// failed workers, and have them rejoin for a post-recovery wave.
struct SupervisionChaosRun {
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t rejected = 0;
  int64_t error = 0;
  int64_t hangs = 0;
  int64_t crashes = 0;
  int64_t restarts = 0;
  int64_t redispatched = 0;
  int64_t quarantined = 0;
  int64_t recovery_wave_ok = 0;
  bool replicas_rejoined = false;
  double p99_us = 0.0;
};

SupervisionChaosRun RunSupervisionChaos(
    const std::shared_ptr<serve::ServableModel>& servable,
    const std::vector<const graph::Graph*>& requests) {
  FailPointRegistry& registry = FailPointRegistry::Instance();
  registry.DisableAll();

  serve::ServeCluster::Options options;
  options.num_replicas = 4;
  options.replica.max_batch = 16;
  options.replica.queue_capacity = 128;
  options.replica.num_threads = 1;
  options.cache_capacity = 0;  // every request rides a replica queue
  options.supervision.check_interval = std::chrono::milliseconds(1);
  options.supervision.hang_timeout = std::chrono::milliseconds(50);
  options.supervision.restart_backoff_initial = std::chrono::milliseconds(5);
  serve::ServeCluster cluster(servable, options);

  // The first batch popped anywhere stalls its worker; the next pop (a
  // different worker — the first is stalled) kills its thread outright.
  // Both land mid-burst: the submit loop below outruns the pipeline.
  registry.Enable("serve.replica.hang", FailPointSpec::Once());
  registry.Enable("serve.replica.crash", FailPointSpec::Once());

  SupervisionChaosRun run;
  run.submitted = static_cast<int64_t>(requests.size());
  std::vector<std::future<StatusOr<serve::Prediction>>> futures;
  futures.reserve(requests.size());
  for (const graph::Graph* g : requests) {
    futures.push_back(cluster.Submit(
        *g, serve::RequestOptions::WithDeadline(std::chrono::seconds(5))));
  }
  // Zero lost replies: every future resolves despite two dead workers.
  for (auto& f : futures) (void)f.get();
  cluster.Drain();
  registry.DisableAll();

  // Both failed workers restart (backoff is ms-scale) and report healthy.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster.health_metrics().restarts() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.replicas_rejoined = cluster.health_metrics().restarts() >= 2;
  for (size_t i = 0; i < cluster.num_replicas(); ++i) {
    if (cluster.replica(i).health() != serve::ReplicaHealth::kHealthy) {
      run.replicas_rejoined = false;
    }
  }

  // Post-recovery wave: the restarted replicas serve traffic again.
  const size_t wave = std::min<size_t>(requests.size(), 64);
  std::vector<std::future<StatusOr<serve::Prediction>>> recovery;
  recovery.reserve(wave);
  for (size_t i = 0; i < wave; ++i) {
    recovery.push_back(cluster.Submit(*requests[i]));
  }
  for (auto& f : recovery) {
    auto r = f.get();
    if (r.ok()) ++run.recovery_wave_ok;
  }
  cluster.Drain();

  const serve::ServeMetrics& m = cluster.metrics();
  run.ok = m.outcome_count(serve::ServeOutcome::kOk);
  run.degraded = m.outcome_count(serve::ServeOutcome::kDegraded);
  run.rejected = m.outcome_count(serve::ServeOutcome::kRejected);
  run.error = m.outcome_count(serve::ServeOutcome::kError);
  run.hangs = cluster.health_metrics().hangs();
  run.crashes = cluster.health_metrics().crashes();
  run.restarts = cluster.health_metrics().restarts();
  run.redispatched = cluster.health_metrics().redispatched();
  run.quarantined = cluster.health_metrics().quarantined();
  run.p99_us = m.Latency("total").p99;

  // Zero duplicate replies: outcomes exactly account for every submission
  // (a double completion would abort on the promise before getting here).
  const int64_t total_submitted =
      run.submitted + static_cast<int64_t>(wave);
  if (m.total_outcomes() != total_submitted) {
    std::fprintf(stderr,
                 "supervision accounting violated: %lld outcomes for %lld "
                 "submissions\n",
                 static_cast<long long>(m.total_outcomes()),
                 static_cast<long long>(total_submitted));
    std::exit(1);
  }
  return run;
}

int RunChaosBench(const BenchArgs& args,
                  const std::shared_ptr<serve::ServableModel>& servable,
                  const std::vector<const graph::Graph*>& requests) {
  const std::vector<double> probabilities = {0.0, 0.05, 0.1, 0.2, 0.4};
  std::vector<ChaosRun> runs;
  Table table({"fault p", "ok", "degraded", "shed", "deadline", "rejected",
               "error", "graphs/sec", "p95 us"});
  for (double p : probabilities) {
    ChaosRun run = RunChaos(servable, requests, p);
    table.AddRow({Fmt(p, "%.2f"), std::to_string(run.ok),
                  std::to_string(run.degraded), std::to_string(run.shed),
                  std::to_string(run.deadline_exceeded),
                  std::to_string(run.rejected), std::to_string(run.error),
                  Fmt(run.graphs_per_sec), Fmt(run.p95_us)});
    runs.push_back(run);
  }
  std::printf("chaos sweep: %zu requests per fault rate, every future "
              "resolved, outcomes fully accounted\n\n",
              requests.size());
  table.Print(std::cout);

  // Supervision scenario: 1 of 4 replicas hung + 1 killed mid-burst.
  SupervisionChaosRun sup = RunSupervisionChaos(servable, requests);
  std::printf(
      "\nsupervision chaos (4 replicas, 1 hung + 1 killed mid-burst): "
      "%lld/%lld ok, %lld degraded, %lld re-dispatched, %lld quarantined, "
      "%lld restarts, recovery wave %lld ok, p99 %.1f us\n",
      static_cast<long long>(sup.ok),
      static_cast<long long>(sup.submitted + 64),
      static_cast<long long>(sup.degraded),
      static_cast<long long>(sup.redispatched),
      static_cast<long long>(sup.quarantined),
      static_cast<long long>(sup.restarts),
      static_cast<long long>(sup.recovery_wave_ok), sup.p99_us);

  // Acceptance gates: no reply lost to a dead replica (error == 0 — every
  // recovered request was answered, degraded at worst), both workers
  // restarted and rejoined, and recovery kept p99 inside the deadline.
  if (sup.error != 0) {
    std::fprintf(stderr, "gate failed: %lld requests surfaced errors\n",
                 static_cast<long long>(sup.error));
    return 1;
  }
  if (sup.hangs + sup.crashes < 2) {
    std::fprintf(stderr,
                 "gate failed: expected 1 hang + 1 crash, saw %lld + %lld\n",
                 static_cast<long long>(sup.hangs),
                 static_cast<long long>(sup.crashes));
    return 1;
  }
  if (!sup.replicas_rejoined) {
    std::fprintf(stderr, "gate failed: failed replicas did not rejoin\n");
    return 1;
  }
  if (sup.p99_us >= 5e6) {
    std::fprintf(stderr, "gate failed: supervision p99 %.1f us >= deadline\n",
                 sup.p99_us);
    return 1;
  }

  using bench::JsonValue;
  JsonValue doc = bench::BenchDoc("serve_chaos");
  doc.Obj("flags")
      .Set("dataset", args.dataset)
      .Set("requests_per_run", requests.size());
  doc.Obj("seeds").Set("fault", int64_t{kFaultSeed});
  JsonValue& out_runs = doc.Arr("runs");
  for (const ChaosRun& r : runs) {
    out_runs.Push(JsonValue::Object()
                      .Set("fault_probability", r.fault_probability)
                      .Set("submitted", r.submitted)
                      .Set("ok", r.ok)
                      .Set("degraded", r.degraded)
                      .Set("shed", r.shed)
                      .Set("deadline_exceeded", r.deadline_exceeded)
                      .Set("rejected", r.rejected)
                      .Set("error", r.error)
                      .Set("faults_fired", r.faults_fired)
                      .Set("graphs_per_sec", JsonValue::Fixed(r.graphs_per_sec, 1))
                      .Set("offered_qps", JsonValue::Fixed(r.offered_qps, 1))
                      .Set("sustained_qps", JsonValue::Fixed(r.sustained_qps, 1))
                      .Set("shed_rate", JsonValue::Fixed(r.shed_rate, 4))
                      .Set("p50_us", JsonValue::Fixed(r.p50_us, 1))
                      .Set("p95_us", JsonValue::Fixed(r.p95_us, 1))
                      .Set("p99_us", JsonValue::Fixed(r.p99_us, 1)));
  }
  doc.Obj("supervision")
      .Set("replicas", 4)
      .Set("scenario", std::string("1 hung + 1 killed mid-burst"))
      .Set("submitted", sup.submitted)
      .Set("ok", sup.ok)
      .Set("degraded", sup.degraded)
      .Set("rejected", sup.rejected)
      .Set("error", sup.error)
      .Set("hangs", sup.hangs)
      .Set("crashes", sup.crashes)
      .Set("restarts", sup.restarts)
      .Set("redispatched", sup.redispatched)
      .Set("quarantined", sup.quarantined)
      .Set("recovery_wave_ok", sup.recovery_wave_ok)
      .Set("replicas_rejoined", sup.replicas_rejoined)
      .Set("p99_us", JsonValue::Fixed(sup.p99_us, 1));
  if (!bench::WriteBenchFile(args.out, doc)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseArgs(argc, argv);

  datasets::DatasetOptions options;
  options.min_graphs = 40;
  auto dataset_or = datasets::MakeDataset(args.dataset, options);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "%s\n", dataset_or.status().ToString().c_str());
    return 1;
  }
  const graph::GraphDataset& dataset = dataset_or.value();

  core::DeepMapConfig config;
  config.features.kind = kernels::FeatureMapKind::kWlSubtree;
  config.features.wl.iterations = 2;
  config.features.max_dense_dim = 64;
  config.train.epochs = args.epochs;
  config.train.batch_size = 8;

  core::DeepMapPipeline pipeline(dataset, config);
  core::DeepMapModel model(pipeline.feature_dim(), pipeline.sequence_length(),
                           pipeline.num_classes(), config);
  nn::TrainClassifier(model, pipeline.inputs(), dataset.labels(),
                      config.train);
  std::printf("%s: %d graphs, m=%d, w=%d, serving %d requests\n\n",
              dataset.name().c_str(), dataset.size(), pipeline.feature_dim(),
              pipeline.sequence_length(), args.requests);

  serve::ModelRegistry registry;
  if (Status s = registry.Adopt("bench", dataset, config, model); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::shared_ptr<serve::ServableModel> servable = registry.Get("bench");

  // The request stream cycles over the dataset's graphs.
  std::vector<const graph::Graph*> requests;
  requests.reserve(static_cast<size_t>(args.requests));
  for (int i = 0; i < args.requests; ++i) {
    requests.push_back(&dataset.graph(i % dataset.size()));
  }

  return RunChaosBench(args, servable, requests);
}
