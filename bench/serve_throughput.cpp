// Serving throughput: a batched ServeCluster vs the unbatched single-request
// path.
//
//   $ ./build/bench/serve_throughput [--requests=N] [--epochs=N] [--full]
//   $ ./build/bench/serve_throughput --chaos [--out=BENCH_serve_chaos.json]
//   $ ./build/bench/serve_throughput --cluster [--out=BENCH_serve_cluster.json]
//
// Default mode trains a small DEEPMAP-WL model, then serves the same request
// stream
//   (a) through the offline single-request path (BuildDeepMapInput +
//       DeepMapModel::Forward, one graph at a time),
//   (b) through a one-replica ServeCluster at max_batch {1, 8, 32, 128}
//       with the prediction cache disabled, and
//   (c) through that cluster with a warm prediction cache.
// Reports graphs/sec and the speedup over (a). The acceptance target is
// >= 3x at batch >= 32; the warm-cache pass additionally shows preprocessing
// being skipped entirely (stage counts stop growing).
//
// --chaos sweeps injected preprocessing-fault probabilities over a
// saturating producer with per-request deadlines, a one-replica cluster
// with a small queue (64) and degraded mode on, reporting the outcome mix
// and latency percentiles per fault rate and writing BENCH_serve_chaos.json.
// Overload shows up as `rejected` (queue full). The headline: every
// submitted request resolves, throughput degrades smoothly, and no outcome
// goes unaccounted.
//
// --cluster replays a 256-request overload burst through ServeClusters of
// 1, 2, and 4 replicas, five times per configuration (interleaved, so a slow
// phase of the host spreads over all three), reporting offered vs
// sustained QPS and the shed rate per configuration and writing the median
// and quartiles of every field to BENCH_serve_cluster.json. Gates, on every
// run: the 4-replica cluster absorbs the burst (shed rate < 2%, p99 inside
// the 5 s deadline) and its predictions are byte-identical to the
// one-replica cluster's.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "common/parallel.h"
#include "nn/model.h"
#include "serve/cluster.h"
#include "serve/metrics.h"

using namespace deepmap;

namespace {

struct BenchArgs {
  int requests = 512;
  bool requests_set = false;
  int epochs = 3;
  std::string dataset = "PTC_MM";
  bool chaos = false;
  bool cluster = false;
  std::string out;
  bool out_set = false;
};

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  const char* env_full = std::getenv("DEEPMAP_BENCH_FULL");
  bool full = env_full != nullptr && std::strcmp(env_full, "1") == 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg == "--chaos") {
      args.chaos = true;
    } else if (arg == "--cluster") {
      args.cluster = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out = arg.substr(6);
      args.out_set = true;
    } else if (arg.rfind("--requests=", 0) == 0) {
      args.requests = std::atoi(arg.c_str() + 11);
      args.requests_set = true;
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
    args.requests_set = true;
  }
  // The cluster acceptance scenario is pinned at a 256-request burst (far
  // more than one replica's queue holds).
  if (args.cluster && !args.requests_set) args.requests = 256;
  if (!args.out_set) {
    args.out = args.cluster ? "BENCH_serve_cluster.json"
                            : "BENCH_serve_chaos.json";
  }
  return args;
}

std::string Fmt(double v, const char* spec = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

struct SweepRun {
  double graphs_per_sec = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t preprocess_count = 0;
  int64_t requests = 0;
  std::string latency_report;  // per-stage latency table (timed pass only)
};

/// One sweep row: a one-replica cluster whose pool uses every core.
SweepRun RunSweep(const std::shared_ptr<serve::ServableModel>& servable,
                  const std::vector<const graph::Graph*>& requests,
                  int max_batch, size_t cache_capacity) {
  serve::ServeCluster::Options options;
  options.num_replicas = 1;
  options.replica.max_batch = max_batch;
  options.replica.queue_capacity = requests.size() + 16;
  options.replica.num_threads = DefaultNumThreads();
  options.cache_capacity = cache_capacity;
  serve::ServeCluster cluster(servable, options);

  // Warm-cache mode: a first pass populates the cache, the timed pass hits.
  if (cache_capacity > 0) {
    std::vector<std::future<StatusOr<serve::Prediction>>> warmup;
    warmup.reserve(requests.size());
    for (const graph::Graph* g : requests) warmup.push_back(cluster.Submit(*g));
    for (auto& f : warmup) f.get();
  }

  Stopwatch timer;
  std::vector<std::future<StatusOr<serve::Prediction>>> futures;
  futures.reserve(requests.size());
  for (const graph::Graph* g : requests) futures.push_back(cluster.Submit(*g));
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      std::fprintf(stderr, "serve error: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double elapsed = timer.ElapsedSeconds();

  SweepRun run;
  run.graphs_per_sec = static_cast<double>(requests.size()) / elapsed;
  run.cache_hits = cluster.metrics().cache_hits();
  run.cache_misses = cluster.metrics().cache_misses();
  run.preprocess_count = cluster.metrics().stage_count("preprocess");
  run.requests = cluster.metrics().requests();
  std::ostringstream report;
  cluster.metrics().Print(report);
  run.latency_report = report.str();
  return run;
}

// ---------------------------------------------------------------------------
// Chaos mode

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

// ---------------------------------------------------------------------------
// Cluster mode: a 256-request overload burst replayed through ServeClusters
// of 1, 2, and 4 replicas.

/// Per-replica configuration of the cluster runs (echoed under "flags").
constexpr int kClusterRepeats = 5;
constexpr int kClusterMaxBatch = 16;
constexpr size_t kClusterQueueCapacity = 128;
constexpr size_t kClusterReplicaThreads = 1;

struct ClusterRun {
  std::string label;
  int replicas = 0;
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t deadline_exceeded = 0;
  int64_t rejected = 0;
  int64_t error = 0;
  double offered_qps = 0.0;
  double sustained_qps = 0.0;
  double shed_rate = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  int64_t steals = 0;
  int64_t continuous_admits = 0;
};

void FinishClusterRun(ClusterRun* run, const serve::ServeMetrics& m,
                      double submit_elapsed, double elapsed) {
  run->ok = m.outcome_count(serve::ServeOutcome::kOk);
  run->degraded = m.outcome_count(serve::ServeOutcome::kDegraded);
  run->shed = m.outcome_count(serve::ServeOutcome::kShed);
  run->deadline_exceeded =
      m.outcome_count(serve::ServeOutcome::kDeadlineExceeded);
  run->rejected = m.outcome_count(serve::ServeOutcome::kRejected);
  run->error = m.outcome_count(serve::ServeOutcome::kError);
  run->offered_qps = static_cast<double>(run->submitted) / submit_elapsed;
  run->sustained_qps =
      static_cast<double>(run->ok + run->degraded) / elapsed;
  run->shed_rate = run->submitted > 0
                       ? static_cast<double>(run->shed + run->rejected) /
                             static_cast<double>(run->submitted)
                       : 0.0;
  serve::LatencySummary latency = m.Latency("total");
  run->p50_us = latency.p50;
  run->p95_us = latency.p95;
  run->p99_us = latency.p99;
  if (m.total_outcomes() != run->submitted) {
    std::fprintf(stderr,
                 "outcome accounting violated in %s: %lld outcomes for %lld "
                 "submissions\n",
                 run->label.c_str(),
                 static_cast<long long>(m.total_outcomes()),
                 static_cast<long long>(run->submitted));
    std::exit(1);
  }
}

ClusterRun RunCluster(const std::shared_ptr<serve::ServableModel>& servable,
                      const std::vector<const graph::Graph*>& requests,
                      size_t replicas) {
  serve::ServeCluster::Options options;
  options.num_replicas = replicas;
  options.replica.max_batch = kClusterMaxBatch;
  options.replica.queue_capacity = kClusterQueueCapacity;
  options.replica.num_threads = kClusterReplicaThreads;
  options.cache_capacity = 0;  // every request exercises the full pipeline
  serve::ServeCluster cluster(servable, options);

  ClusterRun run;
  run.label = "cluster x " + std::to_string(replicas);
  run.replicas = static_cast<int>(replicas);
  run.submitted = static_cast<int64_t>(requests.size());
  Stopwatch timer;
  std::vector<std::future<StatusOr<serve::Prediction>>> futures;
  futures.reserve(requests.size());
  for (const graph::Graph* g : requests) {
    futures.push_back(cluster.Submit(
        *g, serve::RequestOptions::WithDeadline(std::chrono::seconds(5))));
  }
  const double submit_elapsed = timer.ElapsedSeconds();
  for (auto& f : futures) (void)f.get();
  const double elapsed = timer.ElapsedSeconds();
  cluster.Drain();
  FinishClusterRun(&run, cluster.metrics(), submit_elapsed, elapsed);
  run.steals = cluster.cluster_metrics().steals();
  run.continuous_admits = cluster.cluster_metrics().continuous_admits();
  return run;
}

/// Byte-compares per-class probabilities of an uncontended one-replica
/// cluster against a 4-replica cluster over distinct dataset graphs (caches
/// off on both).
bool ClusterLogitsMatchSingleReplica(
    const std::shared_ptr<serve::ServableModel>& servable,
    const graph::GraphDataset& dataset) {
  serve::ServeCluster::Options options;
  options.replica.num_threads = 1;
  options.cache_capacity = 0;
  options.num_replicas = 1;
  serve::ServeCluster single(servable, options);
  options.num_replicas = 4;
  serve::ServeCluster cluster(servable, options);

  const int n = std::min(dataset.size(), 32);
  for (int i = 0; i < n; ++i) {
    auto from_single = single.Submit(dataset.graph(i)).get();
    auto from_cluster = cluster.Submit(dataset.graph(i)).get();
    if (!from_single.ok() || !from_cluster.ok()) return false;
    const auto& pe = from_single.value().probabilities;
    const auto& pc = from_cluster.value().probabilities;
    if (pe.size() != pc.size()) return false;
    if (!pe.empty() &&
        std::memcmp(pe.data(), pc.data(), pe.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Median and quartiles of one field over the repeats of a configuration.
struct Spread {
  double median, q1, q3;
};

Spread SpreadOf(const std::vector<ClusterRun>& repeats,
                double (*field)(const ClusterRun&)) {
  std::vector<double> samples;
  for (const ClusterRun& r : repeats) samples.push_back(field(r));
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    return samples[serve::NearestRankIndex(samples.size(), q)];
  };
  return {at(0.50), at(0.25), at(0.75)};
}

/// Applies the acceptance gates to one 4-replica run: the burst is absorbed
/// (shed rate under 2%) with p99 inside the 5 s deadline budget.
bool PassesGates(const ClusterRun& four, int repeat) {
  if (four.shed_rate >= 0.02) {
    std::fprintf(stderr,
                 "gate failed (run %d): 4-replica shed rate %.4f >= 0.02\n",
                 repeat, four.shed_rate);
    return false;
  }
  if (four.p99_us >= 5e6) {
    std::fprintf(stderr, "gate failed (run %d): 4-replica p99 %.1f us >= "
                 "deadline\n", repeat, four.p99_us);
    return false;
  }
  return true;
}

int RunClusterBench(const BenchArgs& args,
                    const std::shared_ptr<serve::ServableModel>& servable,
                    const graph::GraphDataset& dataset,
                    const std::vector<const graph::Graph*>& requests) {
  const size_t kReplicaCounts[] = {1, 2, 4};
  // repeats[c] holds every run of configuration c.
  std::vector<std::vector<ClusterRun>> repeats(std::size(kReplicaCounts));
  for (int repeat = 0; repeat < kClusterRepeats; ++repeat) {
    if (!ClusterLogitsMatchSingleReplica(servable, dataset)) {
      std::fprintf(stderr,
                   "run %d: 4-replica predictions diverge from the "
                   "one-replica cluster's\n", repeat);
      return 1;
    }
    for (size_t c = 0; c < std::size(kReplicaCounts); ++c) {
      repeats[c].push_back(RunCluster(servable, requests, kReplicaCounts[c]));
    }
    if (!PassesGates(repeats.back().back(), repeat)) return 1;
  }

  // Fields of a run, with the decimals they are recorded at.
  struct Field {
    const char* name;
    double (*get)(const ClusterRun&);
    int decimals;
  };
  const Field fields[] = {
      {"submitted", [](const ClusterRun& r) { return double(r.submitted); }, 0},
      {"ok", [](const ClusterRun& r) { return double(r.ok); }, 0},
      {"degraded", [](const ClusterRun& r) { return double(r.degraded); }, 0},
      {"shed", [](const ClusterRun& r) { return double(r.shed); }, 0},
      {"deadline_exceeded",
       [](const ClusterRun& r) { return double(r.deadline_exceeded); }, 0},
      {"rejected", [](const ClusterRun& r) { return double(r.rejected); }, 0},
      {"error", [](const ClusterRun& r) { return double(r.error); }, 0},
      {"offered_qps", [](const ClusterRun& r) { return r.offered_qps; }, 1},
      {"sustained_qps", [](const ClusterRun& r) { return r.sustained_qps; }, 1},
      {"shed_rate", [](const ClusterRun& r) { return r.shed_rate; }, 4},
      {"p50_us", [](const ClusterRun& r) { return r.p50_us; }, 1},
      {"p95_us", [](const ClusterRun& r) { return r.p95_us; }, 1},
      {"p99_us", [](const ClusterRun& r) { return r.p99_us; }, 1},
      {"steals", [](const ClusterRun& r) { return double(r.steals); }, 0},
      {"continuous_admits",
       [](const ClusterRun& r) { return double(r.continuous_admits); }, 0},
  };

  // Console: one row per field, "median [q1, q3]" per configuration.
  std::vector<std::string> header = {"field"};
  for (const std::vector<ClusterRun>& runs : repeats) {
    header.push_back(runs.front().label);
  }
  Table table(header);
  for (const Field& f : fields) {
    std::vector<std::string> row = {f.name};
    for (const std::vector<ClusterRun>& runs : repeats) {
      const Spread spread = SpreadOf(runs, f.get);
      const std::string spec = "%." + std::to_string(f.decimals) + "f";
      row.push_back(Fmt(spread.median, spec.c_str()) + " [" +
                    Fmt(spread.q1, spec.c_str()) + ", " +
                    Fmt(spread.q3, spec.c_str()) + "]");
    }
    table.AddRow(row);
  }
  std::printf("cluster overload burst: %zu requests, %d runs per "
              "configuration, median [q1, q3]; 4-replica logits "
              "bit-identical to the one-replica cluster's on every run\n\n",
              requests.size(), kClusterRepeats);
  table.Print(std::cout);

  using bench::JsonValue;
  JsonValue doc = bench::BenchDoc("serve_cluster");
  doc.Obj("flags")
      .Set("dataset", args.dataset)
      .Set("epochs", args.epochs)
      .Set("requests", requests.size())
      .Set("repeats", kClusterRepeats)
      .Set("deadline_us", 5000000)
      .Set("max_batch", kClusterMaxBatch)
      .Set("replica_queue_capacity", kClusterQueueCapacity)
      .Set("replica_threads", kClusterReplicaThreads);
  doc.Set("logits_bit_identical", true);
  JsonValue& out_runs = doc.Arr("runs");
  for (const std::vector<ClusterRun>& runs : repeats) {
    JsonValue row = JsonValue::Object()
                        .Set("config", runs.front().label)
                        .Set("replicas", runs.front().replicas);
    for (const Field& f : fields) {
      const Spread spread = SpreadOf(runs, f.get);
      row.Set(f.name,
              JsonValue::Object()
                  .Set("median", JsonValue::Fixed(spread.median, f.decimals))
                  .Set("q1", JsonValue::Fixed(spread.q1, f.decimals))
                  .Set("q3", JsonValue::Fixed(spread.q3, f.decimals)));
    }
    out_runs.Push(std::move(row));
  }
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

  if (args.chaos) return RunChaosBench(args, servable, requests);
  if (args.cluster) return RunClusterBench(args, servable, dataset, requests);

  // (a) Unbatched single-request baseline: the offline path, one graph at a
  // time (per-request input build + training-stack forward).
  Stopwatch baseline_timer;
  for (int i = 0; i < args.requests; ++i) {
    const int graph_index = i % dataset.size();
    nn::Tensor input = core::BuildDeepMapInput(
        dataset.graph(graph_index), pipeline.features(), graph_index,
        pipeline.sequence_length(), config.receptive_field_size,
        config.alignment, nullptr);
    nn::Tensor logits = model.Forward(input, false);
    (void)logits;
  }
  const double baseline =
      static_cast<double>(args.requests) / baseline_timer.ElapsedSeconds();

  Table table({"configuration", "graphs/sec", "speedup"});
  table.AddRow({"unbatched offline path", Fmt(baseline), "1.0x"});

  std::string batch32_report;
  for (int batch : {1, 8, 32, 128}) {
    SweepRun run = RunSweep(servable, requests, batch, /*cache_capacity=*/0);
    if (batch == 32) batch32_report = run.latency_report;
    table.AddRow({"cluster x 1, batch=" + std::to_string(batch),
                  Fmt(run.graphs_per_sec),
                  Fmt(run.graphs_per_sec / baseline, "%.1fx")});
  }

  SweepRun warm = RunSweep(servable, requests, 32, /*cache_capacity=*/4096);
  table.AddRow({"cluster x 1, batch=32, warm cache", Fmt(warm.graphs_per_sec),
                Fmt(warm.graphs_per_sec / baseline, "%.1fx")});
  table.Print(std::cout);

  std::printf("\nbatch=32 run:\n%s", batch32_report.c_str());
  std::printf(
      "\nwarm-cache run: %lld hits / %lld misses; preprocess ran %lld times "
      "for %lld requests (hits skip it)\n",
      static_cast<long long>(warm.cache_hits),
      static_cast<long long>(warm.cache_misses),
      static_cast<long long>(warm.preprocess_count),
      static_cast<long long>(warm.requests));
  return 0;
}
