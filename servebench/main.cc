// servebench: the repository's serve-path benchmark.
//
//   servebench train --workload NAME --out PARAMS
//   servebench run --workload NAME --seed N --seconds S --trace 0|1
//                  --params PARAMS [--trace-out PATH]
//
// `train` fits the workload's DEEPMAP model on its seed-42 reference set and
// writes the parameters (the benchmark's own set-up, never timed). `run`
// loads them into a ServeCluster several times (setup_s), drives the
// workload's traffic for S seconds, recomputes every served answer as
// Predict(Preprocess(g)) on the same servable, checks the outcome
// accounting against ServeMetrics, and prints one JSON result as its last
// line: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which adds the traced single-threaded replay, see replay.h).
// Exits 1 when an output, accounting or attribution check fails.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/deepmap.h"
#include "nn/model.h"
#include "nn/serialization.h"
#include "replay.h"
#include "serve/cluster.h"
#include "serve/model_registry.h"
#include "serve/prediction_cache.h"
#include "stats.h"
#include "traffic.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

namespace serve = deepmap::serve;
using deepmap::Status;
using deepmap::StatusCode;
using deepmap::StatusOr;
using deepmap::graph::Graph;

/// Set-ups timed before the traffic and again after it; setup_s is the
/// median of all of them. Sampling both ends of a run averages over the
/// host's drift during it.
constexpr int kSetupRepeats = 20;
/// Latency is summarized per block of this many consecutive requests (10
/// samples beyond each block's p99) and reported as the median over blocks.
constexpr size_t kLatencyBlock = 1000;
/// Threads that wait on reply futures and timestamp completions. They block
/// on the futures, so they add no busy threads.
constexpr size_t kWaiters = 8;
/// Worker threads of the output check (after the measured phases).
constexpr size_t kCheckThreads = 4;
/// Throughput is taken per window of this length and reported as the median
/// over a run's windows, so one stalled second (a descheduled virtual CPU)
/// does not set the run's figure.
constexpr std::chrono::seconds kWindow{1};
/// Seed of the graph populations that --seed does not change: the pool and
/// its hot set (repeat_social) and the registered graphs (delta_dyn). The
/// request sequence over them follows --seed. A population drawn per seed
/// would add the cost of its few hottest graphs to the run-to-run spread.
constexpr uint64_t kPopulationSeed = 42;
/// Stream ids for MixSeed: every phase draws from its own stream.
enum Stream : uint64_t {
  kWarmStream = 1,
  kOpenStream = 2,
  kClosedStream = 3,
  kPoolStream = 4,
  kCallerStream = 100,
};

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Request records and outcome classes

enum class Outcome {
  kPending,
  kOk,
  kDegraded,  // answered, but not by the model (stale cache / fallback)
  kRefused,   // shed or rejected at admission
  kDeadline,
  kError,
  /// Answered with the model's answer for a different graph that shares
  /// g's cache key (a PredictionCache key collision), not g's own.
  kCollision,
  kWrong,  // answered, differs from Predict(Preprocess(g)), and unexplained
};

/// One request of a phase.
struct Slot {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point done{};
  int64_t item = -1;  // pool index (repeat_social)
  Outcome outcome = Outcome::kPending;
  serve::Prediction prediction;
};

Outcome Classify(const StatusOr<serve::Prediction>& result) {
  if (result.ok()) {
    return result.value().source == serve::PredictionSource::kModel
               ? Outcome::kOk
               : Outcome::kDegraded;
  }
  switch (result.status().code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
    case StatusCode::kFailedPrecondition:
      return Outcome::kRefused;
    case StatusCode::kDeadlineExceeded:
      return Outcome::kDeadline;
    default:
      return Outcome::kError;
  }
}

void Resolve(Slot* slot, StatusOr<serve::Prediction> result) {
  slot->done = Clock::now();
  slot->outcome = Classify(result);
  if (result.ok()) slot->prediction = std::move(result).value();
}

/// Per-phase outcome counts.
struct Tally {
  int64_t sent = 0, ok = 0, degraded = 0, refused = 0, deadline = 0,
          error = 0, collision = 0, wrong = 0;
  /// Everything but an exact model answer fails, key collisions included.
  int64_t failed() const { return sent - ok; }
  int64_t answered() const { return ok + degraded + collision + wrong; }
  void Add(Outcome o) {
    ++sent;
    switch (o) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kDegraded: ++degraded; break;
      case Outcome::kRefused: ++refused; break;
      case Outcome::kDeadline: ++deadline; break;
      case Outcome::kError: ++error; break;
      case Outcome::kCollision: ++collision; break;
      case Outcome::kWrong: ++wrong; break;
      case Outcome::kPending: break;
    }
  }
  bool Sums() const {
    return ok + degraded + refused + deadline + error + collision + wrong ==
           sent;
  }
};

struct Phase {
  std::string name;
  std::deque<Slot> slots;  // deque: slot addresses stay valid as it grows
  Clock::time_point start{};
  Clock::time_point end{};  // last completion
  bool measured = true;

  Tally Count() const {
    Tally t;
    for (const Slot& s : slots) t.Add(s.outcome);
    return t;
  }
  double WallSeconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

// ---------------------------------------------------------------------------
// Completion tracking

/// Waits on reply futures from a small pool of blocked threads and
/// timestamps each completion as it happens, so out-of-order replies are
/// timed correctly (a single FIFO waiter would charge a fast reply the wait
/// of the slow one ahead of it).
class Completions {
 public:
  explicit Completions(size_t waiters) {
    for (size_t i = 0; i < waiters; ++i) threads_.emplace_back([this] { Loop(); });
  }
  ~Completions() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Completions(const Completions&) = delete;
  Completions& operator=(const Completions&) = delete;

  void Track(Slot* slot, std::future<StatusOr<serve::Prediction>> reply) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back(slot, std::move(reply));
      ++inflight_;
    }
    work_cv_.notify_one();
  }
  /// Blocks until fewer than `n` tracked requests are unresolved.
  void WaitBelow(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return inflight_ < n; });
  }
  void WaitAll() { WaitBelow(1); }

 private:
  void Loop() {
    for (;;) {
      std::pair<Slot*, std::future<StatusOr<serve::Prediction>>> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      Resolve(item.first, item.second.get());
      {
        std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
      }
      done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::pair<Slot*, std::future<StatusOr<serve::Prediction>>>>
      queue_;
  size_t inflight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Output check

/// Recomputes every model answer as Predict(Preprocess(g)) on the servable
/// that served it and compares the bytes. A WL color id never changes once
/// assigned, so recomputing after the run sees the ids the request saw.
///
/// A mismatch is a kCollision when the served bytes equal the recomputed
/// answer of another served graph with the same cache key: the cache handed
/// g the entry of a key-colliding graph (the documented approximation of
/// PredictionCache::KeyFor). Collisions count as failed requests; any other
/// mismatch is kWrong and fails the run.
class OutputCheck {
 public:
  OutputCheck(std::shared_ptr<serve::ServableModel> servable,
              int wl_iterations)
      : servable_(std::move(servable)), wl_iterations_(wl_iterations) {}

  /// Queues the answer in `slot` for checking against g. Slots with equal
  /// `identity` >= 0 carry the same graph, which is recomputed once.
  void Add(const Graph& g, Slot* slot, int64_t identity = -1) {
    if (slot->outcome != Outcome::kOk) return;
    if (identity >= 0) {
      if (auto it = done_.find(identity); it != done_.end()) {
        Compare(it->second, slot);
        return;
      }
      if (!pending_.insert(identity).second) {
        deferred_.emplace_back(identity, slot);
        return;
      }
    }
    graphs_.push_back(g);
    slots_.push_back(slot);
    identities_.push_back(identity);
    if (graphs_.size() >= kChunk) Flush();
  }

  /// Checks the rest and classifies mismatches; returns answers checked.
  int64_t Finish() {
    Flush();
    for (const Mismatch& m : mismatches_) {
      const auto it = answers_by_key_.find(m.key);
      const bool explained =
          it != answers_by_key_.end() && it->second.count(m.served) > 0;
      m.slot->outcome = explained ? Outcome::kCollision : Outcome::kWrong;
    }
    return checked_;
  }

 private:
  static constexpr size_t kChunk = 2048;

  /// A graph's cache key and recomputed answer bytes (empty when Preprocess
  /// failed).
  struct Expected {
    std::string key;
    std::string answer;
  };
  struct Mismatch {
    std::string key;
    std::string served;
    Slot* slot;
  };

  static std::string Bytes(const serve::Prediction& p) {
    std::string bytes(reinterpret_cast<const char*>(&p.label), sizeof(p.label));
    bytes.append(reinterpret_cast<const char*>(p.probabilities.data()),
                 p.probabilities.size() * sizeof(float));
    return bytes;
  }

  void Compare(const Expected& expected, Slot* slot) {
    answers_by_key_[expected.key].insert(expected.answer);
    std::string served = Bytes(slot->prediction);
    if (expected.answer.empty() || served != expected.answer) {
      mismatches_.push_back({expected.key, std::move(served), slot});
    }
    ++checked_;
  }

  void Flush() {
    const size_t n = graphs_.size();
    std::vector<Expected> expected(n);
    deepmap::ParallelFor(
        n,
        [&](size_t i) {
          thread_local serve::ForwardScratch scratch;
          expected[i].key =
              serve::PredictionCache::KeyFor(graphs_[i], wl_iterations_);
          StatusOr<deepmap::nn::Tensor> input =
              servable_->preprocessor().Preprocess(graphs_[i]);
          if (input.ok()) {
            expected[i].answer =
                Bytes(servable_->compiled().Predict(input.value(), &scratch));
          }
        },
        kCheckThreads);
    for (size_t i = 0; i < n; ++i) {
      Compare(expected[i], slots_[i]);
      if (identities_[i] >= 0) done_[identities_[i]] = std::move(expected[i]);
    }
    for (const auto& [identity, slot] : deferred_) Compare(done_[identity], slot);
    graphs_.clear();
    slots_.clear();
    identities_.clear();
    deferred_.clear();
    pending_.clear();
  }

  std::shared_ptr<serve::ServableModel> servable_;
  const int wl_iterations_;
  std::vector<Graph> graphs_;
  std::vector<Slot*> slots_;
  std::vector<int64_t> identities_;
  std::set<int64_t> pending_;  // identities queued in graphs_
  std::vector<std::pair<int64_t, Slot*>> deferred_;
  std::map<int64_t, Expected> done_;
  /// Cache key -> distinct recomputed answers of the graphs served under it.
  std::map<std::string, std::set<std::string>> answers_by_key_;
  std::vector<Mismatch> mismatches_;
  int64_t checked_ = 0;
};

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string params;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--params") {
      args->params = value;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if ((argc - 2) % 2 != 0) return false;
  return !args->workload.empty() && args->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// train

int Train(const WorkloadSpec& spec, const std::string& out) {
  const deepmap::graph::GraphDataset reference = ReferenceSet(spec);
  const deepmap::core::DeepMapConfig config = ModelConfig(spec);
  deepmap::core::DeepMapPipeline pipeline(reference, config);
  deepmap::core::DeepMapModel model(pipeline.feature_dim(),
                                    pipeline.sequence_length(),
                                    pipeline.num_classes(), config);
  deepmap::nn::TrainClassifier(model, pipeline.inputs(), reference.labels(),
                               config.train);
  if (Status s = deepmap::nn::SaveParameters(model.Params(), out); !s.ok()) {
    std::fprintf(stderr, "servebench: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("trained %s: %d graphs, m=%d, w=%d -> %s\n", spec.name,
              reference.size(), pipeline.feature_dim(),
              pipeline.sequence_length(), out.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// run

/// A loaded model and a ready cluster serving it.
struct Deployment {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::shared_ptr<serve::ServableModel> servable;
  std::unique_ptr<serve::ServeCluster> cluster;
};

StatusOr<Deployment> Deploy(const WorkloadSpec& spec,
                            const deepmap::graph::GraphDataset& reference,
                            const std::string& params, bool with_cluster) {
  Deployment d;
  d.registry = std::make_unique<serve::ModelRegistry>();
  serve::ModelRegistry::Options options;
  options.backend = "fp32";
  if (Status s = d.registry->Load(spec.name, reference, ModelConfig(spec),
                                  params, options);
      !s.ok()) {
    return s;
  }
  d.servable = d.registry->Get(spec.name);
  if (with_cluster) {
    d.cluster =
        std::make_unique<serve::ServeCluster>(d.servable, ClusterOptions(spec));
  }
  return d;
}

/// Closed loop: keeps `window` requests in flight until `stop` (or until
/// `max_requests` were sent, when positive); each send waits until a reply
/// frees a place in the window. When `throughput` is given, appends the ok
/// replies per second of each whole window, read from the server's counters.
void RunClosed(serve::ServeCluster& cluster, Completions& completions,
               Phase* phase, int window, Clock::time_point stop,
               int64_t max_requests,
               const std::function<const Graph&(Slot*)>& next,
               std::vector<double>* throughput = nullptr) {
  const serve::ServeMetrics& sm = cluster.metrics();
  int64_t sent = 0;
  phase->start = Clock::now();
  Clock::time_point mark = phase->start;
  int64_t mark_ok = sm.outcome_count(serve::ServeOutcome::kOk);
  for (;;) {
    completions.WaitBelow(static_cast<size_t>(window));
    const Clock::time_point now = Clock::now();
    if (max_requests > 0 ? sent >= max_requests : now >= stop) break;
    if (throughput != nullptr && now - mark >= kWindow) {
      const int64_t ok = sm.outcome_count(serve::ServeOutcome::kOk);
      throughput->push_back(static_cast<double>(ok - mark_ok) /
                            std::chrono::duration<double>(now - mark).count());
      mark = now;
      mark_ok = ok;
    }
    Slot* slot = &phase->slots.emplace_back();
    const Graph& g = next(slot);
    slot->sent = slot->due = Clock::now();
    completions.Track(slot, cluster.Submit(g));
    ++sent;
  }
  completions.WaitAll();
  phase->end = Clock::now();
}

/// Open loop: sends request k at start + due[k] whatever the replies do.
void RunOpen(serve::ServeCluster& cluster, Completions& completions,
             Phase* phase, const std::vector<double>& due,
             const std::function<const Graph&(size_t)>& graph_at) {
  phase->start = Clock::now() + std::chrono::milliseconds(1);
  for (size_t k = 0; k < due.size(); ++k) {
    Slot* slot = &phase->slots.emplace_back();
    slot->due = phase->start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due[k]));
    std::this_thread::sleep_until(slot->due);
    slot->sent = Clock::now();
    completions.Track(slot, cluster.Submit(graph_at(k)));
  }
  completions.WaitAll();
  phase->end = phase->start;
  for (const Slot& s : phase->slots) phase->end = std::max(phase->end, s.done);
}

struct RunResult {
  std::vector<Phase> phases;  // warmup first, then measured phases
  std::string latency_phase;  // phase whose latencies are reported
  bool latency_from_due = false;
  /// Process CPU and wall time of the closed-loop phases, the saturated
  /// part of the run.
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Ok replies per second in each whole second of the closed loop.
  std::vector<double> throughput;
  /// Feeds every answered (graph, slot) pair of `phases` to the check.
  std::function<void(std::vector<Phase>& phases, OutputCheck*)> check;
};

RunResult RunStreams(const WorkloadSpec& spec, serve::ServeCluster& cluster,
                     uint64_t seed, double seconds, int max_vertices) {
  RunResult run;
  run.latency_phase = "open";
  run.latency_from_due = true;
  run.phases.resize(3);
  Phase& warm = run.phases[0];
  Phase& open = run.phases[1];
  Phase& closed = run.phases[2];
  warm.name = "warmup";
  warm.measured = false;
  open.name = "open";
  closed.name = "closed";

  const bool novel = spec.kind == TrafficKind::kNovel;
  std::vector<Graph> pool;
  if (!novel) {
    pool = GraphStream(spec, MixSeed(kPopulationSeed, kPoolStream),
                       max_vertices)
               .Take(static_cast<size_t>(spec.pool_graphs));
  }
  const std::vector<double> due = PoissonArrivals(
      MixSeed(seed, kOpenStream), spec.open_rate_rps,
      kOpenShare * seconds);
  std::vector<Graph> open_graphs;
  std::vector<int64_t> open_items;
  if (novel) {
    open_graphs = GraphStream(spec, MixSeed(seed, kOpenStream), max_vertices)
                      .Take(due.size());
  } else {
    ZipfSampler zipf(pool.size(), spec.zipf_s,
                     MixSeed(kPopulationSeed, kPoolStream),
                     MixSeed(seed, kOpenStream));
    for (size_t k = 0; k < due.size(); ++k) {
      open_items.push_back(static_cast<int64_t>(zipf.Next()));
    }
  }

  // Closed-loop sources: a fresh novel stream, or Zipf draws over the pool.
  auto closed_source = [&](uint64_t stream) {
    auto novel_stream = std::make_shared<GraphStream>(
        spec, MixSeed(seed, stream), max_vertices);
    auto zipf = std::make_shared<ZipfSampler>(
        std::max<size_t>(pool.size(), 1), spec.zipf_s,
        MixSeed(kPopulationSeed, kPoolStream), MixSeed(seed, stream));
    return std::function<const Graph&(Slot*)>(
        [novel, novel_stream, zipf, &pool](Slot* slot) -> const Graph& {
          if (novel) return novel_stream->Next();
          slot->item = static_cast<int64_t>(zipf->Next());
          return pool[static_cast<size_t>(slot->item)];
        });
  };

  Completions completions(kWaiters);
  RunClosed(cluster, completions, &warm, spec.closed_window,
            Clock::time_point{}, spec.warmup_requests,
            closed_source(kWarmStream));
  cluster.Drain();

  RunOpen(cluster, completions, &open, due, [&](size_t k) -> const Graph& {
    if (novel) return open_graphs[k];
    open.slots[k].item = open_items[k];
    return pool[static_cast<size_t>(open_items[k])];
  });
  // Read after a fixed amount of traffic, so a faster server is not charged
  // for the memory of the extra graphs it serves in the closed phase.
  run.peak_rss_mb = PeakRssMb();
  const auto closed_stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             (1.0 - kOpenShare) * seconds));
  const double cpu0 = ProcessCpuSeconds();
  RunClosed(cluster, completions, &closed, spec.closed_window, closed_stop, 0,
            closed_source(kClosedStream), &run.throughput);
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  run.wall_s = closed.WallSeconds();

  run.check = [&spec, seed, max_vertices, novel,
               open_graphs = std::move(open_graphs),
               pool = std::move(pool)](std::vector<Phase>& phases,
                                       OutputCheck* check) {
    auto check_phase = [&](Phase& phase, uint64_t stream, bool stored) {
      GraphStream regen(spec, MixSeed(seed, stream), max_vertices);
      for (size_t k = 0; k < phase.slots.size(); ++k) {
        Slot* slot = &phase.slots[k];
        if (!novel) {
          check->Add(pool[static_cast<size_t>(slot->item)], slot, slot->item);
        } else if (stored) {
          check->Add(open_graphs[k], slot);
        } else {
          check->Add(regen.Next(), slot);
        }
      }
    };
    check_phase(phases[0], kWarmStream, false);
    check_phase(phases[1], kOpenStream, true);
    check_phase(phases[2], kClosedStream, false);
  };
  return run;
}

/// One delta_dyn caller's registered bases.
std::vector<Graph> CallerBases(const WorkloadSpec& spec, int caller,
                               int max_vertices) {
  return GraphStream(spec, MixSeed(kPopulationSeed, kCallerStream + caller),
                     max_vertices)
      .Take(static_cast<size_t>(spec.pool_graphs));
}

RunResult RunDelta(const WorkloadSpec& spec, serve::ServeCluster& cluster,
                   uint64_t seed, double seconds, int max_vertices) {
  RunResult run;
  run.latency_phase = "closed";
  run.phases.resize(1 + static_cast<size_t>(spec.callers));
  run.phases[0].name = "warmup";
  run.phases[0].measured = false;

  std::vector<DeltaCaller> callers;
  for (int c = 0; c < spec.callers; ++c) {
    callers.emplace_back(spec, seed, c, CallerBases(spec, c, max_vertices));
    run.phases[1 + static_cast<size_t>(c)].name =
        "closed.caller" + std::to_string(c);
    for (size_t i = 0; i < callers.back().ids().size(); ++i) {
      Status s = cluster.RegisterDynamicGraph(callers.back().ids()[i],
                                              callers.back().mirror(i));
      DEEPMAP_CHECK(s.ok());
    }
  }
  // Every operation in order, per caller, for the output check.
  std::vector<std::vector<std::pair<DeltaOp, Slot*>>> logs(callers.size());

  auto serve_op = [&cluster](DeltaCaller& caller, const DeltaOp& op,
                             Slot* slot) {
    slot->sent = slot->due = Clock::now();
    if (op.read) {
      Resolve(slot, cluster.Submit(caller.mirror(op.graph)).get());
    } else {
      Resolve(slot, cluster.ClassifyDelta(caller.ids()[op.graph], op.updates));
    }
  };

  // Warm-up: each caller's first operations, sequentially.
  Phase& warm = run.phases[0];
  warm.start = Clock::now();
  for (int i = 0; i < spec.warmup_requests; ++i) {
    const size_t c = static_cast<size_t>(i) % callers.size();
    DeltaOp op = callers[c].Next();
    Slot* slot = &warm.slots.emplace_back();
    serve_op(callers[c], op, slot);
    logs[c].emplace_back(std::move(op), slot);
  }
  warm.end = Clock::now();

  std::atomic<int64_t> ops_done{0};
  std::atomic<double> peak_rss{0.0};
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers.size(); ++c) {
    threads.emplace_back([&, c] {
      Phase& phase = run.phases[1 + c];
      phase.start = start;
      while (Clock::now() < stop) {
        DeltaOp op = callers[c].Next();
        Slot* slot = &phase.slots.emplace_back();
        serve_op(callers[c], op, slot);
        logs[c].emplace_back(std::move(op), slot);
        // Peak memory after a fixed amount of traffic (see RunStreams).
        if (ops_done.fetch_add(1) + 1 == spec.rss_after_ops) {
          peak_rss.store(PeakRssMb());
        }
      }
      phase.end = Clock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  // Ok replies per whole second of the closed loop, by completion time.
  std::vector<int64_t> per_window(
      static_cast<size_t>(std::floor(seconds / kWindow.count())), 0);
  for (size_t c = 1; c < run.phases.size(); ++c) {
    for (const Slot& slot : run.phases[c].slots) {
      const auto k = static_cast<size_t>((slot.done - start) / kWindow);
      if (slot.outcome == Outcome::kOk && k < per_window.size()) {
        ++per_window[k];
      }
    }
  }
  for (int64_t n : per_window) {
    run.throughput.push_back(static_cast<double>(n) / kWindow.count());
  }
  run.peak_rss_mb = peak_rss.load() > 0.0 ? peak_rss.load() : PeakRssMb();

  // The log holds slot addresses; deque elements never move.
  run.check = [&spec, seed, max_vertices, logs = std::move(logs)](
                  std::vector<Phase>&, OutputCheck* check) {
    for (size_t c = 0; c < logs.size(); ++c) {
      // Replays the caller's operations on fresh mirrors; the graph each
      // answer describes is the mirror after its operation.
      DeltaCaller mirror(spec, seed, static_cast<int>(c),
                         CallerBases(spec, static_cast<int>(c), max_vertices));
      for (const auto& [op, slot] : logs[c]) {
        const DeltaOp again = mirror.Next();
        DEEPMAP_CHECK(again.graph == op.graph && again.read == op.read);
        check->Add(mirror.mirror(op.graph), slot);
      }
    }
  };
  return run;
}

/// The replayed request stream: the open phase's first requests, or each
/// caller's first operations.
struct ReplayInput {
  std::vector<Graph> graphs;  // owns every Submit graph
  std::vector<std::pair<std::string, Graph>> registered;
  std::vector<ReplayOp> ops;
};

ReplayInput BuildReplay(const WorkloadSpec& spec, uint64_t seed,
                        int max_vertices) {
  ReplayInput in;
  const size_t n = static_cast<size_t>(spec.replay_requests);
  if (spec.kind == TrafficKind::kDelta) {
    const size_t per_caller = n / static_cast<size_t>(spec.callers);
    in.graphs.reserve(n);  // ops point into it
    for (int c = 0; c < spec.callers; ++c) {
      DeltaCaller caller(spec, seed, c, CallerBases(spec, c, max_vertices));
      for (size_t i = 0; i < caller.ids().size(); ++i) {
        in.registered.emplace_back(caller.ids()[i], caller.mirror(i));
      }
      for (size_t k = 0; k < per_caller; ++k) {
        DeltaOp op = caller.Next();
        ReplayOp r;
        r.id = caller.ids()[op.graph];
        r.delta = !op.read;
        r.updates = std::move(op.updates);
        if (op.read) {
          in.graphs.push_back(caller.mirror(op.graph));
          r.graph = &in.graphs.back();
        }
        in.ops.push_back(std::move(r));
      }
    }
    return in;
  }
  if (spec.kind == TrafficKind::kNovel) {
    in.graphs = GraphStream(spec, MixSeed(seed, kOpenStream), max_vertices)
                    .Take(n);
    for (const Graph& g : in.graphs) in.ops.emplace_back().graph = &g;
    return in;
  }
  in.graphs = GraphStream(spec, MixSeed(kPopulationSeed, kPoolStream),
                          max_vertices)
                  .Take(static_cast<size_t>(spec.pool_graphs));
  ZipfSampler zipf(in.graphs.size(), spec.zipf_s,
                   MixSeed(kPopulationSeed, kPoolStream),
                   MixSeed(seed, kOpenStream));
  for (size_t k = 0; k < n; ++k) {
    in.ops.emplace_back().graph = &in.graphs[zipf.Next()];
  }
  return in;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// Metric names printed with --trace 0 (end to end) and --trace 1 (per
/// layer), in BENCHMARK.json order.
const char* const kEndToEnd[] = {"setup_s", "cpu_us_per_req", "peak_rss_mb"};
const char* const kPerLayer[] = {
    "throughput_rps",
    "latency_p50_us",
    "latency_p99_us",
    "serve.cluster.wait_us",
    "serve.cluster.batch_size_mean",
    "serve.cluster.steals",
    "serve.cluster.continuous_admits",
    "serve.cluster.cpu_util",
    "serve.cache.key_us",
    "serve.cache.lookup_us",
    "serve.cache.hit_ratio",
    "kernels.feature_maps_us",
    "kernels.densify_us",
    "core.centrality_us",
    "core.alignment_us",
    "core.receptive_field_us",
    "serve.assembly_us",
    "serve.preprocess_us",
    "nn.input_nonzero_frac",
    "serve.forward_us",
    "serve.dynamic.apply_delta_us",
    "serve.dynamic.incremental_hit_ratio",
    "bench.generator_lag_p99_us",
    "bench.trace_coverage",
};

int Run(const Args& args, const WorkloadSpec& spec) {
  const deepmap::graph::GraphDataset reference = ReferenceSet(spec);
  const int wl_iterations = ClusterOptions(spec).cache_wl_iterations;

  // --- set-up: ModelRegistry::Load through a ready cluster, several times;
  // the last one kept serves the traffic. Teardown is untimed.
  std::vector<double> setups;
  auto set_up = [&](int times, Deployment* keep) {
    for (int i = 0; i < times; ++i) {
      if (keep != nullptr) *keep = Deployment{};
      const Clock::time_point t0 = Clock::now();
      StatusOr<Deployment> d = Deploy(spec, reference, args.params, true);
      const Clock::time_point t1 = Clock::now();
      if (!d.ok()) {
        std::fprintf(stderr, "servebench: load failed: %s\n",
                     d.status().ToString().c_str());
        return false;
      }
      setups.push_back(std::chrono::duration<double>(t1 - t0).count());
      if (keep != nullptr) *keep = std::move(d).value();
    }
    return true;
  };
  Deployment deployment;
  if (!set_up(kSetupRepeats, &deployment)) return 1;
  serve::ServeCluster& cluster = *deployment.cluster;
  const int max_vertices = deployment.servable->sequence_length();

  // --- traffic. The slack applies to this thread and the ones it starts,
  // not to the cluster's (already running), so open-loop sends wake within
  // microseconds of their due time.
  prctl(PR_SET_TIMERSLACK, 1UL);
  RunResult run =
      spec.kind == TrafficKind::kDelta
          ? RunDelta(spec, cluster, args.seed, args.seconds, max_vertices)
          : RunStreams(spec, cluster, args.seed, args.seconds, max_vertices);
  cluster.Drain();
  if (!set_up(kSetupRepeats, nullptr)) return 1;

  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::vector<double> sorted_setups = setups;
  std::sort(sorted_setups.begin(), sorted_setups.end());
  std::printf("setup: %zu set-ups, min %.6f median %.6f max %.6f s\n",
              setups.size(), sorted_setups.front(), Median(setups),
              sorted_setups.back());
  std::printf(
      "run_record {\"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"model_seed\": 42, \"traffic_seed\": %llu, "
      "\"replicas\": %zu, \"pool_threads\": %zu, \"max_batch\": %d, "
      "\"queue_capacity\": %zu, \"cache_capacity\": %zu, "
      "\"open_rate_rps\": %g, \"open_share\": %g, \"closed_window\": %d, "
      "\"callers\": %d, \"pool_graphs\": %d, \"zipf_s\": %g, "
      "\"read_share\": %g, \"undo_share\": %g, \"w\": %d, \"m\": %d}\n",
      std::thread::hardware_concurrency(), __VERSION__,
      SERVEBENCH_BUILD_TYPE, static_cast<unsigned long long>(args.seed),
      kReplicas, kPoolThreads, kMaxBatch, kQueueCapacity,
      spec.cache_capacity, spec.open_rate_rps,
      spec.open_rate_rps > 0.0 ? kOpenShare : 0.0,
      spec.closed_window, spec.callers, spec.pool_graphs, spec.zipf_s,
      spec.read_share, spec.undo_share, max_vertices,
      deployment.servable->feature_dim());

  // --- output check: every answer, hits and deltas included.
  OutputCheck check(deployment.servable, wl_iterations);
  run.check(run.phases, &check);
  const int64_t checked = check.Finish();

  // --- accounting per phase, and against the server's own outcome counts.
  Tally all, measured, closed;
  std::vector<std::pair<Clock::time_point, double>> timed;  // (due, latency)
  std::vector<double> lag;
  for (const Phase& phase : run.phases) {
    const Tally t = phase.Count();
    std::printf(
        "phase %-15s sent=%lld ok=%lld degraded=%lld refused=%lld "
        "deadline=%lld error=%lld collision=%lld wrong=%lld wall_s=%.3f\n",
        phase.name.c_str(), static_cast<long long>(t.sent),
        static_cast<long long>(t.ok), static_cast<long long>(t.degraded),
        static_cast<long long>(t.refused), static_cast<long long>(t.deadline),
        static_cast<long long>(t.error), static_cast<long long>(t.collision),
        static_cast<long long>(t.wrong), phase.WallSeconds());
    for (const Slot& s : phase.slots) {
      all.Add(s.outcome);
      if (phase.measured) measured.Add(s.outcome);
      if (phase.name.rfind("closed", 0) == 0) closed.Add(s.outcome);
      if (phase.name.rfind(run.latency_phase, 0) != 0) continue;
      if (s.outcome == Outcome::kPending) continue;
      timed.emplace_back(s.due, DueLatencyUs(s.due, s.done));
      if (run.latency_from_due) lag.push_back(MicrosBetween(s.due, s.sent));
    }
  }
  const serve::ServeMetrics& sm = cluster.metrics();
  const int64_t server_ok = sm.outcome_count(serve::ServeOutcome::kOk);
  // Collisions and wrong answers were served as kOk; the server cannot know.
  const bool accounting_ok =
      all.Sums() && sm.total_outcomes() == all.sent &&
      server_ok == all.ok + all.collision + all.wrong &&
      sm.degraded() == all.degraded &&
      sm.shed() + sm.rejected() == all.refused &&
      sm.deadline_exceeded() == all.deadline &&
      sm.outcome_count(serve::ServeOutcome::kError) == all.error;
  std::printf(
      "accounting: sent=%lld server_total_outcomes=%lld server_ok=%lld "
      "server_shed=%lld server_rejected=%lld server_deadline=%lld "
      "server_error=%lld -> %s\n",
      static_cast<long long>(all.sent),
      static_cast<long long>(sm.total_outcomes()),
      static_cast<long long>(server_ok), static_cast<long long>(sm.shed()),
      static_cast<long long>(sm.rejected()),
      static_cast<long long>(sm.deadline_exceeded()),
      static_cast<long long>(sm.outcome_count(serve::ServeOutcome::kError)),
      accounting_ok ? "ok" : "MISMATCH");
  std::printf(
      "output check: %lld answers recomputed; %lld differ: %lld are another "
      "graph's answer under the same cache key (key collision), %lld "
      "unexplained\n",
      static_cast<long long>(checked),
      static_cast<long long>(all.collision + all.wrong),
      static_cast<long long>(all.collision), static_cast<long long>(all.wrong));
  // The server's "queue" stage is enqueue -> batch dispatch; a request
  // admitted into a batch already in flight was enqueued after that batch's
  // dispatch time, so the stage can go negative. No metric uses it.
  const serve::LatencySummary queue = sm.Latency("queue");
  std::printf("server queue stage (unused): mean %.3f us (%s) over %lld\n",
              queue.mean, queue.mean < 0 ? "negative" : "non-negative",
              static_cast<long long>(queue.count));
  bool correct = accounting_ok && all.wrong == 0;

  // --- latency: median over blocks of kLatencyBlock consecutive requests.
  std::sort(timed.begin(), timed.end());
  std::vector<double> in_order;
  for (const auto& [due, us] : timed) in_order.push_back(us);
  const LatencyStats pooled = Summarize(in_order);
  BlockLatency latency = SummarizeBlocks(in_order, kLatencyBlock);
  std::printf(
      "latency: %zu samples in phase %s (%s), %zu blocks of %zu "
      "(%zu beyond p99 each); pooled p50 %.1f p99 %.1f us\n",
      pooled.count, run.latency_phase.c_str(),
      run.latency_from_due ? "from due time" : "from send time",
      latency.blocks, kLatencyBlock, SamplesBeyond(kLatencyBlock, 0.99),
      pooled.p50, pooled.p99);
  if (latency.blocks == 0) {
    std::printf("latency: fewer than %zu samples, p99 unsupported\n",
                kLatencyBlock);
    correct = false;
  }
  if (run.throughput.empty()) {
    std::printf("throughput: the closed loop ran less than one window\n");
    correct = false;
    run.throughput.push_back(0.0);
  }
  std::printf("failed_frac %.9g (%lld of %lld measured requests)\n",
              static_cast<double>(measured.failed()) /
                  static_cast<double>(std::max<int64_t>(measured.sent, 1)),
              static_cast<long long>(measured.failed()),
              static_cast<long long>(measured.sent));

  std::vector<Metric> metrics = {
      {"setup_s", "s", Median(setups)},
      {"throughput_rps", "1/s", Median(run.throughput)},
      {"latency_p50_us", "us", latency.p50},
      {"latency_p99_us", "us", latency.p99},
      {"cpu_us_per_req", "us",
       run.cpu_s * 1e6 /
           static_cast<double>(std::max<int64_t>(closed.answered(), 1))},
      {"peak_rss_mb", "MiB", run.peak_rss_mb},
  };
  if (args.trace) {
    const serve::LatencySummary total = sm.Latency("total");
    const serve::LatencySummary pre = sm.Latency("preprocess");
    const serve::LatencySummary fwd = sm.Latency("forward");
    // Per preprocessed request: everything in "total" outside preprocess and
    // forward (key, dispatch, queueing, batching, completion).
    const double wait_us =
        pre.count > 0
            ? (total.mean * static_cast<double>(total.count) -
               pre.mean * static_cast<double>(pre.count) -
               fwd.mean * static_cast<double>(fwd.count)) /
                  static_cast<double>(pre.count)
            : 0.0;
    const double busy_threads =
        static_cast<double>(kReplicas * kPoolThreads) +
        (spec.kind == TrafficKind::kDelta ? spec.callers : 1.0);
    const int64_t dyn_hits = sm.dynamic_incremental_hits();
    const int64_t dyn_all = dyn_hits + sm.dynamic_full_recomputes();
    std::sort(lag.begin(), lag.end());

    // The traced replay, on a fresh servable: its WL dictionary has seen no
    // traffic, like the refinery the replay builds.
    StatusOr<Deployment> fresh = Deploy(spec, reference, args.params, false);
    if (!fresh.ok()) {
      std::fprintf(stderr, "servebench: load failed: %s\n",
                   fresh.status().ToString().c_str());
      return 1;
    }
    const ReplayInput input = BuildReplay(spec, args.seed, max_vertices);
    SpanRecorder spans;
    const ReplayResult replay = Replay(spec, fresh.value().servable, reference,
                                       input.registered, input.ops, &spans);
    if (!args.trace_out.empty() && !spans.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "servebench: cannot write %s\n",
                   args.trace_out.c_str());
    }
    const std::map<std::string, double> mean = spans.MeanMicros();
    auto span_us = [&mean](const char* name) {
      auto it = mean.find(name);
      return it == mean.end() ? 0.0 : it->second;
    };
    const bool attribution_ok = replay.tensor_mismatches == 0 &&
                                replay.coverage >= 0.9 &&
                                replay.coverage <= 1.1;
    std::printf(
        "replay: %lld requests (%lld hits, %lld misses), %lld inputs differ "
        "from Preprocess, coverage %.4f -> %s\n",
        static_cast<long long>(replay.requests),
        static_cast<long long>(replay.hits),
        static_cast<long long>(replay.misses),
        static_cast<long long>(replay.tensor_mismatches), replay.coverage,
        attribution_ok ? "ok" : "ATTRIBUTION FAILURE");
    correct = correct && attribution_ok;
    const std::vector<Metric> layers = {
        {"serve.cluster.wait_us", "us", wait_us},
        {"serve.cluster.batch_size_mean", "count", sm.mean_batch_size()},
        {"serve.cluster.steals", "count",
         static_cast<double>(cluster.cluster_metrics().steals())},
        {"serve.cluster.continuous_admits", "count",
         static_cast<double>(cluster.cluster_metrics().continuous_admits())},
        {"serve.cluster.cpu_util", "ratio",
         run.cpu_s / (run.wall_s * busy_threads)},
        {"serve.cache.key_us", "us", span_us("serve.cache.key")},
        {"serve.cache.lookup_us", "us", span_us("serve.cache.lookup")},
        {"serve.cache.hit_ratio", "ratio", sm.cache_hit_rate()},
        {"kernels.feature_maps_us", "us", span_us("kernels.feature_maps")},
        {"kernels.densify_us", "us", span_us("kernels.densify")},
        {"core.centrality_us", "us", span_us("core.centrality")},
        {"core.alignment_us", "us", span_us("core.alignment")},
        {"core.receptive_field_us", "us", span_us("core.receptive_field")},
        {"serve.assembly_us", "us", span_us("serve.assembly")},
        {"serve.preprocess_us", "us", span_us("serve.preprocess")},
        {"nn.input_nonzero_frac", "ratio",
         replay.total_cells > 0 ? replay.nonzero_cells / replay.total_cells
                                : 0.0},
        {"serve.forward_us", "us", span_us("serve.forward")},
        {"serve.dynamic.apply_delta_us", "us",
         span_us("serve.dynamic.apply_delta")},
        {"serve.dynamic.incremental_hit_ratio", "ratio",
         dyn_all > 0 ? static_cast<double>(dyn_hits) /
                           static_cast<double>(dyn_all)
                     : 0.0},
        {"bench.generator_lag_p99_us", "us",
         lag.empty() ? 0.0 : Quantile(lag, 0.99)},
        {"bench.trace_coverage", "ratio", replay.coverage},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
  }

  // Every metric measured is printed; the JSON carries the set --trace asks
  // for.
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(measured.sent);
  json += ", \"failed\": " + std::to_string(measured.failed());
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name) {
    for (const Metric& m : metrics) {
      if (std::strcmp(m.name, name) != 0) continue;
      json += std::string(first ? "\"" : ", \"") + m.name +
              "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" + m.unit +
              "\"}";
      first = false;
    }
  };
  for (const Metric& m : metrics) {
    std::printf("metric %-38s %16s %s\n", m.name, Num(m.value).c_str(),
                m.unit);
  }
  if (args.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench train --workload NAME --out PARAMS\n"
                 "       servebench run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --params PARAMS [--trace-out PATH]\n");
    return 2;
  }
  const servebench::WorkloadSpec* spec = servebench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.mode == "train") return servebench::Train(*spec, args.out);
  if (args.mode == "run") return servebench::Run(args, *spec);
  std::fprintf(stderr, "servebench: unknown mode %s\n", args.mode.c_str());
  return 2;
}
