// deepmap_cli — command-line front end for the DEEPMAP library.
//
// Subcommands:
//   stats       print Table-1 style statistics of a dataset
//   evaluate    k-fold cross-validate a method on a dataset
//   generate    write a synthetic benchmark dataset in TU format
//   serve-bench train a model, serve a request stream through a ServeCluster
//               (--replicas=N, default 1), and print throughput + latency
//               metrics
//
// Datasets come either from TU-format files on disk (--data_dir=DIR
// --dataset=NAME) or from the built-in synthetic generators
// (--synthetic=NAME [--scale=F]). Methods: deepmap-gk, deepmap-sp,
// deepmap-wl, deepmap-treepp, gk, sp, wl, treepp, wl-oa, rw, dgk, retgk,
// gntk, dgcnn, gin, dcnn, patchysan, gcn, gat.
//
// Examples:
//   deepmap_cli stats --synthetic=KKI
//   deepmap_cli evaluate --method=deepmap-wl --synthetic=PTC_MR --folds=3
//   deepmap_cli evaluate --method=wl --data_dir=/data/TU --dataset=MUTAG
//   deepmap_cli generate --synthetic=ENZYMES --out_dir=/tmp/enzymes
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/gat.h"
#include "baselines/gcn.h"
#include "baselines/kernel_svm.h"
#include "common/stopwatch.h"
#include "eval/experiment.h"
#include "graph/statistics.h"
#include "graph/tu_format.h"
#include "kernels/random_walk.h"
#include "kernels/wl_oa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cluster.h"

namespace {

using namespace deepmap;

/// Parses all of `text` as a T; nullopt on junk, trailing characters or
/// overflow.
template <typename T>
std::optional<T> ParseWhole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

enum class FlagType { kString, kInt, kDouble, kBool };

struct FlagSpec {
  const char* name;
  FlagType type;
};

/// Dataset selection, read by every subcommand through LoadDataset.
constexpr FlagSpec kDatasetFlags[] = {
    {"synthetic", FlagType::kString}, {"scale", FlagType::kDouble},
    {"min_graphs", FlagType::kInt},   {"seed", FlagType::kInt},
    {"data_dir", FlagType::kString},  {"dataset", FlagType::kString},
};

/// The flags `command` reads beyond the dataset ones, or nullopt for an
/// unknown command.
std::optional<std::vector<FlagSpec>> CommandFlags(const std::string& command) {
  if (command == "stats") return std::vector<FlagSpec>{};
  if (command == "evaluate") {
    return std::vector<FlagSpec>{
        {"method", FlagType::kString}, {"folds", FlagType::kInt},
        {"epochs", FlagType::kInt},    {"r", FlagType::kInt},
        {"order", FlagType::kInt},     {"vfm", FlagType::kBool}};
  }
  if (command == "generate") {
    return std::vector<FlagSpec>{{"out_dir", FlagType::kString}};
  }
  if (command == "serve-bench") {
    return std::vector<FlagSpec>{
        {"requests", FlagType::kInt},     {"batch", FlagType::kInt},
        {"cache", FlagType::kInt},        {"replicas", FlagType::kInt},
        {"epochs", FlagType::kInt},       {"trace-out", FlagType::kString},
        {"metrics-out", FlagType::kString}};
  }
  return std::nullopt;
}

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  // Values were checked by CheckFlags before any subcommand ran.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : *ParseWhole<double>(it->second);
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : *ParseWhole<int>(it->second);
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: deepmap_cli <stats|evaluate|generate|serve-bench> [flags]\n"
      "  common:      --synthetic=NAME [--scale=F] [--min_graphs=N] [--seed=N]\n"
      "               | --data_dir=DIR --dataset=NAME\n"
      "  evaluate:    --method=M [--folds=N] [--epochs=N] [--r=N] [--order=N]\n"
      "               [--vfm]\n"
      "  generate:    --synthetic=NAME --out_dir=DIR [--scale=F]\n"
      "  serve-bench: [--requests=N] [--batch=N] [--epochs=N] [--cache=N]\n"
      "               [--replicas=N]\n"
      "               [--trace-out=FILE] [--metrics-out=FILE]\n");
  return 2;
}

/// Usage error (exit 2) naming the first flag `args.command` does not read
/// or whose value does not parse as its type; 0 when every flag is sound.
int CheckFlags(const CliArgs& args) {
  std::optional<std::vector<FlagSpec>> specs = CommandFlags(args.command);
  if (!specs.has_value()) return Usage();
  specs->insert(specs->end(), std::begin(kDatasetFlags),
                std::end(kDatasetFlags));
  for (const auto& [name, value] : args.flags) {
    auto spec = std::find_if(specs->begin(), specs->end(),
                             [&](const FlagSpec& f) { return name == f.name; });
    if (spec == specs->end()) {
      std::fprintf(stderr, "deepmap_cli %s: unknown flag --%s\n",
                   args.command.c_str(), name.c_str());
      return Usage();
    }
    const bool bad =
        (spec->type == FlagType::kInt && !ParseWhole<int>(value)) ||
        (spec->type == FlagType::kDouble && !ParseWhole<double>(value));
    if (bad) {
      std::fprintf(stderr, "deepmap_cli %s: --%s expects %s, got '%s'\n",
                   args.command.c_str(), name.c_str(),
                   spec->type == FlagType::kInt ? "an integer" : "a number",
                   value.c_str());
      return Usage();
    }
  }
  return 0;
}

StatusOr<graph::GraphDataset> LoadDataset(const CliArgs& args) {
  if (args.Has("synthetic")) {
    datasets::DatasetOptions options;
    options.scale = args.GetDouble("scale", 0.12);
    options.min_graphs = args.GetInt("min_graphs", 80);
    options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    return datasets::MakeDataset(args.Get("synthetic"), options);
  }
  if (args.Has("data_dir") && args.Has("dataset")) {
    auto ds = graph::ReadTuDataset(args.Get("data_dir"), args.Get("dataset"));
    if (ds.ok() && !ds.value().has_vertex_labels()) {
      ds.value().UseDegreesAsLabels();
    }
    return ds;
  }
  return Status::InvalidArgument(
      "need --synthetic=NAME or --data_dir=DIR --dataset=NAME");
}

int RunStats(const CliArgs& args) {
  auto ds = LoadDataset(args);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto stats = ds.value().Stats();
  std::printf("dataset:        %s\n", ds.value().name().c_str());
  std::printf("graphs:         %d\n", stats.size);
  std::printf("classes:        %d\n", stats.num_classes);
  std::printf("avg vertices:   %.2f\n", stats.avg_vertices);
  std::printf("avg edges:      %.2f\n", stats.avg_edges);
  std::printf("vertex labels:  %d\n", stats.num_vertex_labels);
  std::printf("max vertices:   %d (the CNN sequence length w)\n",
              ds.value().MaxVertices());
  graph::ExtendedStats ext = graph::ComputeExtendedStats(ds.value());
  std::printf("density:        %.4f\n", ext.density);
  std::printf("clustering:     %.4f\n", ext.clustering);
  std::printf("assortativity:  %+.4f\n", ext.assortativity);
  std::printf("components:     %.2f\n", ext.components);
  std::printf("diameter:       %.2f\n", ext.diameter);
  return 0;
}

int RunEvaluate(const CliArgs& args) {
  auto ds = LoadDataset(args);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const std::string method = args.Get("method", "deepmap-wl");
  eval::BenchOptions options;
  options.folds = args.GetInt("folds", 3);
  options.epochs = args.GetInt("epochs", 24);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  auto kind_of = [](const std::string& name) {
    if (name == "gk") return kernels::FeatureMapKind::kGraphlet;
    if (name == "sp") return kernels::FeatureMapKind::kShortestPath;
    if (name == "treepp") return kernels::FeatureMapKind::kTreePp;
    return kernels::FeatureMapKind::kWlSubtree;
  };

  eval::MethodRun run;
  if (method.rfind("deepmap-", 0) == 0) {
    core::DeepMapConfig config =
        eval::DefaultDeepMapConfig(kind_of(method.substr(8)), options);
    config.receptive_field_size = args.GetInt("r", 5);
    run = eval::RunDeepMap(ds.value(), config, options);
  } else if (method == "gk" || method == "sp" || method == "wl" ||
             method == "treepp") {
    run = eval::RunGraphKernel(ds.value(), kind_of(method), options);
  } else if (method == "wl-oa") {
    auto gram = kernels::WlOptimalAssignmentKernelMatrix(ds.value());
    run.cv = baselines::KernelSvmCrossValidate(gram, ds.value().labels(),
                                               options.folds, options.seed);
  } else if (method == "rw") {
    kernels::RandomWalkConfig config;
    config.order = args.GetInt("order", 1);
    auto gram = kernels::RandomWalkKernelMatrix(ds.value(), config);
    run.cv = baselines::KernelSvmCrossValidate(gram, ds.value().labels(),
                                               options.folds, options.seed);
  } else if (method == "dgk") {
    run = eval::RunDgk(ds.value(), options);
  } else if (method == "retgk") {
    run = eval::RunRetGk(ds.value(), options);
  } else if (method == "gntk") {
    run = eval::RunGntk(ds.value(), options);
  } else if (method == "gcn" || method == "gat") {
    // Extended related-work baselines (paper Sec. 2.2).
    baselines::VertexFeatureProvider provider =
        baselines::OneHotProvider(ds.value());
    nn::TrainConfig train;
    train.epochs = options.epochs;
    train.batch_size = 8;
    run.cv = eval::CrossValidate(
        ds.value().labels(), options.folds, options.seed,
        [&](const eval::FoldSplit& split, int fold) -> double {
          auto evaluate = [&](auto& model, const auto& samples) {
            std::vector<std::decay_t<decltype(samples[0])>> tr, te;
            std::vector<int> trl, tel;
            for (int i : split.train_indices) {
              tr.push_back(samples[i]);
              trl.push_back(ds.value().label(i));
            }
            for (int i : split.test_indices) {
              te.push_back(samples[i]);
              tel.push_back(ds.value().label(i));
            }
            nn::TrainConfig fold_train = train;
            fold_train.seed = options.seed + 900 + fold;
            nn::TrainClassifier(model, tr, trl, fold_train);
            return nn::EvaluateAccuracy(model, te, tel);
          };
          if (method == "gcn") {
            auto samples = baselines::BuildGcnSamples(ds.value(), provider);
            baselines::GcnConfig config;
            config.seed = options.seed + 500 + fold;
            baselines::GcnModel model(provider.dim, ds.value().NumClasses(),
                                      config);
            return evaluate(model, samples);
          }
          auto samples = baselines::BuildGatSamples(ds.value(), provider);
          baselines::GatConfig config;
          config.seed = options.seed + 500 + fold;
          baselines::GatModel model(provider.dim, ds.value().NumClasses(),
                                    config);
          return evaluate(model, samples);
        });
  } else if (method == "dgcnn" || method == "gin" || method == "dcnn" ||
             method == "patchysan") {
    eval::GnnKind kind = eval::GnnKind::kDgcnn;
    if (method == "gin") kind = eval::GnnKind::kGin;
    if (method == "dcnn") kind = eval::GnnKind::kDcnn;
    if (method == "patchysan") kind = eval::GnnKind::kPatchySan;
    run = eval::RunGnn(ds.value(), kind, args.Has("vfm"), options);
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return 2;
  }
  std::printf("%s on %s: %.2f%% +- %.2f%%", method.c_str(),
              ds.value().name().c_str(), run.cv.mean_accuracy, run.cv.stddev);
  if (run.mean_epoch_ms > 0) {
    std::printf("  (%.1f ms/epoch)", run.mean_epoch_ms);
  }
  std::printf("\nfolds:");
  for (double a : run.cv.fold_accuracies) std::printf(" %.2f", a);
  std::printf("\n");
  return 0;
}

int RunServeBench(const CliArgs& args) {
  auto ds = LoadDataset(args);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  const graph::GraphDataset& dataset = ds.value();
  const int requests = args.GetInt("requests", 256);
  const int batch = args.GetInt("batch", 32);
  const int cache = args.GetInt("cache", 1024);
  const int replicas = args.GetInt("replicas", 1);
  const std::string trace_out = args.Get("trace-out");
  const std::string metrics_out = args.Get("metrics-out");
  if (requests < 0 || batch <= 0 || cache < 0 || replicas <= 0) {
    std::fprintf(stderr,
                 "serve-bench: --requests/--cache must be >= 0 "
                 "and --batch/--replicas must be > 0\n");
    return 2;
  }

  core::DeepMapConfig config;
  config.features.kind = kernels::FeatureMapKind::kWlSubtree;
  config.features.wl.iterations = 2;
  config.features.max_dense_dim = 64;
  config.train.epochs = args.GetInt("epochs", 6);
  config.train.batch_size = 8;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  core::DeepMapPipeline pipeline(dataset, config);
  core::DeepMapModel model(pipeline.feature_dim(), pipeline.sequence_length(),
                           pipeline.num_classes(), config);
  auto history = nn::TrainClassifier(model, pipeline.inputs(),
                                     dataset.labels(), config.train);
  std::printf("trained DEEPMAP-WL on %s: train accuracy %.1f%%\n",
              dataset.name().c_str(), 100.0 * history.final_accuracy());

  // One shared metrics registry so --metrics-out captures the model
  // registry's counters alongside the cluster's serving metrics.
  obs::MetricsRegistry metrics_registry;
  serve::ModelRegistry registry(&metrics_registry);
  if (Status s = registry.Adopt("cli", dataset, config, model); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  serve::ServeCluster::Options options;
  options.num_replicas = static_cast<size_t>(replicas);
  options.replica.max_batch = batch;
  options.replica.queue_capacity = static_cast<size_t>(requests) + 16;
  options.cache_capacity = static_cast<size_t>(cache);
  options.metrics_registry = &metrics_registry;
  serve::ServeCluster cluster(registry.Get("cli"), options);
  const serve::ServeMetrics& metrics = cluster.metrics();

  // Tracing covers only the serving phase (training spans would dwarf the
  // per-request ones and blow the event cap on long runs).
  if (!trace_out.empty()) obs::Tracer::Global().Enable();

  // The request stream cycles over the dataset, so the prediction cache
  // warms up after the first pass over the distinct graphs.
  Stopwatch timer;
  std::vector<std::future<StatusOr<serve::Prediction>>> futures;
  futures.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const graph::Graph& g = dataset.graph(i % dataset.size());
    futures.push_back(cluster.Submit(g));
  }
  int errors = 0;
  for (auto& f : futures) {
    if (!f.get().ok()) ++errors;
  }
  const double elapsed = timer.ElapsedSeconds();

  if (!trace_out.empty()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Disable();
    std::ofstream os(trace_out);
    if (!os) {
      std::fprintf(stderr, "serve-bench: cannot open %s\n", trace_out.c_str());
      return 1;
    }
    tracer.WriteChromeTrace(os);
    std::printf("wrote %zu trace events to %s\n", tracer.NumEvents(),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      std::fprintf(stderr, "serve-bench: cannot open %s\n",
                   metrics_out.c_str());
      return 1;
    }
    metrics.registry().WritePrometheusText(os);
    std::printf("wrote Prometheus metrics to %s\n", metrics_out.c_str());
  }

  std::printf("served %d requests in %.3f s (%.1f graphs/sec, %d errors)\n\n",
              requests, elapsed, requests / elapsed, errors);
  metrics.Print(std::cout);
  const serve::ClusterMetrics& cm = cluster.cluster_metrics();
  std::printf("cluster: %d replicas, %lld dispatched, %lld steals "
              "(%lld requests), %lld continuous admits\n",
              replicas, static_cast<long long>(cm.dispatched()),
              static_cast<long long>(cm.steals()),
              static_cast<long long>(cm.stolen_requests()),
              static_cast<long long>(cm.continuous_admits()));
  return errors == 0 ? 0 : 1;
}

int RunGenerate(const CliArgs& args) {
  if (!args.Has("synthetic") || !args.Has("out_dir")) return Usage();
  auto ds = LoadDataset(args);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::filesystem::create_directories(args.Get("out_dir"));
  Status status = graph::WriteTuDataset(ds.value(), args.Get("out_dir"));
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d graphs to %s/%s_*.txt\n", ds.value().size(),
              args.Get("out_dir").c_str(), ds.value().name().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  CliArgs args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return Usage();
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) {
      args.flags[arg + 2] = "1";  // boolean flag
    } else {
      args.flags[std::string(arg + 2, eq)] = eq + 1;
    }
  }
  if (int status = CheckFlags(args); status != 0) return status;
  if (args.command == "stats") return RunStats(args);
  if (args.command == "evaluate") return RunEvaluate(args);
  if (args.command == "generate") return RunGenerate(args);
  if (args.command == "serve-bench") return RunServeBench(args);
  return Usage();
}
