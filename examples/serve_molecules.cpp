// Example: deploy a trained DEEPMAP model behind a one-replica ServeCluster.
//
//   $ ./build/examples/serve_molecules [num_requests]
//
// Trains DEEPMAP-WL on a synthetic molecule dataset, persists the
// parameters, reloads them through the ModelRegistry (architecture and
// preprocessing state are validated against the reference dataset), and
// serves a request stream through the cluster: queued requests are batched
// continuously, repeated molecules hit the exact-key prediction cache, and
// per-stage latency metrics are printed at the end.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <vector>

#include "common/stopwatch.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "nn/serialization.h"
#include "serve/cluster.h"

using namespace deepmap;

int main(int argc, char** argv) {
  // 10k requests reproduces the deployment-scale run; the smoke-test
  // default stays small enough for CI on a single core.
  const int num_requests = argc > 1 ? std::atoi(argv[1]) : 2000;

  datasets::DatasetOptions options;
  options.min_graphs = 40;
  auto dataset_or = datasets::MakeDataset("PTC_MM", options);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "%s\n", dataset_or.status().ToString().c_str());
    return 1;
  }
  const graph::GraphDataset& dataset = dataset_or.value();

  core::DeepMapConfig config;
  config.features.kind = kernels::FeatureMapKind::kWlSubtree;
  config.features.wl.iterations = 2;
  config.features.max_dense_dim = 64;
  config.train.epochs = 8;
  config.train.batch_size = 8;

  // 1. Train on the full dataset (a deployment-style fit) and persist.
  core::DeepMapPipeline pipeline(dataset, config);
  core::DeepMapModel model(pipeline.feature_dim(), pipeline.sequence_length(),
                           pipeline.num_classes(), config);
  auto history = nn::TrainClassifier(model, pipeline.inputs(),
                                     dataset.labels(), config.train);
  std::printf("trained DEEPMAP-WL on %s: train accuracy %.1f%%\n",
              dataset.name().c_str(), 100.0 * history.final_accuracy());

  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "deepmap_serve_molecules.bin";
  if (auto s = nn::SaveParameters(model.Params(), path.string()); !s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }

  // 2. Reload through the registry, as a serving process would: the
  // persisted parameters are validated against the architecture implied by
  // (reference dataset, config), and the preprocessing state (WL color
  // dictionary, feature vocabulary, column scales) is rebuilt.
  serve::ModelRegistry registry;
  if (auto s = registry.Load("molecules", dataset, config, path.string());
      !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("registry serves: ");
  for (const std::string& name : registry.Names()) {
    std::printf("%s ", name.c_str());
  }
  std::printf("\n");

  // 3. Serve a molecule screening stream. Screening workloads resubmit the
  // same compounds, so the stream cycles over the dataset and most requests
  // after the first pass are cache hits.
  serve::ServeCluster::Options cluster_options;
  cluster_options.num_replicas = 1;
  cluster_options.replica.max_batch = 32;
  cluster_options.replica.queue_capacity =
      static_cast<size_t>(num_requests) + 16;
  cluster_options.cache_capacity = 4096;
  serve::ServeCluster cluster(registry.Get("molecules"), cluster_options);

  Stopwatch timer;
  std::vector<std::future<StatusOr<serve::Prediction>>> futures;
  futures.reserve(static_cast<size_t>(num_requests));
  const int first_pass = std::min(static_cast<int>(dataset.size()),
                                  num_requests);
  for (int i = 0; i < first_pass; ++i) {
    futures.push_back(cluster.Submit(dataset.graph(i % dataset.size())));
  }
  // Let the first pass finish so its predictions are cached; without this
  // the submitter outruns the servers and resubmissions miss the cache.
  cluster.Drain();
  for (int i = first_pass; i < num_requests; ++i) {
    futures.push_back(cluster.Submit(dataset.graph(i % dataset.size())));
  }
  std::vector<int64_t> class_counts(
      static_cast<size_t>(dataset.NumClasses()), 0);
  int errors = 0;
  for (auto& f : futures) {
    StatusOr<serve::Prediction> result = f.get();
    if (result.ok()) {
      ++class_counts[static_cast<size_t>(result.value().label)];
    } else {
      ++errors;
    }
  }
  const double elapsed = timer.ElapsedSeconds();

  std::printf("\nserved %d requests in %.3f s (%.1f graphs/sec)\n",
              num_requests, elapsed, num_requests / elapsed);
  for (size_t c = 0; c < class_counts.size(); ++c) {
    std::printf("  class %zu: %lld predictions\n", c,
                static_cast<long long>(class_counts[c]));
  }
  std::printf("\n");
  cluster.metrics().Print(std::cout);

  std::filesystem::remove(path);
  return errors == 0 ? 0 : 1;
}
