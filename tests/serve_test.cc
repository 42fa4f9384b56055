// Tests for the serving subsystem: prediction cache LRU behavior, micro
// batcher coalescing/backpressure, serialization robustness, tensor copy
// accounting, and served-vs-offline prediction equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/deepmap.h"
#include "datasets/registry.h"
#include "kernels/wl.h"
#include "nn/model.h"
#include "nn/serialization.h"
#include "serve/cluster.h"
#include "serve/engine.h"

namespace deepmap {
namespace {

using serve::CompiledModel;
using serve::ForwardScratch;
using serve::InferenceEngine;
using serve::MicroBatcher;
using serve::Prediction;
using serve::PredictionCache;
using serve::ServeCluster;
using serve::ServeRequest;

Prediction MakePrediction(int label) {
  Prediction p;
  p.label = label;
  p.probabilities = {1.0f};
  return p;
}

// ---------------------------------------------------------------------------
// PredictionCache

TEST(PredictionCacheTest, LruEvictionOrder) {
  PredictionCache cache(2);
  cache.Insert("A", MakePrediction(0));
  cache.Insert("B", MakePrediction(1));
  // Touch A so B becomes the least recently used entry.
  ASSERT_TRUE(cache.Lookup("A").has_value());
  cache.Insert("C", MakePrediction(2));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Lookup("B").has_value());
  auto a = cache.Lookup("A");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->label, 0);
  std::vector<std::string> keys = cache.KeysByRecency();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "A");  // refreshed by the lookup above
  EXPECT_EQ(keys[1], "C");
}

TEST(PredictionCacheTest, InsertRefreshesExistingKey) {
  PredictionCache cache(2);
  cache.Insert("A", MakePrediction(0));
  cache.Insert("B", MakePrediction(1));
  cache.Insert("A", MakePrediction(7));  // refresh, not a new entry
  cache.Insert("C", MakePrediction(2));  // evicts B, not A

  EXPECT_FALSE(cache.Lookup("B").has_value());
  auto a = cache.Lookup("A");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->label, 7);
}

TEST(PredictionCacheTest, ZeroCapacityDisablesCache) {
  PredictionCache cache(0);
  cache.Insert("A", MakePrediction(0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("A").has_value());
}

TEST(PredictionCacheTest, ShardCountClampsToCapacity) {
  // capacity < num_shards used to mint zero-slot shards whose key slice
  // silently never cached; the shard count now clamps so every shard owns
  // at least one slot and every key remains cacheable.
  PredictionCache cache(3, 8);
  EXPECT_EQ(cache.num_shards(), 3u);
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    EXPECT_GE(cache.shard_capacity(s), 1u) << "shard " << s;
  }
  for (int k = 0; k < 16; ++k) {
    const std::string key = "key" + std::to_string(k);
    cache.Insert(key, MakePrediction(k));
    auto hit = cache.Lookup(key);  // freshly inserted: must be cached
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(hit->label, k);
  }
  EXPECT_LE(cache.size(), 3u);

  // Capacity 0 stays the documented "disabled" mode: one shard, no slots.
  PredictionCache disabled(0, 8);
  EXPECT_EQ(disabled.num_shards(), 1u);
  disabled.Insert("A", MakePrediction(0));
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(PredictionCacheTest, ShardedCacheRoutesKeysAndCountsPerShard) {
  PredictionCache cache(8, 4);
  EXPECT_EQ(cache.num_shards(), 4u);
  EXPECT_EQ(cache.shard_capacity(), 2u);

  // Each key lives on exactly one stable shard: a miss then a hit for the
  // same key must land on the same stripe's counters.
  for (int k = 0; k < 6; ++k) {
    const std::string key = "key" + std::to_string(k);
    const size_t shard = cache.ShardIndexFor(key);
    ASSERT_LT(shard, cache.num_shards());
    const int64_t misses_before = cache.shard_misses(shard);
    const int64_t hits_before = cache.shard_hits(shard);
    EXPECT_FALSE(cache.Lookup(key).has_value());
    cache.Insert(key, MakePrediction(k));
    auto hit = cache.Lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->label, k);
    EXPECT_EQ(cache.shard_misses(shard), misses_before + 1);
    EXPECT_EQ(cache.shard_hits(shard), hits_before + 1);
  }

  // Aggregates are exactly the per-shard sums.
  int64_t hits = 0, misses = 0, evictions = 0;
  size_t size = 0;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    hits += cache.shard_hits(s);
    misses += cache.shard_misses(s);
    evictions += cache.shard_evictions(s);
    size += cache.shard_size(s);
  }
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.evictions(), evictions);
  EXPECT_EQ(cache.size(), size);
  EXPECT_EQ(cache.hits(), 6);
  EXPECT_EQ(cache.misses(), 6);
}

TEST(PredictionCacheTest, ShardedCacheEvictsPerShardAndExportsCounters) {
  obs::MetricsRegistry registry;
  PredictionCache cache(4, 2, &registry);

  // Overfill: 12 distinct keys into 4 total slots forces evictions in every
  // shard that received more than its capacity of 2.
  for (int k = 0; k < 12; ++k) {
    cache.Insert("key" + std::to_string(k), MakePrediction(k));
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.evictions(), 0);
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    EXPECT_LE(cache.shard_size(s), cache.shard_capacity());
  }

  // The registry mirrors every shard's counters under the documented names.
  std::ostringstream scrape;
  registry.WritePrometheusText(scrape);
  const std::string text = scrape.str();
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const std::string prefix =
        "deepmap_serve_cache_shard" + std::to_string(s) + "_";
    EXPECT_NE(text.find(prefix + "hits_total"), std::string::npos) << text;
    EXPECT_NE(text.find(prefix + "misses_total"), std::string::npos);
    EXPECT_NE(text.find(prefix + "evictions_total"), std::string::npos);
  }
}

TEST(PredictionCacheTest, ConcurrentShardedAccessKeepsCountsConsistent) {
  PredictionCache cache(64, 8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key" + std::to_string((t * 7 + i) % 32);
        if (!cache.Lookup(key).has_value()) {
          cache.Insert(key, MakePrediction(i));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.hits() + cache.misses(),
            int64_t{kThreads} * kOpsPerThread);
  EXPECT_LE(cache.size(), 64u);
}

// ---------------------------------------------------------------------------
// MicroBatcher

ServeRequest MakeRequest() {
  ServeRequest r;
  r.graph = graph::Graph(1);
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

void FulfillAll(std::vector<ServeRequest>& batch) {
  for (ServeRequest& r : batch) r.promise.set_value(MakePrediction(0));
}

TEST(MicroBatcherTest, SubmitWakesIdleDispatcherImmediately) {
  // Regression: an idle dispatcher must sleep on the work cv, not poll on a
  // max_wait_us-bounded timer. With max_batch == 1 the size trigger fires
  // the moment one request arrives, so a wait bounded only by the 60 s
  // window below would hang far past the watchdog.
  MicroBatcher::Options options;
  options.max_batch = 1;
  options.max_wait_us = 60 * 1000 * 1000;
  MicroBatcher batcher(options, [](std::vector<ServeRequest>&& batch,
                                   size_t) { FulfillAll(batch); });

  ServeRequest request = MakeRequest();
  std::future<StatusOr<Prediction>> future = request.promise.get_future();
  ASSERT_TRUE(batcher.Submit(std::move(request)).ok());
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "idle dispatcher slept through a submit wakeup";
  EXPECT_TRUE(future.get().ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, FlushesWhenBatchIsFull) {
  MicroBatcher::Options options;
  options.max_batch = 4;
  options.max_wait_us = 60 * 1000 * 1000;  // only the size trigger can fire
  std::mutex mu;
  std::vector<size_t> batch_sizes;
  MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch,
                                    size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      batch_sizes.push_back(batch.size());
    }
    FulfillAll(batch);
  });

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 4; ++i) {
    ServeRequest r = MakeRequest();
    futures.push_back(r.promise.get_future());
    ASSERT_TRUE(batcher.Submit(std::move(r)).ok());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 4u);
}

TEST(MicroBatcherTest, FlushesOnTimeoutWithPartialBatch) {
  MicroBatcher::Options options;
  options.max_batch = 100;  // never reached
  options.max_wait_us = 2000;
  std::mutex mu;
  std::vector<size_t> batch_sizes;
  MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch,
                                    size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      batch_sizes.push_back(batch.size());
    }
    FulfillAll(batch);
  });

  ServeRequest a = MakeRequest();
  ServeRequest b = MakeRequest();
  auto fa = a.promise.get_future();
  auto fb = b.promise.get_future();
  ASSERT_TRUE(batcher.Submit(std::move(a)).ok());
  ASSERT_TRUE(batcher.Submit(std::move(b)).ok());
  // Only the deadline can flush this partial batch.
  EXPECT_TRUE(fa.get().ok());
  EXPECT_TRUE(fb.get().ok());

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(batch_sizes.size(), 1u);
  EXPECT_LE(batch_sizes[0], 2u);
}

TEST(MicroBatcherTest, BoundedQueueRejectsWhenFull) {
  MicroBatcher::Options options;
  options.max_batch = 1;
  options.max_wait_us = 0;
  options.queue_capacity = 2;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> handled{0};
  MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch,
                                    size_t) {
    // Block the dispatcher on the first batch so the queue can fill up.
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
    handled += static_cast<int>(batch.size());
    FulfillAll(batch);
  });

  // First request is picked up by the dispatcher and parks in the handler.
  ServeRequest first = MakeRequest();
  auto f0 = first.promise.get_future();
  ASSERT_TRUE(batcher.Submit(std::move(first)).ok());
  while (batcher.queue_depth() != 0) std::this_thread::yield();

  // Now fill the bounded queue behind the parked dispatcher.
  std::vector<std::future<StatusOr<Prediction>>> futures;
  futures.push_back(std::move(f0));
  for (int i = 0; i < 2; ++i) {
    ServeRequest r = MakeRequest();
    futures.push_back(r.promise.get_future());
    ASSERT_TRUE(batcher.Submit(std::move(r)).ok());
  }
  ServeRequest overflow = MakeRequest();
  Status s = batcher.Submit(std::move(overflow));
  EXPECT_FALSE(s.ok());
  // Queue-full is retryable backpressure, distinct from the permanent
  // FailedPrecondition of a stopped batcher.
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(handled.load(), 3);
}

TEST(MicroBatcherTest, ConcurrentSubmittersAllGetAnswers) {
  MicroBatcher::Options options;
  options.max_batch = 8;
  options.max_wait_us = 500;
  options.queue_capacity = 4096;
  std::atomic<int> handled{0};
  MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch,
                                    size_t) {
    handled += static_cast<int>(batch.size());
    FulfillAll(batch);
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ServeRequest r = MakeRequest();
        auto f = r.promise.get_future();
        ASSERT_TRUE(batcher.Submit(std::move(r)).ok());
        if (f.get().ok()) ++answered;
      }
    });
  }
  for (auto& t : threads) t.join();
  batcher.Drain();
  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(handled.load(), kThreads * kPerThread);
  EXPECT_EQ(batcher.queue_depth(), 0u);
}

TEST(MicroBatcherTest, StopDrainsQueuedRequests) {
  MicroBatcher::Options options;
  options.max_batch = 64;
  options.max_wait_us = 60 * 1000 * 1000;  // no deadline flush
  std::atomic<int> handled{0};
  std::vector<std::future<StatusOr<Prediction>>> futures;
  {
    MicroBatcher batcher(options, [&](std::vector<ServeRequest>&& batch,
                                      size_t) {
      handled += static_cast<int>(batch.size());
      FulfillAll(batch);
    });
    for (int i = 0; i < 5; ++i) {
      ServeRequest r = MakeRequest();
      futures.push_back(r.promise.get_future());
      ASSERT_TRUE(batcher.Submit(std::move(r)).ok());
    }
    // Destruction stops the batcher, which must flush the 5 queued
    // requests (far below both triggers) instead of dropping them.
  }
  EXPECT_EQ(handled.load(), 5);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

// ---------------------------------------------------------------------------
// Tensor copy accounting

TEST(TensorCopyCountTest, CountsCopiesNotMoves) {
  nn::Tensor::ResetCopyCount();
  nn::Tensor a({4});
  a.Fill(1.0f);
  EXPECT_EQ(nn::Tensor::CopyCount(), 0);

  nn::Tensor b = a;  // copy construction
  EXPECT_EQ(nn::Tensor::CopyCount(), 1);

  nn::Tensor c = std::move(a);  // move construction
  EXPECT_EQ(nn::Tensor::CopyCount(), 1);

  nn::Tensor d;
  d = std::move(b);  // move assignment
  EXPECT_EQ(nn::Tensor::CopyCount(), 1);

  d = c;  // copy assignment
  EXPECT_EQ(nn::Tensor::CopyCount(), 2);
  nn::Tensor::ResetCopyCount();
  EXPECT_EQ(nn::Tensor::CopyCount(), 0);
}

// ---------------------------------------------------------------------------
// Serialization robustness

std::filesystem::path TempFile(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

struct ParamSet {
  std::vector<nn::Tensor> values;
  std::vector<nn::Tensor> grads;
  std::vector<nn::Param> params;

  explicit ParamSet(const std::vector<std::vector<int>>& shapes) {
    values.reserve(shapes.size());
    grads.reserve(shapes.size());
    for (const auto& shape : shapes) {
      values.emplace_back(shape);
      grads.emplace_back(shape);
    }
    for (size_t i = 0; i < values.size(); ++i) {
      params.push_back({&values[i], &grads[i]});
    }
  }
};

TEST(SerializationTest, RoundTripRestoresValues) {
  ParamSet a({{2, 3}, {3}});
  for (int i = 0; i < 6; ++i) a.values[0].data()[i] = 0.5f * i;
  for (int i = 0; i < 3; ++i) a.values[1].data()[i] = -1.0f * i;
  auto path = TempFile("serve_test_roundtrip.bin");
  ASSERT_TRUE(nn::SaveParameters(a.params, path.string()).ok());

  ParamSet b({{2, 3}, {3}});
  ASSERT_TRUE(nn::LoadParameters(b.params, path.string()).ok());
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(b.values[0].data()[i], a.values[0].data()[i]);
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(b.values[1].data()[i], a.values[1].data()[i]);
  }
  std::filesystem::remove(path);
}

TEST(SerializationTest, RejectsTruncatedFile) {
  ParamSet a({{4, 4}});
  auto path = TempFile("serve_test_truncated.bin");
  ASSERT_TRUE(nn::SaveParameters(a.params, path.string()).ok());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 7);

  ParamSet b({{4, 4}});
  Status s = nn::LoadParameters(b.params, path.string());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("truncated"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(SerializationTest, RejectsTrailingBytes) {
  ParamSet a({{2, 2}});
  auto path = TempFile("serve_test_trailing.bin");
  ASSERT_TRUE(nn::SaveParameters(a.params, path.string()).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("junk", 4);
  }

  ParamSet b({{2, 2}});
  Status s = nn::LoadParameters(b.params, path.string());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos) << s.ToString();
  // The failed load must leave the destination untouched.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b.values[0].data()[i], 0.0f);
  std::filesystem::remove(path);
}

TEST(SerializationTest, RejectsShapeMismatchWithParamIndex) {
  ParamSet a({{2, 3}, {3}});
  auto path = TempFile("serve_test_shape.bin");
  ASSERT_TRUE(nn::SaveParameters(a.params, path.string()).ok());

  ParamSet wrong_dim({{2, 4}, {3}});
  Status s = nn::LoadParameters(wrong_dim.params, path.string());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("parameter 0"), std::string::npos)
      << s.ToString();

  ParamSet wrong_rank({{2, 3}, {3, 1}});
  s = nn::LoadParameters(wrong_rank.params, path.string());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("parameter 1"), std::string::npos)
      << s.ToString();

  ParamSet wrong_count({{2, 3}});
  s = nn::LoadParameters(wrong_count.params, path.string());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("count mismatch"), std::string::npos)
      << s.ToString();
  std::filesystem::remove(path);
}

TEST(SerializationTest, RejectsNonModelFile) {
  auto path = TempFile("serve_test_not_a_model.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("definitely not DMNN data", 24);
  }
  ParamSet b({{2, 2}});
  Status s = nn::LoadParameters(b.params, path.string());
  EXPECT_FALSE(s.ok());
  std::filesystem::remove(path);
}

TEST(SerializationTest, AtomicSaveSurvivesInjectedShortWrite) {
  auto path = TempFile("serve_test_atomic_save.bin");
  auto temp = TempFile("serve_test_atomic_save.bin.tmp");

  // v1: a good save that must survive the failed v2 save below.
  ParamSet v1({{2, 2}});
  for (int i = 0; i < 4; ++i) v1.values[0].data()[i] = 10.0f + i;
  ASSERT_TRUE(nn::SaveParameters(v1.params, path.string()).ok());

  // v2 save crashes mid-write (truncated temp file abandoned, like a real
  // crash); the destination must be untouched.
  ParamSet v2({{2, 2}});
  for (int i = 0; i < 4; ++i) v2.values[0].data()[i] = -1.0f;
  FailPointRegistry::Instance().Enable("nn.save.short_write",
                                       FailPointSpec::Once());
  Status s = nn::SaveParameters(v2.params, path.string());
  FailPointRegistry::Instance().DisableAll();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_TRUE(std::filesystem::exists(temp));  // the simulated crash residue
  EXPECT_LT(std::filesystem::file_size(temp),
            std::filesystem::file_size(path));

  // Recovery: v1 is still fully loadable...
  ParamSet loaded({{2, 2}});
  ASSERT_TRUE(nn::LoadParameters(loaded.params, path.string()).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.values[0].data()[i], v1.values[0].data()[i]);
  }
  // ...and the next save overwrites the stale temp file and lands v2.
  ASSERT_TRUE(nn::SaveParameters(v2.params, path.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(temp));
  ASSERT_TRUE(nn::LoadParameters(loaded.params, path.string()).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.values[0].data()[i], -1.0f);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// End-to-end serving (shared trained bundle; training is the slow part, so
// it runs once per process)

struct TrainedBundle {
  graph::GraphDataset dataset;
  core::DeepMapConfig config;
  std::unique_ptr<core::DeepMapPipeline> pipeline;
  std::unique_ptr<core::DeepMapModel> model;
  serve::ModelRegistry registry;
  std::shared_ptr<serve::ServableModel> servable;
};

TrainedBundle& Bundle() {
  static TrainedBundle* bundle = [] {
    auto* b = new TrainedBundle();
    datasets::DatasetOptions options;
    options.min_graphs = 30;
    auto dataset_or = datasets::MakeDataset("PTC_MM", options);
    DEEPMAP_CHECK(dataset_or.ok());
    b->dataset = std::move(dataset_or).value();

    // WL features: serving-time replay is exactly deterministic, so served
    // predictions must match the offline pipeline bit for bit.
    b->config.features.kind = kernels::FeatureMapKind::kWlSubtree;
    b->config.features.wl.iterations = 2;
    b->config.features.max_dense_dim = 32;
    b->config.train.epochs = 3;
    b->config.train.batch_size = 8;

    b->pipeline =
        std::make_unique<core::DeepMapPipeline>(b->dataset, b->config);
    b->model = std::make_unique<core::DeepMapModel>(
        b->pipeline->feature_dim(), b->pipeline->sequence_length(),
        b->pipeline->num_classes(), b->config);
    nn::TrainClassifier(*b->model, b->pipeline->inputs(),
                        b->dataset.labels(), b->config.train);

    Status s = b->registry.Adopt("ptc_mm", b->dataset, b->config, *b->model);
    DEEPMAP_CHECK(s.ok());
    b->servable = b->registry.Get("ptc_mm");
    DEEPMAP_CHECK(b->servable != nullptr);
    return b;
  }();
  return *bundle;
}

TEST(CompiledModelTest, LogitsBitIdenticalToTrainingStack) {
  TrainedBundle& b = Bundle();
  const CompiledModel& compiled = b.servable->compiled();
  ForwardScratch scratch;
  for (int i = 0; i < b.dataset.size(); ++i) {
    const nn::Tensor& input = b.pipeline->inputs()[i];
    nn::Tensor offline = b.model->Forward(input, false);
    nn::Tensor served = compiled.Logits(input, &scratch);
    ASSERT_EQ(served.NumElements(), offline.NumElements());
    for (int c = 0; c < offline.NumElements(); ++c) {
      ASSERT_EQ(served.data()[c], offline.data()[c])
          << "graph " << i << " logit " << c;
    }
  }
}

TEST(CompiledModelTest, CompileRejectsWrongArchitecture) {
  TrainedBundle& b = Bundle();
  core::DeepMapConfig narrow = b.config;
  narrow.conv1_channels = 8;  // trained model has 32
  StatusOr<CompiledModel> compiled = CompiledModel::Compile(
      *b.model, narrow, b.pipeline->feature_dim(),
      b.pipeline->sequence_length(), b.pipeline->num_classes());
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("conv1"), std::string::npos)
      << compiled.status().ToString();
}

TEST(ModelRegistryTest, LoadFromDiskServesAndValidates) {
  TrainedBundle& b = Bundle();
  auto path = TempFile("serve_test_registry_model.bin");
  ASSERT_TRUE(nn::SaveParameters(b.model->Params(), path.string()).ok());

  serve::ModelRegistry registry;
  ASSERT_TRUE(
      registry.Load("disk", b.dataset, b.config, path.string()).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_FALSE(
      registry.Load("disk", b.dataset, b.config, path.string()).ok());
  EXPECT_EQ(registry.Get("missing"), nullptr);

  // A config implying a different architecture must be rejected at load
  // time, not produce a silently broken servable.
  core::DeepMapConfig narrow = b.config;
  narrow.conv1_channels = 8;
  Status s = registry.Load("narrow", b.dataset, narrow, path.string());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(registry.size(), 1u);

  // The disk-loaded servable predicts identically to the adopted one.
  std::shared_ptr<serve::ServableModel> disk = registry.Get("disk");
  ASSERT_NE(disk, nullptr);
  ForwardScratch s1, s2;
  const nn::Tensor& input = b.pipeline->inputs()[0];
  nn::Tensor from_disk = disk->compiled().Logits(input, &s1);
  nn::Tensor adopted = b.servable->compiled().Logits(input, &s2);
  for (int c = 0; c < adopted.NumElements(); ++c) {
    EXPECT_EQ(from_disk.data()[c], adopted.data()[c]);
  }

  EXPECT_TRUE(registry.Unload("disk").ok());
  EXPECT_FALSE(registry.Unload("disk").ok());
  std::filesystem::remove(path);
}

TEST(InferenceEngineTest, ServedPredictionMatchesOfflinePipeline) {
  TrainedBundle& b = Bundle();
  InferenceEngine::Options options;
  options.cache_capacity = 0;  // force the full preprocess+forward path
  options.batcher.max_batch = 16;
  options.batcher.max_wait_us = 200;
  InferenceEngine engine(b.servable, options);

  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (const graph::Graph& g : b.dataset.graphs()) {
    futures.push_back(engine.Submit(g));
  }
  for (int i = 0; i < b.dataset.size(); ++i) {
    StatusOr<Prediction> served = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    int offline = nn::Predict(*b.model, b.pipeline->inputs()[i]);
    EXPECT_EQ(served.value().label, offline) << "graph " << i;
  }
  EXPECT_EQ(engine.metrics().requests(), b.dataset.size());
  EXPECT_EQ(engine.metrics().cache_hits(), 0);
}

TEST(InferenceEngineTest, WarmCacheHitSkipsPreprocessing) {
  TrainedBundle& b = Bundle();
  InferenceEngine::Options options;
  options.cache_capacity = 64;
  options.batcher.max_batch = 4;
  options.batcher.max_wait_us = 100;
  InferenceEngine engine(b.servable, options);

  const graph::Graph& g = b.dataset.graph(0);
  StatusOr<Prediction> cold = engine.Classify(g);
  ASSERT_TRUE(cold.ok());
  StatusOr<Prediction> warm = engine.Classify(g);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().label, cold.value().label);

  const serve::ServeMetrics& metrics = engine.metrics();
  EXPECT_EQ(metrics.requests(), 2);
  EXPECT_EQ(metrics.cache_hits(), 1);
  EXPECT_EQ(metrics.cache_misses(), 1);
  // Only the cold request ran the pipeline stages: the warm hit skipped
  // preprocessing (and the forward pass) entirely.
  EXPECT_EQ(metrics.stage_count("preprocess"), 1);
  EXPECT_EQ(metrics.stage_count("forward"), 1);
  EXPECT_EQ(metrics.stage_count("total"), 2);
  EXPECT_EQ(engine.cache().hits(), 1);
}

// ---------------------------------------------------------------------------
// Cache-key soundness: the key may only merge graphs the model answers
// identically.

/// The former cache key's equivalence class: |V|, |E| and the multiset of
/// 2-round WL colors (a shared-dictionary refinery, so colors compare across
/// graphs). Graphs with equal classes shared one cache entry under the old
/// "n:m:<2-round WL hash>" key.
std::vector<int64_t> FormerKeyClass(kernels::WlRefinement& wl,
                                    const graph::Graph& g) {
  std::vector<int64_t> colors = wl.Refine(g).back();
  std::sort(colors.begin(), colors.end());
  colors.insert(colors.begin(), {g.NumVertices(), g.NumEdges()});
  return colors;
}

/// Label plus probability bytes of a prediction.
std::string AnswerBytes(const Prediction& p) {
  std::string bytes(reinterpret_cast<const char*>(&p.label), sizeof(p.label));
  bytes.append(reinterpret_cast<const char*>(p.probabilities.data()),
               p.probabilities.size() * sizeof(float));
  return bytes;
}

/// Bytes of a fresh Predict(Preprocess(g)). A WL color id never changes
/// once assigned, so the answer does not depend on what was preprocessed
/// before.
std::string FreshAnswerBytes(serve::ServableModel& servable,
                             const graph::Graph& g) {
  StatusOr<nn::Tensor> input = servable.preprocessor().Preprocess(g);
  DEEPMAP_CHECK(input.ok());
  ForwardScratch scratch;
  return AnswerBytes(servable.compiled().Predict(input.value(), &scratch));
}

TEST(PredictionCacheTest, FormerKeyCollisionsGetTheirOwnAnswers) {
  TrainedBundle& b = Bundle();
  graph::Label alphabet = 1;
  for (const graph::Graph& g : b.dataset.graphs()) {
    alphabet = std::max(alphabet, g.LabelAlphabetSize());
  }

  // Seeded search for pairs the former WL-hash key merged although the
  // model answers them differently: small labelled graphs against vertex
  // renumberings of themselves (DEEPMAP breaks centrality ties by vertex
  // id), plus the WL-equivalent, non-isomorphic C6 / two-triangles pair.
  kernels::WlConfig wl_config;
  wl_config.iterations = 2;
  kernels::WlRefinement wl(wl_config);
  std::vector<std::pair<graph::Graph, graph::Graph>> pairs;
  auto consider = [&](const graph::Graph& first, const graph::Graph& second) {
    ASSERT_EQ(FormerKeyClass(wl, first), FormerKeyClass(wl, second));
    if (FreshAnswerBytes(*b.servable, first) !=
        FreshAnswerBytes(*b.servable, second)) {
      pairs.emplace_back(first, second);
    }
  };
  Rng rng(0x5eed);
  int permutation_pairs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 5 + static_cast<int>(rng.Index(6));
    graph::Graph g;
    for (int v = 0; v < n; ++v) {
      g.AddVertex(
          static_cast<graph::Label>(rng.Index(static_cast<size_t>(alphabet))));
    }
    for (int v = 1; v < n; ++v) {  // a random tree keeps g connected
      g.AddEdge(v, static_cast<graph::Vertex>(rng.Index(v)));
    }
    for (int extra = 0; extra < n / 2; ++extra) {
      g.AddEdge(static_cast<graph::Vertex>(rng.Index(n)),
                static_cast<graph::Vertex>(rng.Index(n)));
    }
    std::vector<graph::Vertex> perm(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = v;
    for (int v = n - 1; v > 0; --v) {
      std::swap(perm[static_cast<size_t>(v)],
                perm[rng.Index(static_cast<size_t>(v) + 1)]);
    }
    const size_t before = pairs.size();
    consider(g, g.Permuted(perm));
    permutation_pairs += static_cast<int>(pairs.size() - before);
  }
  const graph::Graph c6 = graph::Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const graph::Graph triangles = graph::Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const size_t before_regular = pairs.size();
  consider(c6, triangles);
  // The search must find both kinds, or it proves nothing.
  EXPECT_GT(permutation_pairs, 0);
  EXPECT_EQ(pairs.size(), before_regular + 1)
      << "C6 and two triangles got identical answers";

  // A cache-on cluster must answer the second graph of every pair with its
  // own fresh bytes, not the cached answer of the first.
  ServeCluster::Options options;
  options.num_replicas = 2;
  options.cache_capacity = 4 * pairs.size();
  options.replica.num_threads = 1;
  ServeCluster cluster(b.servable, options);
  for (const auto& [first, second] : pairs) {
    StatusOr<Prediction> a = cluster.Submit(first).get();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(AnswerBytes(a.value()), FreshAnswerBytes(*b.servable, first));
    StatusOr<Prediction> c = cluster.Submit(second).get();
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_EQ(AnswerBytes(c.value()), FreshAnswerBytes(*b.servable, second))
        << "second graph answered from the first graph's cache entry";
  }
  // Exact keys still hit: resubmitting each second graph is answered from
  // its own entry.
  for (const auto& [first, second] : pairs) {
    StatusOr<Prediction> again = cluster.Submit(second).get();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(AnswerBytes(again.value()),
              FreshAnswerBytes(*b.servable, second));
  }
  EXPECT_EQ(cluster.cache().hits(), static_cast<int64_t>(pairs.size()));
}

TEST(InferenceEngineTest, RejectsUnservableGraphs) {
  TrainedBundle& b = Bundle();
  InferenceEngine::Options options;
  options.batcher.max_wait_us = 100;
  InferenceEngine engine(b.servable, options);

  StatusOr<Prediction> empty = engine.Classify(graph::Graph());
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  graph::Graph oversized(b.servable->sequence_length() + 1);
  StatusOr<Prediction> too_big = engine.Classify(oversized);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
}

TEST(InferenceEngineTest, ConcurrentSubmittersGetConsistentAnswers) {
  TrainedBundle& b = Bundle();
  InferenceEngine::Options options;
  options.cache_capacity = 1024;
  options.batcher.max_batch = 16;
  options.batcher.max_wait_us = 300;
  InferenceEngine engine(b.servable, options);

  // Cache keys are exact, so every graph's cached prediction is its own and
  // must match the offline path on every round.
  std::vector<int> expected;
  for (int i = 0; i < b.dataset.size(); ++i) {
    expected.push_back(nn::Predict(*b.model, b.pipeline->inputs()[i]));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  const int n = b.dataset.size();
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = t; i < n; i += kThreads) {
          const size_t idx = static_cast<size_t>(i);
          StatusOr<Prediction> served = engine.Classify(b.dataset.graph(i));
          if (!served.ok()) {
            ++failures;
          } else if (served.value().label != expected[idx]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.Drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(engine.metrics().cache_hits(), 0);
}

TEST(InferenceEngineTest, ServingLoopMakesNoTensorCopies) {
  TrainedBundle& b = Bundle();
  InferenceEngine::Options options;
  options.cache_capacity = 0;  // every request runs the full pipeline
  options.batcher.max_batch = 8;
  options.batcher.max_wait_us = 200;
  InferenceEngine engine(b.servable, options);

  nn::Tensor::ResetCopyCount();
  std::vector<std::future<StatusOr<Prediction>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.Submit(b.dataset.graph(i % b.dataset.size())));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  // Preprocess -> batch -> forward must move tensors end to end; a copy here
  // is a per-request [w*r, m] allocation on the hot path.
  EXPECT_EQ(nn::Tensor::CopyCount(), 0);
}

}  // namespace
}  // namespace deepmap
