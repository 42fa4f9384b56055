#include "serve/prediction_cache.h"

#include <algorithm>
#include <functional>

#include "common/failpoint.h"

namespace deepmap::serve {

PredictionCache::PredictionCache(size_t capacity, size_t num_shards,
                                 obs::MetricsRegistry* registry)
    : capacity_(capacity) {
  // More shards than capacity slots would leave zero-slot shards whose key
  // slice silently never caches; clamp so every shard owns at least one
  // slot. Capacity 0 (cache disabled) degenerates to one empty shard.
  num_shards = std::clamp<size_t>(num_shards, 1, std::max<size_t>(capacity, 1));
  // Split the budget exactly: base slots everywhere, and the remainder
  // handed out one slot each to the first shards. The previous ceil
  // division gave EVERY shard the rounded-up quota, so a (capacity=10,
  // shards=4) cache could hold 12 entries.
  const size_t base = capacity / num_shards;
  const size_t remainder = capacity % num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < remainder ? 1 : 0);
    if (registry != nullptr) {
      const std::string prefix =
          "deepmap_serve_cache_shard" + std::to_string(i);
      shard->hits_counter = &registry->GetCounter(
          prefix + "_hits_total", "lookups answered by this cache shard");
      shard->misses_counter = &registry->GetCounter(
          prefix + "_misses_total", "lookups this cache shard missed");
      shard->evictions_counter = &registry->GetCounter(
          prefix + "_evictions_total", "LRU evictions from this cache shard");
    }
    shards_.push_back(std::move(shard));
  }
}

std::string PredictionCache::KeyFor(const graph::Graph& g,
                                    int /*wl_iterations*/) {
  return KeyFromDigest(graph::DigestOf(g));
}

std::string PredictionCache::KeyFromDigest(const graph::GraphDigest& digest) {
  return digest.ToHex();
}

size_t PredictionCache::ShardIndexFor(const std::string& key) const {
  if (shards_.size() == 1) return 0;
  return std::hash<std::string>{}(key) % shards_.size();
}

std::optional<Prediction> PredictionCache::Lookup(const std::string& key) {
  Shard& shard = *shards_[ShardIndexFor(key)];
  // Simulated cache outage: the entry (if any) is unreachable, so the
  // request falls through to the full pipeline — same behavior as a miss.
  if (DEEPMAP_FAILPOINT_TRIGGERED("serve.cache.lookup")) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.misses;
    if (shard.misses_counter != nullptr) shard.misses_counter->Increment();
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    if (shard.misses_counter != nullptr) shard.misses_counter->Increment();
    return std::nullopt;
  }
  ++shard.hits;
  if (shard.hits_counter != nullptr) shard.hits_counter->Increment();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  return it->second->second;
}

void PredictionCache::Insert(const std::string& key, Prediction prediction) {
  if (capacity_ == 0) return;
  // Simulated cache outage on the write path: the warm-up is lost, which a
  // correct engine must tolerate (the next request just misses again).
  if (DEEPMAP_FAILPOINT_TRIGGERED("serve.cache.insert")) return;
  Shard& shard = *shards_[ShardIndexFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(prediction);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard.capacity) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
    if (shard.evictions_counter != nullptr) {
      shard.evictions_counter->Increment();
    }
  }
  shard.lru.emplace_front(key, std::move(prediction));
  shard.index[key] = shard.lru.begin();
}

bool PredictionCache::Erase(const std::string& key) {
  Shard& shard = *shards_[ShardIndexFor(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  return true;
}

void PredictionCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

size_t PredictionCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

int64_t PredictionCache::hits() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->hits;
  }
  return total;
}

int64_t PredictionCache::misses() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->misses;
  }
  return total;
}

int64_t PredictionCache::evictions() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->evictions;
  }
  return total;
}

int64_t PredictionCache::shard_hits(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->hits;
}

int64_t PredictionCache::shard_misses(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->misses;
}

int64_t PredictionCache::shard_evictions(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->evictions;
}

size_t PredictionCache::shard_size(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->lru.size();
}

std::vector<std::string> PredictionCache::KeysByRecency() const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& e : shard->lru) keys.push_back(e.first);
  }
  return keys;
}

}  // namespace deepmap::serve
