#include "serve/dynamic_graphs.h"

#include <utility>

#include "serve/prediction_cache.h"

namespace deepmap::serve {
namespace {

/// Key of the entry's CURRENT graph. Caller holds the entry mutex.
std::string KeyOf(const graph::DynamicGraph& dyn) {
  return PredictionCache::KeyFromDigest(dyn.digest());
}

}  // namespace

DynamicGraphStore::DynamicGraphStore(int /*wl_iterations*/) {}

Status DynamicGraphStore::Register(const std::string& id, graph::Graph g) {
  auto entry = std::make_shared<Entry>(std::move(g));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = graphs_.emplace(id, std::move(entry));
  if (!inserted) {
    return Status::FailedPrecondition("dynamic graph '" + id +
                                      "' already registered");
  }
  return Status::Ok();
}

Status DynamicGraphStore::Unregister(const std::string& id) {
  // Only the map's reference is dropped here. A concurrent ApplyDelta that
  // already copied the shared_ptr (between its Find and locking entry->mu)
  // keeps the entry alive and destroys it when it finishes — so no caller
  // ever locks a destroyed mutex.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(id);
  if (it == graphs_.end()) {
    return Status::NotFound("dynamic graph '" + id + "' is not registered");
  }
  graphs_.erase(it);
  return Status::Ok();
}

std::shared_ptr<DynamicGraphStore::Entry> DynamicGraphStore::Find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(id);
  return it == graphs_.end() ? nullptr : it->second;
}

StatusOr<DeltaResult> DynamicGraphStore::ApplyDelta(
    const std::string& id, const std::vector<graph::EdgeUpdate>& updates) {
  std::shared_ptr<Entry> entry = Find(id);
  if (entry == nullptr) {
    return Status::NotFound("dynamic graph '" + id + "' is not registered");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  DeltaResult result;
  result.old_key = KeyOf(entry->dyn);
  if (Status s = entry->dyn.ApplyAll(updates); !s.ok()) return s;
  result.applied = static_cast<int64_t>(updates.size());
  result.new_key = KeyOf(entry->dyn);
  result.graph = entry->dyn.graph();
  return result;
}

StatusOr<graph::Graph> DynamicGraphStore::Snapshot(
    const std::string& id) const {
  std::shared_ptr<Entry> entry = Find(id);
  if (entry == nullptr) {
    return Status::NotFound("dynamic graph '" + id + "' is not registered");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->dyn.graph();
}

StatusOr<std::string> DynamicGraphStore::CacheKey(
    const std::string& id) const {
  std::shared_ptr<Entry> entry = Find(id);
  if (entry == nullptr) {
    return Status::NotFound("dynamic graph '" + id + "' is not registered");
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  return KeyOf(entry->dyn);
}

size_t DynamicGraphStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.size();
}

}  // namespace deepmap::serve
