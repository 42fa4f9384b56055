#include "graph/dataset.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"

namespace deepmap::graph {

GraphDataset::GraphDataset(std::string name, std::vector<Graph> graphs,
                           std::vector<int> labels, bool has_vertex_labels)
    : name_(std::move(name)),
      graphs_(std::move(graphs)),
      labels_(std::move(labels)),
      has_vertex_labels_(has_vertex_labels) {
  DEEPMAP_CHECK_EQ(graphs_.size(), labels_.size());
}

const Graph& GraphDataset::graph(int i) const {
  DEEPMAP_CHECK_GE(i, 0);
  DEEPMAP_CHECK_LT(i, size());
  return graphs_[i];
}

int GraphDataset::label(int i) const {
  DEEPMAP_CHECK_GE(i, 0);
  DEEPMAP_CHECK_LT(i, size());
  return labels_[i];
}

int GraphDataset::NumClasses() const {
  int max_label = -1;
  for (int y : labels_) {
    DEEPMAP_CHECK_GE(y, 0);
    max_label = std::max(max_label, y);
  }
  return max_label + 1;
}

int GraphDataset::MaxVertices() const {
  int w = 0;
  for (const Graph& g : graphs_) w = std::max(w, g.NumVertices());
  return w;
}

int GraphDataset::NumVertexLabels() const {
  std::set<Label> labels;
  for (const Graph& g : graphs_) {
    labels.insert(g.Labels().begin(), g.Labels().end());
  }
  return static_cast<int>(labels.size());
}

void GraphDataset::UseDegreesAsLabels() {
  for (Graph& g : graphs_) {
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      g.SetLabel(v, static_cast<Label>(g.Degree(v)));
    }
  }
  has_vertex_labels_ = true;
}

int GraphDataset::CompactVertexLabels() {
  std::map<Label, Label> remap;
  for (const Graph& g : graphs_) {
    for (Label l : g.Labels()) {
      remap.try_emplace(l, static_cast<Label>(remap.size()));
    }
  }
  for (Graph& g : graphs_) {
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      g.SetLabel(v, remap.at(g.GetLabel(v)));
    }
  }
  return static_cast<int>(remap.size());
}

DatasetStats GraphDataset::Stats() const {
  DatasetStats stats;
  stats.size = size();
  stats.num_classes = NumClasses();
  stats.has_vertex_labels = has_vertex_labels_;
  double total_v = 0;
  double total_e = 0;
  for (const Graph& g : graphs_) {
    total_v += g.NumVertices();
    total_e += g.NumEdges();
  }
  if (!graphs_.empty()) {
    stats.avg_vertices = total_v / graphs_.size();
    stats.avg_edges = total_e / graphs_.size();
  }
  stats.num_vertex_labels = NumVertexLabels();
  return stats;
}

GraphDataset GraphDataset::Subset(const std::vector<int>& indices,
                                  const std::string& suffix) const {
  std::vector<Graph> graphs;
  std::vector<int> labels;
  graphs.reserve(indices.size());
  labels.reserve(indices.size());
  for (int i : indices) {
    graphs.push_back(graph(i));
    labels.push_back(label(i));
  }
  return GraphDataset(name_ + suffix, std::move(graphs), std::move(labels),
                      has_vertex_labels_);
}

}  // namespace deepmap::graph
