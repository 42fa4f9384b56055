// GraphDataset: a collection of graphs with per-graph class labels, plus the
// dataset-level statistics reported in the paper's Table 1.
#ifndef DEEPMAP_GRAPH_DATASET_H_
#define DEEPMAP_GRAPH_DATASET_H_

#include <string>
#include <vector>

#include "graph/graph.h"

namespace deepmap::graph {

/// Summary statistics matching the columns of the paper's Table 1.
struct DatasetStats {
  int size = 0;             // number of graphs
  int num_classes = 0;      // distinct class labels
  double avg_vertices = 0;  // average |V|
  double avg_edges = 0;     // average |E|
  int num_vertex_labels = 0;  // distinct vertex labels across the dataset
  bool has_vertex_labels = true;
};

/// A graph-classification dataset: graphs plus 0-based class labels.
class GraphDataset {
 public:
  GraphDataset() = default;
  GraphDataset(std::string name, std::vector<Graph> graphs,
               std::vector<int> labels, bool has_vertex_labels = true);

  const std::string& name() const { return name_; }
  int size() const { return static_cast<int>(graphs_.size()); }

  const std::vector<Graph>& graphs() const { return graphs_; }
  const Graph& graph(int i) const;

  const std::vector<int>& labels() const { return labels_; }
  int label(int i) const;

  bool has_vertex_labels() const { return has_vertex_labels_; }

  /// Number of distinct class labels (labels are required to be 0..C-1).
  int NumClasses() const;

  /// Largest vertex count over all graphs (the paper's w).
  int MaxVertices() const;

  /// Distinct vertex-label count across all graphs.
  int NumVertexLabels() const;

  /// Replaces every vertex label with the vertex degree. The paper applies
  /// this to datasets without vertex labels. Marks the dataset labeled.
  void UseDegreesAsLabels();

  /// Remaps vertex labels to a dense range [0, k) preserving distinctness.
  /// Returns k.
  int CompactVertexLabels();

  /// Table 1-style statistics.
  DatasetStats Stats() const;

  /// Subset by graph indices (copies).
  GraphDataset Subset(const std::vector<int>& indices,
                      const std::string& suffix = "_subset") const;

 private:
  std::string name_;
  std::vector<Graph> graphs_;
  std::vector<int> labels_;
  bool has_vertex_labels_ = true;
};

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_DATASET_H_
