#include "graph/tu_format.h"

#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace deepmap::graph {
namespace {

StatusOr<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    std::string trimmed = Trim(line);
    if (!trimmed.empty()) lines.push_back(std::move(trimmed));
  }
  return lines;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

StatusOr<std::vector<int>> ParseIntLines(const std::string& path) {
  auto lines = ReadLines(path);
  if (!lines.ok()) return lines.status();
  std::vector<int> values;
  values.reserve(lines.value().size());
  for (const std::string& line : lines.value()) {
    // Full-token parse: "12abc", "1 2", and out-of-range values are all
    // rejected (std::stoi accepted the first two prefixes silently).
    int value = 0;
    if (!ParseFullInt(line, &value)) {
      return Status::InvalidArgument("bad integer '" + line + "' in " + path);
    }
    values.push_back(value);
  }
  return values;
}

}  // namespace

StatusOr<GraphDataset> ReadTuDataset(const std::string& directory,
                                     const std::string& name) {
  const std::string prefix = directory + "/" + name + "_";

  auto indicator = ParseIntLines(prefix + "graph_indicator.txt");
  if (!indicator.ok()) return indicator.status();
  auto graph_labels_raw = ParseIntLines(prefix + "graph_labels.txt");
  if (!graph_labels_raw.ok()) return graph_labels_raw.status();

  const std::vector<int>& ind = indicator.value();
  const int num_graphs = static_cast<int>(graph_labels_raw.value().size());
  if (num_graphs == 0) return Status::InvalidArgument("empty dataset " + name);

  // Vertices are 1-based and grouped by graph id (also 1-based, contiguous).
  std::vector<int> graph_of_vertex(ind.size());
  std::vector<int> local_id(ind.size());
  std::vector<int> graph_sizes(num_graphs, 0);
  for (size_t v = 0; v < ind.size(); ++v) {
    int gid = ind[v] - 1;
    if (gid < 0 || gid >= num_graphs) {
      return Status::InvalidArgument("graph_indicator out of range");
    }
    graph_of_vertex[v] = gid;
    local_id[v] = graph_sizes[gid]++;
  }

  std::vector<Graph> graphs;
  graphs.reserve(num_graphs);
  for (int g = 0; g < num_graphs; ++g) graphs.emplace_back(graph_sizes[g]);

  // Optional node labels.
  bool has_vertex_labels = FileExists(prefix + "node_labels.txt");
  if (has_vertex_labels) {
    auto node_labels = ParseIntLines(prefix + "node_labels.txt");
    if (!node_labels.ok()) return node_labels.status();
    if (node_labels.value().size() != ind.size()) {
      return Status::InvalidArgument("node_labels size mismatch");
    }
    for (size_t v = 0; v < ind.size(); ++v) {
      graphs[graph_of_vertex[v]].SetLabel(local_id[v],
                                          node_labels.value()[v]);
    }
  }

  // Edges: lines "u, v" with 1-based global vertex ids; files list both
  // directions, AddEdge dedups.
  auto edge_lines = ReadLines(prefix + "A.txt");
  if (!edge_lines.ok()) return edge_lines.status();
  for (const std::string& line : edge_lines.value()) {
    auto parts = Split(line, ',');
    if (parts.size() != 2) {
      return Status::InvalidArgument("bad edge line '" + line + "'");
    }
    // ParseFullInt rejects stray extra columns ("1 2" inside one
    // comma-separated field) along with trailing garbage and overflow.
    int u, v;
    if (!ParseFullInt(parts[0], &u) || !ParseFullInt(parts[1], &v)) {
      return Status::InvalidArgument("bad edge line '" + line + "'");
    }
    --u;
    --v;
    if (u < 0 || v < 0 || u >= static_cast<int>(ind.size()) ||
        v >= static_cast<int>(ind.size())) {
      return Status::InvalidArgument("edge vertex id out of range");
    }
    if (graph_of_vertex[u] != graph_of_vertex[v]) {
      return Status::InvalidArgument("edge crosses graphs");
    }
    graphs[graph_of_vertex[u]].AddEdge(local_id[u], local_id[v]);
  }

  // Compact class labels to [0, C) preserving sorted order of raw labels.
  std::vector<int> labels;
  labels.reserve(num_graphs);
  std::map<int, int> class_remap;
  for (int raw : graph_labels_raw.value()) class_remap[raw] = 0;
  int next = 0;
  for (auto& [raw, compact] : class_remap) compact = next++;
  for (int raw : graph_labels_raw.value()) {
    labels.push_back(class_remap[raw]);
  }

  GraphDataset dataset(name, std::move(graphs), std::move(labels),
                       has_vertex_labels);
  if (has_vertex_labels) {
    dataset.CompactVertexLabels();
  }
  return dataset;
}

Status WriteTuDataset(const GraphDataset& dataset,
                      const std::string& directory) {
  const std::string prefix = directory + "/" + dataset.name() + "_";

  std::ofstream a(prefix + "A.txt");
  std::ofstream indicator(prefix + "graph_indicator.txt");
  std::ofstream graph_labels(prefix + "graph_labels.txt");
  if (!a || !indicator || !graph_labels) {
    return Status::IoError("cannot create TU files under " + directory);
  }
  std::ofstream node_labels;
  if (dataset.has_vertex_labels()) {
    node_labels.open(prefix + "node_labels.txt");
    if (!node_labels) return Status::IoError("cannot create node_labels file");
  }

  int vertex_offset = 0;  // global 1-based ids
  for (int gi = 0; gi < dataset.size(); ++gi) {
    const Graph& g = dataset.graph(gi);
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      indicator << (gi + 1) << '\n';
      if (dataset.has_vertex_labels()) node_labels << g.GetLabel(v) << '\n';
    }
    for (const auto& [u, v] : g.EdgeList()) {
      // TU files conventionally list both directions.
      a << (vertex_offset + u + 1) << ", " << (vertex_offset + v + 1) << '\n';
      a << (vertex_offset + v + 1) << ", " << (vertex_offset + u + 1) << '\n';
    }
    graph_labels << dataset.label(gi) << '\n';
    vertex_offset += g.NumVertices();
  }

  // A full disk does not fail operator<< loudly — it just sets badbit on
  // some later write (possibly only at flush). Check every stream after the
  // loop AND after an explicit flush, so a truncated file is an IoError
  // here instead of a parse error (or silent corruption) on a later read.
  // The fail point simulates the out-of-space stream for tests.
  if (DEEPMAP_FAILPOINT_TRIGGERED("graph.tu.write")) {
    a.setstate(std::ios::badbit);
  }
  a.flush();
  indicator.flush();
  graph_labels.flush();
  if (!a || !indicator || !graph_labels) {
    return Status::IoError("short write of TU files under " + directory);
  }
  if (dataset.has_vertex_labels()) {
    node_labels.flush();
    if (!node_labels) {
      return Status::IoError("short write of node_labels under " + directory);
    }
  }
  return Status::Ok();
}

}  // namespace deepmap::graph
