// Reader/writer for the TU Dortmund graph-classification dataset format used
// by all benchmarks in the paper (DS_A.txt, DS_graph_indicator.txt,
// DS_graph_labels.txt, optional DS_node_labels.txt).
//
// The original benchmark files are not available in this environment, so the
// synthetic generators in src/datasets/ write this format and the loader
// round-trips it; dropping in real TU files works unchanged.
#ifndef DEEPMAP_GRAPH_TU_FORMAT_H_
#define DEEPMAP_GRAPH_TU_FORMAT_H_

#include <string>

#include "common/status.h"
#include "graph/dataset.h"

namespace deepmap::graph {

/// Loads dataset `name` from `directory` (expects files `name_A.txt`,
/// `name_graph_indicator.txt`, `name_graph_labels.txt` and optionally
/// `name_node_labels.txt`). Graph class labels are compacted to [0, C) by
/// sorted order of raw labels and vertex labels to a dense range. When no
/// node-label file is present the dataset is marked unlabeled (callers
/// typically then apply UseDegreesAsLabels, as the paper does). Every
/// integer field is parsed strictly: trailing garbage, extra columns, and
/// overflow are InvalidArgument, never silently truncated.
StatusOr<GraphDataset> ReadTuDataset(const std::string& directory,
                                     const std::string& name);

/// Writes `dataset` in TU format into `directory` (created by caller).
/// Node labels are written unless the dataset is marked unlabeled. Stream
/// state is checked after the write loop and on flush, so a full disk (or
/// the "graph.tu.write" fail point) surfaces as IoError instead of a
/// silently truncated file.
Status WriteTuDataset(const GraphDataset& dataset,
                      const std::string& directory);

}  // namespace deepmap::graph

#endif  // DEEPMAP_GRAPH_TU_FORMAT_H_
