#include "graph/isomorphism.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "graph/algorithms.h"

namespace deepmap::graph {
namespace {

// Encodes g under permutation perm (vertex v -> perm[v]) as label bytes
// followed by the upper-triangular adjacency bits packed into bytes.
std::string EncodeUnderPermutation(const Graph& g,
                                   const std::vector<Vertex>& inverse_perm) {
  const int n = g.NumVertices();
  std::string code;
  code.reserve(n + (n * (n - 1) / 2 + 7) / 8 + 1);
  for (int slot = 0; slot < n; ++slot) {
    // inverse_perm[slot] is the original vertex placed at position slot.
    Label label = g.GetLabel(inverse_perm[slot]);
    DEEPMAP_CHECK_LT(label, 256);
    code.push_back(static_cast<char>(label));
  }
  uint8_t bits = 0;
  int nbits = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      bits <<= 1;
      if (g.HasEdge(inverse_perm[i], inverse_perm[j])) bits |= 1;
      if (++nbits == 8) {
        code.push_back(static_cast<char>(bits));
        bits = 0;
        nbits = 0;
      }
    }
  }
  if (nbits > 0) code.push_back(static_cast<char>(bits << (8 - nbits)));
  return code;
}

}  // namespace

int PairBitIndex(int i, int j, int n) {
  DEEPMAP_CHECK_LT(i, j);
  DEEPMAP_CHECK_LT(j, n);
  // Row-major index over the strict upper triangle.
  return i * n - i * (i + 1) / 2 + (j - i - 1);
}

std::string CanonicalCode(const Graph& g) {
  const int n = g.NumVertices();
  DEEPMAP_CHECK_LE(n, kMaxExactCanonicalVertices);
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::string best;
  do {
    std::string code = EncodeUnderPermutation(g, perm);
    if (best.empty() || code < best) best = std::move(code);
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (n == 0) best = std::string(1, '\0');
  return best;
}

uint32_t CanonicalEdgeMask(const Graph& g) {
  const int n = g.NumVertices();
  DEEPMAP_CHECK_LE(n, 8);
  DEEPMAP_CHECK_GE(n, 1);
  std::vector<Vertex> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  uint32_t best = ~uint32_t{0};
  do {
    uint32_t mask = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (g.HasEdge(perm[i], perm[j])) {
          mask |= uint32_t{1} << PairBitIndex(i, j, n);
        }
      }
    }
    best = std::min(best, mask);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

Graph GraphFromEdgeMask(int n, uint32_t mask) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (mask & (uint32_t{1} << PairBitIndex(i, j, n))) g.AddEdge(i, j);
    }
  }
  return g;
}

std::string WlFingerprint(const Graph& g, int iterations) {
  const int n = g.NumVertices();
  std::vector<int64_t> colors(n);
  for (Vertex v = 0; v < n; ++v) colors[v] = g.GetLabel(v);
  for (int iter = 0; iter < iterations; ++iter) {
    // Compressed ids are assigned by *sorted rank* of the signatures within
    // this round. By induction the previous round's ids are identical across
    // isomorphic graphs, so the sorted distinct-signature list (and therefore
    // the rank assignment) is identical too; the fingerprint is thus a true
    // isomorphism invariant.
    std::vector<std::vector<int64_t>> signatures(n);
    for (Vertex v = 0; v < n; ++v) {
      auto& signature = signatures[v];
      signature.reserve(g.Degree(v) + 1);
      signature.push_back(colors[v]);
      for (Vertex u : g.Neighbors(v)) signature.push_back(colors[u]);
      std::sort(signature.begin() + 1, signature.end());
    }
    std::map<std::vector<int64_t>, int64_t> rank;
    for (const auto& signature : signatures) rank.try_emplace(signature, 0);
    int64_t next_id = 0;
    for (auto& [signature, id] : rank) id = next_id++;
    for (Vertex v = 0; v < n; ++v) colors[v] = rank.at(signatures[v]);
  }
  std::vector<int64_t> sorted_colors = colors;
  std::sort(sorted_colors.begin(), sorted_colors.end());
  std::ostringstream os;
  os << "h" << iterations << ":";
  for (int64_t c : sorted_colors) os << c << '|';
  return os.str();
}

IsoResult TestIsomorphism(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices()) return IsoResult::kNonIsomorphic;
  if (a.NumEdges() != b.NumEdges()) return IsoResult::kNonIsomorphic;
  if (DegreeSequence(a) != DegreeSequence(b)) {
    return IsoResult::kNonIsomorphic;
  }
  {
    std::vector<Label> la = a.Labels();
    std::vector<Label> lb = b.Labels();
    std::sort(la.begin(), la.end());
    std::sort(lb.begin(), lb.end());
    if (la != lb) return IsoResult::kNonIsomorphic;
  }
  if (a.NumVertices() <= kMaxExactCanonicalVertices) {
    return CanonicalCode(a) == CanonicalCode(b) ? IsoResult::kIsomorphic
                                                : IsoResult::kNonIsomorphic;
  }
  const int rounds = std::max(3, a.NumVertices() / 2);
  if (WlFingerprint(a, rounds) != WlFingerprint(b, rounds)) {
    return IsoResult::kNonIsomorphic;
  }
  return IsoResult::kPossiblyIsomorphic;
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  IsoResult result = TestIsomorphism(a, b);
  DEEPMAP_CHECK(result != IsoResult::kPossiblyIsomorphic);
  return result == IsoResult::kIsomorphic;
}

}  // namespace deepmap::graph
