#include "graph/digest.h"

#include <algorithm>
#include <cstdio>

namespace deepmap::graph {
namespace {

// splitmix64 finalizer: bijective 64-bit mixer with full avalanche.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// MurmurHash3 fmix64: a second, structurally different bijective mixer, so
// the two lanes do not collide on the same inputs.
uint64_t Fmix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// Domain tags. A packed vertex or edge never has bit 63 set (ids are
// non-negative int32), and each lane's vertex and edge tags differ in bit
// 63, so a vertex leaf input can never equal an edge leaf input.
constexpr uint64_t kVertexTagLo = 0x1d8e4e27c47d124fULL;
constexpr uint64_t kEdgeTagLo = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kVertexTagHi = 0x2545f4914f6cdd1dULL;
constexpr uint64_t kEdgeTagHi = 0xd6e8feb86659fd93ULL;

uint64_t Pack(uint32_t high, uint32_t low) {
  return (static_cast<uint64_t>(high) << 32) | low;
}

uint64_t PackEdge(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return Pack(static_cast<uint32_t>(u), static_cast<uint32_t>(v));
}

}  // namespace

void GraphDigest::AddVertex(Vertex v, Label label) {
  const uint64_t x =
      Pack(static_cast<uint32_t>(v), static_cast<uint32_t>(label));
  lo += SplitMix64(x ^ kVertexTagLo);
  hi += Fmix64(x ^ kVertexTagHi);
}

void GraphDigest::AddEdge(Vertex u, Vertex v) {
  const uint64_t x = PackEdge(u, v);
  lo += SplitMix64(x ^ kEdgeTagLo);
  hi += Fmix64(x ^ kEdgeTagHi);
}

void GraphDigest::RemoveEdge(Vertex u, Vertex v) {
  const uint64_t x = PackEdge(u, v);
  lo -= SplitMix64(x ^ kEdgeTagLo);
  hi -= Fmix64(x ^ kEdgeTagHi);
}

std::string GraphDigest::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

GraphDigest DigestOf(const Graph& g) {
  GraphDigest digest;
  const std::vector<Label>& labels = g.Labels();
  const Vertex n = g.NumVertices();
  for (Vertex v = 0; v < n; ++v) {
    digest.AddVertex(v, labels[v]);
    // Sorted adjacency: the neighbors above v are a suffix, so each
    // undirected edge is visited once, from its smaller endpoint.
    const std::vector<Vertex>& nbrs = g.Neighbors(v);
    for (auto it = std::upper_bound(nbrs.begin(), nbrs.end(), v);
         it != nbrs.end(); ++it) {
      digest.AddEdge(v, *it);
    }
  }
  return digest;
}

}  // namespace deepmap::graph
