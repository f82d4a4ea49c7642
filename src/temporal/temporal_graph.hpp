// Time-evolving graph (EG) of Sec. II-B.
//
// G_0, G_1, ..., G_k is an ordered sequence of spanning subgraphs over
// time units t_0..t_k; the EG stores, per edge (u, v), the label set
// { i | (u, v) in E_i }. Message transmission over a contact is
// instantaneous, so a journey is a path whose edge labels are
// non-decreasing.
//
// Edge lookup by endpoints is O(1): a flat linear-probe table of edge
// ids, keyed by the packed unordered endpoint pair, sits beside the edge
// records. Edge records are never deleted (remove_label leaves an empty
// label set), so the table is append-only and probes never cross
// tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace structnet {

/// The unordered endpoint pair (u, v) packed into one key: equal for
/// (u, v) and (v, u). Shared by every endpoint -> edge id table.
inline std::uint64_t endpoint_key(VertexId u, VertexId v) {
  const VertexId lo = u < v ? u : v, hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Home slot of an endpoint key in a power-of-two table (`mask` =
/// capacity - 1). Fibonacci hashing, with the product's high half folded
/// into the low bits the mask keeps: the low bits of a product depend
/// only on the low bits of the key (the larger endpoint), so masking the
/// bare product would give every edge of a vertex the same home slot.
inline std::size_t endpoint_bucket(std::uint64_t key, std::size_t mask) {
  const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h ^ (h >> 32)) & mask;
}

/// A single contact: edge (u, v) active during time unit `t`.
struct Contact {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  TimeUnit t = 0;

  friend bool operator==(const Contact&, const Contact&) = default;
};

/// The time-evolving graph EG: vertices 0..n-1, horizon time units
/// 0..horizon-1, and per-edge sorted label sets.
class TemporalGraph {
 public:
  /// An edge with its label set (sorted ascending, no duplicates).
  struct LabeledEdge {
    VertexId u = kInvalidVertex;
    VertexId v = kInvalidVertex;
    std::vector<TimeUnit> labels;

    friend bool operator==(const LabeledEdge&, const LabeledEdge&) = default;
  };

  TemporalGraph() = default;
  TemporalGraph(std::size_t n, TimeUnit horizon)
      : incident_(n), horizon_(horizon) {}

  std::size_t vertex_count() const { return incident_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  TimeUnit horizon() const { return horizon_; }

  /// Registers that (u, v) is active during time unit t (t < horizon).
  /// Idempotent; keeps label sets sorted. Returns false when the
  /// contact was already present.
  bool add_contact(VertexId u, VertexId v, TimeUnit t);

  /// Adds an edge with a whole label set at once.
  void add_edge_labels(VertexId u, VertexId v, std::span<const TimeUnit> labels);

  /// All labeled edges.
  std::span<const LabeledEdge> edges() const { return edges_; }

  /// Edge ids incident to v.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    return incident_[v];
  }
  const LabeledEdge& edge(EdgeId e) const { return edges_[e]; }

  /// The other endpoint of edge e relative to v.
  VertexId other_endpoint(EdgeId e, VertexId v) const {
    return edges_[e].u == v ? edges_[e].v : edges_[e].u;
  }

  /// True iff (u, v) is active during time unit t.
  bool has_contact(VertexId u, VertexId v, TimeUnit t) const;

  /// Edge id of (u, v), or kInvalidEdge. O(1) expected.
  EdgeId find_edge(VertexId u, VertexId v) const;

  /// Extends the vertex space to n (new vertices start contact-free);
  /// no-op when n is not larger than the current count. Edge ids and
  /// records are untouched.
  void grow_vertices(std::size_t n) {
    if (n > incident_.size()) incident_.resize(n);
  }

  /// Snapshot G_t: the static graph of edges active during time unit t.
  Graph snapshot(TimeUnit t) const;

  /// The union graph ("footprint"): edge iff active at any time.
  Graph footprint() const;

  /// All contacts expanded (one Contact per (edge, label)), sorted by
  /// time then edge insertion order.
  std::vector<Contact> contacts() const;

  /// Builds an EG from an ordered sequence of same-size snapshots.
  static TemporalGraph from_snapshots(std::span<const Graph> snapshots);

  /// Builds an EG from a contact list; n and horizon given explicitly.
  static TemporalGraph from_contacts(std::size_t n, TimeUnit horizon,
                                     std::span<const Contact> contacts);

  /// Copy with one vertex's incident edges removed (for trimming).
  TemporalGraph without_vertex(VertexId v) const;

  /// Copy with one edge removed entirely.
  TemporalGraph without_edge(VertexId u, VertexId v) const;

  /// Copy with one label removed from one edge (no-op if absent).
  TemporalGraph without_label(VertexId u, VertexId v, TimeUnit t) const;

  /// Removes one label in place; returns false when the contact did not
  /// exist. The edge record remains (possibly with an empty label set) so
  /// edge ids stay stable.
  bool remove_label(VertexId u, VertexId v, TimeUnit t);

  /// Structural equality (same vertices, horizon, edge records in the
  /// same order with identical label sets). Used by streaming observers
  /// to assert incremental maintenance matches a from-scratch rebuild.
  /// The edge index is derived state and never compared.
  friend bool operator==(const TemporalGraph& a, const TemporalGraph& b) {
    return a.horizon_ == b.horizon_ && a.incident_ == b.incident_ &&
           a.edges_ == b.edges_;
  }

 private:
  /// Enters edge e (already in edges_) into the edge index, doubling the
  /// table first when the load would pass one half.
  void index_edge(EdgeId e);

  std::vector<std::vector<EdgeId>> incident_;
  std::vector<LabeledEdge> edges_;
  TimeUnit horizon_ = 0;
  /// Edge index: endpoint_key -> edge id, linear probing over a
  /// power-of-two table (empty or at load <= 1/2); kInvalidEdge marks an
  /// empty slot. A hit is confirmed against edges_[id].
  std::vector<EdgeId> edge_index_;
};

}  // namespace structnet
