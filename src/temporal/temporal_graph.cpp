#include "temporal/temporal_graph.hpp"

#include <algorithm>
#include <cassert>

namespace structnet {

bool TemporalGraph::add_contact(VertexId u, VertexId v, TimeUnit t) {
  assert(u < vertex_count() && v < vertex_count() && u != v);
  assert(t < horizon_);
  EdgeId e = find_edge(u, v);
  if (e == kInvalidEdge) {
    e = static_cast<EdgeId>(edges_.size());
    edges_.push_back(LabeledEdge{u, v, {}});
    incident_[u].push_back(e);
    incident_[v].push_back(e);
    index_edge(e);
  }
  auto& labels = edges_[e].labels;
  const auto it = std::lower_bound(labels.begin(), labels.end(), t);
  if (it != labels.end() && *it == t) return false;
  labels.insert(it, t);
  return true;
}

void TemporalGraph::index_edge(EdgeId e) {
  const auto place = [this](EdgeId id) {
    const std::size_t mask = edge_index_.size() - 1;
    std::size_t i =
        endpoint_bucket(endpoint_key(edges_[id].u, edges_[id].v), mask);
    while (edge_index_[i] != kInvalidEdge) i = (i + 1) & mask;
    edge_index_[i] = id;
  };
  if (edges_.size() * 2 > edge_index_.size()) {
    edge_index_.assign(std::max<std::size_t>(16, edge_index_.size() * 2),
                       kInvalidEdge);
    for (EdgeId id = 0; id < e; ++id) place(id);
  }
  place(e);
}

void TemporalGraph::add_edge_labels(VertexId u, VertexId v,
                                    std::span<const TimeUnit> labels) {
  for (TimeUnit t : labels) add_contact(u, v, t);
}

bool TemporalGraph::has_contact(VertexId u, VertexId v, TimeUnit t) const {
  const EdgeId e = find_edge(u, v);
  if (e == kInvalidEdge) return false;
  const auto& labels = edges_[e].labels;
  return std::binary_search(labels.begin(), labels.end(), t);
}

EdgeId TemporalGraph::find_edge(VertexId u, VertexId v) const {
  assert(u < vertex_count() && v < vertex_count());
  if (edge_index_.empty()) return kInvalidEdge;
  const std::uint64_t key = endpoint_key(u, v);
  const std::size_t mask = edge_index_.size() - 1;
  for (std::size_t i = endpoint_bucket(key, mask);; i = (i + 1) & mask) {
    const EdgeId e = edge_index_[i];
    if (e == kInvalidEdge ||
        endpoint_key(edges_[e].u, edges_[e].v) == key) {
      return e;
    }
  }
}

Graph TemporalGraph::snapshot(TimeUnit t) const {
  Graph g(vertex_count());
  for (const LabeledEdge& e : edges_) {
    if (std::binary_search(e.labels.begin(), e.labels.end(), t)) {
      g.add_edge(e.u, e.v);
    }
  }
  return g;
}

Graph TemporalGraph::footprint() const {
  Graph g(vertex_count());
  for (const LabeledEdge& e : edges_) {
    if (!e.labels.empty()) g.add_edge(e.u, e.v);
  }
  return g;
}

std::vector<Contact> TemporalGraph::contacts() const {
  std::vector<Contact> out;
  for (const LabeledEdge& e : edges_) {
    for (TimeUnit t : e.labels) out.push_back(Contact{e.u, e.v, t});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Contact& a, const Contact& b) { return a.t < b.t; });
  return out;
}

TemporalGraph TemporalGraph::from_snapshots(std::span<const Graph> snapshots) {
  if (snapshots.empty()) return {};
  const std::size_t n = snapshots[0].vertex_count();
  TemporalGraph eg(n, static_cast<TimeUnit>(snapshots.size()));
  for (TimeUnit t = 0; t < snapshots.size(); ++t) {
    assert(snapshots[t].vertex_count() == n);
    for (const Graph::Edge& e : snapshots[t].edges()) {
      eg.add_contact(e.u, e.v, t);
    }
  }
  return eg;
}

TemporalGraph TemporalGraph::from_contacts(std::size_t n, TimeUnit horizon,
                                           std::span<const Contact> contacts) {
  TemporalGraph eg(n, horizon);
  for (const Contact& c : contacts) eg.add_contact(c.u, c.v, c.t);
  return eg;
}

TemporalGraph TemporalGraph::without_vertex(VertexId v) const {
  TemporalGraph eg(vertex_count(), horizon_);
  for (const LabeledEdge& e : edges_) {
    if (e.u == v || e.v == v) continue;
    eg.add_edge_labels(e.u, e.v, e.labels);
  }
  return eg;
}

TemporalGraph TemporalGraph::without_edge(VertexId u, VertexId v) const {
  TemporalGraph eg(vertex_count(), horizon_);
  for (const LabeledEdge& e : edges_) {
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) continue;
    eg.add_edge_labels(e.u, e.v, e.labels);
  }
  return eg;
}

bool TemporalGraph::remove_label(VertexId u, VertexId v, TimeUnit t) {
  const EdgeId e = find_edge(u, v);
  if (e == kInvalidEdge) return false;
  auto& labels = edges_[e].labels;
  const auto it = std::lower_bound(labels.begin(), labels.end(), t);
  if (it == labels.end() || *it != t) return false;
  labels.erase(it);
  return true;
}

TemporalGraph TemporalGraph::without_label(VertexId u, VertexId v,
                                           TimeUnit t) const {
  TemporalGraph eg(vertex_count(), horizon_);
  for (const LabeledEdge& e : edges_) {
    const bool match = (e.u == u && e.v == v) || (e.u == v && e.v == u);
    if (!match) {
      eg.add_edge_labels(e.u, e.v, e.labels);
      continue;
    }
    for (TimeUnit label : e.labels) {
      if (label != t) eg.add_contact(e.u, e.v, label);
    }
  }
  return eg;
}

}  // namespace structnet
