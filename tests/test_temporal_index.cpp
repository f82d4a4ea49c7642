// TemporalGraph's endpoint -> edge id index against a linear-scan
// oracle: randomized adds, remove_label-emptied edges, without_* copies,
// copy/assign and grow_vertices, plus the rule that equality ignores
// the index.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "temporal/temporal_graph.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

// The lookup TemporalGraph used before it had an index: scan the
// smaller incident list for a record with the same endpoints.
EdgeId linear_find_edge(const TemporalGraph& g, VertexId u, VertexId v) {
  const auto iu = g.incident_edges(u);
  const auto iv = g.incident_edges(v);
  for (EdgeId e : iu.size() <= iv.size() ? iu : iv) {
    const auto& le = g.edge(e);
    if ((le.u == u && le.v == v) || (le.u == v && le.v == u)) return e;
  }
  return kInvalidEdge;
}

bool linear_has_contact(const TemporalGraph& g, VertexId u, VertexId v,
                        TimeUnit t) {
  const EdgeId e = linear_find_edge(g, u, v);
  if (e == kInvalidEdge) return false;
  const auto& labels = g.edge(e).labels;
  return std::binary_search(labels.begin(), labels.end(), t);
}

// Every ordered pair (hits and misses) and a few labels per pair.
void expect_index_matches_oracle(const TemporalGraph& g, Rng& rng) {
  const auto n = static_cast<VertexId>(g.vertex_count());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u == v) continue;
      ASSERT_EQ(g.find_edge(u, v), linear_find_edge(g, u, v))
          << "u=" << u << " v=" << v;
      const auto t = static_cast<TimeUnit>(rng.index(g.horizon()));
      ASSERT_EQ(g.has_contact(u, v, t), linear_has_contact(g, u, v, t))
          << "u=" << u << " v=" << v << " t=" << t;
    }
  }
}

TEST(TemporalGraphIndex, RandomizedMutationsMatchLinearScan) {
  constexpr TimeUnit kHorizon = 12;
  Rng rng(2024);
  TemporalGraph g(24, kHorizon);
  std::size_t removed = 0, emptied = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto n = g.vertex_count();
    const auto u = static_cast<VertexId>(rng.index(n));
    auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) v = static_cast<VertexId>((v + 1) % n);
    const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
    const std::size_t dice = rng.index(20);
    if (dice < 13) {
      const bool had = linear_has_contact(g, u, v, t);
      const std::size_t edges = g.edge_count();
      ASSERT_EQ(g.add_contact(u, v, t), !had) << "step " << step;
      ASSERT_TRUE(linear_has_contact(g, u, v, t));
      ASSERT_LE(g.edge_count(), edges + 1);
    } else if (dice < 19) {
      const bool had = linear_has_contact(g, u, v, t);
      ASSERT_EQ(g.remove_label(u, v, t), had) << "step " << step;
      if (had) {
        ++removed;
        // The record stays, possibly empty, and keeps answering lookups.
        const EdgeId e = linear_find_edge(g, u, v);
        ASSERT_NE(e, kInvalidEdge);
        ASSERT_EQ(g.find_edge(u, v), e);
        emptied += g.edge(e).labels.empty();
      }
    } else if (n < 40) {
      g.grow_vertices(n + 1 + rng.index(3));
    }
    if (step % 150 == 149) expect_index_matches_oracle(g, rng);
  }
  expect_index_matches_oracle(g, rng);
  EXPECT_GT(removed, 0u);
  EXPECT_GT(emptied, 0u);  // empty-label records were exercised
  EXPECT_GT(g.vertex_count(), 24u);
}

TEST(TemporalGraphIndex, CopiesCarryAWorkingIndex) {
  constexpr TimeUnit kHorizon = 8;
  Rng rng(5);
  TemporalGraph g(18, kHorizon);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.index(18));
    const auto v = static_cast<VertexId>(rng.index(18));
    const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
    if (u != v) g.add_contact(u, v, t);
  }
  // Empty one record so the copies see a label-free edge too.
  const TemporalGraph::LabeledEdge first = g.edge(0);
  for (TimeUnit t : first.labels) {
    ASSERT_TRUE(g.remove_label(first.u, first.v, t));
  }
  expect_index_matches_oracle(g, rng);

  const TemporalGraph no_vertex = g.without_vertex(3);
  const TemporalGraph no_edge = g.without_edge(g.edge(1).u, g.edge(1).v);
  const TemporalGraph::LabeledEdge& e2 = g.edge(2);
  const TemporalGraph no_label =
      g.without_label(e2.u, e2.v, e2.labels.front());
  for (const TemporalGraph* copy : {&no_vertex, &no_edge, &no_label}) {
    expect_index_matches_oracle(*copy, rng);
  }
  EXPECT_EQ(no_vertex.incident_edges(3).size(), 0u);
  EXPECT_EQ(no_edge.find_edge(g.edge(1).u, g.edge(1).v), kInvalidEdge);
  // without_* rebuilds through add_contact, which skips label-free edges.
  EXPECT_EQ(no_edge.find_edge(first.u, first.v), kInvalidEdge);

  TemporalGraph copied(g);
  expect_index_matches_oracle(copied, rng);
  TemporalGraph assigned(3, 2);  // smaller table, overwritten
  assigned = g;
  expect_index_matches_oracle(assigned, rng);
  EXPECT_EQ(assigned, g);
  TemporalGraph shrunk = g;  // larger table, overwritten
  shrunk = no_vertex;
  expect_index_matches_oracle(shrunk, rng);
  EXPECT_EQ(shrunk, no_vertex);

  // A mutated copy diverges from its source, and both stay consistent.
  copied.add_contact(0, 17, 7);
  copied.grow_vertices(20);
  copied.add_contact(19, 0, 1);
  expect_index_matches_oracle(copied, rng);
  expect_index_matches_oracle(g, rng);
  EXPECT_EQ(g.vertex_count(), 18u);
  EXPECT_NE(copied, g);
}

TEST(TemporalGraphIndex, GrowVerticesKeepsEdgeIds) {
  TemporalGraph g(3, 6);
  g.add_contact(0, 1, 2);
  g.add_contact(2, 1, 4);
  const std::vector<TemporalGraph::LabeledEdge> before(g.edges().begin(),
                                                       g.edges().end());
  g.grow_vertices(2);  // not larger: no-op
  EXPECT_EQ(g.vertex_count(), 3u);
  g.grow_vertices(6);
  EXPECT_EQ(g.vertex_count(), 6u);
  ASSERT_EQ(g.edge_count(), before.size());
  for (EdgeId e = 0; e < before.size(); ++e) EXPECT_EQ(g.edge(e), before[e]);
  EXPECT_EQ(g.find_edge(1, 2), EdgeId{1});
  EXPECT_EQ(g.find_edge(5, 0), kInvalidEdge);
  EXPECT_TRUE(g.add_contact(5, 0, 3));
  EXPECT_FALSE(g.add_contact(0, 5, 3));
  EXPECT_EQ(g.find_edge(0, 5), EdgeId{2});
  // Same first-touch order into a graph that started at full width.
  TemporalGraph direct(6, 6);
  direct.add_contact(0, 1, 2);
  direct.add_contact(2, 1, 4);
  direct.add_contact(5, 0, 3);
  EXPECT_EQ(g, direct);
}

TEST(TemporalGraphIndex, EqualityComparesRecordsNotTheIndex) {
  // Graphs built by different routes (contact by contact, from a larger
  // graph by without_edge, edge by edge with labels in reverse) hold the
  // same edge records in the same order, so they compare equal.
  Rng rng(11);
  std::vector<Contact> contacts;
  for (int i = 0; i < 700; ++i) {
    const auto u = static_cast<VertexId>(rng.index(60));
    const auto v = static_cast<VertexId>(rng.index(60));
    const auto t = static_cast<TimeUnit>(rng.index(9));
    if (u != v) contacts.push_back({u, v, t});
  }
  TemporalGraph stepwise(60, 9);
  for (const Contact& c : contacts) stepwise.add_contact(c.u, c.v, c.t);
  TemporalGraph extra = TemporalGraph::from_contacts(60, 9, contacts);
  VertexId a = 0, b = 1;
  while (extra.find_edge(a, b) != kInvalidEdge) ++b;
  extra.add_contact(a, b, 0);
  const TemporalGraph rebuilt = extra.without_edge(a, b);
  EXPECT_EQ(stepwise, rebuilt);
  EXPECT_NE(stepwise, extra);
  TemporalGraph edgewise(60, 9);
  for (const auto& e : stepwise.edges()) {
    const std::vector<TimeUnit> down(e.labels.rbegin(), e.labels.rend());
    edgewise.add_edge_labels(e.u, e.v, down);
  }
  EXPECT_EQ(stepwise, edgewise);
  // A different first-touch order is a different graph (other edge ids).
  std::vector<Contact> reversed(contacts.rbegin(), contacts.rend());
  const TemporalGraph other = TemporalGraph::from_contacts(60, 9, reversed);
  EXPECT_EQ(other.edge_count(), stepwise.edge_count());
  EXPECT_NE(other, stepwise);
  expect_index_matches_oracle(other, rng);
}

TEST(TemporalGraphIndex, BucketsSpreadEitherEndpoint) {
  // All edges of one vertex must not share a home slot, whichever half
  // of the packed key that vertex lands in. (Masking the bare Fibonacci
  // product keeps only the low key bits, so every edge whose larger
  // endpoint is the same vertex used to collide.)
  constexpr std::size_t kMask = 4095;
  std::vector<std::size_t> as_hi, as_lo;
  for (VertexId w = 0; w < 1000; ++w) {
    as_hi.push_back(endpoint_bucket(endpoint_key(w, 5000), kMask));
    as_lo.push_back(endpoint_bucket(endpoint_key(w + 6000, 5000), kMask));
  }
  for (auto* buckets : {&as_hi, &as_lo}) {
    std::sort(buckets->begin(), buckets->end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(buckets->begin(), buckets->end()) - buckets->begin());
    EXPECT_GT(distinct, 700u);  // ~890 expected for 1000 keys in 4096
  }
}

TEST(TemporalGraphIndex, HubWithThousandsOfEdges) {
  // One vertex incident to every edge: the case the linear scan paid
  // O(degree) for, and many table doublings.
  constexpr VertexId kLeaves = 5000;
  TemporalGraph g(kLeaves + 1, 4);
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_TRUE(g.add_contact(leaf, 0, leaf % 4));
  }
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_EQ(g.find_edge(0, leaf), EdgeId{leaf - 1});
    ASSERT_EQ(g.find_edge(leaf, 0), EdgeId{leaf - 1});
    if (leaf > 1) {
      ASSERT_EQ(g.find_edge(leaf, leaf - 1), kInvalidEdge);
    }
  }
}

}  // namespace
}  // namespace structnet
