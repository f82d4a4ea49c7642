// DeltaCsrObserver equivalence: the stream-tracked delta index against
// a fresh TemporalCsr rebuilt from the TemporalViewObserver's graph,
// under randomized engine churn (contact adds incl. out-of-horizon,
// relabels with and without a live old label, node joins growing the
// vertex space, leave/edge noise), across compaction boundaries; and the
// view itself rebuilt from the engine's log (late attach, fresh joins).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "stream/csr_observer.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

// The merged index must reproduce a fresh rebuild of the view exactly:
// same layout (unit streams in order, labels) and bit-identical
// earliest-arrival sweeps (completion + via) from every source.
void expect_index_equals_view(const DeltaCsrObserver& obs,
                              const TemporalGraph& view) {
  const TemporalCsr fresh(view);
  const DeltaTemporalCsr& delta = obs.index();
  ASSERT_EQ(delta.vertex_count(), fresh.vertex_count());
  ASSERT_EQ(delta.edge_count(), fresh.edge_count());
  ASSERT_EQ(delta.contact_count(), fresh.contact_count());
  for (TimeUnit t = 0; t < fresh.horizon(); ++t) {
    const auto want = fresh.edges_at(t);
    std::vector<EdgeId> got;
    delta.for_each_edge_at(t, [&](EdgeId e) {
      got.push_back(e);
      return true;
    });
    ASSERT_EQ(got.size(), want.size()) << "t=" << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "t=" << t << " i=" << i;
    }
  }
  TemporalWorkspace wsa, wsb;
  for (VertexId s = 0; s < fresh.vertex_count(); ++s) {
    csr_earliest_arrival(fresh, s, 0, wsa);
    csr_earliest_arrival(delta, s, 0, wsb);
    for (VertexId v = 0; v < fresh.vertex_count(); ++v) {
      ASSERT_EQ(wsb.arrival(v), wsa.arrival(v)) << "s=" << s << " v=" << v;
      ASSERT_EQ(wsb.via(v), wsa.via(v)) << "s=" << s << " v=" << v;
    }
  }
}

TEST(DeltaCsrObserver, TracksEngineBitIdenticalToViewRebuild) {
  constexpr std::size_t kN = 14;
  constexpr TimeUnit kHorizon = 10;
  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver view(kN, kHorizon);
  DeltaCsrObserver delta(view, /*compact_ratio=*/0.15);
  engine.attach(&view);
  engine.attach(&delta);  // after the view: recompute() reads it

  Rng rng(17);
  std::size_t joins = 0;
  for (int step = 0; step < 600; ++step) {
    const std::size_t n = engine.graph().vertex_count();
    const auto u = static_cast<VertexId>(rng.index(n));
    auto v = static_cast<VertexId>(rng.index(n));
    if (u == v) v = static_cast<VertexId>((v + 1) % n);
    // Times deliberately overflow the horizon sometimes: the view drops
    // those (out_of_horizon) and the delta must drop them identically.
    const auto t = static_cast<TimeUnit>(rng.index(kHorizon + 3));
    const auto t2 = static_cast<TimeUnit>(rng.index(kHorizon + 3));
    switch (rng.index(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
        engine.apply(Event::contact_add(u, v, t));
        break;
      case 6:
      case 7:
        engine.apply(Event::contact_relabel(u, v, t, t2));
        break;
      case 8:
        engine.apply(rng.bernoulli(0.5) ? Event::edge_insert(u, v)
                                        : Event::edge_delete(u, v));
        break;
      case 9:
        if (joins < 4 && rng.bernoulli(0.3)) {
          engine.apply(Event::node_join());  // fresh vertex
          ++joins;
        } else {
          engine.apply(Event::node_leave(u));
          engine.apply(Event::node_join(u));  // revive for later contacts
        }
        break;
      default:
        break;
    }
    // Let the ratio policy fire mid-stream so equivalence holds across
    // compaction boundaries too.
    if (step % 50 == 49) delta.advance();
    if (step % 40 == 39) expect_index_equals_view(delta, view.view());
  }
  expect_index_equals_view(delta, view.view());

  // Force-compacting for a full base leaves an empty delta and an
  // unchanged merged view.
  delta.advance(/*force_full_base=*/true);
  EXPECT_TRUE(delta.index().delta_empty());
  expect_index_equals_view(delta, view.view());
  engine.detach(&delta);
  engine.detach(&view);
}

TEST(DeltaCsrObserver, NodeJoinGrowsVertexSpaceMidStream) {
  StreamEngine engine{DynamicGraph(3)};
  TemporalViewObserver view(3, 8);
  DeltaCsrObserver delta(view);
  engine.attach(&view);
  engine.attach(&delta);

  ASSERT_TRUE(engine.apply(Event::contact_add(0, 1, 2)));
  const auto join = engine.graph().log().empty();  // silence unused warn
  (void)join;
  ASSERT_TRUE(engine.apply(Event::node_join()));  // vertex 3
  ASSERT_TRUE(engine.apply(Event::contact_add(3, 0, 4)));
  ASSERT_TRUE(engine.apply(Event::contact_add(3, 2, 5)));
  EXPECT_EQ(delta.index().vertex_count(), 4u);
  expect_index_equals_view(delta, view.view());
  engine.detach(&delta);
  engine.detach(&view);
}

TEST(DeltaCsrObserver, CountersTrackFoldsAndCompactions) {
  obs::MetricsRegistry reg;
  StreamEngine engine{DynamicGraph(6)};
  TemporalViewObserver view(6, 8);
  DeltaCsrObserver delta(view, 0.25, &reg, "serve");
  engine.attach(&view);
  engine.attach(&delta);
  EXPECT_EQ(delta.builds(), 1u);  // the attach-time recompute

  ASSERT_TRUE(engine.apply(Event::contact_add(0, 1, 2)));
  ASSERT_TRUE(engine.apply(Event::contact_add(1, 2, 3)));
  engine.apply(Event::contact_add(0, 1, 2));   // duplicate: no fold
  engine.apply(Event::contact_add(0, 1, 20));  // out of horizon: no fold
  ASSERT_TRUE(engine.apply(Event::contact_relabel(0, 1, 2, 4)));  // 2 folds
  EXPECT_EQ(delta.delta_appends(), 4u);
  EXPECT_EQ(delta.compactions(), 0u);

  EXPECT_TRUE(delta.advance(/*force_full_base=*/true));
  EXPECT_FALSE(delta.advance(/*force_full_base=*/true));  // already empty
  EXPECT_EQ(delta.compactions(), 1u);
  EXPECT_EQ(delta.builds(), 2u);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("serve.csr_delta_appends"),
            delta.delta_appends());
  EXPECT_EQ(snap.counter_value("serve.csr_compactions"), delta.compactions());
  EXPECT_EQ(snap.counter_value("serve.csr_builds"), delta.builds());
  engine.detach(&delta);
  engine.detach(&view);
}

// One random contact-heavy event over the engine's current vertices:
// adds (some out of horizon), relabels, joins, leaves and edge noise.
Event random_view_event(const StreamEngine& engine, TimeUnit horizon,
                        Rng& rng) {
  const std::size_t n = engine.graph().vertex_count();
  const auto u = static_cast<VertexId>(rng.index(n));
  auto v = static_cast<VertexId>(rng.index(n));
  if (u == v) v = static_cast<VertexId>((v + 1) % n);
  const auto t = static_cast<TimeUnit>(rng.index(horizon + 2));
  const auto t2 = static_cast<TimeUnit>(rng.index(horizon + 2));
  switch (rng.index(12)) {
    case 0:
    case 1:
      return Event::contact_relabel(u, v, t, t2);
    case 2:
      return Event::edge_insert(u, v);
    case 3:
      return engine.graph().alive(u) ? Event::node_leave(u)
                                     : Event::node_join(u);
    case 4:
      return n < 24 ? Event::node_join() : Event::node_join(u);
    default:
      return Event::contact_add(u, v, t);
  }
}

TEST(TemporalViewReplay, FreshNodeJoinKeepsEveryEdgeId) {
  // A fresh NodeJoin only widens the view: every edge record keeps its
  // id and labels, so the delta index (which only widens too) stays
  // bit-identical to a TemporalCsr of the view, with no rebase.
  constexpr std::size_t kN = 8;
  constexpr TimeUnit kHorizon = 10;
  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver view(kN, kHorizon);
  DeltaCsrObserver delta(view);
  engine.attach(&view);
  engine.attach(&delta);

  Rng rng(31);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::size_t n = engine.graph().vertex_count();
      const auto u = static_cast<VertexId>(rng.index(n));
      const auto v = static_cast<VertexId>((u + 1 + rng.index(n - 1)) % n);
      const auto t = static_cast<TimeUnit>(rng.index(kHorizon));
      engine.apply(rng.bernoulli(0.8)
                       ? Event::contact_add(u, v, t)
                       : Event::contact_relabel(
                             u, v, t,
                             static_cast<TimeUnit>(rng.index(kHorizon))));
    }
    const std::vector<TemporalGraph::LabeledEdge> before(
        view.view().edges().begin(), view.view().edges().end());
    const std::size_t n = view.view().vertex_count();
    ASSERT_TRUE(engine.apply(Event::node_join()));
    ASSERT_EQ(view.view().vertex_count(), n + 1);
    ASSERT_EQ(view.view().edge_count(), before.size());
    for (EdgeId e = 0; e < before.size(); ++e) {
      ASSERT_EQ(view.view().edge(e), before[e]) << "round " << round;
    }
    expect_index_equals_view(delta, view.view());
    // The newcomer meets old vertices; its edges take the next ids.
    const auto fresh = static_cast<VertexId>(n);
    ASSERT_TRUE(engine.apply(Event::contact_add(fresh, 0, 1)));
    ASSERT_TRUE(engine.apply(Event::contact_add(1, fresh, 2)));
    EXPECT_EQ(view.view().find_edge(0, fresh), EdgeId(before.size()));
    expect_index_equals_view(delta, view.view());
  }
  EXPECT_EQ(delta.builds(), 1u);  // the attach-time build only
  TemporalViewObserver rebuilt(kN, kHorizon);
  rebuilt.recompute(engine.graph());
  EXPECT_EQ(rebuilt.view(), view.view());
  engine.detach(&delta);
  engine.detach(&view);
}

TEST(TemporalViewReplay, LateAttachedViewEqualsEpochZeroView) {
  // A view attached to an engine with history adopts that history from
  // the engine's log, and then tracks it exactly like a view that was
  // there from epoch 0 — edge ids, out-of-horizon count and trimming.
  constexpr std::size_t kN = 12;
  constexpr TimeUnit kHorizon = 9;
  StreamEngine engine{DynamicGraph(kN)};
  TemporalViewObserver early(kN, kHorizon);
  engine.attach(&early);
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    engine.apply(random_view_event(engine, kHorizon, rng));
  }
  ASSERT_GT(engine.graph().vertex_count(), kN);  // fresh joins happened

  TemporalViewObserver late(kN, kHorizon);
  engine.attach(&late);
  EXPECT_EQ(late.view(), early.view());
  EXPECT_EQ(late.out_of_horizon(), early.out_of_horizon());
  for (int i = 0; i < 500; ++i) {
    engine.apply(random_view_event(engine, kHorizon, rng));
  }
  EXPECT_EQ(late.view(), early.view());
  EXPECT_GT(early.out_of_horizon(), 0u);
  EXPECT_EQ(late.out_of_horizon(), early.out_of_horizon());
  EXPECT_GT(early.view().edge_count(), 0u);
  EXPECT_EQ(late.trimmed().trimmed, early.trimmed().trimmed);
  EXPECT_EQ(late.trimmed().removed_nodes, early.trimmed().removed_nodes);
  engine.detach(&late);
  engine.detach(&early);
}

}  // namespace
}  // namespace structnet
