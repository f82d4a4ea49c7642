// Randomized equivalence suite: the TemporalCsr kernels against the
// legacy TemporalGraph-walking oracles, over random evolving graphs
// including t_start > 0, disconnected vertices, and edges whose label
// sets were emptied by remove_label. Also pins bit-identity of the
// converted parallel callers at 1/2/8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "parallel/parallel.hpp"
#include "sim/dtn_routing.hpp"
#include "temporal/journeys.hpp"
#include "temporal/temporal_centrality.hpp"
#include "temporal/smallworld_metrics.hpp"
#include "temporal/temporal_csr.hpp"
#include "temporal/temporal_delta.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

struct EgParams {
  std::size_t n = 12;
  TimeUnit horizon = 10;
  std::size_t edges = 20;
  std::size_t labels_per_edge = 3;
  std::size_t isolated = 0;       // trailing vertices kept contact-free
  std::size_t emptied_edges = 0;  // edges whose labels are removed again
};

TemporalGraph random_eg(Rng& rng, const EgParams& p) {
  TemporalGraph eg(p.n, p.horizon);
  const std::size_t active = p.n > p.isolated ? p.n - p.isolated : 1;
  for (std::size_t i = 0; i < p.edges; ++i) {
    const auto u = static_cast<VertexId>(rng.index(active));
    auto v = static_cast<VertexId>(rng.index(active));
    if (u == v) v = static_cast<VertexId>((v + 1) % active);
    if (u == v) continue;
    for (std::size_t k = 0; k < p.labels_per_edge; ++k) {
      eg.add_contact(u, v, static_cast<TimeUnit>(rng.index(p.horizon)));
    }
  }
  // Empty out some edges via remove_label: the edge records stay (ids
  // stable) but contribute no contacts — the CSR build must skip them.
  std::size_t emptied = 0;
  for (std::size_t e = 0; e < eg.edge_count() && emptied < p.emptied_edges;
       e += 2, ++emptied) {
    const auto edge = eg.edge(static_cast<EdgeId>(e));
    const std::vector<TimeUnit> labels = edge.labels;
    for (TimeUnit t : labels) eg.remove_label(edge.u, edge.v, t);
    EXPECT_TRUE(eg.edge(static_cast<EdgeId>(e)).labels.empty());
  }
  return eg;
}

void expect_ea_equal(const TemporalGraph& eg, const TemporalCsr& csr,
                     TemporalWorkspace& ws, VertexId source, TimeUnit t_start) {
  const EarliestArrival oracle = earliest_arrival(eg, source, t_start);
  csr_earliest_arrival(csr, source, t_start, ws);
  const EarliestArrival got = ws.to_earliest_arrival();
  ASSERT_EQ(got.completion.size(), oracle.completion.size());
  for (std::size_t v = 0; v < oracle.completion.size(); ++v) {
    EXPECT_EQ(got.completion[v], oracle.completion[v])
        << "completion mismatch source=" << source << " t_start=" << t_start
        << " v=" << v;
    EXPECT_EQ(got.via[v], oracle.via[v])
        << "via mismatch source=" << source << " t_start=" << t_start
        << " v=" << v;
  }
}

TEST(TemporalCsrBuild, LayoutMatchesGraph) {
  Rng rng(1);
  EgParams p;
  p.emptied_edges = 2;
  const TemporalGraph eg = random_eg(rng, p);
  const TemporalCsr csr(eg);
  EXPECT_EQ(csr.vertex_count(), eg.vertex_count());
  EXPECT_EQ(csr.edge_count(), eg.edge_count());
  EXPECT_EQ(csr.horizon(), eg.horizon());
  EXPECT_EQ(csr.contact_count(), eg.contacts().size());
  // Per-vertex contacts are time-sorted with edge id as tie-break.
  for (VertexId v = 0; v < eg.vertex_count(); ++v) {
    for (std::size_t i = csr.contacts_begin(v) + 1; i < csr.contacts_end(v);
         ++i) {
      const bool ordered =
          csr.contact_time(i - 1) < csr.contact_time(i) ||
          (csr.contact_time(i - 1) == csr.contact_time(i) &&
           csr.contact_edge(i - 1) < csr.contact_edge(i));
      EXPECT_TRUE(ordered) << "v=" << v << " i=" << i;
      EXPECT_TRUE(eg.has_contact(v, csr.contact_neighbor(i),
                                 csr.contact_time(i)));
    }
  }
  // The global stream per unit equals the legacy bucket contents (edge
  // id ascending; one entry per (edge, label)).
  std::size_t total = 0;
  for (TimeUnit t = 0; t < eg.horizon(); ++t) {
    const auto unit = csr.edges_at(t);
    total += unit.size();
    for (std::size_t i = 0; i < unit.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(unit[i - 1], unit[i]);
      }
      const auto& labels = eg.edge(unit[i]).labels;
      EXPECT_TRUE(std::binary_search(labels.begin(), labels.end(), t));
    }
  }
  EXPECT_EQ(total, csr.contact_count());
}

TEST(TemporalCsrEarliestArrival, MatchesOracleOnRandomGraphs) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    EgParams p;
    p.n = 6 + rng.index(10);
    p.horizon = 4 + static_cast<TimeUnit>(rng.index(10));
    p.edges = 5 + rng.index(30);
    p.labels_per_edge = 1 + rng.index(4);
    p.isolated = rng.index(3);
    p.emptied_edges = rng.index(3);
    const TemporalGraph eg = random_eg(rng, p);
    const TemporalCsr csr(eg);
    TemporalWorkspace ws;  // reused across every sweep of the round
    const TimeUnit starts[] = {0, 2, static_cast<TimeUnit>(p.horizon - 1),
                               static_cast<TimeUnit>(p.horizon + 2)};
    for (VertexId s = 0; s < eg.vertex_count(); ++s) {
      for (TimeUnit t_start : starts) {
        expect_ea_equal(eg, csr, ws, s, t_start);
      }
    }
  }
}

TEST(TemporalCsrEarliestArrival, DenseSameUnitClosureMatchesOracle) {
  // Many contacts on few time units stress the within-unit fixed-point
  // ordering (chains forming inside one snapshot).
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    EgParams p;
    p.n = 5 + rng.index(7);
    p.horizon = 2 + static_cast<TimeUnit>(rng.index(3));
    p.edges = 15 + rng.index(25);
    p.labels_per_edge = 1 + rng.index(2);
    const TemporalGraph eg = random_eg(rng, p);
    const TemporalCsr csr(eg);
    TemporalWorkspace ws;
    for (VertexId s = 0; s < eg.vertex_count(); ++s) {
      for (TimeUnit t_start = 0; t_start <= p.horizon; ++t_start) {
        expect_ea_equal(eg, csr, ws, s, t_start);
      }
    }
  }
}

TEST(TemporalCsrMinimumHop, MatchesLegacyJourneyExactly) {
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    EgParams p;
    p.n = 5 + rng.index(9);
    p.horizon = 3 + static_cast<TimeUnit>(rng.index(8));
    p.edges = 4 + rng.index(25);
    p.labels_per_edge = 1 + rng.index(3);
    p.isolated = rng.index(2);
    p.emptied_edges = rng.index(2);
    const TemporalGraph eg = random_eg(rng, p);
    const TemporalCsr csr(eg);
    TemporalWorkspace ws;
    for (VertexId s = 0; s < eg.vertex_count(); ++s) {
      for (VertexId d = 0; d < eg.vertex_count(); ++d) {
        for (TimeUnit t_start : {TimeUnit{0}, TimeUnit{2}}) {
          const auto want = legacy::minimum_hop_journey(eg, s, d, t_start);
          const auto got = csr_minimum_hop_journey(csr, s, d, t_start, ws);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "s=" << s << " d=" << d << " t_start=" << t_start;
          if (got) {
            // Same hops, not merely the same hop count.
            EXPECT_EQ(*got, *want)
                << "s=" << s << " d=" << d << " t_start=" << t_start;
            EXPECT_TRUE(got->valid_for(eg));
          }
        }
      }
    }
  }
}

TEST(TemporalCsrFastest, MatchesLegacySpanAndValidity) {
  Rng rng(31);
  for (int round = 0; round < 30; ++round) {
    EgParams p;
    p.n = 5 + rng.index(8);
    p.horizon = 4 + static_cast<TimeUnit>(rng.index(8));
    p.edges = 5 + rng.index(22);
    p.labels_per_edge = 1 + rng.index(3);
    p.isolated = rng.index(2);
    p.emptied_edges = rng.index(2);
    const TemporalGraph eg = random_eg(rng, p);
    for (VertexId s = 0; s < eg.vertex_count(); ++s) {
      for (VertexId d = 0; d < eg.vertex_count(); ++d) {
        for (TimeUnit t_start : {TimeUnit{0}, TimeUnit{3}}) {
          const auto want = legacy::fastest_journey(eg, s, d, t_start);
          const auto got = fastest_journey(eg, s, d, t_start);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "s=" << s << " d=" << d << " t_start=" << t_start;
          if (got) {
            // The fastest span is unique even when the realizing journey
            // is not; the journey must still be a real one.
            EXPECT_EQ(got->span(), want->span())
                << "s=" << s << " d=" << d << " t_start=" << t_start;
            EXPECT_TRUE(got->valid_for(eg));
            if (!got->empty()) {
              EXPECT_GE(got->departure(), t_start);
            }
          }
        }
      }
    }
  }
}

TEST(TemporalCsrApi, ConvertedJourneyApiMatchesOracleFormulas) {
  Rng rng(43);
  for (int round = 0; round < 10; ++round) {
    EgParams p;
    p.n = 6 + rng.index(8);
    p.horizon = 4 + static_cast<TimeUnit>(rng.index(8));
    p.edges = 6 + rng.index(20);
    p.isolated = rng.index(2);
    const TemporalGraph eg = random_eg(rng, p);
    const std::size_t n = eg.vertex_count();

    // temporal_distances == oracle completions.
    for (VertexId s = 0; s < n; ++s) {
      EXPECT_EQ(temporal_distances(eg, s, 1),
                earliest_arrival(eg, s, 1).completion);
    }
    // flooding_time / dynamic_diameter from oracle completions.
    TimeUnit worst_all = 0;
    for (VertexId s = 0; s < n; ++s) {
      const auto ea = earliest_arrival(eg, s, 0);
      TimeUnit worst = 0;
      for (TimeUnit c : ea.completion) {
        worst = c == kNeverTime ? kNeverTime : std::max(worst, c);
        if (worst == kNeverTime) break;
      }
      EXPECT_EQ(flooding_time(eg, s), worst) << "s=" << s;
      worst_all = std::max(worst_all, worst);
    }
    EXPECT_EQ(dynamic_diameter(eg), worst_all);
    // is_connected_at / is_time_connected from oracle completions.
    const TimeUnit t = static_cast<TimeUnit>(rng.index(p.horizon));
    bool all = true;
    for (VertexId u = 0; u < n; ++u) {
      const auto ea = earliest_arrival(eg, u, t);
      for (VertexId v = 0; v < n; ++v) {
        const bool want = u == v || ea.completion[v] != kNeverTime;
        EXPECT_EQ(is_connected_at(eg, u, v, t), want)
            << "u=" << u << " v=" << v << " t=" << t;
        all = all && want;
      }
    }
    EXPECT_EQ(is_time_connected(eg, t), all);
    // earliest_completion_journey: same completion time as the oracle
    // and the exact oracle via chain (the CSR via trees are identical).
    for (VertexId s = 0; s < n; ++s) {
      const auto ea = earliest_arrival(eg, s, 0);
      for (VertexId d = 0; d < n; ++d) {
        const auto j = earliest_completion_journey(eg, s, d, 0);
        ASSERT_EQ(j.has_value(), ea.completion[d] != kNeverTime);
        if (j && s != d) {
          EXPECT_EQ(j->completion(), ea.completion[d]);
          EXPECT_TRUE(j->valid_for(eg));
          EXPECT_EQ(j->hops.empty() ? s : j->hops.back().to, d);
        }
      }
    }
  }
}

TEST(TemporalCsrThreads, ConvertedKernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(57);
  EgParams p;
  p.n = 40;
  p.horizon = 12;
  p.edges = 140;
  p.labels_per_edge = 2;
  p.isolated = 1;
  const TemporalGraph eg = random_eg(rng, p);

  const auto close1 = temporal_closeness(eg, 1);
  const auto between1 = temporal_betweenness(eg, 1);
  const auto cpl1 = characteristic_temporal_path_length(eg, 1);
  const TimeUnit diam1 = dynamic_diameter(eg, 1);
  const bool conn1 = is_time_connected(eg, 0, 1);
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(temporal_closeness(eg, threads), close1) << threads;
    EXPECT_EQ(temporal_betweenness(eg, threads), between1) << threads;
    const auto cpl = characteristic_temporal_path_length(eg, threads);
    EXPECT_EQ(cpl.characteristic_length, cpl1.characteristic_length);
    EXPECT_EQ(cpl.reachable_fraction, cpl1.reachable_fraction);
    EXPECT_EQ(dynamic_diameter(eg, threads), diam1) << threads;
    EXPECT_EQ(is_time_connected(eg, 0, threads), conn1) << threads;
  }
}

TEST(TemporalCsrDtn, RoutingMatchesGraphOverloadAndEaOracle) {
  Rng rng(71);
  for (int round = 0; round < 8; ++round) {
    EgParams p;
    p.n = 8 + rng.index(8);
    p.horizon = 6 + static_cast<TimeUnit>(rng.index(6));
    p.edges = 10 + rng.index(20);
    p.emptied_edges = rng.index(2);
    const TemporalGraph eg = random_eg(rng, p);
    const TemporalCsr csr(eg);
    const auto src = static_cast<VertexId>(rng.index(eg.vertex_count()));
    const auto dst = static_cast<VertexId>(rng.index(eg.vertex_count()));

    // Lossless epidemic delivery == earliest arrival (flooding is the
    // delay-optimal strategy, and instantaneous-transmission semantics
    // match journey semantics).
    const auto out = simulate_routing(csr, src, dst, 0, epidemic_strategy(),
                                      /*initial_copies=*/0);
    const auto ea = earliest_arrival(eg, src, 0);
    EXPECT_EQ(out.delivered, ea.completion[dst] != kNeverTime);
    if (out.delivered && src != dst) {
      EXPECT_EQ(out.delivery_time, ea.completion[dst]);
    }

    // Lossy runs: the CSR overload replays the exact contact order, so
    // the RNG draw sequence — and the outcome — is bit-identical.
    SimulationFaults faults;
    faults.loss_probability = 0.35;
    faults.loss_seed = 99 + round;
    const auto lossy_graph = simulate_routing(eg, src, dst, 1,
                                              epidemic_strategy(), 0, faults);
    const auto lossy_csr = simulate_routing(csr, src, dst, 1,
                                            epidemic_strategy(), 0, faults);
    EXPECT_EQ(lossy_graph.delivered, lossy_csr.delivered);
    EXPECT_EQ(lossy_graph.delivery_time, lossy_csr.delivery_time);
    EXPECT_EQ(lossy_graph.hops, lossy_csr.hops);
    EXPECT_EQ(lossy_graph.copies, lossy_csr.copies);
    EXPECT_EQ(lossy_graph.transmissions, lossy_csr.transmissions);
  }
}

TEST(TemporalCsrDtn, TrialsBitIdenticalAcrossThreadCounts) {
  Rng rng(83);
  EgParams p;
  p.n = 14;
  p.horizon = 10;
  p.edges = 30;
  const TemporalGraph eg = random_eg(rng, p);
  SimulationFaults faults;
  faults.loss_probability = 0.3;
  faults.loss_seed = 5;
  const auto base = simulate_routing_trials(eg, 0, 5, 0, epidemic_strategy(),
                                            0, faults, 24, 1);
  for (std::size_t threads : {2u, 8u}) {
    const auto got = simulate_routing_trials(eg, 0, 5, 0, epidemic_strategy(),
                                             0, faults, 24, threads);
    ASSERT_EQ(got.outcomes.size(), base.outcomes.size());
    for (std::size_t i = 0; i < base.outcomes.size(); ++i) {
      EXPECT_EQ(got.outcomes[i].delivered, base.outcomes[i].delivered);
      EXPECT_EQ(got.outcomes[i].delivery_time, base.outcomes[i].delivery_time);
      EXPECT_EQ(got.outcomes[i].transmissions,
                base.outcomes[i].transmissions);
    }
    EXPECT_EQ(got.delivery_ratio, base.delivery_ratio);
    EXPECT_EQ(got.mean_delivery_time, base.mean_delivery_time);
  }
}

// ---- DeltaTemporalCsr: delta overlay vs fresh rebuild ----

// Merged base+delta iteration must reproduce a fresh TemporalCsr's
// layout exactly: same per-unit edge streams (same order), same unit
// sizes, same per-vertex contact-bearing flags, same live labels.
void expect_delta_layout_equal(const TemporalGraph& eg,
                               const DeltaTemporalCsr& delta) {
  const TemporalCsr fresh(eg);
  ASSERT_EQ(delta.vertex_count(), fresh.vertex_count());
  ASSERT_EQ(delta.edge_count(), fresh.edge_count());
  ASSERT_EQ(delta.contact_count(), fresh.contact_count());
  for (TimeUnit t = 0; t < eg.horizon(); ++t) {
    const auto want = fresh.edges_at(t);
    std::vector<EdgeId> got;
    delta.for_each_edge_at(t, [&](EdgeId e) {
      got.push_back(e);
      return true;
    });
    ASSERT_EQ(got.size(), want.size()) << "t=" << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "t=" << t << " i=" << i;
    }
    EXPECT_EQ(delta.unit_size(t), want.size()) << "t=" << t;
  }
  for (VertexId v = 0; v < fresh.vertex_count(); ++v) {
    EXPECT_EQ(delta.has_contacts(v), fresh.has_contacts(v)) << "v=" << v;
  }
  for (EdgeId e = 0; e < fresh.edge_count(); ++e) {
    for (TimeUnit t = 0; t <= eg.horizon(); ++t) {
      EXPECT_EQ(delta.first_label_at(e, t), fresh.first_label_at(e, t))
          << "e=" << e << " t=" << t;
    }
  }
}

// All three kernels on the delta overlay vs a fresh rebuild, including
// via hops and journey hops (bit-identity, not just values).
void expect_delta_kernels_equal(const TemporalGraph& eg,
                                const DeltaTemporalCsr& delta,
                                TemporalWorkspace& wsa, TemporalWorkspace& wsb,
                                VertexId source, TimeUnit t_start, Rng& rng) {
  const TemporalCsr fresh(eg);
  csr_earliest_arrival(fresh, source, t_start, wsa);
  csr_earliest_arrival(delta, source, t_start, wsb);
  for (VertexId v = 0; v < eg.vertex_count(); ++v) {
    ASSERT_EQ(wsb.arrival(v), wsa.arrival(v))
        << "s=" << source << " t_start=" << t_start << " v=" << v;
    ASSERT_EQ(wsb.via(v), wsa.via(v))
        << "s=" << source << " t_start=" << t_start << " v=" << v;
  }
  for (int pick = 0; pick < 4; ++pick) {
    auto target = static_cast<VertexId>(rng.index(eg.vertex_count()));
    if (target == source) {
      target = static_cast<VertexId>((target + 1) % eg.vertex_count());
    }
    if (target == source) continue;
    ASSERT_EQ(csr_fastest_departure(delta, source, target, t_start, wsb),
              csr_fastest_departure(fresh, source, target, t_start, wsa))
        << "fastest s=" << source << " tgt=" << target;
    const auto ja = csr_minimum_hop_journey(fresh, source, target, t_start,
                                            wsa);
    const auto jb = csr_minimum_hop_journey(delta, source, target, t_start,
                                            wsb);
    ASSERT_EQ(jb.has_value(), ja.has_value())
        << "minhop s=" << source << " tgt=" << target;
    if (ja) {
      ASSERT_EQ(jb->hops, ja->hops) << "minhop s=" << source;
    }
  }
}

TEST(TemporalDeltaChurn, MixedEventsBitIdenticalToFreshRebuild) {
  // ~1k mixed add_contact / remove_label events folded into the delta
  // while the same mutations run on the TemporalGraph; the overlay must
  // stay bit-identical to a fresh rebuild after every event (sampled
  // kernels; periodic full layout + all-sources sweeps), across forced
  // compaction boundaries and with t_start > 0.
  Rng rng(113);
  EgParams p;
  p.n = 18;
  p.horizon = 12;
  p.edges = 30;
  p.labels_per_edge = 2;
  p.emptied_edges = 2;
  TemporalGraph eg = random_eg(rng, p);
  DeltaTemporalCsr delta(eg);
  TemporalWorkspace wsa, wsb;

  std::size_t compactions = 0, accepted = 0;
  for (int step = 0; step < 1000; ++step) {
    const auto u = static_cast<VertexId>(rng.index(p.n));
    auto v = static_cast<VertexId>(rng.index(p.n));
    if (u == v) v = static_cast<VertexId>((v + 1) % p.n);
    const auto t = static_cast<TimeUnit>(rng.index(p.horizon));
    if (rng.index(10) < 7) {
      const bool expect_new = !eg.has_contact(u, v, t);
      eg.add_contact(u, v, t);
      EXPECT_EQ(delta.add_contact(u, v, t), expect_new) << "step " << step;
      accepted += expect_new;
    } else {
      const bool removed = eg.remove_label(u, v, t);
      EXPECT_EQ(delta.remove_contact(u, v, t), removed) << "step " << step;
      accepted += removed;
    }
    // Aggressive compaction policy so the suite crosses many
    // compaction boundaries (delta drained back into the base).
    if (delta.needs_compaction(0.02, 8)) {
      delta.rebase(eg);
      ++compactions;
      EXPECT_TRUE(delta.delta_empty());
    }
    if (step % 20 == 0) {
      const auto s = static_cast<VertexId>(rng.index(p.n));
      const auto t0 = static_cast<TimeUnit>(rng.index(4));
      expect_delta_kernels_equal(eg, delta, wsa, wsb, s, t0, rng);
    }
    if (step % 250 == 249) {
      expect_delta_layout_equal(eg, delta);
      for (VertexId s = 0; s < eg.vertex_count(); ++s) {
        expect_delta_kernels_equal(eg, delta, wsa, wsb, s, 0, rng);
      }
    }
  }
  EXPECT_GT(accepted, 400u);
  EXPECT_GT(compactions, 2u);
  expect_delta_layout_equal(eg, delta);
}

TEST(TemporalDeltaChurn, ResurrectionAndDuplicateSemantics) {
  TemporalGraph eg(4, 6);
  eg.add_contact(0, 1, 2);
  eg.add_contact(1, 2, 3);
  DeltaTemporalCsr delta(eg);

  // Every op is mirrored into the graph so the final fresh rebuild
  // sees the same history (incl. edge records left behind by drained
  // labels — both sides keep them for id stability).
  // Duplicate of a live base contact is rejected, like the graph.
  EXPECT_FALSE(delta.add_contact(0, 1, 2));
  EXPECT_TRUE(delta.delta_empty());
  // Tombstone a base contact, then resurrect it: delta drains to zero.
  EXPECT_TRUE(delta.remove_contact(0, 1, 2));
  eg.remove_label(0, 1, 2);
  EXPECT_EQ(delta.delta_size(), 1u);
  EXPECT_FALSE(delta.remove_contact(0, 1, 2));  // already dead
  EXPECT_TRUE(delta.add_contact(0, 1, 2));      // resurrect
  eg.add_contact(0, 1, 2);
  EXPECT_TRUE(delta.delta_empty());
  // Delta-added contact: duplicate rejected, removal erases outright.
  EXPECT_TRUE(delta.add_contact(2, 3, 1));
  eg.add_contact(2, 3, 1);
  EXPECT_FALSE(delta.add_contact(3, 2, 1));
  EXPECT_EQ(delta.delta_size(), 1u);
  EXPECT_TRUE(delta.remove_contact(2, 3, 1));
  eg.remove_label(2, 3, 1);
  EXPECT_TRUE(delta.delta_empty());
  // Removing a contact that never existed fails on both paths.
  EXPECT_FALSE(delta.remove_contact(0, 3, 4));
  EXPECT_FALSE(delta.remove_contact(0, 1, 5));

  expect_delta_layout_equal(eg, delta);
}

TEST(TemporalDeltaChurn, AllSourcesBitIdenticalAt128Threads) {
  // After a churn burst, all-sources earliest arrival over the delta
  // overlay must be bit-identical to the fresh rebuild at 1, 2, and 8
  // threads (per-worker workspaces, fixed shard boundaries).
  Rng rng(131);
  EgParams p;
  p.n = 40;
  p.horizon = 14;
  p.edges = 90;
  p.labels_per_edge = 2;
  TemporalGraph eg = random_eg(rng, p);
  DeltaTemporalCsr delta(eg);
  for (int step = 0; step < 300; ++step) {
    const auto u = static_cast<VertexId>(rng.index(p.n));
    auto v = static_cast<VertexId>(rng.index(p.n));
    if (u == v) v = static_cast<VertexId>((v + 1) % p.n);
    const auto t = static_cast<TimeUnit>(rng.index(p.horizon));
    if (rng.index(10) < 7) {
      eg.add_contact(u, v, t);
      delta.add_contact(u, v, t);
    } else {
      eg.remove_label(u, v, t);
      delta.remove_contact(u, v, t);
    }
  }

  const TemporalCsr fresh(eg);
  const std::size_t n = eg.vertex_count();
  std::vector<TimeUnit> want(n * n, kNeverTime);
  {
    TemporalWorkspace ws;
    for (VertexId s = 0; s < n; ++s) {
      csr_earliest_arrival(fresh, s, 1, ws);
      for (VertexId v = 0; v < n; ++v) want[s * n + v] = ws.arrival(v);
    }
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<TemporalWorkspace> pool(resolve_threads(threads));
    std::vector<TimeUnit> got(n * n, kNeverTime);
    parallel_for_shards(
        0, n, 4, threads,
        [&](std::size_t, std::size_t lo, std::size_t hi, std::size_t worker) {
          TemporalWorkspace& ws = pool[worker];
          for (std::size_t s = lo; s < hi; ++s) {
            csr_earliest_arrival(delta, static_cast<VertexId>(s), 1, ws);
            for (VertexId v = 0; v < n; ++v) {
              got[s * n + v] = ws.arrival(v);
            }
          }
        });
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}

TEST(TemporalCsrWorkspace, ReusedAcrossGraphShapes) {
  // One workspace driven across graphs of different sizes must rebind
  // cleanly (stale stamps from the old shape can never leak).
  Rng rng(91);
  TemporalWorkspace ws;
  for (int round = 0; round < 6; ++round) {
    EgParams p;
    p.n = 4 + rng.index(20);
    p.horizon = 3 + static_cast<TimeUnit>(rng.index(9));
    p.edges = 4 + rng.index(30);
    const TemporalGraph eg = random_eg(rng, p);
    const TemporalCsr csr(eg);
    for (VertexId s = 0; s < eg.vertex_count(); ++s) {
      expect_ea_equal(eg, csr, ws, s, 0);
    }
  }
}

}  // namespace
}  // namespace structnet
