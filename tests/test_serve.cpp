// Query-serving layer: result-cache semantics, broker admission control
// and per-kind correctness, and — the load-bearing guarantee — served
// results bit-identical to fresh uncached recomputes at the same epoch,
// at any thread count, under interleaved churn.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "centrality/centrality.hpp"
#include "core/generators.hpp"
#include "fault/fault_plan.hpp"
#include "layering/nsf.hpp"
#include "serve/broker.hpp"
#include "serve/query.hpp"
#include "serve/result_cache.hpp"
#include "sim/dtn_routing.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "temporal/journeys.hpp"
#include "temporal/temporal_centrality.hpp"
#include "util/rng.hpp"

namespace structnet {
namespace {

QueryPayload make_payload(std::vector<TimeUnit> v) {
  return QueryPayload(std::move(v));
}

TEST(ResultCacheTest, HitsMissesAndLruEviction) {
  ResultCache cache(payload_bytes(make_payload({1, 2, 3})) * 2);

  EXPECT_FALSE(cache.lookup("a", 1).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.insert("a", 1, make_payload({1, 2, 3}));
  cache.insert("b", 1, make_payload({4, 5, 6}));
  ASSERT_TRUE(cache.lookup("a", 1).has_value());
  EXPECT_TRUE(payload_equal(*cache.lookup("a", 1), make_payload({1, 2, 3})));
  EXPECT_EQ(cache.stats().entries, 2u);

  // "a" was refreshed by the lookups, so inserting "c" evicts "b".
  cache.insert("c", 1, make_payload({7, 8, 9}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup("a", 1).has_value());
  EXPECT_FALSE(cache.lookup("b", 1).has_value());
  EXPECT_TRUE(cache.lookup("c", 1).has_value());
}

TEST(ResultCacheTest, EpochIsPartOfTheKey) {
  ResultCache cache(1 << 20);
  cache.insert("q", 3, make_payload({1}));
  EXPECT_FALSE(cache.lookup("q", 4).has_value());
  EXPECT_TRUE(cache.lookup("q", 3).has_value());
}

TEST(ResultCacheTest, InvalidateBeforeDropsOnlyStaleEpochs) {
  ResultCache cache(1 << 20);
  cache.insert("a", 1, make_payload({1}));
  cache.insert("b", 2, make_payload({2}));
  cache.insert("c", 5, make_payload({3}));
  cache.invalidate_before(5);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_FALSE(cache.lookup("a", 1).has_value());
  EXPECT_FALSE(cache.lookup("b", 2).has_value());
  EXPECT_TRUE(cache.lookup("c", 5).has_value());
  // Fast path: nothing below 5 remains, so this is a no-op.
  cache.invalidate_before(5);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(ResultCacheTest, InsertReplacesExistingKey) {
  ResultCache cache(1 << 20);
  cache.insert("k", 1, make_payload({1, 2}));
  cache.insert("k", 1, make_payload({9}));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_TRUE(payload_equal(*cache.lookup("k", 1), make_payload({9})));
}

TEST(ResultCacheTest, QueryFingerprintsDistinguishKindsAndValues) {
  const Query a = TemporalDistancesQuery{3, 7};
  const Query b = TemporalDistancesQuery{3, 8};
  const Query c = FastestJourneyQuery{3, 7, 0};
  EXPECT_NE(query_fingerprint(a), query_fingerprint(b));
  EXPECT_NE(query_fingerprint(a), query_fingerprint(c));
  EXPECT_EQ(query_fingerprint(a),
            query_fingerprint(Query(TemporalDistancesQuery{3, 7})));

  FaultPlan plan;
  RoutingTrialsQuery rt;
  EXPECT_TRUE(query_cacheable(Query(rt)));
  rt.plan = &plan;
  EXPECT_FALSE(query_cacheable(Query(rt)));
}

// ------------------------------------------------------------- fixture

/// A small engine + temporal view with deterministic churn material.
struct ServeRig {
  static constexpr std::size_t kNodes = 24;
  static constexpr TimeUnit kHorizon = 16;

  StreamEngine engine;
  TemporalViewObserver view{kNodes, kHorizon};

  explicit ServeRig(std::uint64_t seed = 7) : engine{DynamicGraph(kNodes)} {
    engine.attach(&view);
    Rng rng(seed);
    std::vector<Event> events;
    for (std::size_t i = 0; i < 120; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      const auto v = static_cast<VertexId>(rng.index(kNodes));
      if (rng.uniform01() < 0.5) {
        events.push_back(Event::edge_insert(u, v));
      } else {
        events.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
      }
    }
    engine.apply_batch(events);
  }
};

QueryResult run_one(QueryBroker& broker, Query q, SubmitOptions opt = {}) {
  auto f = broker.submit(std::move(q), opt);
  broker.flush();
  return f.get();
}

TEST(QueryBrokerTest, EachKindMatchesDirectComputation) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = 1;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  const TemporalGraph& tg = rig.view.view();
  const Graph g = rig.engine.graph().materialize();
  const std::uint64_t epoch = rig.engine.graph().epoch();

  {
    auto r = run_one(broker, TemporalDistancesQuery{2, 1});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(r.epoch, epoch);
    EXPECT_EQ(std::get<std::vector<TimeUnit>>(r.payload),
              earliest_arrival(tg, 2, 1).completion);
  }
  {
    auto r = run_one(broker, FastestJourneyQuery{0, 5, 0});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(std::get<std::optional<Journey>>(r.payload),
              fastest_journey(tg, 0, 5, 0));
  }
  {
    auto r = run_one(broker, MinHopJourneyQuery{1, 9, 0});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(std::get<std::optional<Journey>>(r.payload),
              minimum_hop_journey(tg, 1, 9, 0));
  }
  {
    auto r = run_one(broker, NsfReportQuery{0.5, 0.15});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    const auto& served = std::get<NsfReport>(r.payload);
    EXPECT_TRUE(payload_equal(r.payload,
                              QueryPayload(nsf_report(g, 0.5, 0.15, 1))));
    EXPECT_EQ(served.sizes.front(), g.vertex_count());
  }
  for (const auto measure :
       {CentralityMeasure::kDegree, CentralityMeasure::kCloseness,
        CentralityMeasure::kBetweenness, CentralityMeasure::kClustering,
        CentralityMeasure::kTemporalCloseness}) {
    auto r = run_one(broker, CentralityQuery{measure});
    ASSERT_EQ(r.status, QueryStatus::kOk);
    std::vector<double> expect;
    switch (measure) {
      case CentralityMeasure::kDegree: expect = degree_centrality(g); break;
      case CentralityMeasure::kCloseness:
        expect = closeness_centrality(g);
        break;
      case CentralityMeasure::kBetweenness:
        expect = betweenness_centrality(g);
        break;
      case CentralityMeasure::kClustering:
        expect = clustering_coefficients(g);
        break;
      case CentralityMeasure::kTemporalCloseness:
        expect = temporal_closeness(tg, 1);
        break;
    }
    EXPECT_EQ(std::get<std::vector<double>>(r.payload), expect);
  }
  {
    RoutingTrialsQuery q;
    q.source = 0;
    q.destination = 7;
    q.strategy = RoutingStrategy::kEpidemic;
    q.trials = 8;
    q.loss_probability = 0.2;
    q.loss_seed = 99;
    auto r = run_one(broker, q);
    ASSERT_EQ(r.status, QueryStatus::kOk);
    SimulationFaults faults;
    faults.loss_probability = 0.2;
    faults.loss_seed = 99;
    const RoutingTrialStats expect = simulate_routing_trials(
        tg, 0, 7, 0, epidemic_strategy(), 1, faults, 8, 1);
    EXPECT_TRUE(payload_equal(r.payload, QueryPayload(expect)));
  }

  const ServeStats stats = broker.stats();
  EXPECT_EQ(stats.executed, stats.admitted);
  EXPECT_EQ(stats.csr_builds, 1u);   // one contact index for all batches
  EXPECT_EQ(stats.graph_builds, 1u); // one materialization likewise
  EXPECT_GT(stats.csr_reuses + stats.graph_reuses, 0u);
}

TEST(QueryBrokerTest, CacheHitIsBitIdenticalAndFlagged) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  const Query q = TemporalDistancesQuery{4, 0};
  const auto first = run_one(broker, q);
  const auto second = run_one(broker, q);
  ASSERT_EQ(first.status, QueryStatus::kOk);
  ASSERT_EQ(second.status, QueryStatus::kOk);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  EXPECT_TRUE(payload_equal(first.payload, second.payload));
  EXPECT_EQ(broker.stats().cache_hits, 1u);
}

TEST(QueryBrokerTest, EngineAdvanceInvalidatesCache) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  const Query q = TemporalDistancesQuery{0, 0};
  ASSERT_FALSE(run_one(broker, q).from_cache);
  ASSERT_TRUE(run_one(broker, q).from_cache);

  // Mutate through the broker: epoch bumps, cache entries below it die.
  const Event event = Event::contact_add(0, 1, 2);
  ASSERT_EQ(broker.apply_events({&event, 1}), 1u);

  const auto after = run_one(broker, q);
  ASSERT_EQ(after.status, QueryStatus::kOk);
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.epoch, rig.engine.graph().epoch());
  EXPECT_GT(broker.stats().cache_invalidations, 0u);

  // And the new result reflects the new contact.
  EXPECT_EQ(std::get<std::vector<TimeUnit>>(after.payload),
            earliest_arrival(rig.view.view(), 0, 0).completion);
}

TEST(QueryBrokerTest, SaturatedQueueShedsInsteadOfBlocking) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.max_queue = 4;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  for (VertexId s = 0; s < 10; ++s) {
    futures.push_back(broker.submit(TemporalDistancesQuery{s, 0}));
  }
  // Submissions 5..10 must already be resolved (shed), not blocked.
  std::size_t shed = 0;
  for (std::size_t i = 4; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto r = futures[i].get();
    EXPECT_EQ(r.status, QueryStatus::kRejected);
    EXPECT_EQ(r.cause, RejectCause::kQueueFull);
    ++shed;
  }
  EXPECT_EQ(shed, 6u);

  broker.flush();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get().status, QueryStatus::kOk);
  }
  const ServeStats stats = broker.stats();
  EXPECT_EQ(stats.shed_queue_full, 6u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.max_queue_depth, 4u);
}

TEST(QueryBrokerTest, ExpiredDeadlineResolvesTimedOut) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  SubmitOptions opt;
  opt.deadline = std::chrono::nanoseconds(1);
  auto f = broker.submit(TemporalDistancesQuery{0, 0}, opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  broker.flush();
  EXPECT_EQ(f.get().status, QueryStatus::kTimedOut);
  EXPECT_EQ(broker.stats().timed_out, 1u);

  // Deterministic mode ignores the wall clock entirely.
  BrokerConfig det;
  det.deterministic = true;
  QueryBroker dbroker(rig.engine, &rig.view, det);
  auto g = dbroker.submit(TemporalDistancesQuery{0, 0}, opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dbroker.flush();
  EXPECT_EQ(g.get().status, QueryStatus::kOk);
}

TEST(QueryBrokerTest, InvalidArgumentsAreRejectedTyped) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  auto r = run_one(broker, TemporalDistancesQuery{ServeRig::kNodes + 5, 0});
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_EQ(r.cause, RejectCause::kInvalidArgument);

  auto nan = run_one(broker, NsfReportQuery{-1.0, 0.15});
  EXPECT_EQ(nan.status, QueryStatus::kRejected);
  EXPECT_EQ(nan.cause, RejectCause::kInvalidArgument);

  // A broker without a temporal view rejects temporal queries but still
  // serves static ones.
  QueryBroker blind(rig.engine, nullptr);
  EXPECT_EQ(run_one(blind, TemporalDistancesQuery{0, 0}).cause,
            RejectCause::kInvalidArgument);
  EXPECT_EQ(run_one(blind, CentralityQuery{}).status, QueryStatus::kOk);
}

TEST(QueryBrokerTest, ShutdownResolvesLeftoverQueries) {
  ServeRig rig;
  std::future<QueryResult> orphan;
  {
    QueryBroker broker(rig.engine, &rig.view);
    orphan = broker.submit(TemporalDistancesQuery{0, 0});
    // No flush: the destructor must still resolve the promise.
  }
  const auto r = orphan.get();
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_EQ(r.cause, RejectCause::kShutdown);
}

TEST(QueryBrokerTest, PlanBearingRoutingQueriesBypassCache) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);

  FaultPlan plan(11);
  plan.set_contact_loss(0.3);
  RoutingTrialsQuery q;
  q.source = 0;
  q.destination = 3;
  q.trials = 4;
  q.plan = &plan;
  const auto a = run_one(broker, q);
  const auto b = run_one(broker, q);
  ASSERT_EQ(a.status, QueryStatus::kOk);
  ASSERT_EQ(b.status, QueryStatus::kOk);
  EXPECT_FALSE(a.from_cache);
  EXPECT_FALSE(b.from_cache);  // same query, still never cached
  EXPECT_TRUE(payload_equal(a.payload, b.payload));  // but deterministic
  EXPECT_EQ(broker.stats().cache_hits, 0u);
}

TEST(QueryBrokerTest, DispatcherDrainsOnStop) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.max_queue = 4096;
  QueryBroker broker(rig.engine, &rig.view, cfg);
  broker.start();
  EXPECT_TRUE(broker.dispatching());

  std::vector<std::future<QueryResult>> futures;
  for (std::size_t i = 0; i < 200; ++i) {
    futures.push_back(broker.submit(
        TemporalDistancesQuery{static_cast<VertexId>(i % ServeRig::kNodes),
                               static_cast<TimeUnit>(i % 4)}));
  }
  broker.stop();  // drains: every admitted future is resolved after this
  EXPECT_FALSE(broker.dispatching());
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().status, QueryStatus::kOk);
  }
  EXPECT_GT(broker.stats().cache_hits, 0u);  // duplicates in the mix
}

TEST(ServeStatsTest, JsonLineIsMachineReadable) {
  ServeRig rig;
  QueryBroker broker(rig.engine, &rig.view);
  (void)run_one(broker, TemporalDistancesQuery{0, 0});
  (void)run_one(broker, TemporalDistancesQuery{0, 0});

  const std::string line = broker.stats().json("serve_smoke");
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"bench\": \"serve_smoke\""), std::string::npos);
  EXPECT_NE(line.find("\"cache_hits\": 1"), std::string::npos);
  EXPECT_NE(line.find("temporal_distances_count"), std::string::npos);
}

// -------------------------------------------------------------- churn

/// The acceptance gate: interleave churn with a query mix; at every
/// checkpoint, served results (cache on, batched, parallel) must be
/// bit-identical to fresh uncached recomputes at the same epoch, and
/// identical across thread counts 1 / 2 / 8.
struct ChurnRun {
  std::vector<QueryPayload> payloads;
  ServeStats stats;
};

ChurnRun churn_run(std::size_t threads, bool delta_index = true) {
  constexpr std::size_t kNodes = 32;
  constexpr TimeUnit kHorizon = 20;
  StreamEngine engine{DynamicGraph(kNodes)};
  TemporalViewObserver view(kNodes, kHorizon);
  engine.attach(&view);

  BrokerConfig cfg;
  cfg.threads = threads;
  cfg.deterministic = true;
  cfg.delta_index = delta_index;
  QueryBroker broker(engine, &view, cfg);

  Rng rng(2024);
  ChurnRun run;
  for (std::size_t round = 0; round < 12; ++round) {
    // Churn: a batch of mixed events (same sequence at every thread
    // count: the RNG draws are independent of `threads`).
    std::vector<Event> batch;
    for (std::size_t i = 0; i < 20; ++i) {
      const auto u = static_cast<VertexId>(rng.index(kNodes));
      const auto v = static_cast<VertexId>(rng.index(kNodes));
      const double dice = rng.uniform01();
      if (dice < 0.35) {
        batch.push_back(Event::edge_insert(u, v));
      } else if (dice < 0.55) {
        batch.push_back(Event::edge_delete(u, v));
      } else if (dice < 0.85) {
        batch.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon))));
      } else {
        batch.push_back(Event::contact_relabel(
            u, v, static_cast<TimeUnit>(rng.index(kHorizon)),
            static_cast<TimeUnit>(rng.index(kHorizon))));
      }
    }
    broker.apply_events(batch);

    // Query mix for this round — includes a duplicate to exercise the
    // cache inside the equivalence gate.
    std::vector<Query> queries;
    const auto s = static_cast<VertexId>(rng.index(kNodes));
    const auto t = static_cast<VertexId>(rng.index(kNodes));
    queries.emplace_back(TemporalDistancesQuery{s, 0});
    queries.emplace_back(TemporalDistancesQuery{s, 0});  // cache hit
    queries.emplace_back(FastestJourneyQuery{s, t, 0});
    queries.emplace_back(MinHopJourneyQuery{t, s, 0});
    queries.emplace_back(CentralityQuery{CentralityMeasure::kDegree});
    if (round % 3 == 0) {
      queries.emplace_back(NsfReportQuery{0.5, 0.15});
      RoutingTrialsQuery rt;
      rt.source = s;
      rt.destination = t;
      rt.trials = 4;
      rt.loss_probability = 0.15;
      rt.loss_seed = 7 + round;
      queries.emplace_back(rt);
    }

    std::vector<std::future<QueryResult>> futures;
    for (const Query& q : queries) futures.push_back(broker.submit(q));
    broker.flush();

    const std::uint64_t epoch = engine.graph().epoch();
    const TemporalGraph& tg = view.view();
    const Graph g = engine.graph().materialize();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryResult r = futures[i].get();
      EXPECT_EQ(r.status, QueryStatus::kOk) << "round " << round;
      EXPECT_EQ(r.epoch, epoch) << "round " << round;

      // Fresh, uncached, serial recompute through the public API.
      QueryPayload fresh = std::visit(
          [&](const auto& q) -> QueryPayload {
            using T = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
              return earliest_arrival(tg, q.source, q.t_start).completion;
            } else if constexpr (std::is_same_v<T, FastestJourneyQuery>) {
              return fastest_journey(tg, q.source, q.target, q.t_start);
            } else if constexpr (std::is_same_v<T, MinHopJourneyQuery>) {
              return minimum_hop_journey(tg, q.source, q.target, q.t_start);
            } else if constexpr (std::is_same_v<T, NsfReportQuery>) {
              return nsf_report(g, q.stop_fraction, q.ks_threshold, 1);
            } else if constexpr (std::is_same_v<T, CentralityQuery>) {
              return degree_centrality(g);
            } else {
              SimulationFaults faults;
              faults.loss_probability = q.loss_probability;
              faults.loss_seed = q.loss_seed;
              return simulate_routing_trials(tg, q.source, q.destination,
                                             q.t0, epidemic_strategy(), 1,
                                             faults, q.trials, 1);
            }
          },
          queries[i]);
      EXPECT_TRUE(payload_equal(r.payload, fresh))
          << "round " << round << " query " << i << " threads " << threads;
      run.payloads.push_back(std::move(r.payload));
    }
  }
  run.stats = broker.stats();
  return run;
}

TEST(ServeChurnTest, ServedEqualsFreshRecomputeAtAnyThreadCount) {
  const ChurnRun serial = churn_run(1);
  EXPECT_GT(serial.stats.cache_hits, 0u);  // the duplicate query hits
  EXPECT_GT(serial.stats.executed, 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const ChurnRun parallel_run = churn_run(threads);
    ASSERT_EQ(parallel_run.payloads.size(), serial.payloads.size());
    for (std::size_t i = 0; i < serial.payloads.size(); ++i) {
      EXPECT_TRUE(
          payload_equal(serial.payloads[i], parallel_run.payloads[i]))
          << "payload " << i << " differs at threads=" << threads;
    }
    EXPECT_EQ(parallel_run.stats.cache_hits, serial.stats.cache_hits);
    EXPECT_EQ(parallel_run.stats.executed, serial.stats.executed);
  }
}

TEST(ServeChurnTest, ConcurrentSubmitAndApplyNeverDeadlocks) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.max_queue = 64;  // small queue: shedding is expected and fine
  QueryBroker broker(rig.engine, &rig.view, cfg);
  broker.start();

  std::atomic<bool> go{true};
  std::thread mutator([&] {
    Rng rng(5);
    while (go.load()) {
      const auto u = static_cast<VertexId>(rng.index(ServeRig::kNodes));
      const auto v = static_cast<VertexId>(rng.index(ServeRig::kNodes));
      const Event e = Event::contact_add(
          u, v, static_cast<TimeUnit>(rng.index(ServeRig::kHorizon)));
      broker.apply_events({&e, 1});
    }
  });

  std::vector<std::future<QueryResult>> futures;
  Rng rng(6);
  for (std::size_t i = 0; i < 500; ++i) {
    futures.push_back(broker.submit(TemporalDistancesQuery{
        static_cast<VertexId>(rng.index(ServeRig::kNodes)), 0}));
  }
  go.store(false);
  mutator.join();
  broker.stop();

  std::size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.status == QueryStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.cause, RejectCause::kQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 500u);
  EXPECT_GT(ok, 0u);
}

// ---------------------------------------------- accounting regressions

TEST(ResultCacheTest, ChurnKeepsByteAccountingExact) {
  // Deterministic churn across every mutation path — same-key
  // overwrites (shrinking and growing), budget evictions, epoch
  // invalidations, clear — asserting after every operation that the
  // tracked bytes/entries equal a full recount of the live entries.
  Rng rng(99);
  ResultCache cache(/*byte_budget=*/600);
  const auto assert_exact = [&](const char* where, std::size_t step) {
    const ResultCache::Recount r = cache.recount();
    const ResultCache::Stats s = cache.stats();
    ASSERT_EQ(s.bytes, r.bytes) << where << " step " << step;
    ASSERT_EQ(s.entries, r.entries) << where << " step " << step;
    ASSERT_LE(s.bytes, cache.byte_budget()) << where << " step " << step;
  };
  std::uint64_t epoch = 1;
  for (std::size_t step = 0; step < 500; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.55) {
      // Insert / overwrite under a handful of keys so overwrites with a
      // different payload size happen constantly.
      const std::string key = "k" + std::to_string(rng.index(6));
      std::vector<TimeUnit> payload(rng.index(40));
      for (TimeUnit& t : payload) t = static_cast<TimeUnit>(rng.index(100));
      cache.insert(key, epoch, QueryPayload(std::move(payload)));
      assert_exact("insert", step);
    } else if (roll < 0.75) {
      (void)cache.lookup("k" + std::to_string(rng.index(8)), epoch);
      assert_exact("lookup", step);
    } else if (roll < 0.92) {
      ++epoch;
      if (rng.uniform01() < 0.5) cache.invalidate_before(epoch);
      assert_exact("advance", step);
    } else {
      cache.clear();
      assert_exact("clear", step);
    }
  }
  // Drain and confirm the empty cache accounts to zero.
  cache.invalidate_before(epoch + 1);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.recount().bytes, 0u);
}

TEST(LatencyHistogramTest, PercentileEdgeCases) {
  // Empty: every quantile is 0.
  LatencyHistogram empty;
  EXPECT_EQ(empty.quantile_upper_ns(0.99), 0u);
  EXPECT_EQ(empty.quantile_upper_ns(0.0), 0u);
  EXPECT_DOUBLE_EQ(empty.mean_ns(), 0.0);

  // Single sample: every quantile bounds it tightly (max-tightened).
  LatencyHistogram one;
  one.add(777);
  EXPECT_EQ(one.quantile_upper_ns(0.0), 777u);
  EXPECT_EQ(one.quantile_upper_ns(0.99), 777u);
  EXPECT_EQ(one.quantile_upper_ns(1.0), 777u);

  // p99 of exactly 100 samples is the 99th order statistic, not the
  // 100th (the legacy floor-rank off-by-one): 99 small samples in
  // [16, 32) and one huge outlier must keep p99 at the small bucket.
  LatencyHistogram hundred;
  for (int i = 0; i < 99; ++i) hundred.add(20);
  hundred.add(1'000'000);
  ASSERT_EQ(hundred.count(), 100u);
  EXPECT_LE(hundred.quantile_upper_ns(0.99), 32u);
  EXPECT_EQ(hundred.quantile_upper_ns(1.0), 1'000'000u);

  // Samples at/above 2^39 clamp into the last bucket but are never
  // dropped, and quantiles landing there report the recorded max (the
  // bucket edge would lie low).
  LatencyHistogram sat;
  const std::uint64_t huge = (std::uint64_t{1} << 62) + 5;
  sat.add(huge);
  sat.add(huge);
  EXPECT_EQ(sat.count(), 2u);
  EXPECT_EQ(sat.max_ns(), huge);
  EXPECT_EQ(sat.quantile_upper_ns(0.5), huge);
  EXPECT_EQ(sat.quantile_upper_ns(0.99), huge);

  // Bucket-boundary off-by-one: 2^k lands in bucket k, so a quantile
  // resolving to that bucket is bounded by 2^(k+1), not 2^k.
  LatencyHistogram edge;
  edge.add(16);  // bucket 4: [16, 32)
  EXPECT_EQ(edge.quantile_upper_ns(1.0), 16u);  // tightened by max
  edge.add(31);
  EXPECT_EQ(edge.quantile_upper_ns(1.0), 31u);  // still inside bucket 4
}

// ------------------------------------------------- deterministic clock

std::atomic<std::int64_t> g_fake_now_ns{0};

std::chrono::steady_clock::time_point fake_now() {
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(g_fake_now_ns.load()));
}

TEST(QueryBrokerTest, DeadlineExpiringExactlyAtDequeueTimesOut) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  SubmitOptions opt;
  opt.deadline = std::chrono::nanoseconds(100);

  // Zero budget remaining at the admission gate: boundary-exact expiry.
  g_fake_now_ns.store(0);
  auto exact = broker.submit(TemporalDistancesQuery{0, 0}, opt);
  g_fake_now_ns.store(100);  // now == deadline
  broker.flush();
  EXPECT_EQ(exact.get().status, QueryStatus::kTimedOut);

  // One nanosecond of budget left: runs and resolves Ok.
  g_fake_now_ns.store(1000);
  auto alive = broker.submit(TemporalDistancesQuery{0, 0}, opt);
  g_fake_now_ns.store(1099);  // now < deadline (1100)
  broker.flush();
  EXPECT_EQ(alive.get().status, QueryStatus::kOk);
  EXPECT_EQ(broker.stats().timed_out, 1u);
}

TEST(QueryBrokerTest, BackwardsClockYieldsZeroLatencyNotUnderflow) {
  // A non-monotonic clock (or a fake one stepping backwards) must never
  // wrap the unsigned latency into ~2^64 ns.
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  g_fake_now_ns.store(1'000'000);
  auto f = broker.submit(TemporalDistancesQuery{0, 0});
  g_fake_now_ns.store(500);  // clock stepped backwards before the flush
  broker.flush();
  EXPECT_EQ(f.get().status, QueryStatus::kOk);

  const ServeStats stats = broker.stats();
  const LatencyHistogram& h =
      stats.latency[static_cast<std::size_t>(QueryKind::kTemporalDistances)];
  ASSERT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_ns(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
}

// ------------------------------------------- registry / legacy surface

TEST(QueryBrokerTest, StatsMatchesRegistrySnapshotBitForBit) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.deterministic = true;
  cfg.max_queue = 4;  // force shedding
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  for (std::size_t round = 0; round < 3; ++round) {
    futures.push_back(
        broker.submit(TemporalDistancesQuery{ServeRig::kNodes + 9, 0}));
    for (std::size_t i = 0; i < 8; ++i) {  // queue bound 4: the rest shed
      futures.push_back(broker.submit(
          TemporalDistancesQuery{static_cast<VertexId>(i % 3), 0}));
    }
    broker.flush();
    broker.flush();
  }
  for (auto& f : futures) f.get();

  const ServeStats stats = broker.stats();
  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  EXPECT_EQ(stats.submitted, snap.counter_value("serve.submitted"));
  EXPECT_EQ(stats.admitted, snap.counter_value("serve.admitted"));
  EXPECT_EQ(stats.shed_queue_full,
            snap.counter_value("serve.shed_queue_full"));
  EXPECT_EQ(stats.rejected_invalid,
            snap.counter_value("serve.rejected_invalid"));
  EXPECT_EQ(stats.timed_out, snap.counter_value("serve.timed_out"));
  EXPECT_EQ(stats.executed, snap.counter_value("serve.executed"));
  EXPECT_EQ(stats.batches, snap.counter_value("serve.batches"));
  EXPECT_EQ(stats.csr_builds, snap.counter_value("serve.csr_builds"));
  EXPECT_EQ(stats.csr_reuses, snap.counter_value("serve.csr_reuses"));
  EXPECT_EQ(stats.csr_delta_appends,
            snap.counter_value("serve.csr_delta_appends"));
  EXPECT_EQ(stats.csr_compactions,
            snap.counter_value("serve.csr_compactions"));
  EXPECT_EQ(stats.cache_hits, snap.counter_value("serve.cache.hits"));
  EXPECT_EQ(stats.cache_misses, snap.counter_value("serve.cache.misses"));
  EXPECT_EQ(stats.cache_evictions,
            snap.counter_value("serve.cache.evictions"));
  EXPECT_EQ(stats.cache_invalidations,
            snap.counter_value("serve.cache.invalidations"));
  EXPECT_EQ(static_cast<std::int64_t>(stats.cache_bytes),
            snap.gauge_value("serve.cache.bytes"));
  EXPECT_EQ(static_cast<std::int64_t>(stats.cache_entries),
            snap.gauge_value("serve.cache.entries"));
  EXPECT_EQ(static_cast<std::int64_t>(stats.max_queue_depth),
            snap.gauge_value("serve.max_queue_depth"));

  // Latency histograms reconstruct from the same registry cells.
  const obs::HistogramSnapshot* lat =
      snap.histogram_snapshot("serve.latency.temporal_distances");
  ASSERT_NE(lat, nullptr);
  const LatencyHistogram& h =
      stats.latency[static_cast<std::size_t>(QueryKind::kTemporalDistances)];
  EXPECT_EQ(h.count(), lat->count);
  EXPECT_EQ(h.max_ns(), lat->max);
  EXPECT_EQ(h.buckets(), lat->buckets);

  // There was real traffic behind the equalities.
  EXPECT_GT(stats.shed_queue_full, 0u);
  EXPECT_GT(stats.rejected_invalid, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

// The executor's per-worker TemporalWorkspaces persist across batches;
// a NodeJoin between batches grows the vertex space, and the next sweep
// must re-bind them to the new count instead of reading stale bounds.
TEST(QueryBrokerTest, WorkspaceRebindsAfterVertexGrowthBetweenBatches) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = 2;
  cfg.deterministic = true;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  // Batch 1 binds every worker workspace to the current vertex count.
  {
    auto r = run_one(broker, TemporalDistancesQuery{0, 0});
    ASSERT_EQ(r.status, QueryStatus::kOk);
  }
  const std::size_t old_n = rig.view.view().vertex_count();

  // Grow the vertex space between batches; contacts touch the newcomer.
  const std::vector<Event> growth{Event::node_join()};
  ASSERT_EQ(broker.apply_events(growth), 1u);
  const auto fresh_v = static_cast<VertexId>(old_n);
  const std::vector<Event> contacts{Event::contact_add(fresh_v, 0, 1),
                                    Event::contact_add(fresh_v, 3, 2)};
  ASSERT_EQ(broker.apply_events(contacts), 2u);
  ASSERT_EQ(rig.view.view().vertex_count(), old_n + 1);

  // Batch 2 sweeps from (and to) the grown vertex.
  auto r1 = run_one(broker, TemporalDistancesQuery{fresh_v, 0});
  ASSERT_EQ(r1.status, QueryStatus::kOk);
  EXPECT_EQ(std::get<std::vector<TimeUnit>>(r1.payload),
            earliest_arrival(rig.view.view(), fresh_v, 0).completion);
  auto r2 = run_one(broker, FastestJourneyQuery{0, fresh_v, 0});
  ASSERT_EQ(r2.status, QueryStatus::kOk);
  EXPECT_EQ(std::get<std::optional<Journey>>(r2.payload),
            fastest_journey(rig.view.view(), 0, fresh_v, 0));
}

// Delta-advance planning must be indistinguishable from legacy
// rebuild-on-epoch-change planning in every served byte — only the
// amortization counters may differ, and they differ in the delta
// planner's favor.
TEST(ServeChurnTest, DeltaPlannerMatchesLegacyRebuildBitForBit) {
  const ChurnRun delta = churn_run(1, /*delta_index=*/true);
  const ChurnRun legacy = churn_run(1, /*delta_index=*/false);
  ASSERT_EQ(delta.payloads.size(), legacy.payloads.size());
  for (std::size_t i = 0; i < delta.payloads.size(); ++i) {
    EXPECT_TRUE(payload_equal(delta.payloads[i], legacy.payloads[i]))
        << "payload " << i;
  }

  // Counter shape: the legacy planner rebuilds on every epoch change;
  // the delta planner pays one attach-time build plus compactions while
  // the fold counter absorbs the churn.
  EXPECT_EQ(legacy.stats.csr_delta_appends, 0u);
  EXPECT_EQ(legacy.stats.csr_compactions, 0u);
  EXPECT_GT(delta.stats.csr_delta_appends, 0u);
  EXPECT_EQ(delta.stats.csr_builds, 1u + delta.stats.csr_compactions);
  EXPECT_LT(delta.stats.csr_builds, legacy.stats.csr_builds);
}

// --------------------------------------------- self-healing update path

TEST(HealthMonitorTest, StateMachineFollowsTheDiagram) {
  obs::MetricsRegistry reg;
  HealthMonitor hm(HealthConfig{2, std::chrono::nanoseconds(100)}, reg);
  const auto at = [](std::int64_t ns) {
    return HealthMonitor::TimePoint(std::chrono::nanoseconds(ns));
  };

  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  hm.begin_probe(at(0));  // only legal from ReadOnly: no-op here
  EXPECT_EQ(hm.state(), HealthState::kHealthy);

  hm.on_failure(at(0));
  EXPECT_EQ(hm.state(), HealthState::kDegraded);
  EXPECT_EQ(hm.consecutive_failures(), 1u);
  hm.on_success(at(1));
  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  EXPECT_EQ(hm.consecutive_failures(), 0u);

  // A streak at the threshold trips the circuit.
  hm.on_failure(at(10));
  hm.on_failure(at(20));
  EXPECT_EQ(hm.state(), HealthState::kReadOnly);
  EXPECT_FALSE(hm.probe_due(at(100)));  // 80ns dwelt < 100ns backoff
  EXPECT_TRUE(hm.probe_due(at(120)));

  hm.begin_probe(at(120));
  EXPECT_EQ(hm.state(), HealthState::kRecovering);
  EXPECT_FALSE(hm.probe_due(at(1000)));  // only due while ReadOnly

  // A failed probe re-opens the circuit and re-arms the backoff.
  hm.on_failure(at(130));
  EXPECT_EQ(hm.state(), HealthState::kReadOnly);
  EXPECT_FALSE(hm.probe_due(at(200)));  // re-armed from 130
  EXPECT_TRUE(hm.probe_due(at(230)));
  hm.begin_probe(at(230));
  hm.on_success(at(240));
  EXPECT_EQ(hm.state(), HealthState::kHealthy);
  EXPECT_EQ(hm.consecutive_failures(), 0u);

  // Every transition landed in the registry.
  const obs::MetricsRegistry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauge_value("serve.health.state"),
            static_cast<std::int64_t>(HealthState::kHealthy));
  // H->D, D->H, H->D, D->RO, RO->Rec, Rec->RO, RO->Rec, Rec->H.
  EXPECT_EQ(hm.transitions(), 8u);
  EXPECT_EQ(snap.counter_value("serve.health.transitions"), 8u);
  EXPECT_EQ(snap.counter_value("serve.health.to_degraded"), 2u);
  EXPECT_EQ(snap.counter_value("serve.health.to_read_only"), 2u);
  EXPECT_EQ(snap.counter_value("serve.health.to_recovering"), 2u);
  EXPECT_EQ(snap.counter_value("serve.health.to_healthy"), 2u);
}

// Fault / sleep seams are function pointers, so the scripts are globals.
std::atomic<int> g_fault_budget{0};  // fail the next N fault checks
bool budgeted_fault() {
  int cur = g_fault_budget.load();
  while (cur > 0 && !g_fault_budget.compare_exchange_weak(cur, cur - 1)) {
  }
  return cur > 0;
}
std::atomic<bool> g_fault_on{false};
bool toggled_fault() { return g_fault_on.load(); }
std::atomic<std::int64_t> g_slept_ns{0};
void recording_sleep(std::chrono::nanoseconds d) { g_slept_ns += d.count(); }

TEST(QueryBrokerTest, TransientUpdateFaultRetriesWithBackoffThenApplies) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.update_fault_fn = &budgeted_fault;
  cfg.sleep_fn = &recording_sleep;
  cfg.update_max_attempts = 3;
  cfg.update_backoff_base = std::chrono::nanoseconds(1000);
  cfg.update_backoff_factor = 2;
  cfg.update_backoff_cap = std::chrono::milliseconds(5);
  QueryBroker broker(rig.engine, &rig.view, cfg);

  const std::uint64_t epoch0 = rig.engine.graph().epoch();
  g_fault_budget.store(2);  // two transient faults, third attempt clean
  g_slept_ns.store(0);
  const Event e = Event::contact_add(0, 1, 3);
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);
  EXPECT_EQ(rig.engine.graph().epoch(), epoch0 + 1);  // applied exactly once
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_EQ(g_slept_ns.load(), 1000 + 2000);  // base, then base*factor

  const ServeStats stats = broker.stats();
  EXPECT_EQ(stats.update_faults, 2u);
  EXPECT_EQ(stats.update_retries, 2u);
  EXPECT_EQ(stats.update_failures, 0u);
  EXPECT_EQ(stats.health_transitions, 0u);
}

TEST(QueryBrokerTest, PersistentFaultTripsCircuitServesStaleThenHeals) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;  // deterministic probe-backoff clock
  cfg.update_fault_fn = &toggled_fault;
  cfg.sleep_fn = &recording_sleep;
  cfg.update_max_attempts = 1;  // no retries: each call is one failure
  cfg.circuit_threshold = 2;
  cfg.probe_backoff = std::chrono::nanoseconds(1000);
  QueryBroker broker(rig.engine, &rig.view, cfg);

  const std::uint64_t good_epoch = rig.engine.graph().epoch();
  const Event e = Event::contact_add(0, 1, 3);

  // Two exhausted updates: Healthy -> Degraded -> ReadOnly.
  g_fake_now_ns.store(0);
  g_fault_on.store(true);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.health(), HealthState::kDegraded);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);
  EXPECT_EQ(rig.engine.graph().epoch(), good_epoch);  // engine untouched

  // Circuit open, backoff not elapsed: updates fast-fail without
  // touching the fault seam (no retry burn).
  g_fake_now_ns.store(500);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.stats().rejected_read_only, 1u);

  // Queries keep serving the last good epoch, annotated stale.
  const auto stale = run_one(broker, TemporalDistancesQuery{2, 0});
  ASSERT_EQ(stale.status, QueryStatus::kOk);
  EXPECT_EQ(stale.epoch, good_epoch);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.health, HealthState::kReadOnly);
  EXPECT_EQ(std::get<std::vector<TimeUnit>>(stale.payload),
            earliest_arrival(rig.view.view(), 2, 0).completion);
  EXPECT_GE(broker.stats().stale_served, 1u);

  // Backoff elapsed but the fault persists: the update doubles as the
  // probe, fails, and re-opens the circuit (backoff re-armed).
  g_fake_now_ns.store(2000);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);
  g_fake_now_ns.store(2500);  // 500ns since the re-arm: not due yet
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.stats().rejected_read_only, 2u);

  // Fault clears, backoff elapses: probe succeeds, the update applies,
  // and the broker returns to Healthy — results lose the stale mark.
  g_fault_on.store(false);
  g_fake_now_ns.store(4000);
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_EQ(rig.engine.graph().epoch(), good_epoch + 1);
  const auto fresh = run_one(broker, TemporalDistancesQuery{2, 0});
  ASSERT_EQ(fresh.status, QueryStatus::kOk);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.health, HealthState::kHealthy);
  EXPECT_EQ(fresh.epoch, good_epoch + 1);

  // The whole episode is visible in the metrics registry.
  const ServeStats stats = broker.stats();
  EXPECT_EQ(stats.update_failures, 3u);  // two trips + one failed probe
  EXPECT_EQ(stats.update_probes, 2u);    // failed + successful
  // H->D, D->RO, RO->Rec, Rec->RO, RO->Rec, Rec->H.
  EXPECT_EQ(stats.health_transitions, 6u);
  const obs::MetricsRegistry::Snapshot snap = broker.metrics().snapshot();
  EXPECT_EQ(snap.counter_value("serve.health.transitions"), 6u);
  EXPECT_EQ(snap.counter_value("serve.update.failures"), 3u);
  EXPECT_EQ(snap.counter_value("serve.update.rejected_read_only"), 2u);
  EXPECT_EQ(snap.gauge_value("serve.health.state"),
            static_cast<std::int64_t>(HealthState::kHealthy));
}

TEST(QueryBrokerTest, ManualProbeRespectsBackoffAndOutcome) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.now_fn = &fake_now;
  cfg.update_fault_fn = &toggled_fault;
  cfg.update_max_attempts = 1;
  cfg.circuit_threshold = 1;
  cfg.probe_backoff = std::chrono::nanoseconds(1000);
  QueryBroker broker(rig.engine, &rig.view, cfg);

  g_fake_now_ns.store(0);
  g_fault_on.store(true);
  const Event e = Event::contact_add(0, 1, 3);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  ASSERT_EQ(broker.health(), HealthState::kReadOnly);

  EXPECT_FALSE(broker.probe());  // not due yet: no state change
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);

  g_fake_now_ns.store(1500);
  EXPECT_FALSE(broker.probe());  // due, but the fault persists
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);

  g_fault_on.store(false);
  g_fake_now_ns.store(3000);
  EXPECT_TRUE(broker.probe());
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);
}

TEST(QueryBrokerTest, WatchdogHealsCircuitWithoutTraffic) {
  // Real clock: the background dispatcher must re-probe on its own —
  // no queries, no update calls — once the fault clears.
  ServeRig rig;
  BrokerConfig cfg;
  cfg.update_fault_fn = &toggled_fault;
  cfg.update_max_attempts = 1;
  cfg.circuit_threshold = 1;
  cfg.probe_backoff = std::chrono::milliseconds(1);
  QueryBroker broker(rig.engine, &rig.view, cfg);
  broker.start();

  g_fault_on.store(true);
  const Event e = Event::contact_add(0, 1, 3);
  EXPECT_EQ(broker.apply_events({&e, 1}), 0u);
  EXPECT_EQ(broker.health(), HealthState::kReadOnly);

  g_fault_on.store(false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (broker.health() != HealthState::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(broker.health(), HealthState::kHealthy);
  EXPECT_GE(broker.stats().update_probes, 1u);
  broker.stop();
  EXPECT_EQ(broker.apply_events({&e, 1}), 1u);  // path really works again
}

void run_stop_race(std::size_t threads) {
  ServeRig rig;
  BrokerConfig cfg;
  cfg.threads = threads;
  cfg.max_queue = 4096;
  std::vector<std::future<QueryResult>> futures;
  {
    QueryBroker broker(rig.engine, &rig.view, cfg);
    broker.start();

    std::atomic<bool> go{true};
    std::thread mutator([&] {
      Rng rng(17);
      while (go.load()) {
        std::vector<Event> batch;
        for (int i = 0; i < 8; ++i) {
          batch.push_back(Event::contact_add(
              static_cast<VertexId>(rng.index(ServeRig::kNodes)),
              static_cast<VertexId>(rng.index(ServeRig::kNodes)),
              static_cast<TimeUnit>(rng.index(ServeRig::kHorizon))));
        }
        broker.apply_events(batch);
      }
    });

    Rng rng(18);
    for (std::size_t i = 0; i < 300; ++i) {
      futures.push_back(broker.submit(TemporalDistancesQuery{
          static_cast<VertexId>(rng.index(ServeRig::kNodes)), 0}));
      if (i == 150) broker.stop();  // stop() races the in-flight updates
    }
    go.store(false);
    mutator.join();
    // Destructor: whatever the drain left queued resolves as shutdown.
  }
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "unresolved future at threads=" << threads;
    const auto r = f.get();
    if (r.status == QueryStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, QueryStatus::kRejected);
      ASSERT_TRUE(r.cause == RejectCause::kShutdown ||
                  r.cause == RejectCause::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 300u);
  EXPECT_GT(ok, 0u) << "threads=" << threads;
}

TEST(QueryBrokerTest, StopRacingApplyEventsDrainsCleanly) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    run_stop_race(threads);
  }
}

/// One flush of the same mixed batch on a broker with the given
/// lane-pack setting; cache off so duplicates stay in the execution
/// list (exercising lane sharing instead of the cache dedup).
std::vector<QueryResult> lane_pack_run(bool lane_pack, std::size_t threads,
                                       ServeStats* stats_out = nullptr) {
  ServeRig rig(404);
  BrokerConfig cfg;
  cfg.threads = threads;
  cfg.deterministic = true;
  cfg.cache_bytes = 0;
  cfg.lane_pack = lane_pack;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  const auto submit = [&](Query q) {
    futures.push_back(broker.submit(std::move(q)));
  };
  // Mixed kinds, duplicate (source, t_start) pairs, several t_starts —
  // all in one batch so the lane-pack plan sees everything at once.
  Rng rng(9);
  for (std::size_t i = 0; i < 40; ++i) {
    submit(TemporalDistancesQuery{
        static_cast<VertexId>(rng.index(ServeRig::kNodes)),
        static_cast<TimeUnit>(rng.index(3))});
  }
  submit(TemporalDistancesQuery{1, 0});
  submit(TemporalDistancesQuery{1, 0});  // duplicate pair shares a lane
  submit(FastestJourneyQuery{0, 5, 0});  // journeys stay scalar
  submit(MinHopJourneyQuery{5, 0, 0});
  submit(CentralityQuery{CentralityMeasure::kDegree});
  submit(CentralityQuery{CentralityMeasure::kTemporalCloseness});
  broker.flush();

  std::vector<QueryResult> results;
  for (auto& f : futures) results.push_back(f.get());
  if (stats_out != nullptr) *stats_out = broker.stats();
  return results;
}

TEST(QueryBrokerLanePack, PackedPayloadsByteIdenticalToScalarPlanner) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ServeStats packed_stats, scalar_stats;
    const auto packed = lane_pack_run(true, threads, &packed_stats);
    const auto scalar = lane_pack_run(false, threads, &scalar_stats);
    ASSERT_EQ(packed.size(), scalar.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
      ASSERT_EQ(packed[i].status, QueryStatus::kOk) << "i=" << i;
      ASSERT_EQ(scalar[i].status, QueryStatus::kOk) << "i=" << i;
      EXPECT_TRUE(payload_equal(packed[i].payload, scalar[i].payload))
          << "i=" << i << " threads=" << threads;
    }
    EXPECT_GT(packed_stats.lanes_packed, 0u);
    EXPECT_GT(packed_stats.sweeps_saved, 0u);
    EXPECT_EQ(scalar_stats.lanes_packed, 0u);
    EXPECT_EQ(scalar_stats.sweeps_saved, 0u);
  }
}

TEST(QueryBrokerLanePack, CountersReflectExactPlan) {
  ServeRig rig(11);
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.deterministic = true;
  cfg.cache_bytes = 0;
  QueryBroker broker(rig.engine, &rig.view, cfg);

  std::vector<std::future<QueryResult>> futures;
  // Group t=0: sources {1, 2, 3, 1} -> 3 lanes, 4 packed queries.
  for (const VertexId s : {1u, 2u, 3u, 1u}) {
    futures.push_back(broker.submit(TemporalDistancesQuery{s, 0}));
  }
  // Group t=2: sources {4, 5} -> 2 lanes, 2 packed queries.
  futures.push_back(broker.submit(TemporalDistancesQuery{4, 2}));
  futures.push_back(broker.submit(TemporalDistancesQuery{5, 2}));
  // Singleton group t=5: stays scalar (packing saves nothing).
  futures.push_back(broker.submit(TemporalDistancesQuery{6, 5}));
  broker.flush();
  for (auto& f : futures) EXPECT_EQ(f.get().status, QueryStatus::kOk);

  const ServeStats stats = broker.stats();
  EXPECT_EQ(stats.lanes_packed, 5u);   // 3 + 2 distinct (source, t) lanes
  EXPECT_EQ(stats.sweeps_saved, 4u);   // 6 packed queries - 2 sweeps
  EXPECT_EQ(stats.executed, 7u);
}

TEST(QueryBrokerLanePack, TemporalClosenessServedMatchesDirect) {
  ServeRig rig(13);
  BrokerConfig cfg;
  cfg.threads = 1;
  cfg.deterministic = true;
  QueryBroker broker(rig.engine, &rig.view, cfg);
  const QueryResult r =
      run_one(broker, CentralityQuery{CentralityMeasure::kTemporalCloseness});
  ASSERT_EQ(r.status, QueryStatus::kOk);
  const QueryPayload want(temporal_closeness(rig.view.view(), 1));
  EXPECT_TRUE(payload_equal(r.payload, want));
}

}  // namespace
}  // namespace structnet
