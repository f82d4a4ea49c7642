// Query serving scenario: a live engine under churn, answered through
// the QueryBroker — batched execution, epoch-keyed result caching, and
// typed admission control, all against one consistent epoch per batch.
//
// Pipeline: StreamEngine + temporal view -> QueryBroker -> interleaved
// updates and queries -> serving metrics.
#include <chrono>
#include <iostream>
#include <vector>

#include "serve/broker.hpp"
#include "serve/query.hpp"
#include "stream/engine.hpp"
#include "stream/observers.hpp"
#include "util/rng.hpp"

int main() {
  using namespace structnet;
  Rng rng(2024);

  // A 64-node dynamic network whose temporal view keeps a 32-unit
  // contact horizon.
  const std::size_t nodes = 64;
  const TimeUnit horizon = 32;
  StreamEngine engine{DynamicGraph(nodes)};
  TemporalViewObserver view(nodes, horizon);
  engine.attach(&view);

  QueryBroker broker(engine, &view);

  // Helper: one round of random churn routed through the broker, so
  // updates serialize with query batches (and bump the graph epoch,
  // invalidating stale cache entries automatically).
  const auto churn = [&](std::size_t events) {
    std::vector<Event> batch;
    for (std::size_t i = 0; i < events; ++i) {
      const auto u = static_cast<VertexId>(rng.index(nodes));
      const auto v = static_cast<VertexId>(rng.index(nodes));
      if (rng.uniform01() < 0.4) {
        batch.push_back(Event::edge_insert(u, v));
      } else {
        batch.push_back(Event::contact_add(
            u, v, static_cast<TimeUnit>(rng.index(horizon))));
      }
    }
    broker.apply_events(batch);
  };
  churn(500);

  // --- 1. A batch of mixed queries at one epoch -----------------------
  auto distances = broker.submit(TemporalDistancesQuery{0, 0});
  auto journey = broker.submit(FastestJourneyQuery{0, 42, 0});
  auto degree = broker.submit(CentralityQuery{CentralityMeasure::kDegree});
  broker.flush();  // ONE contact index + ONE materialized graph serve all

  const QueryResult d = distances.get();
  std::cout << "temporal distances from node 0 (epoch " << d.epoch << "): "
            << std::get<std::vector<TimeUnit>>(d.payload).size()
            << " entries\n";
  // Keep the result alive: a reference into a temporary's payload would
  // dangle past this statement's initializer.
  const QueryResult jr = journey.get();
  if (const auto& j = std::get<std::optional<Journey>>(jr.payload)) {
    std::cout << "fastest journey 0 -> 42: " << j->hop_count()
              << " hops, span " << j->span() << "\n";
  } else {
    std::cout << "fastest journey 0 -> 42: unreachable in this horizon\n";
  }
  std::cout << "degree centrality entries: "
            << std::get<std::vector<double>>(degree.get().payload).size()
            << "\n";

  // --- 2. Same epoch, same query: served from the result cache --------
  auto repeat = broker.submit(TemporalDistancesQuery{0, 0});
  broker.flush();
  std::cout << "repeat at same epoch from_cache="
            << repeat.get().from_cache << "\n";

  // --- 3. Churn invalidates; the next repeat recomputes ---------------
  churn(50);
  auto recomputed = broker.submit(TemporalDistancesQuery{0, 0});
  broker.flush();
  const QueryResult r = recomputed.get();
  std::cout << "repeat after churn from_cache=" << r.from_cache
            << " (epoch " << r.epoch << ")\n";

  // --- 4. Admission control: deadlines and typed rejections -----------
  SubmitOptions opt;
  opt.deadline = std::chrono::nanoseconds(1);  // already expired
  auto late = broker.submit(TemporalDistancesQuery{1, 0}, opt);
  auto bogus = broker.submit(TemporalDistancesQuery{nodes + 9, 0});
  broker.flush();
  std::cout << "expired deadline  -> " << to_string(late.get().status) << "\n"
            << "bad vertex id     -> " << to_string(bogus.get().cause) << "\n";

  // --- 5. Background dispatcher + serving metrics ---------------------
  broker.start();
  std::vector<std::future<QueryResult>> stream;
  for (std::size_t i = 0; i < 200; ++i) {
    stream.push_back(broker.submit(TemporalDistancesQuery{
        static_cast<VertexId>(i % nodes), static_cast<TimeUnit>(i % 4)}));
  }
  broker.stop();  // drains: every admitted query resolves
  for (auto& f : stream) (void)f.get();

  // Deterministic slice of the metrics surface (batch counts and
  // latency histograms depend on dispatcher timing; the full picture —
  // including the bench-JSON line from stats().json() — is one call
  // away).
  const ServeStats stats = broker.stats();
  std::cout << "\nserving metrics:\n"
            << "  submitted=" << stats.submitted
            << " admitted=" << stats.admitted
            << " executed=" << stats.executed << "\n"
            << "  shed=" << stats.shed_queue_full
            << " invalid=" << stats.rejected_invalid
            << " timed_out=" << stats.timed_out << "\n"
            << "  cache: hits=" << stats.cache_hits
            << " misses=" << stats.cache_misses
            << " invalidations=" << stats.cache_invalidations
            << " entries=" << stats.cache_entries << "\n"
            << "  amortization: csr_builds=" << stats.csr_builds
            << " graph_builds=" << stats.graph_builds << "\n";
  return 0;
}
