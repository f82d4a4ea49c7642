#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "mobility/social_contacts.hpp"
#include "stream/replay.hpp"
#include "util/rng.hpp"

namespace perfbench {

using structnet::EventKind;
using structnet::Rng;
using structnet::VertexId;

namespace {

std::uint64_t pair_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

std::vector<Event> social_stream(const TraceShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  structnet::SocialTraceParams params;
  params.people = shape.people;
  params.horizon = shape.horizon;
  params.base_rate = shape.base_rate;
  const auto profiles =
      structnet::random_profiles(shape.people, params.radices, rng);
  const std::vector<Event> contacts = structnet::contact_events(
      structnet::social_contact_trace(params, profiles, rng));

  struct Tie {
    TimeUnit last = 0;
    bool tied = false;
  };
  std::unordered_map<std::uint64_t, Tie> ties;
  ties.reserve(contacts.size());
  // expiry[t]: pairs whose silence would reach the window at unit t.
  std::vector<std::vector<std::uint64_t>> expiry(shape.horizon +
                                                 shape.silent_window + 1);
  std::vector<Event> out;
  out.reserve(contacts.size() + contacts.size() / 2);
  TimeUnit now = 0;
  const auto expire_through = [&](TimeUnit t) {
    for (; now <= t; ++now) {
      for (const std::uint64_t key : expiry[now]) {
        Tie& tie = ties[key];
        if (tie.tied && tie.last + shape.silent_window == now) {
          tie.tied = false;
          out.push_back(Event::edge_delete(static_cast<VertexId>(key >> 32),
                                           static_cast<VertexId>(key)));
        }
      }
    }
  };
  for (const Event& c : contacts) {
    expire_through(c.time);
    const std::uint64_t key = pair_key(c.u, c.v);
    Tie& tie = ties[key];
    if (!tie.tied) {
      tie.tied = true;
      out.push_back(Event::edge_insert(c.u, c.v));
    }
    tie.last = c.time;
    expiry[c.time + shape.silent_window].push_back(key);
    out.push_back(c);
  }
  return out;
}

std::vector<Event> with_relabels(const std::vector<Event>& head,
                                 const std::vector<Event>& tail,
                                 std::size_t count, TimeUnit horizon,
                                 std::uint64_t seed) {
  Rng rng(seed);
  struct Live {
    VertexId u, v;
    TimeUnit t;
  };
  std::vector<Live> live;
  for (const Event& e : head) {
    if (e.kind == EventKind::kContactAdd) live.push_back({e.u, e.v, e.time});
  }
  std::vector<Event> out;
  out.reserve(tail.size() + count);
  const std::size_t every = std::max<std::size_t>(1, tail.size() / (count + 1));
  std::size_t added = 0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const Event& e = tail[i];
    out.push_back(e);
    if (e.kind == EventKind::kContactAdd) live.push_back({e.u, e.v, e.time});
    if ((i + 1) % every == 0 && added < count && !live.empty()) {
      Live& c = live[rng.index(live.size())];
      TimeUnit to = static_cast<TimeUnit>(rng.index(horizon - 1));
      if (to >= c.t) ++to;  // a different unit than the current label
      out.push_back(Event::contact_relabel(c.u, c.v, c.t, to));
      c.t = to;
      ++added;
    }
  }
  return out;
}

std::vector<Query> query_mix(const QueryMixShape& shape, std::size_t count,
                             std::uint64_t seed) {
  using namespace structnet;
  Rng rng(seed);
  // Zipf popularity over ranks, ranks mapped to vertices by a random
  // permutation so the hot sources are not simply the low ids.
  std::vector<double> cdf(shape.vertices);
  double acc = 0.0;
  for (std::size_t r = 0; r < shape.vertices; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), shape.zipf_s);
    cdf[r] = acc;
  }
  std::vector<VertexId> by_rank(shape.vertices);
  for (std::size_t i = 0; i < shape.vertices; ++i) {
    by_rank[i] = static_cast<VertexId>(i);
  }
  rng.shuffle(by_rank);
  const auto source = [&] {
    const double x = rng.uniform01() * acc;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), x);
    return by_rank[std::min<std::size_t>(it - cdf.begin(), shape.vertices - 1)];
  };
  const auto t_start = [&] {
    return static_cast<TimeUnit>(rng.index(shape.t_starts) * shape.horizon /
                                 shape.t_starts);
  };
  const auto any_vertex = [&] {
    return static_cast<VertexId>(rng.index(shape.vertices));
  };

  std::vector<Query> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    double x = rng.uniform01();
    if ((x -= shape.fastest) < 0) {
      out.emplace_back(FastestJourneyQuery{source(), any_vertex(), t_start()});
    } else if ((x -= shape.min_hop) < 0) {
      out.emplace_back(MinHopJourneyQuery{source(), any_vertex(), t_start()});
    } else {
      out.emplace_back(TemporalDistancesQuery{source(), t_start()});
    }
  }
  return out;
}

std::vector<Scheduled> dashboard() {
  using namespace structnet;
  return {{CentralityQuery{CentralityMeasure::kDegree}, 1.0, 0.25},
          {NsfReportQuery{0.5, 0.15}, 1.0, 0.75},
          {CentralityQuery{CentralityMeasure::kTemporalCloseness}, 4.0, 2.0}};
}

std::vector<double> unit_gaps(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> gaps(count);
  for (double& g : gaps) g = rng.exponential(1.0);
  return gaps;
}

}  // namespace perfbench
