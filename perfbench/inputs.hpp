// Seeded workload inputs for the pipeline benchmark. Everything here is
// generated before any timing starts and depends only on the seed, so
// the same seed always drives the program with the same events, queries
// and arrival schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/query.hpp"
#include "stream/event.hpp"

namespace perfbench {

using structnet::Event;
using structnet::Query;
using structnet::TimeUnit;

struct TraceShape {
  std::size_t people = 2000;
  TimeUnit horizon = 200;
  /// Per-time-unit meeting probability at feature distance 0 (the
  /// default {2,2,3} feature cube and decay 0.35 are kept).
  double base_rate = 0.004;
  /// A tie (static edge) is deleted once its pair has been silent for
  /// this many time units, and re-inserted on the pair's next contact.
  TimeUnit silent_window = 24;
};

/// A social-feature contact trace (random_profiles + social_contact_trace,
/// streamed in time order via contact_events) interleaved with the tie
/// churn derived from it: EdgeInsert before a pair's first contact (and
/// first contact after a silence), EdgeDelete when a pair falls silent.
/// Every event is valid against an initially empty `people`-vertex graph.
std::vector<Event> social_stream(const TraceShape& shape, std::uint64_t seed);

/// Appends `count` ContactRelabel events spread evenly through `tail`,
/// each moving a contact already added by `head` or by earlier `tail`
/// events to a fresh time unit in [0, horizon).
std::vector<Event> with_relabels(const std::vector<Event>& head,
                                 const std::vector<Event>& tail,
                                 std::size_t count, TimeUnit horizon,
                                 std::uint64_t seed);

struct QueryMixShape {
  std::size_t vertices = 2000;
  /// TemporalDistances / journey departure times come from this many
  /// evenly spaced values in [0, horizon), so same-t_start lane groups
  /// form within a batch.
  std::size_t t_starts = 16;
  TimeUnit horizon = 200;
  /// Zipf exponent of the source vertex popularity.
  double zipf_s = 0.3;
  // Journey shares (the remainder is TemporalDistances).
  double fastest = 0.03;
  double min_hop = 0.015;
};

/// The open-loop query sequence (`count` queries): per-vertex queries
/// only. The whole-graph kinds come from dashboard() instead.
std::vector<Query> query_mix(const QueryMixShape& shape, std::size_t count,
                             std::uint64_t seed);

/// A whole-graph query sent on a fixed clock, the way a dashboard
/// refreshes, rather than drawn from the Poisson mix: every measured
/// window of a given length then runs the same number of them.
struct Scheduled {
  Query query;
  double period_s = 1.0;
  double offset_s = 0.0;  // first due time after the phase starts
};

/// Degree centrality and an NSF report once a second, temporal
/// closeness (all-pairs, about 50 ms) once every four seconds.
std::vector<Scheduled> dashboard();

/// `count` unit-rate exponential inter-arrival gaps: divide by a rate to
/// get a Poisson schedule at that rate.
std::vector<double> unit_gaps(std::size_t count, std::uint64_t seed);

}  // namespace perfbench
