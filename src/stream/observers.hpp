// Stream observers: existing structures rewired to update incrementally.
//
//  * CoreObserver       — degree/core tracker feeding NSF membership
//                         (layering/nsf.hpp). Insertions use the
//                         traversal algorithm (candidates limited to the
//                         root subcore, promoted by at most one level);
//                         deletions/leaves relax downward to the unique
//                         core fixpoint, so both paths are exact.
//  * MisObserver        — labeling/dynamic_mis.hpp driven by the event
//                         stream (expected O(1) adjustments per update).
//  * SafetyLevelObserver— labeling/safety_levels.hpp on a hypercube id
//                         space: NodeLeave = fault (localized downward
//                         wave), NodeJoin = recovery (restabilization).
//  * TemporalViewObserver — folds contacts into a
//                         temporal/temporal_graph.hpp view (rebuilt by
//                         replaying the engine's log) and lazily
//                         invalidates a cached trimmed view.
//
// Every observer's recompute() rebuilds from scratch and lands in the
// exact state the incremental path maintains, which is what the churn
// equivalence tests assert.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "labeling/dynamic_mis.hpp"
#include "labeling/safety_levels.hpp"
#include "stream/observer.hpp"
#include "temporal/temporal_graph.hpp"
#include "trimming/eg_trimming.hpp"
#include "util/rng.hpp"

namespace structnet {

/// Incremental degree / core-number tracker feeding NSF membership.
class CoreObserver : public StreamObserver {
 public:
  explicit CoreObserver(double stop_fraction = 0.5)
      : stop_fraction_(stop_fraction) {}

  std::string_view name() const override { return "core"; }
  void on_event(const DynamicGraph& g, const Event& event,
                const EventEffect& effect) override;
  void recompute(const DynamicGraph& g) override;

  const std::vector<std::uint32_t>& cores() const { return core_; }
  std::uint32_t core(VertexId v) const { return core_[v]; }
  /// Current NSF membership (core_membership of the live cores).
  std::vector<bool> nsf_members(const DynamicGraph& g) const;

  /// Total vertices touched by incremental repairs (the update cost).
  std::uint64_t work() const { return work_; }

 private:
  void insert_repair(const DynamicGraph& g, VertexId u, VertexId v);
  void settle_down(const DynamicGraph& g, std::vector<VertexId> seeds);

  double stop_fraction_;
  std::vector<std::uint32_t> core_;
  std::uint64_t work_ = 0;
  // Scratch for insert_repair (generation-stamped to avoid clears).
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint32_t> support_;
  std::vector<bool> evicted_;
  std::uint64_t generation_ = 0;
};

/// labeling/dynamic_mis.hpp as a stream observer.
class MisObserver : public StreamObserver {
 public:
  explicit MisObserver(std::uint64_t priority_seed = 7)
      : rng_(priority_seed) {}

  std::string_view name() const override { return "mis"; }
  void on_event(const DynamicGraph& g, const Event& event,
                const EventEffect& effect) override;
  /// Rebuilds the greedy MIS from the materialized graph, reusing the
  /// priorities already drawn (so incremental == recompute exactly).
  void recompute(const DynamicGraph& g) override;

  const DynamicMis& mis() const { return *mis_; }
  bool in_mis(VertexId v) const { return mis_->in_mis(v); }

  /// Total status recomputations the repairs performed.
  std::uint64_t work() const { return work_; }

 private:
  Rng rng_;
  std::optional<DynamicMis> mis_;
  std::uint64_t work_ = 0;
};

/// labeling/safety_levels.hpp on a hypercube id space: vertex ids are
/// cube addresses; NodeLeave(v) = fault at v, NodeJoin(v) = recovery.
/// Edge and contact events are ignored (the cube topology is fixed).
class SafetyLevelObserver : public StreamObserver {
 public:
  explicit SafetyLevelObserver(std::size_t dimensions)
      : dimensions_(dimensions), cube_(dimensions, {}) {}

  std::string_view name() const override { return "safety"; }
  void on_event(const DynamicGraph& g, const Event& event,
                const EventEffect& effect) override;
  void recompute(const DynamicGraph& g) override;

  const SafetyLevelCube& cube() const { return cube_; }

  /// Total level changes applied by incremental restabilizations.
  std::uint64_t work() const { return work_; }

 private:
  std::size_t dimensions_;
  SafetyLevelCube cube_;
  std::uint64_t work_ = 0;
};

/// Folds contact events into a TemporalGraph and keeps a lazily
/// recomputed trimmed view (trimming/eg_trimming.hpp): any mutation
/// invalidates the cache; trimmed() rebuilds it on the next read.
///
/// The view keeps no contact log of its own: the engine's
/// DynamicGraph::log() already holds every accepted event, and
/// recompute() rebuilds by replaying it through the same fold. So a
/// view attached to an engine that already has history adopts that
/// history on attach, as CoreObserver does.
class TemporalViewObserver : public StreamObserver {
 public:
  TemporalViewObserver(std::size_t n, TimeUnit horizon) : view_(n, horizon) {}

  std::string_view name() const override { return "temporal"; }
  void on_event(const DynamicGraph& g, const Event& event,
                const EventEffect& effect) override;
  /// Rebuilds the view by replaying g.log() through the fold on_event
  /// applies, so the rebuild equals the incremental view, edge ids
  /// included.
  void recompute(const DynamicGraph& g) override;

  const TemporalGraph& view() const { return view_; }
  /// Contacts whose time fell outside the horizon (dropped, counted).
  std::uint64_t out_of_horizon() const { return out_of_horizon_; }

  /// The trimmed view (node-trimming rule, priority = vertex id),
  /// recomputed only when the underlying view changed since last read.
  const TrimResult& trimmed() const;
  bool trim_cache_valid() const { return trim_cache_.has_value(); }

 private:
  /// Applies one accepted event to the view; `joined` is the id a
  /// NodeJoin received.
  void fold(const Event& event, VertexId joined);

  TemporalGraph view_;
  std::uint64_t out_of_horizon_ = 0;
  mutable std::optional<TrimResult> trim_cache_;
};

}  // namespace structnet
