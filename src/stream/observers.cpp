#include "stream/observers.hpp"

#include <algorithm>
#include <numeric>

#include "layering/nsf.hpp"

namespace structnet {

// ---------------------------------------------------------------- core

void CoreObserver::recompute(const DynamicGraph& g) {
  core_ = core_numbers(g.materialize());
  seen_.assign(g.vertex_count(), 0);
  support_.assign(g.vertex_count(), 0);
  evicted_.assign(g.vertex_count(), false);
  generation_ = 0;
}

std::vector<bool> CoreObserver::nsf_members(const DynamicGraph& g) const {
  std::vector<bool> alive(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) alive[v] = g.alive(v);
  return core_membership(core_, alive, stop_fraction_);
}

void CoreObserver::on_event(const DynamicGraph& g, const Event& event,
                            const EventEffect& effect) {
  switch (event.kind) {
    case EventKind::kEdgeInsert:
      insert_repair(g, event.u, event.v);
      break;
    case EventKind::kEdgeDelete:
      settle_down(g, {event.u, event.v});
      break;
    case EventKind::kNodeJoin:
      if (effect.vertex == core_.size()) {
        core_.push_back(0);
        seen_.push_back(0);
        support_.push_back(0);
        evicted_.push_back(false);
      }
      // A revived vertex is isolated: its core is already 0.
      break;
    case EventKind::kNodeLeave: {
      // The graph already dropped the incident edges; relax the departed
      // vertex and every former neighbor down to the new fixpoint.
      std::vector<VertexId> seeds{event.u};
      for (const Graph::Edge& e : effect.removed_edges) seeds.push_back(e.v);
      settle_down(g, std::move(seeds));
      break;
    }
    case EventKind::kContactAdd:
    case EventKind::kContactRelabel:
      break;
  }
}

// Traversal insertion (Sarıyüce et al. style): after inserting (u, v),
// only vertices in the subcore of the lower endpoint can gain one level.
// We BFS the subcore (expanding only vertices whose optimistic support
// exceeds r), then evict candidates whose support cannot stay above r;
// the cascade's survivors are exactly the vertices whose core becomes
// r + 1.
void CoreObserver::insert_repair(const DynamicGraph& g, VertexId u,
                                 VertexId v) {
  const std::uint32_t r = std::min(core_[u], core_[v]);
  ++generation_;
  std::vector<VertexId> stack;
  std::vector<VertexId> candidates;
  const auto visit = [&](VertexId w) {
    if (seen_[w] == generation_) return;
    seen_[w] = generation_;
    std::uint32_t s = 0;
    for (VertexId x : g.neighbors(w)) s += core_[x] >= r;
    support_[w] = s;
    evicted_[w] = false;
    candidates.push_back(w);
    if (s > r) stack.push_back(w);  // may promote: worth expanding
  };
  if (core_[u] == r) visit(u);
  if (core_[v] == r) visit(v);
  while (!stack.empty()) {
    const VertexId w = stack.back();
    stack.pop_back();
    for (VertexId x : g.neighbors(w)) {
      if (core_[x] == r) visit(x);
    }
  }
  work_ += candidates.size();

  std::vector<VertexId> queue;
  for (VertexId w : candidates) {
    if (support_[w] <= r) {
      evicted_[w] = true;
      queue.push_back(w);
    }
  }
  while (!queue.empty()) {
    const VertexId w = queue.back();
    queue.pop_back();
    for (VertexId x : g.neighbors(w)) {
      if (core_[x] == r && seen_[x] == generation_ && !evicted_[x]) {
        if (--support_[x] <= r) {
          evicted_[x] = true;
          queue.push_back(x);
        }
      }
    }
  }
  for (VertexId w : candidates) {
    if (!evicted_[w]) core_[w] = r + 1;
  }
}

// Downward relaxation: core numbers are the greatest fixpoint of
// "core(v) <= #neighbors with core >= core(v)". Deletions only lower
// cores, so starting from the (upper-bound) old values and decrementing
// any violating vertex until none remains lands exactly on the new core
// numbers — including multi-level drops after a NodeLeave.
void CoreObserver::settle_down(const DynamicGraph& g,
                               std::vector<VertexId> seeds) {
  std::vector<VertexId>& stack = seeds;
  while (!stack.empty()) {
    const VertexId w = stack.back();
    stack.pop_back();
    const std::uint32_t c = core_[w];
    if (c == 0) continue;
    ++work_;
    std::uint32_t s = 0;
    for (VertexId x : g.neighbors(w)) {
      if (core_[x] >= c && ++s >= c) break;
    }
    if (s >= c) continue;
    core_[w] = c - 1;
    stack.push_back(w);  // may need to drop further
    for (VertexId x : g.neighbors(w)) {
      if (core_[x] == c) stack.push_back(x);
    }
  }
}

// ----------------------------------------------------------------- mis

void MisObserver::recompute(const DynamicGraph& g) {
  std::vector<double> priority;
  priority.reserve(g.vertex_count());
  const std::size_t known = mis_ ? mis_->vertex_count() : 0;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    priority.push_back(v < known ? mis_->priority(static_cast<VertexId>(v))
                                 : rng_.uniform01());
  }
  mis_.emplace(g.materialize(), std::move(priority));
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (!g.alive(v)) mis_->remove_vertex(v);  // isolated: zero repair cost
  }
}

void MisObserver::on_event(const DynamicGraph& g, const Event& event,
                           const EventEffect& effect) {
  (void)g;
  switch (event.kind) {
    case EventKind::kEdgeInsert:
      work_ += mis_->add_edge(event.u, event.v);
      break;
    case EventKind::kEdgeDelete:
      work_ += mis_->remove_edge(event.u, event.v);
      break;
    case EventKind::kNodeJoin:
      if (effect.vertex == mis_->vertex_count()) {
        mis_->add_vertex(rng_);
      } else {
        work_ += mis_->restore_vertex(effect.vertex);
      }
      break;
    case EventKind::kNodeLeave:
      work_ += mis_->remove_vertex(event.u);
      break;
    case EventKind::kContactAdd:
    case EventKind::kContactRelabel:
      break;
  }
}

// -------------------------------------------------------------- safety

void SafetyLevelObserver::recompute(const DynamicGraph& g) {
  std::vector<std::size_t> faults;
  const std::size_t limit = std::min(cube_.node_count(), g.vertex_count());
  for (std::size_t v = 0; v < limit; ++v) {
    if (!g.alive(static_cast<VertexId>(v))) faults.push_back(v);
  }
  cube_ = SafetyLevelCube(dimensions_, faults);
}

void SafetyLevelObserver::on_event(const DynamicGraph& g, const Event& event,
                                   const EventEffect& effect) {
  (void)g;
  switch (event.kind) {
    case EventKind::kNodeLeave:
      if (event.u < cube_.node_count()) work_ += cube_.add_fault(event.u);
      break;
    case EventKind::kNodeJoin:
      if (effect.vertex < cube_.node_count()) {
        work_ += cube_.remove_fault(effect.vertex);
      }
      break;
    default:
      break;  // the cube topology is fixed; edges/contacts are moot
  }
}

// ------------------------------------------------------------ temporal

void TemporalViewObserver::recompute(const DynamicGraph& g) {
  view_ = TemporalGraph(std::max(view_.vertex_count(), g.vertex_count()),
                        view_.horizon());
  out_of_horizon_ = 0;
  // A logged NodeJoin carries the id it received in `u`.
  for (const Event& event : g.log()) fold(event, event.u);
  trim_cache_.reset();
}

void TemporalViewObserver::on_event(const DynamicGraph&, const Event& event,
                                    const EventEffect& effect) {
  fold(event, effect.vertex);
}

void TemporalViewObserver::fold(const Event& event, VertexId joined) {
  switch (event.kind) {
    case EventKind::kContactAdd:
      if (event.time >= view_.horizon()) {
        ++out_of_horizon_;
        return;
      }
      if (view_.add_contact(event.u, event.v, event.time)) trim_cache_.reset();
      break;
    case EventKind::kContactRelabel: {
      if (event.new_time >= view_.horizon()) {
        ++out_of_horizon_;  // rejected: relabeling out of the horizon
        return;
      }
      // A missing old contact degrades the relabel to a plain add. The
      // edge record outlives the removal, so the edge keeps its id.
      const bool moved = view_.remove_label(event.u, event.v, event.time);
      if (view_.add_contact(event.u, event.v, event.new_time) || moved) {
        trim_cache_.reset();
      }
      break;
    }
    case EventKind::kNodeJoin:
      if (joined >= view_.vertex_count()) {
        view_.grow_vertices(joined + std::size_t{1});
        trim_cache_.reset();
      }
      break;
    case EventKind::kNodeLeave:
      // Temporal views keep history; a departed node's past contacts
      // remain valid journeys. Nothing to do.
      break;
    case EventKind::kEdgeInsert:
    case EventKind::kEdgeDelete:
      break;
  }
}

const TrimResult& TemporalViewObserver::trimmed() const {
  if (!trim_cache_) {
    std::vector<double> priority(view_.vertex_count());
    std::iota(priority.begin(), priority.end(), 0.0);
    trim_cache_ = trim_nodes(view_, priority);
  }
  return *trim_cache_;
}

}  // namespace structnet
