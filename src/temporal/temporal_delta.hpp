// Incremental contact index: an immutable base TemporalCsr plus compact
// sorted delta arrays, so churny callers absorb add_contact /
// remove_label in O(log delta) instead of paying a full O(C) index
// rebuild per mutation batch.
//
// Layout. The base is a plain TemporalCsr snapshot. On top of it the
// delta tracks, all kept sorted so kernel reads stay merge-shaped:
//   * per edge: `added` labels (disjoint from the base's live labels)
//     and `removed` tombstones (a subset of the base's labels);
//   * per vertex: added contacts sorted by (time, edge id), tombstoned
//     contacts sorted by (time, edge id), and new adjacency entries
//     (edges with delta labels that the base adjacency doesn't list)
//     sorted by edge id;
//   * per time unit: added / tombstoned edge ids, ascending.
// Edges first touched after the base snapshot get ids base_edge_count +
// k in first-touch order — identical to the ids TemporalGraph itself
// assigns when the same mutations are applied to it, which is what
// keeps edge-id tie-breaks bit-identical to a fresh rebuild.
//
// Kernel reads merge base and delta two-way: per-unit edge scans
// interleave the base span with the unit's added edges (both ascending
// edge id) while skipping tombstoned base entries, and incident-edge
// scans interleave base adjacency with the new-adjacency list. Because
// added labels never collide with live base labels (re-adding a
// tombstoned contact resurrects it instead), the merged sequence is
// exactly the edge-id-ascending order a fresh TemporalCsr would emit —
// so the three kernels (see temporal_kernels.hpp) produce bit-identical
// arrivals, via hops, and journeys at any thread count.
//
// Compaction. Reads cost O(log delta) extra per probe, so once the
// delta outgrows a configurable fraction of the base the owner should
// absorb it into a fresh base via rebase() (needs_compaction() is the
// policy predicate; DeltaCsrObserver / QueryBroker drive it).
//
// Concurrency contract: mutations are exclusive; any number of
// concurrent readers (kernel sweeps) may run between mutations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "temporal/temporal_csr.hpp"

namespace structnet {

/// Base TemporalCsr + mutable sorted delta, serving the same kernel
/// iteration interface as TemporalCsr itself.
class DeltaTemporalCsr {
 public:
  DeltaTemporalCsr() = default;
  explicit DeltaTemporalCsr(const TemporalGraph& eg) { rebase(eg); }

  /// Adopts a fresh base snapshot and clears the delta.
  void rebase(const TemporalGraph& eg);

  /// Registers contact (u, v, t). Returns false when the contact is
  /// already live (idempotent, like TemporalGraph::add_contact).
  /// Re-adding a tombstoned base contact resurrects it.
  bool add_contact(VertexId u, VertexId v, TimeUnit t);

  /// Removes contact (u, v, t): erases a delta-added label outright, or
  /// tombstones a live base label. Returns false when the contact is
  /// not live (like TemporalGraph::remove_label).
  bool remove_contact(VertexId u, VertexId v, TimeUnit t);

  /// Extends the vertex space to n (new vertices start contact-free);
  /// no-op when n is not larger than the current count.
  void grow_vertices(std::size_t n);

  /// Warms the cache lines an upcoming add_contact/remove_contact for
  /// (u, v, t) will touch. The fold path is memory-latency bound, so
  /// batch appliers overlap the next event's misses with the current
  /// event's work by calling this one event ahead. Pure hint: never
  /// mutates, out-of-range arguments are ignored.
  void prefetch_contact(VertexId u, VertexId v, TimeUnit t) const;

  /// The immutable base snapshot (callers needing a full TemporalCsr —
  /// e.g. routing simulation — should compact first so this is current).
  const TemporalCsr& base() const { return base_; }

  /// Live adds + tombstones held outside the base.
  std::size_t delta_size() const { return adds_ + tombs_; }
  bool delta_empty() const { return delta_size() == 0; }

  /// Compaction policy: delta larger than ratio * base contact count
  /// (with a small absolute slack so tiny bases don't thrash).
  bool needs_compaction(double ratio, std::size_t slack = 64) const {
    return delta_size() >
           slack + static_cast<std::size_t>(
                       ratio * static_cast<double>(base_.contact_count()));
  }

  // ---- kernel iteration interface (same contract as TemporalCsr;
  //      documented in temporal_kernels.hpp)

  std::size_t vertex_count() const { return n_; }
  TimeUnit horizon() const { return base_.horizon(); }
  /// Edge records including delta-created edges.
  std::size_t edge_count() const { return base_m_ + dedge_u_.size(); }
  /// Live contacts (base minus tombstones plus adds).
  std::size_t contact_count() const {
    return base_.contact_count() - tombs_ + adds_;
  }
  /// Unique token of the current merged state: refreshed by rebase()
  /// and by every successful mutation, so workspaces can cache derived
  /// per-state data (detail::next_index_state_id semantics).
  std::uint64_t state_id() const { return state_id_; }

  VertexId edge_u(EdgeId e) const {
    return e < base_m_ ? base_.edge_u(e) : dedge_u_[e - base_m_];
  }
  VertexId edge_v(EdgeId e) const {
    return e < base_m_ ? base_.edge_v(e) : dedge_v_[e - base_m_];
  }

  bool has_contacts(VertexId v) const {
    if (!vadd_[v].empty()) return true;
    if (v >= base_n_) return false;
    return base_.contacts_end(v) - base_.contacts_begin(v) > vdel_[v].size();
  }

  std::size_t unit_size(TimeUnit t) const {
    return base_.unit_size(t) + tadd_[t].size() - tdel_[t].size();
  }

  template <class Pred>
  bool find_contact_at(VertexId v, TimeUnit t, Pred&& pred) const {
    const auto& va = vadd_[v];
    for (auto it = std::lower_bound(
             va.begin(), va.end(), t,
             [](const DeltaContact& c, TimeUnit x) { return c.t < x; });
         it != va.end() && it->t == t; ++it) {
      if (pred(it->nbr)) return true;
    }
    if (v >= base_n_) return false;
    const auto& vd = vdel_[v];
    for (std::size_t i = base_.first_contact_at(v, t);
         i < base_.contacts_end(v) && base_.contact_time(i) == t; ++i) {
      if (!vd.empty() &&
          std::binary_search(vd.begin(), vd.end(),
                             std::pair<TimeUnit, EdgeId>{
                                 t, base_.contact_edge(i)})) {
        continue;
      }
      if (pred(base_.contact_neighbor(i))) return true;
    }
    return false;
  }

  template <class Fn>
  void for_each_edge_at(TimeUnit t, Fn&& f) const {
    const auto bspan = base_.edges_at(t);
    const auto& add = tadd_[t];
    const auto& del = tdel_[t];
    std::size_t i = 0, j = 0, k = 0;
    while (i < bspan.size() || j < add.size()) {
      EdgeId be = kInvalidEdge;
      if (i < bspan.size()) {
        be = bspan[i];
        while (k < del.size() && del[k] < be) ++k;
        if (k < del.size() && del[k] == be) {
          ++i;
          continue;
        }
      }
      const EdgeId ae = j < add.size() ? add[j] : kInvalidEdge;
      // be == ae is impossible: added labels never coincide with live
      // base labels of the same edge at the same time unit.
      if (be < ae) {
        if (!f(be)) return;
        ++i;
      } else {
        if (!f(ae)) return;
        ++j;
      }
    }
  }

  template <class Fn>
  void for_each_incident(VertexId v, Fn&& f) const {
    const auto& extra = vnewadj_[v];
    std::size_t i = v < base_n_ ? base_.incident_begin(v) : 0;
    const std::size_t iend = v < base_n_ ? base_.incident_end(v) : 0;
    std::size_t j = 0;
    while (i < iend || j < extra.size()) {
      const EdgeId be = i < iend ? base_.incident_edge(i) : kInvalidEdge;
      const EdgeId ae = j < extra.size() ? extra[j].first : kInvalidEdge;
      if (be < ae) {
        if (!f(be, base_.incident_neighbor(i))) return;
        ++i;
      } else {
        if (!f(ae, extra[j].second)) return;
        ++j;
      }
    }
  }

  TimeUnit first_label_at(EdgeId e, TimeUnit t) const {
    const EdgeId slot = edge_slot_[e];
    if (slot == kInvalidEdge) {
      return e < base_m_ ? base_.first_label_at(e, t) : kNeverTime;
    }
    const EdgeDelta& d = edge_deltas_[slot];
    TimeUnit best = kNeverTime;
    if (e < base_m_) {
      const auto labels = base_.edge_labels(e);
      for (auto lit = std::lower_bound(labels.begin(), labels.end(), t);
           lit != labels.end(); ++lit) {
        if (!std::binary_search(d.removed.begin(), d.removed.end(), *lit)) {
          best = *lit;
          break;
        }
      }
    }
    const auto ait = std::lower_bound(d.added.begin(), d.added.end(), t);
    if (ait != d.added.end() && *ait < best) best = *ait;
    return best;
  }

 private:
  struct DeltaContact {
    TimeUnit t;
    VertexId nbr;
    EdgeId e;
  };
  struct EdgeDelta {
    std::vector<TimeUnit> added;    // sorted; disjoint from live base
    std::vector<TimeUnit> removed;  // sorted; subset of base labels
  };

  /// Flat linear-probe hash map from packed endpoint key to edge id
  /// (endpoint_key / endpoint_bucket, as TemporalGraph's edge index) —
  /// the fold hot path resolves one of these per event, so it must be a
  /// single contiguous probe, not a node-based chain. Append-only
  /// between rebases (edge records are never deleted), so probes never
  /// cross tombstones and inserts never allocate per entry.
  class EdgeIdMap {
   public:
    /// Entries carry everything the fold path needs to resolve an edge
    /// — its id, its delta-slot index, and a 64-bit Bloom filter of its
    /// base label set — so one probe (one cache line, prefetchable)
    /// answers "which edge, does it have delta state, could t collide
    /// with a base label" without touching the base CSR at all.
    /// DeltaTemporalCsr keeps edge_slot_ (the kernel-side view, indexed
    /// by edge id) in sync whenever it assigns dslot.
    struct Slot {
      std::uint64_t key;
      EdgeId id;     // kInvalidEdge marks an empty slot
      EdgeId dslot;  // index into edge_deltas_, kInvalidEdge when none
      std::uint64_t bloom;  // bit (t & 63) per base label time t
    };
    void reset(std::size_t expected) {
      std::size_t cap = 16;
      while (cap < expected * 2) cap <<= 1;
      slots_.assign(cap, Slot{0, kInvalidEdge, kInvalidEdge, 0});
      mask_ = cap - 1;
      size_ = 0;
    }
    Slot* find_slot(std::uint64_t key) {
      if (slots_.empty()) return nullptr;
      for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.key == key) return &s;
        if (s.id == kInvalidEdge) return nullptr;
      }
    }
    /// Invalidates previously returned Slot pointers (may rehash).
    Slot& insert(std::uint64_t key, EdgeId id, std::uint64_t bloom) {
      if ((size_ + 1) * 2 > slots_.size()) grow();
      Slot& s = place(key, id, kInvalidEdge, bloom);
      ++size_;
      return s;
    }
    /// First cache line a find_slot(key) will touch — prefetch target.
    const void* probe_line(std::uint64_t key) const {
      return slots_.empty() ? static_cast<const void*>(this)
                            : &slots_[bucket(key)];
    }

   private:
    std::size_t bucket(std::uint64_t key) const {
      return endpoint_bucket(key, mask_);
    }
    Slot& place(std::uint64_t key, EdgeId id, EdgeId dslot,
                std::uint64_t bloom) {
      std::size_t i = bucket(key);
      while (slots_[i].id != kInvalidEdge) i = (i + 1) & mask_;
      slots_[i] = Slot{key, id, dslot, bloom};
      return slots_[i];
    }
    void grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.empty() ? 16 : old.size() * 2,
                    Slot{0, kInvalidEdge, kInvalidEdge, 0});
      mask_ = slots_.size() - 1;
      for (const Slot& s : old) {
        if (s.id != kInvalidEdge) place(s.key, s.id, s.dslot, s.bloom);
      }
    }
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  EdgeIdMap::Slot& find_or_create_edge(VertexId u, VertexId v);
  /// The edge's delta record, created (empty) on first touch; keeps the
  /// map entry and the kernel-side edge_slot_ array in sync.
  EdgeDelta& delta_of(EdgeIdMap::Slot& ms) {
    if (ms.dslot == kInvalidEdge) {
      ms.dslot = static_cast<EdgeId>(edge_deltas_.size());
      edge_slot_[ms.id] = ms.dslot;
      edge_deltas_.emplace_back();
    }
    return edge_deltas_[ms.dslot];
  }
  void record_add(EdgeId e, VertexId u, VertexId v, TimeUnit t,
                  bool base_labeled);
  void erase_add(EdgeId e, VertexId u, VertexId v, TimeUnit t);
  void record_tombstone(EdgeId e, VertexId u, VertexId v, TimeUnit t);
  void erase_tombstone(EdgeId e, VertexId u, VertexId v, TimeUnit t);

  TemporalCsr base_;
  std::uint64_t state_id_ = detail::next_index_state_id();
  std::size_t base_n_ = 0;  // base vertex count (n_ may outgrow it)
  std::size_t base_m_ = 0;  // base edge count (delta edge ids follow)
  std::size_t n_ = 0;
  std::size_t adds_ = 0, tombs_ = 0;
  EdgeIdMap edge_of_;                        // endpoints -> edge id
  std::vector<VertexId> dedge_u_, dedge_v_;  // delta edges
  /// Per edge: index into edge_deltas_, kInvalidEdge when untouched.
  /// Doubles as the "edge has delta state" flag first_label_at keys on.
  std::vector<EdgeId> edge_slot_;
  std::vector<EdgeDelta> edge_deltas_;
  std::vector<std::vector<DeltaContact>> vadd_;  // per vertex, (t, e)
  std::vector<std::vector<std::pair<TimeUnit, EdgeId>>> vdel_;  // (t, e)
  // Edges with delta labels absent from base adjacency, sorted by id.
  std::vector<std::vector<std::pair<EdgeId, VertexId>>> vnewadj_;
  std::vector<std::vector<EdgeId>> tadd_, tdel_;  // per unit, ascending
};

/// The three temporal-path kernels over the merged base+delta view —
/// bit-identical to running the TemporalCsr overloads on a fresh
/// rebuild of the mutated graph.
void csr_earliest_arrival(const DeltaTemporalCsr& csr, VertexId source,
                          TimeUnit t_start, TemporalWorkspace& ws,
                          VertexId stop_at = kInvalidVertex);
std::optional<std::pair<TimeUnit, TimeUnit>> csr_fastest_departure(
    const DeltaTemporalCsr& csr, VertexId source, VertexId target,
    TimeUnit t_start, TemporalWorkspace& ws);
std::optional<Journey> csr_minimum_hop_journey(const DeltaTemporalCsr& csr,
                                               VertexId source,
                                               VertexId target,
                                               TimeUnit t_start,
                                               TemporalWorkspace& ws);

}  // namespace structnet
