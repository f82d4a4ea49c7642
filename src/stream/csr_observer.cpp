#include "stream/csr_observer.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"

namespace structnet {

DeltaCsrObserver::DeltaCsrObserver(const TemporalViewObserver& view,
                                   double compact_ratio,
                                   obs::MetricsRegistry* registry,
                                   std::string_view prefix)
    : view_(view), compact_ratio_(compact_ratio) {
  if (registry != nullptr) {
    const std::string p(prefix);
    appends_counter_ = &registry->counter(p + ".csr_delta_appends");
    compactions_counter_ = &registry->counter(p + ".csr_compactions");
    builds_counter_ = &registry->counter(p + ".csr_builds");
  }
}

void DeltaCsrObserver::count_appends(std::uint64_t n) {
  if (n == 0) return;
  appends_ += n;
  if (appends_counter_ != nullptr) appends_counter_->add(n);
}

void DeltaCsrObserver::rebase_from_view(bool is_compaction) {
  index_.rebase(view_.view());
  ++builds_;
  if (builds_counter_ != nullptr) builds_counter_->add();
  if (is_compaction) {
    ++compactions_;
    if (compactions_counter_ != nullptr) compactions_counter_->add();
  }
}

void DeltaCsrObserver::recompute(const DynamicGraph&) {
  rebase_from_view(/*is_compaction=*/false);
}

void DeltaCsrObserver::on_event(const DynamicGraph&, const Event& event,
                                const EventEffect& effect) {
  switch (event.kind) {
    case EventKind::kContactAdd: {
      if (event.time >= index_.horizon()) return;  // view drops it too
      index_.grow_vertices(std::max(event.u, event.v) + std::size_t{1});
      count_appends(index_.add_contact(event.u, event.v, event.time) ? 1 : 0);
      break;
    }
    case EventKind::kContactRelabel: {
      // Mirrors the view exactly: an out-of-horizon new label rejects
      // the whole relabel (the old contact stays); a missing old label
      // degrades to a plain (deduped) add of the new one.
      if (event.new_time >= index_.horizon()) return;
      index_.grow_vertices(std::max(event.u, event.v) + std::size_t{1});
      std::uint64_t ops = 0;
      if (index_.remove_contact(event.u, event.v, event.time)) ++ops;
      if (index_.add_contact(event.u, event.v, event.new_time)) ++ops;
      count_appends(ops);
      break;
    }
    case EventKind::kNodeJoin:
      // The view only widens its vertex space too (no edge record is
      // touched), so every existing edge id stays valid.
      index_.grow_vertices(effect.vertex + std::size_t{1});
      break;
    case EventKind::kNodeLeave:
    case EventKind::kEdgeInsert:
    case EventKind::kEdgeDelete:
      break;  // temporal views keep history; plain edges carry no label
  }
}

bool DeltaCsrObserver::advance(bool force_full_base) {
  const bool compact = index_.needs_compaction(compact_ratio_) ||
                       (force_full_base && !index_.delta_empty());
  if (!compact) return false;
  STRUCTNET_OBS_SPAN("temporal.delta_compact");
  rebase_from_view(/*is_compaction=*/true);
  return true;
}

}  // namespace structnet
