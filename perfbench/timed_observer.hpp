// Benchmark-owned timing decorator: one StreamObserver that forwards
// every stream callback to the WAL appender and the temporal view, and
// (while timing is on) times each forwarded call from outside. This is
// how the benchmark gets the fault.* and temporal.view_* numbers without
// adding spans inside the program, and, by subtraction from the timed
// apply_events() calls, the stream layer's own residual.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "fault/wal.hpp"
#include "stream/observers.hpp"

namespace perfbench {

inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedObserver final : public structnet::StreamObserver {
 public:
  struct Totals {
    std::uint64_t events = 0;
    std::uint64_t wal_append_ns = 0;
    std::uint64_t view_fold_ns = 0;
    std::uint64_t batch_end_ns = 0;  // WAL flush + view batch end
    std::vector<std::uint64_t> flush_ns;  // one per batch end
  };

  TimedObserver(structnet::WalAppender& wal,
                structnet::TemporalViewObserver& view)
      : wal_(wal), view_(view) {}

  std::string_view name() const override { return "perfbench.timed"; }

  void on_event(const structnet::DynamicGraph& g,
                const structnet::Event& event,
                const structnet::EventEffect& effect) override {
    if (!timing_) {
      wal_.on_event(g, event, effect);
      view_.on_event(g, event, effect);
      return;
    }
    const std::uint64_t t0 = mono_ns();
    wal_.on_event(g, event, effect);
    const std::uint64_t t1 = mono_ns();
    view_.on_event(g, event, effect);
    const std::uint64_t t2 = mono_ns();
    totals_.wal_append_ns += t1 - t0;
    totals_.view_fold_ns += t2 - t1;
    ++totals_.events;
  }

  void on_batch_end(const structnet::DynamicGraph& g) override {
    if (!timing_) {
      wal_.on_batch_end(g);
      view_.on_batch_end(g);
      return;
    }
    const std::uint64_t t0 = mono_ns();
    wal_.on_batch_end(g);
    view_.on_batch_end(g);
    const std::uint64_t dt = mono_ns() - t0;
    totals_.batch_end_ns += dt;
    totals_.flush_ns.push_back(dt);
  }

  void recompute(const structnet::DynamicGraph& g) override {
    wal_.recompute(g);
    view_.recompute(g);
  }

  /// Starts timing with fresh totals; stop with set_timing(false).
  void set_timing(bool on) {
    if (on) totals_ = Totals{};
    timing_ = on;
  }
  const Totals& totals() const { return totals_; }

 private:
  structnet::WalAppender& wal_;
  structnet::TemporalViewObserver& view_;
  bool timing_ = false;
  Totals totals_;
};

}  // namespace perfbench
