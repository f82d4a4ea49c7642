// Traced-run analysis: benchmark-side spans around every layer call,
// the program's own spans (obs TraceSink), per-layer self time, the
// share of operation latency that no span covers, and a Chrome trace
// holding both.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// One benchmark-side span around a call into the program. Spans of one
/// query or one event batch share `id`.
struct BenchSpan {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Union of time intervals, queried for how much of [a, b) it covers.
class Coverage {
 public:
  void add(std::uint64_t a, std::uint64_t b) {
    if (b > a) raw_.push_back({a, b});
  }
  /// Sorts and merges; call once after the last add().
  void seal();
  std::uint64_t covered(std::uint64_t a, std::uint64_t b) const;

 private:
  struct Iv {
    std::uint64_t a, b;
  };
  std::vector<Iv> raw_;
  std::vector<Iv> merged_;
  std::vector<std::uint64_t> prefix_;  // covered length before merged_[i]
};

/// Self time (ms) per layer — span name prefix before the first '.' —
/// over the program spans that start inside [w0, w1). A span's self time
/// is its duration minus the durations of the spans nested directly in
/// it on the same thread.
std::map<std::string, double> layer_self_ms(
    const std::vector<structnet::obs::TraceEvent>& events, std::uint64_t w0,
    std::uint64_t w1);

/// Duration samples (ns) of the program spans named `name` that start
/// inside [w0, w1).
std::vector<double> span_durations(
    const std::vector<structnet::obs::TraceEvent>& events, const char* name,
    std::uint64_t w0, std::uint64_t w1);

/// Writes one Chrome trace_event file: the program's spans under their
/// own thread ids, the benchmark's spans under tid 0 with their ids.
bool write_chrome_trace(const std::string& path,
                        const std::vector<structnet::obs::TraceEvent>& events,
                        const std::vector<BenchSpan>& bench);

}  // namespace perfbench
