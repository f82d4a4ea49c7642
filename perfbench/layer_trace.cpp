#include "layer_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

using structnet::obs::TraceEvent;

void Coverage::seal() {
  std::sort(raw_.begin(), raw_.end(),
            [](const Iv& x, const Iv& y) { return x.a < y.a; });
  merged_.clear();
  for (const Iv& iv : raw_) {
    if (!merged_.empty() && iv.a <= merged_.back().b) {
      merged_.back().b = std::max(merged_.back().b, iv.b);
    } else {
      merged_.push_back(iv);
    }
  }
  prefix_.assign(merged_.size() + 1, 0);
  for (std::size_t i = 0; i < merged_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + (merged_[i].b - merged_[i].a);
  }
  raw_.clear();
  raw_.shrink_to_fit();
}

std::uint64_t Coverage::covered(std::uint64_t a, std::uint64_t b) const {
  if (b <= a || merged_.empty()) return 0;
  // Covered length of [0, x): whole intervals before x plus the part of
  // the interval x falls in.
  const auto upto = [this](std::uint64_t x) {
    const auto it = std::upper_bound(
        merged_.begin(), merged_.end(), x,
        [](std::uint64_t v, const Iv& iv) { return v < iv.a; });
    const std::size_t i = static_cast<std::size_t>(it - merged_.begin());
    if (i == 0) return std::uint64_t{0};
    const Iv& last = merged_[i - 1];
    return prefix_[i - 1] + (std::min(x, last.b) - last.a);
  };
  return upto(b) - upto(a);
}

namespace {

std::string layer_of(const char* name) {
  const char* dot = name;
  while (*dot != '\0' && *dot != '.') ++dot;
  return std::string(name, dot);
}

}  // namespace

std::map<std::string, double> layer_self_ms(
    const std::vector<TraceEvent>& events, std::uint64_t w0,
    std::uint64_t w1) {
  std::unordered_map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& ev : events) by_tid[ev.tid].push_back(&ev);
  std::map<std::string, double> self;
  for (auto& [tid, evs] : by_tid) {
    (void)tid;
    // Parents sort before the children they contain: earlier start
    // first, and on equal starts the shallower span first.
    std::sort(evs.begin(), evs.end(),
              [](const TraceEvent* x, const TraceEvent* y) {
                if (x->start_ns != y->start_ns) return x->start_ns < y->start_ns;
                return x->depth < y->depth;
              });
    std::vector<double> child_ns(evs.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const TraceEvent& ev = *evs[i];
      while (!stack.empty()) {
        const TraceEvent& top = *evs[stack.back()];
        if (ev.start_ns >= top.start_ns + top.dur_ns) {
          stack.pop_back();
        } else {
          break;
        }
      }
      if (!stack.empty()) child_ns[stack.back()] += static_cast<double>(ev.dur_ns);
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      const TraceEvent& ev = *evs[i];
      if (ev.start_ns < w0 || ev.start_ns >= w1) continue;
      self[layer_of(ev.name)] +=
          std::max(0.0, static_cast<double>(ev.dur_ns) - child_ns[i]) / 1e6;
    }
  }
  return self;
}

std::vector<double> span_durations(const std::vector<TraceEvent>& events,
                                   const char* name, std::uint64_t w0,
                                   std::uint64_t w1) {
  std::vector<double> out;
  const std::string_view want(name);
  for (const TraceEvent& ev : events) {
    if (ev.start_ns >= w0 && ev.start_ns < w1 && want == ev.name) {
      out.push_back(static_cast<double>(ev.dur_ns));
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        const std::vector<BenchSpan>& bench) {
  std::ofstream os(path);
  if (!os) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const TraceEvent& ev : events) t0 = std::min(t0, ev.start_ns);
  for (const BenchSpan& s : bench) t0 = std::min(t0, s.start_ns);
  if (t0 == UINT64_MAX) t0 = 0;
  char buf[256];
  os << "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const char* name, std::uint64_t tid,
                        std::uint64_t start, std::uint64_t dur,
                        const std::uint64_t* id) {
    int n = std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f",
                          first ? "" : ",", name,
                          static_cast<unsigned long long>(tid),
                          static_cast<double>(start - t0) / 1e3,
                          static_cast<double>(dur) / 1e3);
    os.write(buf, n);
    if (id != nullptr) {
      n = std::snprintf(buf, sizeof buf, ", \"args\": {\"id\": %llu}",
                        static_cast<unsigned long long>(*id));
      os.write(buf, n);
    }
    os << '}';
    first = false;
  };
  for (const TraceEvent& ev : events) {
    emit(ev.name, ev.tid + 1, ev.start_ns, ev.dur_ns, nullptr);
  }
  for (const BenchSpan& s : bench) {
    emit(s.name, 0, s.start_ns, s.end_ns - s.start_ns, &s.id);
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
