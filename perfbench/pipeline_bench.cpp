// End-to-end pipeline benchmark for structnet: one process drives the
// real serving loop (StreamEngine + WalAppender + TemporalViewObserver
// behind a timing decorator + QueryBroker with its delta index and lane
// packing at their defaults) under an open-loop Poisson load, and
// reports end-to-end metrics (untraced) or a per-layer split (traced).
//
//   pipeline_bench --workload ingest|query_mix|churn_mix --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//
// Human-readable lines first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
// every correctness check passed. See README.md for the workloads and
// metrics.
#include <malloc.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "centrality/centrality.hpp"
#include "fault/recovery.hpp"
#include "fault/wal.hpp"
#include "inputs.hpp"
#include "layer_trace.hpp"
#include "layering/nsf.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "serve/broker.hpp"
#include "temporal/journeys.hpp"
#include "temporal/temporal_centrality.hpp"
#include "temporal/temporal_csr.hpp"
#include "timed_observer.hpp"

namespace perfbench {
namespace {

using namespace structnet;
namespace fs = std::filesystem;

// ------------------------------------------------------------ constants

/// Set-up is repeated at least kMinSetupReps times and until kMinSetupS
/// seconds of set-ups, at most kMaxSetupReps; setup_s is the median.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 15;
constexpr double kMinSetupS = 2.0;
constexpr std::size_t kPreloadChunk = 4096;
/// Open-loop events arrive in batches of kEventBatch (one upload from a
/// contact logger); batches already due when the generator gets to them
/// are merged into one apply_events call of at most kMaxEventBatch.
constexpr std::size_t kEventBatch = 256;
constexpr std::size_t kMaxEventBatch = 1024;
/// Longest the generator sleeps between completion polls while queries
/// are outstanding: the resolution of the observed completion time.
constexpr std::uint64_t kPollNs = 20'000;
/// The same at saturation, where kWindow queries hold tens of
/// milliseconds of work: polling them every kPollNs would keep the
/// generator busy on a core the broker needs.
constexpr std::uint64_t kSaturatePollNs = 1'000'000;
/// The generator stops offering queries in a phase once this many are
/// outstanding, well below the broker's 1024-entry admission queue, so
/// an overloaded phase ends early instead of shedding.
constexpr std::size_t kMaxOutstanding = 640;
/// A phase is abandoned once an operation is this late (ns).
constexpr std::uint64_t kAbortLagNs = 1'500'000'000;
/// Queries held outstanding at saturation: two full broker batches.
constexpr std::size_t kWindow = 512;
// Shares of --seconds: the nominal rate, then saturation.
constexpr double kNominalShare = 0.35;
constexpr double kSaturateShare = 0.65;
constexpr double kSaturateWarmS = 1.0;  // not counted (query saturation)
/// Query saturation is counted in slices of this length; its metrics are
/// medians over the slices, so a few seconds in which other tenants crowd
/// the machine do not decide them.
constexpr std::uint64_t kSliceNs = 1'000'000'000;
/// Event floods are sliced by events instead: the cost of an event grows
/// with the history applied before it, so a time-cut slice would cover
/// a later stretch of the stream on a faster machine. The flood applies
/// kFloodSlices slices; the first is its warm-up.
constexpr std::size_t kSliceEvents = 256 * kMaxEventBatch;
constexpr std::size_t kFloodSlices = 11;
constexpr std::size_t kVerifySamples = 240;

struct Plan {
  TraceShape shape;
  TimeUnit query_horizon = 200;  // queries depart within [0, query_horizon)
  double preload_share = 1.0;  // leading share of the stream applied in setup
  // Queries (query_mix, churn_mix).
  double nominal_qps = 0;
  // Open-loop events (ingest).
  double nominal_eps = 0;
  std::size_t recover_suffix = 0;  // events applied after the checkpoint
  // Fixed-tick contact stream (churn_mix).
  double tick_s = 0;
  std::size_t tick_events = 0;
  double relabel_share = 0;  // relabels added per streamed event
};

Plan plan_for(const std::string& workload) {
  Plan p;
  if (workload == "ingest") {
    p.shape.horizon = 800;  // enough events for nominal and saturation
    p.preload_share = 0.05;
    p.nominal_eps = 40'000;
    p.recover_suffix = 50'000;
  } else if (workload == "query_mix") {
    p.nominal_qps = 1000;
  } else {  // churn_mix
    // A short preloaded history, so the streamed contacts outgrow the
    // compaction ratio within a run.
    p.preload_share = 0.3;
    p.query_horizon = 60;  // the preloaded stretch of the trace
    p.nominal_qps = 400;
    p.tick_s = 0.05;
    p.tick_events = 400;
    p.relabel_share = 0.0025;
  }
  return p;
}

// -------------------------------------------------------------- helpers

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(mono_ns() - t0) / 1e9;
}

/// Nearest-rank quantile (0 for no samples).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A "Vm..." field of /proc/self/status, in MB (-1 if absent).
double proc_status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string key;
  double kb = 0;
  while (f >> key) {
    if (key == field + ":" && f >> kb) return kb / 1024.0;
    f.ignore(1 << 12, '\n');
  }
  return -1.0;
}

/// Returns freed memory to the system and restarts the resident-set
/// high-water mark (VmHWM) at the current resident set.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

std::size_t broker_threads() {
  const std::size_t hw = hardware_threads();
  return hw > 1 ? hw - 1 : 1;
}

/// CPU time of the whole process (every thread, user + system). On a
/// paravirtualized guest it excludes the time the host ran other tenants.
std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Sleeps until the monotonic time `t_ns` (returns at once if past).
void idle_until(std::uint64_t t_ns) {
  const std::uint64_t now = mono_ns();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// ------------------------------------------------------------------ rig

/// The serving state under test. The timing decorator is attached
/// first, so the WAL logs each event before any derived structure
/// reacts; the broker attaches itself and its delta index behind it.
struct Rig {
  Rig(std::size_t n, TimeUnit horizon, const std::string& dir)
      : engine(DynamicGraph(n)),
        wal(WalConfig{dir, std::size_t{4} << 20, /*group_commit=*/0,
                      /*fsync_on_flush=*/false}),
        view(n, horizon),
        timed(wal, view) {
    engine.attach(&timed);
    BrokerConfig cfg;
    cfg.threads = broker_threads();
    broker.emplace(engine, &view, cfg);
  }
  ~Rig() {
    broker.reset();
    engine.detach(&timed);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  StreamEngine engine;
  WalAppender wal;
  TemporalViewObserver view;
  TimedObserver timed;
  std::optional<QueryBroker> broker;
};

/// Construction, history preload and first index/graph build — what
/// setup_s times.
std::unique_ptr<Rig> build_rig(const Plan& plan,
                               const std::vector<Event>& events,
                               std::size_t preload, const std::string& dir) {
  fs::create_directories(dir);
  auto rig = std::make_unique<Rig>(plan.shape.people, plan.shape.horizon, dir);
  for (std::size_t i = 0; i < preload; i += kPreloadChunk) {
    const std::size_t n = std::min(kPreloadChunk, preload - i);
    rig->broker->apply_events(std::span<const Event>(events.data() + i, n));
  }
  auto a = rig->broker->submit(TemporalDistancesQuery{0, 0});
  auto b = rig->broker->submit(CentralityQuery{CentralityMeasure::kDegree});
  while (rig->broker->queue_depth() > 0) rig->broker->flush();
  a.get();
  b.get();
  return rig;
}

// --------------------------------------------------------------- oracle

/// The direct API on a freshly built TemporalCsr / materialized Graph.
class Oracle {
 public:
  explicit Oracle(const Rig& rig)
      : view_(rig.view.view()),
        csr_(rig.view.view()),
        graph_(rig.engine.graph().materialize()) {}

  QueryPayload answer(const Query& query) {
    return std::visit(
        [&](const auto& q) -> QueryPayload {
          using T = std::decay_t<decltype(q)>;
          if constexpr (std::is_same_v<T, TemporalDistancesQuery>) {
            csr_earliest_arrival(csr_, q.source, q.t_start, ws_);
            return ws_.to_earliest_arrival().completion;
          } else if constexpr (std::is_same_v<T, FastestJourneyQuery>) {
            return fastest_journey(view_, q.source, q.target, q.t_start);
          } else if constexpr (std::is_same_v<T, MinHopJourneyQuery>) {
            return csr_minimum_hop_journey(csr_, q.source, q.target,
                                           q.t_start, ws_);
          } else if constexpr (std::is_same_v<T, NsfReportQuery>) {
            return nsf_report(graph_, q.stop_fraction, q.ks_threshold, 1);
          } else if constexpr (std::is_same_v<T, CentralityQuery>) {
            if (q.measure == CentralityMeasure::kTemporalCloseness) {
              return temporal_closeness(csr_, 1);
            }
            return degree_centrality(graph_);
          } else {
            return QueryPayload{};
          }
        },
        query);
  }

 private:
  const TemporalGraph& view_;
  TemporalCsr csr_;
  Graph graph_;
  TemporalWorkspace ws_;
};

/// Samples to check: at most a few of each expensive kind.
bool sample_wanted(const Query& q, std::map<QueryKind, std::size_t>& taken) {
  const QueryKind k = kind_of(q);
  std::size_t cap = kVerifySamples;
  if (k == QueryKind::kFastestJourney) cap = 12;
  if (k == QueryKind::kNsfReport) cap = 3;
  if (k == QueryKind::kCentrality) cap = 8;  // degree and closeness
  if (taken[k] >= cap) return false;
  ++taken[k];
  return true;
}

// ---------------------------------------------------------------- phases

struct Load {
  double seconds = 0;
  double qps = 0;     // open-loop Poisson query rate
  double eps = 0;     // open-loop Poisson event rate, in kEventBatch batches
  double tick_s = 0;  // fixed-tick event delivery
  std::size_t tick_events = 0;
  bool dashboard = false;  // send the scheduled whole-graph queries too
  /// Saturation: keep this many queries outstanding (closed loop) ...
  std::size_t window = 0;
  /// ... or apply kFloodSlices * kSliceEvents events, kMaxEventBatch
  /// at a time, back to back.
  bool flood = false;
  bool traced = false;
};

/// Operation latencies with the due time each was measured from; a
/// failed operation is recorded as +infinity (slower than any served one).
struct Latencies {
  std::vector<double> ms;
  std::vector<std::uint64_t> due;
  void add(std::uint64_t d, double v) {
    due.push_back(d);
    ms.push_back(v);
  }
};

struct PhaseResult {
  Latencies query;  // due -> observed completion
  Latencies event;  // due -> return of the apply_events call that absorbed it
  std::vector<double> fresh_ms;  // tick due -> first query covering it
  std::vector<double> apply_us;  // per apply_events call
  std::vector<double> submit_ns;
  std::vector<double> lag_ms;    // how late the generator sent
  std::uint64_t queries = 0, query_failed = 0, wrong_epoch = 0;
  std::uint64_t events = 0, event_failed = 0;
  std::uint64_t td_executed = 0;  // TemporalDistances not served by cache
  std::uint64_t apply_ns = 0;     // total inside apply_events
  bool aborted = false;
  std::uint64_t w0 = 0, w1 = 0;  // phase start and end (after draining)
  /// (monotonic, process CPU) time at the edges of the counted slices.
  /// Query saturation: every kSliceNs from kSaturateWarmS into the phase
  /// until it stops sending. Event flood: every kSliceEvents events.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks;
  /// (due, done) of every operation, for the traced coverage account.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ops;
};

struct Sample {
  const Query* query = nullptr;
  QueryPayload payload;
};

class Generator {
 public:
  Generator(Rig& rig, const std::vector<Event>& events, std::size_t ev_cursor,
            const std::vector<Query>& queries,
            const std::vector<Scheduled>& scheduled,
            const std::vector<double>& gaps)
      : rig_(rig),
        events_(events),
        ev_(ev_cursor),
        stream_end_(events.size()),
        queries_(queries),
        scheduled_(scheduled),
        gaps_(gaps) {}

  std::size_t event_cursor() const { return ev_; }
  /// Keeps the last `n` events out of the load phases (for
  /// apply_untimed afterwards).
  void hold_back(std::size_t n) {
    stream_end_ = events_.size() - std::min(n, events_.size() - ev_);
  }
  std::vector<BenchSpan>& spans() { return spans_; }
  std::vector<Sample>& samples() { return samples_; }
  void keep_samples(bool on) { keep_samples_ = on; }
  void expect_epoch(std::optional<std::uint64_t> e) { expect_epoch_ = e; }

  PhaseResult run(const Load& load);

  /// Closed-loop warm-up: chunks of queries until the cache hit ratio of
  /// consecutive windows settles. Returns the last window's hit ratio.
  double warm_cache();

  /// Applies events [ev_, ev_ + n) in kMaxEventBatch calls (untimed).
  void apply_untimed(std::size_t n);

  const Query& next_query() { return queries_[q_++ % queries_.size()]; }

 private:
  double next_gap() { return gaps_[g_++ % gaps_.size()]; }
  std::uint64_t apply(std::size_t b0, std::size_t b1, PhaseResult& r,
                      bool traced);

  struct InFlight {
    std::future<QueryResult> fut;
    std::uint64_t due = 0;
    const Query* query = nullptr;
    bool sample = false;  // a candidate for the correctness check
  };

  Rig& rig_;
  const std::vector<Event>& events_;
  std::size_t ev_;
  std::size_t stream_end_;  // the load phases stop here
  const std::vector<Query>& queries_;
  const std::vector<Scheduled>& scheduled_;
  const std::vector<double>& gaps_;
  std::size_t q_ = 0, g_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<BenchSpan> spans_;
  std::vector<Sample> samples_;
  std::map<QueryKind, std::size_t> sampled_;
  bool keep_samples_ = false;
  std::optional<std::uint64_t> expect_epoch_;
};

std::uint64_t Generator::apply(std::size_t b0, std::size_t b1, PhaseResult& r,
                            bool traced) {
  const std::uint64_t t0 = mono_ns();
  const std::size_t accepted = rig_.broker->apply_events(
      std::span<const Event>(events_.data() + b0, b1 - b0));
  const std::uint64_t t1 = mono_ns();
  r.events += b1 - b0;
  r.event_failed += (b1 - b0) - accepted;
  r.apply_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  r.apply_ns += t1 - t0;
  if (traced) spans_.push_back({"bench.apply_events", ++next_id_, t0, t1});
  return t1;
}

void Generator::apply_untimed(std::size_t n) {
  PhaseResult discarded;
  const std::size_t end = std::min(events_.size(), ev_ + n);
  while (ev_ < end) {
    const std::size_t b1 = std::min(end, ev_ + kMaxEventBatch);
    apply(ev_, b1, discarded, false);
    ev_ = b1;
  }
}

PhaseResult Generator::run(const Load& load) {
  PhaseResult r;
  QueryBroker& broker = *rig_.broker;
  const std::uint64_t start = mono_ns() + 200'000;
  const std::uint64_t end =
      start + static_cast<std::uint64_t>(load.seconds * 1e9);
  const double never = static_cast<double>(UINT64_MAX);
  double next_q = load.qps > 0 && load.window == 0
                      ? start + next_gap() * 1e9 / load.qps
                      : never;
  double next_ev =
      load.eps > 0 ? start + next_gap() * 1e9 * kEventBatch / load.eps : never;
  double next_tick = load.tick_s > 0 ? start + load.tick_s * 1e9 : never;
  std::vector<double> next_sched(scheduled_.size(), never);
  if (load.dashboard) {
    for (std::size_t i = 0; i < scheduled_.size(); ++i) {
      next_sched[i] = start + scheduled_[i].offset_s * 1e9;
    }
  }
  std::vector<InFlight> out;
  out.reserve(2 * kMaxOutstanding);
  std::deque<std::pair<std::uint64_t, std::uint64_t>> ticks;  // due, epoch
  std::vector<std::uint64_t> due;
  due.reserve(kMaxEventBatch);
  // Submits one query due at `d`; a sample candidate every seventh, and
  // every scheduled one.
  const auto send = [&](const Query& q, std::uint64_t d, bool scheduled) {
    const std::uint64_t t0 = mono_ns();
    std::future<QueryResult> f = broker.submit(q);
    const std::uint64_t t1 = mono_ns();
    r.lag_ms.push_back(static_cast<double>(t0 - d) / 1e6);
    r.submit_ns.push_back(static_cast<double>(t1 - t0));
    if (load.traced) spans_.push_back({"bench.submit", ++next_id_, t0, t1});
    out.push_back({std::move(f), d, &q,
                   keep_samples_ && (scheduled || r.queries % 7 == 0)});
    ++r.queries;
    if (out.size() >= kMaxOutstanding) r.aborted = true;
  };
  r.w0 = start;
  const std::uint64_t poll_ns =
      load.window > 0 || load.flood ? kSaturatePollNs : kPollNs;
  std::uint64_t next_mark =
      start + static_cast<std::uint64_t>(kSaturateWarmS * 1e9);
  const std::size_t flood_end =
      std::min(stream_end_, ev_ + kFloodSlices * kSliceEvents);
  std::size_t next_mark_ev = ev_ + kSliceEvents;
  idle_until(start);

  for (;;) {
    const std::uint64_t now = mono_ns();
    const bool sending = now < end && !r.aborted;
    if (load.window > 0 && sending && now >= next_mark) {
      r.marks.emplace_back(now, process_cpu_ns());
      next_mark = now + kSliceNs;
    }

    // Open-loop events: batches of kEventBatch events arrive on a Poisson
    // schedule; every batch already due (and due inside the phase) goes
    // into one apply_events call of at most kMaxEventBatch events.
    if (next_ev <= now && next_ev < end && !r.aborted &&
        ev_ < stream_end_) {
      due.clear();
      const std::size_t b0 = ev_;
      while (ev_ < stream_end_ && next_ev <= now && next_ev < end &&
             ev_ - b0 + kEventBatch <= kMaxEventBatch) {
        due.push_back(static_cast<std::uint64_t>(next_ev));
        ev_ = std::min(stream_end_, ev_ + kEventBatch);
        next_ev += next_gap() * 1e9 * kEventBatch / load.eps;
      }
      const std::uint64_t done = apply(b0, ev_, r, load.traced);
      for (std::size_t i = b0; i < ev_; ++i) {
        const std::uint64_t d = due[(i - b0) / kEventBatch];
        r.event.add(d, static_cast<double>(done - d) / 1e6);
      }
      if (load.traced) {
        for (const std::uint64_t d : due) r.ops.emplace_back(d, done);
      }
      if (done - due.front() > kAbortLagNs) r.aborted = true;
    }

    // Fixed ticks: a block of events at a fixed cadence, one epoch each.
    if (sending && next_tick <= now && ev_ < stream_end_) {
      const auto d = static_cast<std::uint64_t>(next_tick);
      const std::size_t b0 = ev_;
      ev_ = std::min(stream_end_, ev_ + load.tick_events);
      const std::uint64_t done = apply(b0, ev_, r, load.traced);
      ticks.emplace_back(d, rig_.engine.epoch());
      for (std::size_t i = b0; i < ev_; ++i) {
        r.event.add(d, static_cast<double>(done - d) / 1e6);
      }
      if (load.traced) r.ops.emplace_back(d, done);
      next_tick += load.tick_s * 1e9;
    }

    // Saturation: events back to back.
    if (sending && load.flood && ev_ < flood_end) {
      const std::size_t b0 = ev_;
      ev_ = std::min(flood_end, ev_ + kMaxEventBatch);
      const std::uint64_t d = mono_ns();
      const std::uint64_t done = apply(b0, ev_, r, load.traced);
      for (std::size_t i = b0; i < ev_; ++i) {
        r.event.add(d, static_cast<double>(done - d) / 1e6);
      }
      if (ev_ >= next_mark_ev) {
        r.marks.emplace_back(done, process_cpu_ns());
        next_mark_ev += kSliceEvents;
      }
      continue;
    }

    // Queries: open-loop Poisson, or a closed loop holding `window`
    // queries outstanding, plus the dashboard's queries on their clock.
    for (std::size_t i = 0; i < scheduled_.size(); ++i) {
      if (sending && next_sched[i] <= static_cast<double>(mono_ns())) {
        send(scheduled_[i].query, static_cast<std::uint64_t>(next_sched[i]), true);
        next_sched[i] += scheduled_[i].period_s * 1e9;
      }
    }
    while (sending && !r.aborted &&
           (load.window > 0 ? out.size() < load.window
                            : next_q <= static_cast<double>(mono_ns()))) {
      const auto d = load.window > 0 ? mono_ns() : static_cast<std::uint64_t>(next_q);
      send(next_query(), d, false);
      if (load.window == 0) next_q += next_gap() * 1e9 / load.qps;
    }

    // Completions: every outstanding future is polled; the stamp is the
    // poll pass that first saw it ready.
    if (!out.empty()) {
      const std::uint64_t stamp = mono_ns();
      for (std::size_t i = 0; i < out.size();) {
        InFlight& inf = out[i];
        if (inf.fut.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (stamp > inf.due + kAbortLagNs) r.aborted = true;
          ++i;
          continue;
        }
        QueryResult res = inf.fut.get();
        if (res.status != QueryStatus::kOk) {
          ++r.query_failed;
          r.query.add(inf.due, INFINITY);
        } else {
          r.query.add(inf.due, static_cast<double>(stamp - inf.due) / 1e6);
          if (load.traced) r.ops.emplace_back(inf.due, stamp);
          if (expect_epoch_ && res.epoch != *expect_epoch_) ++r.wrong_epoch;
          if (!res.from_cache &&
              kind_of(*inf.query) == QueryKind::kTemporalDistances) {
            ++r.td_executed;
          }
          while (!ticks.empty() && ticks.front().second <= res.epoch) {
            r.fresh_ms.push_back(
                static_cast<double>(stamp - ticks.front().first) / 1e6);
            ticks.pop_front();
          }
          if (inf.sample && sample_wanted(*inf.query, sampled_)) {
            samples_.push_back({inf.query, std::move(res.payload)});
          }
        }
        inf = std::move(out.back());
        out.pop_back();
      }
    }

    const bool events_left = next_ev < end && !r.aborted &&
                             ev_ < stream_end_;
    const bool flooded = load.flood && ev_ >= flood_end;
    if ((!sending || flooded) && out.empty() && !events_left) break;
    // Nothing to do: sleep until the next send, polling completions at
    // least every kPollNs meanwhile. The generator must not spin: it
    // would take a core from the threads under test.
    double next_send = std::min({next_q, next_ev, next_tick});
    for (const double t : next_sched) next_send = std::min(next_send, t);
    std::uint64_t wake = next_send < never ? static_cast<std::uint64_t>(next_send)
                                           : mono_ns() + poll_ns;
    if (!out.empty()) wake = std::min(wake, mono_ns() + poll_ns);
    idle_until(wake);
  }
  r.w1 = mono_ns();
  return r;
}

double Generator::warm_cache() {
  constexpr std::size_t kChunk = 256, kPerWindow = 2048, kMaxWindows = 16;
  for (const Scheduled& s : scheduled_) rig_.broker->submit(s.query).get();
  double prev = -1.0, ratio = 0.0;
  for (std::size_t w = 0; w < kMaxWindows; ++w) {
    std::size_t hits = 0;
    for (std::size_t done = 0; done < kPerWindow; done += kChunk) {
      std::vector<std::future<QueryResult>> fs;
      fs.reserve(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        fs.push_back(rig_.broker->submit(next_query()));
      }
      for (auto& f : fs) hits += f.get().from_cache ? 1 : 0;
    }
    ratio = static_cast<double>(hits) / kPerWindow;
    if (w >= 3 && std::abs(ratio - prev) < 0.01) break;
    prev = ratio;
  }
  return ratio;
}

// ------------------------------------------------------------- reporting

/// Per-slice figures of a saturation phase: operations completed per
/// second and process CPU time per completed operation.
struct Saturation {
  std::vector<double> per_s, cpu_us_per_op;
  std::size_t completed = 0;
  double seconds = 0, cpu_s = 0;
};

Saturation saturation_slices(
    const Latencies& done,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& marks) {
  Saturation st;
  if (marks.size() < 2) return st;
  std::vector<std::size_t> count(marks.size() - 1, 0);
  for (std::size_t i = 0; i < done.ms.size(); ++i) {
    const double t = static_cast<double>(done.due[i]) + done.ms[i] * 1e6;
    // Slice k holds the completions in (marks[k], marks[k + 1]].
    const auto it = std::lower_bound(
        marks.begin(), marks.end(), t,
        [](const auto& m, double v) { return static_cast<double>(m.first) < v; });
    if (it == marks.begin() || it == marks.end()) continue;
    ++count[static_cast<std::size_t>(it - marks.begin()) - 1];
  }
  for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
    const std::uint64_t wall = marks[k + 1].first - marks[k].first;
    if (count[k] == 0) continue;
    const double cpu_ns = static_cast<double>(marks[k + 1].second - marks[k].second);
    st.per_s.push_back(static_cast<double>(count[k]) * 1e9 / static_cast<double>(wall));
    st.cpu_us_per_op.push_back(cpu_ns / 1e3 / static_cast<double>(count[k]));
    st.completed += count[k];
    st.seconds += static_cast<double>(wall) / 1e9;
    st.cpu_s += cpu_ns / 1e9;
  }
  return st;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("%-44s %14.4f %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

std::string count_note(std::size_t n) {
  return "(n=" + std::to_string(n) + ")";
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1e9;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------------- traced window

struct Snapshots {
  obs::MetricsRegistry::Snapshot serve, global;
  ServeStats stats;
  std::uint64_t wal_appended = 0, wal_flushes = 0, wal_segments = 0;
  std::uint64_t accepted = 0, rejected = 0;
};

Snapshots take_snapshots(const Rig& rig) {
  Snapshots s;
  s.serve = rig.broker->metrics().snapshot();
  s.global = obs::MetricsRegistry::global().snapshot();
  s.stats = rig.broker->stats();
  s.wal_appended = rig.wal.appended();
  s.wal_flushes = rig.wal.flushes();
  s.wal_segments = rig.wal.segments_opened();
  s.accepted = rig.engine.accepted();
  s.rejected = rig.engine.rejected();
  return s;
}

obs::HistogramSnapshot hist_delta(const obs::MetricsRegistry::Snapshot& a,
                                  const obs::MetricsRegistry::Snapshot& b,
                                  std::string_view name) {
  obs::HistogramSnapshot d;
  const obs::HistogramSnapshot* hb = b.histogram_snapshot(name);
  if (hb == nullptr) return d;
  const obs::HistogramSnapshot* ha = a.histogram_snapshot(name);
  d = *hb;
  if (ha != nullptr) {
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
      d.buckets[i] -= ha->buckets[i];
    }
    d.count -= ha->count;
    d.sum -= ha->sum;
  }
  return d;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// The per-layer metrics of one traced window.
std::vector<Metric> layer_metrics(const Rig& rig, const PhaseResult& r,
                                  const Snapshots& a, const Snapshots& b,
                                  const std::vector<obs::TraceEvent>& trace,
                                  const std::vector<BenchSpan>& spans,
                                  double p50_untraced, double p50_traced,
                                  double checkpoint_ms,
                                  std::uint64_t recover_replayed) {
  const TimedObserver::Totals& t = rig.timed.totals();
  const std::uint64_t w0 = r.w0, w1 = r.w1;
  const double window_ns = static_cast<double>(w1 - w0);
  const auto cdelta = [&](std::string_view name) {
    return static_cast<double>(b.serve.counter_value(name) -
                               a.serve.counter_value(name));
  };
  const auto gdelta = [&](std::string_view name) {
    return static_cast<double>(b.global.counter_value(name) -
                               a.global.counter_value(name));
  };
  const auto span_mean = [&](const char* name, double scale) {
    return mean(span_durations(trace, name, w0, w1)) / scale;
  };
  std::vector<Metric> m;

  // stream
  const double wrapped_ns = static_cast<double>(t.wal_append_ns +
                                                t.view_fold_ns + t.batch_end_ns);
  m.push_back({"stream.apply_us.p50", quantile(r.apply_us, 0.5), "us"});
  m.push_back({"stream.apply_us.p99", quantile(r.apply_us, 0.99), "us"});
  m.push_back({"stream.accepted", static_cast<double>(b.accepted - a.accepted), "count"});
  m.push_back({"stream.rejected", static_cast<double>(b.rejected - a.rejected), "count"});
  m.push_back({"stream.apply_other_ns_per_event",
               ratio(static_cast<double>(r.apply_ns) - wrapped_ns,
                     static_cast<double>(t.events)),
               "ns"});

  // fault
  std::vector<double> flush_us;
  for (const std::uint64_t ns : t.flush_ns) flush_us.push_back(static_cast<double>(ns) / 1e3);
  const double appended = static_cast<double>(b.wal_appended - a.wal_appended);
  m.push_back({"fault.wal_append_ns_per_event",
               ratio(static_cast<double>(t.wal_append_ns), static_cast<double>(t.events)), "ns"});
  m.push_back({"fault.wal_flush_us", median(flush_us), "us"});
  m.push_back({"fault.wal_bytes",
               appended * kWalRecordBytes +
                   static_cast<double>(b.wal_segments - a.wal_segments) * kWalHeaderBytes,
               "bytes"});
  m.push_back({"fault.wal_flushes", static_cast<double>(b.wal_flushes - a.wal_flushes), "count"});
  m.push_back({"fault.checkpoint_ms", checkpoint_ms, "ms"});
  m.push_back({"fault.recover_replayed", static_cast<double>(recover_replayed), "count"});

  // temporal
  m.push_back({"temporal.view_fold_ns_per_event",
               ratio(static_cast<double>(t.view_fold_ns), static_cast<double>(t.events)), "ns"});
  m.push_back({"temporal.delta_appends", cdelta("serve.csr_delta_appends"), "count"});
  m.push_back({"temporal.compactions", cdelta("serve.csr_compactions"), "count"});
  m.push_back({"temporal.compact_ms", span_mean("temporal.delta_compact", 1e6), "ms"});
  m.push_back({"temporal.kernel_us.earliest_arrival",
               span_mean("temporal.csr_earliest_arrival", 1e3), "us"});
  m.push_back({"temporal.kernel_us.earliest_arrival_batch",
               span_mean("temporal.csr_earliest_arrival_batch", 1e3), "us"});
  m.push_back({"temporal.kernel_us.fastest_departure",
               span_mean("temporal.csr_fastest_departure", 1e3), "us"});
  m.push_back({"temporal.kernel_us.min_hop",
               span_mean("temporal.csr_minimum_hop_journey", 1e3), "us"});

  // serve
  const obs::HistogramSnapshot qw = hist_delta(a.serve, b.serve, "serve.queue_wait_ns");
  const std::vector<double> flushes = span_durations(trace, "serve.flush", w0, w1);
  double flush_total = 0;
  for (double d : flushes) flush_total += d;
  const double hits = static_cast<double>(b.stats.cache_hits - a.stats.cache_hits);
  const double lookups =
      hits + static_cast<double>(b.stats.cache_misses - a.stats.cache_misses);
  m.push_back({"serve.submit_ns", mean(r.submit_ns), "ns"});
  m.push_back({"serve.queue_wait_us.p50", qw.quantile_upper(0.5) / 1e3, "us"});
  m.push_back({"serve.queue_wait_us.p99", qw.quantile_upper(0.99) / 1e3, "us"});
  m.push_back({"serve.flush_us.p50", quantile(flushes, 0.5) / 1e3, "us"});
  m.push_back({"serve.flush_us.p99", quantile(flushes, 0.99) / 1e3, "us"});
  m.push_back({"serve.busy_share", ratio(flush_total, window_ns), "share"});
  m.push_back({"serve.batch_size",
               ratio(cdelta("serve.admitted"), cdelta("serve.batches")), "count"});
  m.push_back({"serve.cache_hit_ratio", ratio(hits, lookups), "share"});
  m.push_back({"serve.cache_hits", hits, "count"});
  m.push_back({"serve.cache_lookups", lookups, "count"});
  m.push_back({"serve.cache_evictions",
               static_cast<double>(b.stats.cache_evictions - a.stats.cache_evictions), "count"});
  m.push_back({"serve.cache_invalidations",
               static_cast<double>(b.stats.cache_invalidations - a.stats.cache_invalidations),
               "count"});
  m.push_back({"serve.lane_pack_ratio",
               ratio(cdelta("serve.sweeps_saved"), static_cast<double>(r.td_executed)),
               "share"});
  m.push_back({"serve.plan_us", span_mean("serve.plan", 1e3), "us"});
  for (const QueryKind k :
       {QueryKind::kTemporalDistances, QueryKind::kFastestJourney,
        QueryKind::kMinHopJourney, QueryKind::kNsfReport, QueryKind::kCentrality}) {
    const std::string kind(to_string(k));
    const obs::HistogramSnapshot h =
        hist_delta(a.serve, b.serve, "serve.latency." + kind);
    m.push_back({"serve.latency_us." + kind + ".p50", h.quantile_upper(0.5) / 1e3, "us"});
    m.push_back({"serve.latency_us." + kind + ".p99", h.quantile_upper(0.99) / 1e3, "us"});
  }
  m.push_back({"serve.shed", cdelta("serve.shed_queue_full"), "count"});
  m.push_back({"serve.timed_out", cdelta("serve.timed_out"), "count"});

  // parallel
  const obs::HistogramSnapshot busy = hist_delta(a.global, b.global, "parallel.worker_busy_ns");
  const obs::HistogramSnapshot idle = hist_delta(a.global, b.global, "parallel.worker_idle_ns");
  m.push_back({"parallel.busy_share",
               ratio(static_cast<double>(busy.sum), static_cast<double>(busy.sum + idle.sum)),
               "share"});
  m.push_back({"parallel.shards_per_batch",
               ratio(gdelta("parallel.shards"), cdelta("serve.batches")), "count"});

  // obs: the account. Layer self time from the program's spans, with
  // the decorator's WAL-append and view-fold time moved out of
  // stream.apply's self time into fault and temporal.
  std::map<std::string, double> self = layer_self_ms(trace, w0, w1);
  self["stream"] -= static_cast<double>(t.wal_append_ns + t.view_fold_ns) / 1e6;
  self["fault"] += static_cast<double>(t.wal_append_ns) / 1e6;
  self["temporal"] += static_cast<double>(t.view_fold_ns) / 1e6;
  double bench_ns = 0, program_calls_ns = 0;
  for (const BenchSpan& s : spans) {
    if (s.start_ns >= w0 && s.start_ns < w1) bench_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  for (const obs::TraceEvent& ev : trace) {
    const std::string_view name(ev.name);
    if (ev.depth == 0 && ev.start_ns >= w0 && ev.start_ns < w1 &&
        (name == "serve.submit" || name == "serve.apply_events")) {
      program_calls_ns += static_cast<double>(ev.dur_ns);
    }
  }
  self["bench"] = std::max(0.0, bench_ns - program_calls_ns) / 1e6;

  Coverage cover;
  for (const obs::TraceEvent& ev : trace) cover.add(ev.start_ns, ev.start_ns + ev.dur_ns);
  for (const BenchSpan& s : spans) cover.add(s.start_ns, s.end_ns);
  cover.seal();
  double op_ns = 0, uncovered_ns = 0;
  for (const auto& [d, done] : r.ops) {
    op_ns += static_cast<double>(done - d);
    uncovered_ns += static_cast<double>((done - d) - cover.covered(d, done));
  }
  double lag_total = 0;
  for (double x : r.lag_ms) lag_total += x;

  m.push_back({"obs.trace_overhead_pct",
               p50_untraced > 0 ? (p50_traced / p50_untraced - 1.0) * 100.0 : 0.0, "%"});
  m.push_back({"obs.unaccounted_share", ratio(uncovered_ns, op_ns), "share"});
  for (const char* layer : {"stream", "fault", "temporal", "serve", "parallel", "bench"}) {
    m.push_back({std::string("self_ms.") + layer, std::max(0.0, self[layer]), "ms"});
  }
  m.push_back({"wait_ms.serve_queue", static_cast<double>(qw.sum) / 1e6, "ms"});
  m.push_back({"wait_ms.send_lag", lag_total, "ms"});
  return m;
}

// ------------------------------------------------------------ workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".bench_build";
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t mismatches = 0;
  std::size_t checked = 0;
};

/// Verifies served payloads against the oracle; returns mismatches.
std::size_t check_samples(const Rig& rig, const std::vector<Sample>& samples) {
  Oracle oracle(rig);
  std::size_t bad = 0;
  for (const Sample& s : samples) {
    if (!payload_equal(s.payload, oracle.answer(*s.query))) ++bad;
  }
  return bad;
}

/// Submits a verification set through the running broker (twice, so the
/// second pass is served from the cache) and keeps the payloads.
std::vector<Sample> served_samples(Rig& rig, Generator& gen,
                                   const std::vector<Scheduled>& scheduled,
                                   std::uint64_t& failed) {
  std::vector<const Query*> picks;
  for (const Scheduled& s : scheduled) picks.push_back(&s.query);
  std::map<QueryKind, std::size_t> taken;
  for (std::size_t tries = 0; picks.size() < kVerifySamples && tries < 20000; ++tries) {
    const Query& q = gen.next_query();
    if (sample_wanted(q, taken)) picks.push_back(&q);
  }
  std::vector<Sample> out;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::future<QueryResult>> fs;
    for (const Query* q : picks) fs.push_back(rig.broker->submit(*q));
    for (std::size_t i = 0; i < picks.size(); ++i) {
      QueryResult res = fs[i].get();
      if (res.status != QueryStatus::kOk || res.epoch != rig.engine.epoch()) {
        ++failed;
        continue;
      }
      out.push_back({picks[i], std::move(res.payload)});
    }
  }
  return out;
}

/// Checkpoint, more events, then recover() from the directory; the
/// recovered engine must equal the live one. Returns recover() seconds.
double checkpoint_and_recover(Rig& rig, Generator& gen, const Plan& plan,
                              const std::string& dir, Outcome& out,
                              double& checkpoint_ms, std::uint64_t& replayed) {
  rig.broker->stop();
  const std::uint64_t c0 = mono_ns();
  const std::string ckpt = checkpoint_now(dir, rig.engine);
  const std::uint64_t c1 = mono_ns();
  gen.spans().push_back({"bench.checkpoint_now", 0, c0, c1});
  checkpoint_ms = static_cast<double>(c1 - c0) / 1e6;
  gen.apply_untimed(plan.recover_suffix);
  const std::uint64_t r0 = mono_ns();
  RecoverOutcome rec = recover(dir, plan.shape.people);
  const std::uint64_t r1 = mono_ns();
  gen.spans().push_back({"bench.recover", 0, r0, r1});
  replayed = rec.wal_replayed;
  out.attempted += 1;
  out.checked += 1;
  if (ckpt.empty() || !rec.ok() || rec.engine->epoch() != rig.engine.epoch() ||
      rec.engine->graph().log() != rig.engine.graph().log() ||
      !(rec.engine->graph().materialize() == rig.engine.graph().materialize())) {
    ++out.mismatches;
  }
  return static_cast<double>(r1 - r0) / 1e9;
}

int run_workload(const Args& args) {
  const Plan plan = plan_for(args.workload);
  const bool ingest = args.workload == "ingest";
  const bool churn = args.workload == "churn_mix";
  set_default_thread_count(broker_threads());
  // Fine-grained sleeps: the generator sleeps between sends and polls.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::string run_dir =
      (fs::path(args.work_dir) / ("perfbench-run-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(run_dir);

  // Inputs, all from the seed, before any timing.
  const std::uint64_t t_gen = mono_ns();
  std::vector<Event> events = social_stream(plan.shape, args.seed);
  const auto preload =
      static_cast<std::size_t>(plan.preload_share * static_cast<double>(events.size()));
  if (plan.relabel_share > 0) {
    std::vector<Event> head(events.begin(), events.begin() + preload);
    const std::vector<Event> tail(events.begin() + preload, events.end());
    const std::vector<Event> relabeled = with_relabels(
        head, tail, static_cast<std::size_t>(plan.relabel_share * tail.size()),
        plan.shape.horizon, args.seed ^ 0x5eed);
    head.insert(head.end(), relabeled.begin(), relabeled.end());
    events = std::move(head);
  }
  QueryMixShape mix;
  mix.vertices = plan.shape.people;
  mix.horizon = plan.query_horizon;
  const std::vector<Query> queries = query_mix(mix, 600'000, args.seed ^ 0x9e37);
  const std::vector<Scheduled> scheduled = dashboard();
  const std::vector<double> gaps = unit_gaps(1 << 20, args.seed ^ 0x7f4a);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d threads=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, broker_threads());
  std::printf("# inputs: %zu events (%zu preloaded), %zu queries, generated in %.2f s\n",
              events.size(), preload, queries.size(), seconds_since(t_gen));
  // Peak memory counts from here: the generators' temporaries are gone,
  // and the inputs kept for the run are subtracted.
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "pipeline_bench: cannot reset the peak RSS "
                         "(/proc/self/clear_refs)\n");
    return 1;
  }
  const double inputs_rss_mb = proc_status_mb("VmRSS");

  // Set-up, repeated; the last rig serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  std::string rig_dir;
  for (double spent = 0; setup_s.size() < kMinSetupReps ||
                         (spent < kMinSetupS && setup_s.size() < kMaxSetupReps);
       spent += setup_s.back()) {
    const std::size_t k = setup_s.size();
    if (rig) {
      rig.reset();
      fs::remove_all(rig_dir);
      malloc_trim(0);  // a discarded rig's memory must not pad the peak
    }
    rig_dir = run_dir + "/setup-" + std::to_string(k);
    const std::uint64_t t0 = mono_ns();
    rig = build_rig(plan, events, preload, rig_dir);
    setup_s.push_back(seconds_since(t0));
  }

  Generator gen(*rig, events, preload, queries, scheduled, gaps);
  gen.hold_back(plan.recover_suffix);
  Outcome out;
  Load nominal;
  if (ingest) {
    nominal.eps = plan.nominal_eps;
  } else {
    nominal.qps = plan.nominal_qps;
    nominal.dashboard = true;
    nominal.tick_s = plan.tick_s;
    nominal.tick_events = plan.tick_events;
  }
  const auto primary = [&](const PhaseResult& r) -> const Latencies& {
    return ingest ? r.event : r.query;
  };
  // Failed queries are +infinity samples. A rejected event cannot be
  // told apart inside its batch, and a query served at the wrong epoch
  // is a wrong answer: either makes the phase's percentiles infinite.
  const auto latency_q = [&](const PhaseResult& r, double q) {
    return r.event_failed + r.wrong_epoch > 0 ? INFINITY
                                              : quantile(primary(r).ms, q);
  };
  const auto count_phase = [&](const PhaseResult& r) {
    out.attempted += r.queries + r.events;
    out.failed += r.query_failed + r.wrong_epoch + r.event_failed;
  };

  // Warm-up, untimed.
  rig->broker->start();
  if (args.workload == "query_mix") {
    const double h = gen.warm_cache();
    std::printf("# warm-up: cache hit ratio settled at %.3f\n", h);
    gen.expect_epoch(rig->engine.epoch());
    gen.keep_samples(true);
  } else if (churn) {
    Load warm = nominal;
    warm.seconds = 1.5;
    gen.run(warm);
  }

  double checkpoint_ms = 0;
  std::uint64_t recover_replayed = 0;
  char rss_note[64] = "";
  if (!args.trace) {
    // 1. The nominal rate: p50 / p99.
    Load l = nominal;
    l.seconds = kNominalShare * args.seconds;
    const PhaseResult nom = gen.run(l);
    count_phase(nom);
    // Peak memory through set-up and the nominal load (how far
    // saturation backs up would otherwise decide it).
    const double rss_mb = proc_status_mb("VmHWM") - inputs_rss_mb;

    // 2. Saturation: the backlog held at its bound (kWindow queries
    // outstanding, or event batches back to back). Past the warm-up, the
    // completion rate is the highest rate the pipeline sustains, and the
    // process CPU time per completed operation is what each one costs.
    Load sat = nominal;
    sat.seconds = kSaturateShare * args.seconds;
    if (ingest) {
      sat.eps = 0;
      sat.flood = true;
    } else {
      sat.window = kWindow;
    }
    const PhaseResult sp = gen.run(sat);
    count_phase(sp);
    const Saturation st = saturation_slices(primary(sp), sp.marks);
    if (st.completed == 0) {
      std::fprintf(stderr, "pipeline_bench: --seconds %g leaves no whole "
                           "saturation slice to count\n", args.seconds);
      rig.reset();
      fs::remove_all(run_dir);
      return 1;
    }
    // Queries: the median slice. Events: the whole flood, whose slices
    // are fixed stretches of the stream that get dearer along it, so a
    // median would be one slice's reading.
    const double sustained =
        ingest ? static_cast<double>(st.completed) / st.seconds : median(st.per_s);
    const double cpu_us_per_op =
        ingest ? st.cpu_s * 1e6 / static_cast<double>(st.completed)
               : median(st.cpu_us_per_op);

    const std::size_t n = primary(nom).ms.size();
    const double p50 = latency_q(nom, 0.5);
    const double p99 = latency_q(nom, 0.99);
    double recover_s = 0;
    if (ingest) {
      recover_s = checkpoint_and_recover(*rig, gen, plan, rig_dir, out,
                                         checkpoint_ms, recover_replayed);
    }

    std::printf("%-44s %14s %-6s %s\n", "# metric", "value", "unit", "note");
    print_metric({"setup_s", median(setup_s), "s"},
                 "(median of " + std::to_string(setup_s.size()) + " set-ups)");
    const std::string lat = ingest ? "ingest" : "query";
    print_metric({lat + "_p50_ms", p50, "ms"}, count_note(n));
    print_metric({lat + "_p99_ms", p99, "ms"}, count_note(n));
    char sat_note[128];
    std::snprintf(sat_note, sizeof sat_note,
                  "(saturation: %s %zu slices, n=%zu over %.2f s; p99 there %.3f ms)",
                  ingest ? "all" : "median of", st.per_s.size(), st.completed,
                  st.seconds, latency_q(sp, 0.99));
    print_metric({ingest ? "sustained_events_per_s" : "sustained_qps", sustained, "1/s"},
                 sat_note);
    std::snprintf(sat_note, sizeof sat_note,
                  "(same slices; process CPU %.2f s over them, %.2f cores)",
                  st.cpu_s, st.cpu_s / st.seconds);
    print_metric({"cpu_us_per_op", cpu_us_per_op, "us"}, sat_note);
    if (ingest) {
      print_metric({"recover_s", recover_s, "s"},
                   "(checkpoint + " + std::to_string(recover_replayed) + " WAL records)");
    }
    if (churn) {
      print_metric({"ingest_p50_ms", quantile(nom.event.ms, 0.5), "ms"},
                   count_note(nom.event.ms.size()));
      print_metric({"ingest_p99_ms", quantile(nom.event.ms, 0.99), "ms"},
                   count_note(nom.event.ms.size()));
      print_metric({"fresh_p99_ms", quantile(nom.fresh_ms, 0.99), "ms"},
                   count_note(nom.fresh_ms.size()));
    }
    if (!ingest) {
      std::printf("#   generator send lag p99 %.3f ms (n=%zu)\n",
                  quantile(nom.lag_ms, 0.99), nom.lag_ms.size());
    }
    std::snprintf(rss_note, sizeof rss_note, "(above %.1f MB of generated inputs)",
                  inputs_rss_mb);
    out.metrics = {{"setup_s", median(setup_s), "s"},
                   {"cpu_us_per_op", cpu_us_per_op, "us"},
                   {"peak_rss_mb", rss_mb, "MB"}};
  } else {
    // Traced run: the nominal load twice, untraced for as long as the
    // untraced run's nominal phase, then traced for the rest (long
    // enough for churn_mix's stream to reach a compaction inside it).
    Load l = nominal;
    l.seconds = kNominalShare * args.seconds;
    const PhaseResult plain = gen.run(l);
    count_phase(plain);
    l.seconds = kSaturateShare * args.seconds;
    obs::TraceSink sink(std::size_t{1} << 21);
    const Snapshots a = take_snapshots(*rig);
    rig->timed.set_timing(true);
    sink.install();
    l.traced = true;
    const PhaseResult traced = gen.run(l);
    count_phase(traced);
    // The window's counters end with the traced load; checkpoint and
    // recovery stay in the Chrome trace but out of the layer split.
    rig->timed.set_timing(false);
    const Snapshots b = take_snapshots(*rig);
    if (ingest) {
      checkpoint_and_recover(*rig, gen, plan, rig_dir, out, checkpoint_ms,
                             recover_replayed);
    }
    obs::TraceSink::uninstall();
    const std::vector<obs::TraceEvent> trace = sink.events();
    out.metrics = layer_metrics(*rig, traced, a, b, trace, gen.spans(),
                                quantile(primary(plain).ms, 0.5),
                                quantile(primary(traced).ms, 0.5), checkpoint_ms,
                                recover_replayed);
    const std::string trace_path =
        (fs::path(args.work_dir) /
         ("perfbench-" + args.workload + "-seed" + std::to_string(args.seed) +
          ".trace.json"))
            .string();
    const bool wrote = write_chrome_trace(trace_path, trace, gen.spans());
    std::printf("# traced window %.2f s, %zu program spans (%llu dropped), "
                "%zu benchmark spans; Chrome trace %s %s\n",
                static_cast<double>(traced.w1 - traced.w0) / 1e9, trace.size(),
                static_cast<unsigned long long>(sink.dropped()),
                gen.spans().size(), wrote ? "written to" : "NOT written to",
                trace_path.c_str());
    std::printf("%-44s %14s %-6s %s\n", "# per-layer metric", "value", "unit", "");
    for (const Metric& mt : out.metrics) print_metric(mt);
  }

  // Correctness: quiesce, then compare served payloads with the oracle.
  if (!ingest) {
    std::vector<Sample> samples;
    if (churn) {
      samples = served_samples(*rig, gen, scheduled, out.failed);
    } else {
      samples = std::move(gen.samples());
    }
    rig->broker->stop();
    out.attempted += samples.size();
    out.checked += samples.size();
    out.mismatches += check_samples(*rig, samples);
  }
  out.failed += out.mismatches;
  const bool correct = out.mismatches == 0 && out.checked > 0;
  std::printf("%-44s %14.6f %-6s (%llu of %llu operations)\n", "failed_frac",
              ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
              "share", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (!args.trace) print_metric(out.metrics.back(), rss_note);
  std::printf("# correctness: %zu checks, %zu mismatches\n", out.checked,
              out.mismatches);

  rig.reset();
  fs::remove_all(run_dir);
  print_json(correct, out.attempted, out.failed, out.metrics);
  return correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && a.seconds > 0 &&
         (a.workload == "ingest" || a.workload == "query_mix" ||
          a.workload == "churn_mix");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload ingest|query_mix|churn_mix "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return perfbench::run_workload(args);
}
