#!/usr/bin/env bash
# Tier-1 verify plus sanitizer passes: ASan/UBSan over the streaming
# churn tests, then TSan over the parallel-layer and stream tests.
#
#   scripts/check.sh          # plain build + full ctest, then ASan/UBSan + TSan
#   SKIP_SANITIZE=1 scripts/check.sh   # skip the sanitizer passes
#   SKIP_BENCH=1 scripts/check.sh      # skip the Release bench smoke
#   SKIP_OBS_OFF=1 scripts/check.sh    # skip the STRUCTNET_OBS=OFF build
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure -j"$jobs"

if [[ "${SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "== sanitizer pass (ASan + UBSan): streaming churn tests =="
  cmake -B build-asan -S . -DSTRUCTNET_SANITIZE=ON >/dev/null
  cmake --build build-asan -j"$jobs"
  ctest --test-dir build-asan --output-on-failure -j"$jobs" \
    -R 'DynamicGraph|StreamEngine|StreamChurn|CoreObserver|MisObserver|TemporalViewObserver|TemporalViewReplay|TemporalGraphIndex|TemporalDelta|DeltaCsrObserver|MultiSource|Replay|FaultPlan|FaultRouting|Checkpoint|CheckpointFile|CrashRecovery|Wal|WalCrashMatrix|Percolation|ResultCache|QueryBroker|ServeChurn|ServeStats|LatencyHistogram|HealthMonitor|ObsCounter|ObsGauge|ObsHistogram|ObsQuantile|ObsRegistry|ObsTrace'

  echo "== sanitizer pass (TSan): parallel + stream + serve + obs tests =="
  cmake -B build-tsan -S . -DSTRUCTNET_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$jobs"
  ctest --test-dir build-tsan --output-on-failure -j"$jobs" \
    -R 'ThreadPool|Parallel|DynamicGraph|StreamEngine|StreamChurn|TemporalViewReplay|TemporalGraphIndex|TemporalDelta|DeltaCsrObserver|MultiSource|FaultRouting|Wal|QueryBroker|ServeChurn|HealthMonitor|ObsCounter|ObsRegistry|ObsTrace'
fi

if [[ "${SKIP_OBS_OFF:-0}" != "1" ]]; then
  echo "== STRUCTNET_OBS=OFF build: stubbed obs layer must stay green =="
  cmake -B build-obs-off -S . -DSTRUCTNET_OBS=OFF >/dev/null
  cmake --build build-obs-off -j"$jobs"
  ctest --test-dir build-obs-off --output-on-failure -j"$jobs" \
    -R 'ResultCache|QueryBroker|ServeChurn|ServeStats|LatencyHistogram|HealthMonitor|Wal|WalCrashMatrix|CheckpointFile|TemporalViewReplay|TemporalGraphIndex|TemporalDelta|DeltaCsrObserver|MultiSource|ObsCounter|ObsGauge|ObsHistogram|ObsQuantile|ObsRegistry'
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  echo "== bench smoke (Release): every BENCH/METRICS JSON line must parse =="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-bench -j"$jobs" \
    --target bench_temporal_paths bench_small_world bench_faults bench_serve \
             bench_multi_source bench_stream
  # The '^$'-style no-match filter skips the registered google-benchmark
  # loops but still runs each binary's experiment tables, which is where
  # the machine-readable JSON lines come from.
  # bench_faults doubles as the crash-recovery smoke: its --smoke mode
  # replays randomized churn streams through checkpoint/restore and
  # exits nonzero on any divergence, before emitting its BENCH JSON.
  # bench_serve's tables double as the serving smoke: cache on/off,
  # throughput vs load, and shed-rate sweeps all run before the JSON
  # validation below sees their lines.
  bench_out="$(mktemp -d)"
  for b in bench_temporal_paths bench_small_world bench_faults bench_serve \
           bench_multi_source bench_stream; do
    extra=()
    [[ "$b" == bench_faults ]] && extra=(--smoke)
    ./build-bench/bench/"$b" "${extra[@]}" \
      --benchmark_filter='^structnet_smoke_none$' 2>/dev/null |
      tee "$bench_out/$b.out" |
      python3 -c '
import json, sys
name = sys.argv[1]
lines = [l.strip() for l in sys.stdin if l.startswith("{")]
if not lines:
    sys.exit(name + ": no BENCH JSON lines emitted")
for l in lines:
    rec = json.loads(l)
    if "bench" not in rec and "metrics" not in rec:
        sys.exit(name + ": JSON line missing bench/metrics key: " + l)
print(name + ": " + str(len(lines)) + " BENCH/METRICS JSON lines parse")
' "$b"
  done

  echo "== churn gate: delta planner amortizes CSR builds at >= 10x =="
  # Kernel-level: folding 1% churn into the delta overlay must beat a
  # full rebuild by >= 10x with bit-identical kernel results.
  # Serve-level: under a churn workload the delta broker's serve.csr_builds
  # stays bounded by 1 + compactions while serve.csr_delta_appends grows;
  # the legacy broker rebuilds every epoch.
  python3 - "$bench_out/bench_temporal_paths.out" "$bench_out/bench_serve.out" <<'PYEOF'
import json, sys

def recs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{")]

churn = [r for r in recs(sys.argv[1])
         if r.get("bench") == "churn_index_maintenance"]
if not churn:
    sys.exit("churn gate: no churn_index_maintenance record")
c = churn[0]
if c["results_match"] != "yes":
    sys.exit("churn gate: delta kernels diverged from rebuilt CSR")
if c["speedup_vs_rebuild"] < 10.0:
    sys.exit("churn gate: planning speedup %.2fx < 10x"
             % c["speedup_vs_rebuild"])

serve = {r["impl"]: r for r in recs(sys.argv[2])
         if r.get("bench") == "serve_churn"}
d, l = serve.get("delta"), serve.get("legacy")
if d is None or l is None:
    sys.exit("churn gate: missing serve_churn delta/legacy records")
if d["results_match"] != "yes":
    sys.exit("churn gate: delta serving results diverged from legacy")
if d["csr_delta_appends"] == 0:
    sys.exit("churn gate: delta planner recorded no csr_delta_appends")
if d["csr_builds"] > 1 + d["csr_compactions"]:
    sys.exit("churn gate: csr_builds %d exceeds 1 + compactions %d"
             % (d["csr_builds"], d["csr_compactions"]))
if l["csr_builds"] <= d["csr_builds"]:
    sys.exit("churn gate: legacy builds %d not above delta builds %d"
             % (l["csr_builds"], d["csr_builds"]))
print("churn gate: %.1fx planning speedup; delta builds %d vs legacy %d, "
      "%d delta appends" % (c["speedup_vs_rebuild"], d["csr_builds"],
                            l["csr_builds"], d["csr_delta_appends"]))
PYEOF

  echo "== recovery gate: WAL crash matrix + throughput JSON shape =="
  # bench_faults --smoke already exited nonzero on any crash-matrix
  # divergence (it truncates the WAL at every record boundary plus
  # random byte offsets and asserts bit-identical recovered state,
  # including a corrupted-newest-checkpoint fallback); this gate
  # re-asserts the records it emitted so a silently-skipped matrix or a
  # malformed WAL-throughput table also fails the check.
  python3 - "$bench_out/bench_faults.out" <<'PYEOF'
import json, sys

def recs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{")]

rows = recs(sys.argv[1])
matrix = [r for r in rows if r.get("bench") == "fault_wal_crash_matrix"]
if not matrix:
    sys.exit("recovery gate: no fault_wal_crash_matrix record")
m = matrix[0]
if m["passed"] != m["cuts"] or m["cuts"] < m["accepted"] + 1:
    sys.exit("recovery gate: crash matrix %d/%d cuts (accepted %d)"
             % (m["passed"], m["cuts"], m["accepted"]))

wal = [r for r in rows if r.get("bench") == "fault_wal"]
grid = {(r["group_commit"], r["fsync"]) for r in wal}
need = {(g, f) for g in (1, 64, 0) for f in (1.0, 0.0)}
if not need <= grid:
    sys.exit("recovery gate: WAL throughput grid incomplete: %s" % grid)
for r in wal:
    if r["events_per_sec"] <= 0 or r["events"] <= 0:
        sys.exit("recovery gate: degenerate WAL throughput row: %s" % r)

rec = {r["mode"]: r for r in rows if r.get("bench") == "fault_wal_recovery"}
if set(rec) != {"wal_only", "checkpointed"}:
    sys.exit("recovery gate: missing fault_wal_recovery modes: %s"
             % sorted(rec))
if rec["checkpointed"]["replayed"] >= rec["wal_only"]["replayed"]:
    sys.exit("recovery gate: checkpoint anchor did not shorten replay "
             "(%d vs %d)" % (rec["checkpointed"]["replayed"],
                             rec["wal_only"]["replayed"]))
print("recovery gate: crash matrix %d/%d cuts, WAL grid %d rows, "
      "replay %d -> %d events with a checkpoint anchor"
      % (m["passed"], m["cuts"], len(wal),
         rec["wal_only"]["replayed"], rec["checkpointed"]["replayed"]))
PYEOF

  echo "== multi-source gate: lane-packed sweeps match scalar at >= 4x =="
  # Every multi_source_sweep record must be bit-identical to the scalar
  # kernel (results_match) and the smoke instance must clear 4x single
  # thread; the serving-side lane packer must save sweeps that grow
  # with queue depth while staying payload-identical to the scalar
  # planner.
  python3 - "$bench_out/bench_multi_source.out" "$bench_out/bench_serve.out" <<'PYEOF'
import json, sys

def recs(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip().startswith("{")]

sweeps = {r["instance"]: r for r in recs(sys.argv[1])
          if r.get("bench") == "multi_source_sweep"}
if not {"smoke", "allpairs20k"} <= set(sweeps):
    sys.exit("multi-source gate: missing sweep instances: %s"
             % sorted(sweeps))
for name, r in sweeps.items():
    if r["results_match"] != "yes":
        sys.exit("multi-source gate: %s lanes diverged from scalar" % name)
if sweeps["smoke"]["speedup_vs_scalar"] < 4.0:
    sys.exit("multi-source gate: smoke speedup %.2fx < 4x"
             % sweeps["smoke"]["speedup_vs_scalar"])

packs = sorted((r for r in recs(sys.argv[2])
                if r.get("bench") == "serve_lane_pack"),
               key=lambda r: r["queued"])
if len(packs) < 2:
    sys.exit("multi-source gate: fewer than 2 serve_lane_pack rows")
for r in packs:
    if r["results_match"] != "yes":
        sys.exit("multi-source gate: packed serving payloads diverged "
                 "at queued=%d" % r["queued"])
    if r["sweeps_saved"] == 0:
        sys.exit("multi-source gate: no sweeps saved at queued=%d"
                 % r["queued"])
saved = [r["sweeps_saved"] for r in packs]
if saved != sorted(saved) or saved[0] == saved[-1]:
    sys.exit("multi-source gate: sweeps_saved not growing with depth: %s"
             % saved)
print("multi-source gate: smoke %.1fx, 20k %.1fx, serve saves %s sweeps"
      % (sweeps["smoke"]["speedup_vs_scalar"],
         sweeps["allpairs20k"]["speedup_vs_scalar"], saved))
PYEOF
  echo "== view fold gate: temporal view equals its log-replay rebuild =="
  # bench_stream's temporal_view_fold row folds a 2,000-person
  # social-feature trace into a TemporalViewObserver (5 timed runs) and
  # compares each result with recompute() replaying the engine's log.
  python3 - "$bench_out/bench_stream.out" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    rows = [json.loads(l) for l in f if l.strip().startswith("{")]
fold = [r for r in rows if r.get("bench") == "temporal_view_fold"]
if not fold:
    sys.exit("view fold gate: no temporal_view_fold record")
r = fold[0]
if r["results_match"] != "yes":
    sys.exit("view fold gate: folded view diverged from the log replay")
if r["events"] == 0 or r["ns_per_op"] <= 0:
    sys.exit("view fold gate: degenerate row: %s" % r)
print("view fold gate: %d events at %.0f ns/event (min %.0f, max %.0f)"
      % (r["events"], r["ns_per_op"], r["ns_min"], r["ns_max"]))
PYEOF
  rm -rf "$bench_out"

  echo "== obs smoke: traced serving run must emit a valid Chrome trace =="
  # bench_serve --smoke installs a TraceSink, drives a deterministic
  # single-threaded workload, cross-checks ServeStats against the
  # broker registry (exits nonzero on any mismatch), and writes the
  # Chrome trace_event JSON to $STRUCTNET_TRACE_OUT.
  trace_out="$(mktemp)"
  STRUCTNET_TRACE_OUT="$trace_out" ./build-bench/bench/bench_serve --smoke |
    python3 -c '
import json, sys
lines = [l.strip() for l in sys.stdin if l.startswith("{")]
if not lines:
    sys.exit("bench_serve --smoke: no JSON lines emitted")
for l in lines:
    rec = json.loads(l)
    if "bench" not in rec and "metrics" not in rec:
        sys.exit("bench_serve --smoke: JSON line missing bench/metrics key: " + l)
print("bench_serve --smoke: " + str(len(lines)) + " JSON lines parse")
'
  python3 - "$trace_out" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
if not events:
    sys.exit("obs smoke: empty Chrome trace")
names = {e["name"] for e in events}
need = ["serve.flush", "serve.admission", "serve.plan",
        "serve.execute", "serve.cache"]
missing = [n for n in need if n not in names]
if missing:
    sys.exit("obs smoke: trace missing spans: " + ", ".join(missing))
if not any(n.startswith("serve.kernel.") for n in names):
    sys.exit("obs smoke: trace has no per-query kernel spans")
for e in events:
    for key in ("name", "ph", "pid", "tid", "ts", "dur"):
        if key not in e:
            sys.exit("obs smoke: trace event missing field " + key)
print("obs smoke: %d trace events, %d span names, nesting OK"
      % (len(events), len(names)))
PYEOF
  rm -f "$trace_out"
fi

echo "check.sh: OK"
