#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> matcher equivalence (tokenized vs linear reference)"
cargo test -q -p redlight-blocklist --test matcher_equivalence

echo "==> transport fault matrix (determinism, passthrough, retry budget)"
cargo test -q --test transport_faults

echo "==> shard map/reduce equivalence (per-shard merge == monolithic)"
# The workspace run above already covers the full 256-case sweep; this
# named step re-confirms with a smaller draw so the gate stays fast.
PROPTEST_CASES=32 cargo test -q --test shard_equivalence

echo "==> batch classification equivalence (batched == per-request verdicts)"
PROPTEST_CASES=64 cargo test -q --test batch_equivalence

echo "==> sim kernel properties (total order, cancellation, monotone drain)"
PROPTEST_CASES=64 cargo test -q -p redlight-sim --test kernel_props

echo "==> traffic determinism (seed-pinned report, journal, logical walls)"
cargo test -q --test traffic_determinism

echo "==> time-accounting equivalence (any SimSpec renders the same study)"
cargo test -q --test sim_equivalence

echo "==> fault oracle differential (injector and traffic fleet follow FaultOracle::fate)"
cargo test -q --test transport_faults fault_transport_agrees_with_the_oracle
cargo test -q -p redlight-sim --lib host_fleet_faults_follow_the_oracle

# `--test` smoke runs write their BENCH_*.json rows under target/bench-smoke/;
# the committed root files hold full-mode rows only.
echo "==> ats_match bench smoke (--test mode, 1 iteration per bench)"
cargo bench -p redlight-bench --bench ats_match -- --test

echo "==> transport bench smoke (--test mode, 1 iteration per bench)"
cargo bench -p redlight-bench --bench transport -- --test

echo "==> scale bench smoke (--test mode, 1x sweep only)"
cargo bench -p redlight-bench --bench scale -- --test

echo "==> hotpath bench smoke (--test mode, 1x sweep, JSON keys validated)"
cargo bench -p redlight-bench --bench hotpath -- --test
python3 - <<'PYEOF'
import json
doc = json.load(open("target/bench-smoke/BENCH_hotpath.json"))
assert doc["bench"] == "hotpath", doc
rows = doc["rows"]
assert rows, "hotpath sweep produced no rows"
keys = {
    "scale", "requests", "visits", "per_request_rps", "batch_rps", "speedup",
    "per_request_allocs_per_visit", "batch_allocs_per_visit",
    "interned_bytes_per_visit", "prefilter_hit_rate",
}
for row in rows:
    missing = keys - row.keys()
    assert not missing, f"hotpath row lacks {sorted(missing)}"
    assert row["requests"] > 0 and row["batch_rps"] > 0, row
    assert 0.0 <= row["prefilter_hit_rate"] <= 1.0, row
print(f"hotpath OK: {len(rows)} row(s), {rows[0]['requests']} requests at 1x")
PYEOF

echo "==> traffic bench smoke (--test mode, small sweep, JSON keys validated)"
cargo bench -p redlight-bench --bench traffic -- --test
python3 - <<'PYEOF'
import json
doc = json.load(open("target/bench-smoke/BENCH_traffic.json"))
assert doc["bench"] == "traffic", doc
rows = doc["rows"]
assert rows, "traffic sweep produced no rows"
keys = {
    "sessions", "events", "requests", "events_per_wall_sec",
    "sessions_per_wall_sec", "logical_sessions_per_sec",
    "logical_requests_per_sec", "makespan_s", "request_p50_us",
    "request_p95_us", "request_p99_us", "page_p50_us", "page_p99_us",
    "peak_in_flight", "peak_queue", "kernel_wall_s", "total_wall_s",
}
for row in rows:
    missing = keys - row.keys()
    assert not missing, f"traffic row lacks {sorted(missing)}"
    assert row["sessions"] > 0 and row["events"] > 0, row
    assert row["request_p99_us"] >= row["request_p50_us"], row
print(f"traffic OK: {len(rows)} row(s), {rows[0]['sessions']} sessions")
PYEOF

echo "==> observability exporter smoke (collection-only, all three formats)"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run --release -q -p redlight-bench --bin reproduce -- \
  --collect-only --seed 11 \
  --trace "$OBS_DIR/trace.json" \
  --trace-events "$OBS_DIR/trace.jsonl" \
  --metrics "$OBS_DIR/metrics.prom"
python3 - "$OBS_DIR" <<'PYEOF'
import json, sys
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"] if isinstance(trace, dict) else trace
begins = sum(1 for e in events if e.get("ph") == "B")
ends = sum(1 for e in events if e.get("ph") == "E")
assert begins > 0, "Chrome trace has no begin events"
assert begins == ends, f"unbalanced trace: {begins} B vs {ends} E"
lines = [json.loads(l) for l in open(f"{d}/trace.jsonl") if l.strip()]
assert len(lines) == begins, f"{len(lines)} journal lines vs {begins} spans"
prom = open(f"{d}/metrics.prom").read()
assert "transport_requests" in prom, "metrics exposition lacks transport counters"
print(f"exporters OK: {begins} spans, {len(prom.splitlines())} metric lines")
PYEOF

echo "==> timeline bench smoke (--test mode, JSON keys validated)"
cargo bench -p redlight-bench --bench timeline -- --test
python3 - <<'PYEOF'
import json
doc = json.load(open("target/bench-smoke/BENCH_timeline.json"))
assert doc["bench"] == "timeline", doc
rows = doc["rows"]
assert rows, "timeline bench produced no rows"
keys = {
    "sessions", "events", "windows", "slo_events", "flight_freezes",
    "base_events_per_sec", "timeline_events_per_sec", "overhead_pct",
}
for row in rows:
    missing = keys - row.keys()
    assert not missing, f"timeline row lacks {sorted(missing)}"
    assert row["sessions"] > 0 and row["windows"] > 0, row
    assert row["base_events_per_sec"] > 0 and row["timeline_events_per_sec"] > 0, row
print(f"timeline OK: {len(rows)} row(s), {rows[0]['windows']} windows")
PYEOF

echo "==> committed bench results untouched by the smokes"
git diff --exit-code -- 'BENCH_*.json'

echo "==> timeline export smoke (traffic run, JSON-lines + CSV validated)"
cargo run --release -q -p redlight-bench --bin reproduce -- \
  --traffic 2000 --seed 11 --timeline "$OBS_DIR/timeline.jsonl"
python3 - "$OBS_DIR" <<'PYEOF'
import csv, json, sys
d = sys.argv[1]
lines = [json.loads(l) for l in open(f"{d}/timeline.jsonl") if l.strip()]
assert lines and lines[0]["type"] == "meta", "first line must be the meta row"
meta = lines[0]
for key in ("window_ns", "windows", "counters", "gauges", "histograms",
            "histogram_minmax"):
    assert key in meta, f"meta row lacks {key}"
windows = [l for l in lines if l["type"] == "window"]
assert len(windows) == meta["windows"], "meta window count must match rows"
for w in windows:
    assert set(w["counters"]) == set(meta["counters"]), w
    assert set(w["gauges"]) == set(meta["gauges"]), w
    assert set(w["histograms"]) == set(meta["histograms"]), w
total = sum(w["counters"]["traffic.requests"] for w in windows)
assert total > 0, "windowed request deltas must be non-trivial"
tail_types = {l["type"] for l in lines} - {"meta", "window"}
assert "flight" in tail_types, "flight summary line missing"
rows = list(csv.DictReader(open(f"{d}/timeline.csv")))
assert len(rows) == len(windows), "CSV rows must mirror the JSON windows"
assert sum(int(r["traffic.requests"]) for r in rows) == total, "CSV != JSONL"
print(f"timeline export OK: {len(windows)} windows, {total} requests")
PYEOF

echo "OK"
