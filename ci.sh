#!/usr/bin/env bash
# Repo gate: build, tests, lints, formatting. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")"

# step NAME SECONDS CMD...: run one test or smoke step under a
# wall-clock bound, so a hang fails the gate and names the step instead
# of wedging the run.
step() {
  local name=$1 secs=$2 rc=0
  shift 2
  timeout -k 10 "$secs" "$@" || rc=$?
  if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
    echo "ci: step '$name' hung: killed after ${secs}s" >&2
    exit 1
  elif [ "$rc" -ne 0 ]; then
    echo "ci: step '$name' failed (exit $rc)" >&2
    exit "$rc"
  fi
}

cargo build --release --workspace
# Compile the test binaries unbounded; the bound below is on running them.
cargo test -q --workspace --no-run
# The bounded test step is the tier-1 command verbatim; the workspace's
# default-members make it cover every crate.
step "cargo test" 600 cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Observability smoke: a real (quick) run under a TimelineRecorder must
# produce a parseable per-phase JSON report. The binary itself
# validates every line it writes (panda_obs::json::validate) and exits
# nonzero otherwise; python double-checks with an independent parser
# when available.
obs_out=$(mktemp /tmp/panda_phases_ci.XXXXXX.json)
step "phases smoke" 300 cargo run --release -q -p panda-bench --bin phases -- --quick --out "$obs_out"
if command -v python3 >/dev/null; then
  python3 -c "import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]" "$obs_out"
fi
rm -f "$obs_out"

# Group-concurrency smoke: a quick sequential-vs-batched 4-array run
# must complete (the binary asserts byte-identical files between the
# two modes and validates every JSON line it writes).
group_out=$(mktemp /tmp/panda_group_ci.XXXXXX.json)
step "group_timestep smoke" 300 cargo run --release -q -p panda-bench --bin group_timestep -- --quick --out "$group_out"
if command -v python3 >/dev/null; then
  python3 -c "import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]" "$group_out"
fi
rm -f "$group_out"

# Disk-backend smoke: a quick LocalFs-vs-SubmitFs sweep across sync
# policies must complete (the binary asserts every cell lands
# byte-identical files and validates its JSON output).
disk_out=$(mktemp /tmp/panda_disk_ci.XXXXXX.json)
step "disk smoke" 300 cargo run --release -q -p panda-bench --bin disk -- --quick --out "$disk_out"
if command -v python3 >/dev/null; then
  python3 -c "import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]" "$disk_out"
fi
rm -f "$disk_out"

# Tenancy smoke: a quick sequential-vs-interleaved multi-session sweep
# must complete (the binary asserts byte-identical files between the
# two scheduling modes per tenant count and validates its JSON output).
tenancy_out=$(mktemp /tmp/panda_tenancy_ci.XXXXXX.json)
step "tenancy smoke" 300 cargo run --release -q -p panda-bench --bin tenancy -- --quick --out "$tenancy_out"
if command -v python3 >/dev/null; then
  python3 -c "import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]" "$tenancy_out"
fi
rm -f "$tenancy_out"

# Tuner smoke: calibrate on each backend profile and race the tuned
# operating point against fixed depths. The gate: on MemFs the tuned
# cell must not be more than 5% slower than the best fixed-depth cell
# — the auto-tuner is allowed to tie, never to clearly lose.
tuner_out=$(mktemp /tmp/panda_tuner_ci.XXXXXX.json)
step "tuner smoke" 300 cargo run --release -q -p panda-bench --bin tuner -- --quick --out "$tuner_out"
if command -v python3 >/dev/null; then
  python3 - "$tuner_out" <<'PY'
import json, sys
cells = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
memfs = [c for c in cells if c["profile"] == "memfs"]
assert memfs, "tuner bench emitted no memfs cells"
tuned = [c for c in memfs if c["mode"] == "tuned"]
fixed = [c for c in memfs if c["mode"].startswith("fixed/")]
assert len(tuned) == 1 and fixed, "memfs profile missing tuned or fixed cells"
best_fixed = min(c["measured_wall_s"] for c in fixed)
wall = tuned[0]["measured_wall_s"]
assert wall <= 1.05 * best_fixed, (
    f"tuned cell {wall:.6f}s is >5% slower than best fixed {best_fixed:.6f}s"
)
print(f"tuner gate: tuned {wall:.6f}s vs best fixed {best_fixed:.6f}s ok")
PY
fi
rm -f "$tuner_out"

# Telemetry-plane smoke: the obs bench runs the MemFs pipeline under
# NullRecorder vs MetricsHub (and friends), throttles a live service
# mid-run, and scrapes /metrics + /healthz from it over TCP. The
# binary itself asserts the drift detector stays quiet on-model and
# fires after the throttle flip; python gates the numbers: hub
# overhead <= 3%, triggered retune recovers >= 80% of a fresh manual
# calibration, and every scraped Prometheus line parses.
obsplane_out=$(mktemp /tmp/panda_obs_ci.XXXXXX.json)
step "obs smoke" 300 cargo run --release -q -p panda-bench --bin obs -- --quick --out "$obsplane_out"
if command -v python3 >/dev/null; then
  python3 - "$obsplane_out" <<'PY'
import json, re, sys
rows = {c["id"]: c for l in open(sys.argv[1]) if l.strip() for c in [json.loads(l)]}
hub = rows["obs/overhead/hub"]
assert hub["overhead_pct"] <= 3.0, (
    f"MetricsHub overhead {hub['overhead_pct']:.2f}% exceeds the 3% budget"
)
assert rows["obs/drift/baseline"]["drifted"] == 0, "detector fired on-model"
thr = rows["obs/drift/throttled"]
assert thr["drifted"] == 1, "drift detector failed to fire on the throttled backend"
ret = rows["obs/drift/retuned"]
assert ret["recovery_vs_manual"] >= 0.8, (
    f"triggered retune recovered only {ret['recovery_vs_manual']:.2f} of manual"
)
scrape = rows["obs/scrape"]
line_re = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+)$"
)
lines = [l for l in scrape["metrics_text"].splitlines() if l.strip()]
bad = [l for l in lines if not line_re.match(l)]
assert not bad, f"unparseable Prometheus lines: {bad[:3]}"
for family in ("panda_events_total", "panda_health_status", "panda_live_requests"):
    assert any(l.startswith(family) for l in lines), f"missing family {family}"
assert scrape["healthz"]["status"] == "ok", scrape["healthz"]
print(
    f"obs gate: hub overhead {hub['overhead_pct']:.2f}%, drift score "
    f"{thr['drift_score']:.2f}, recovery {ret['recovery_vs_manual']:.2f}, "
    f"{len(lines)} metric lines ok"
)
PY
fi
rm -f "$obsplane_out"

echo "ci: all green"
