#!/usr/bin/env bash
# Repeatable kernel-benchmark baseline for the viz kernels.
#
# Runs bench/micro_kernels with google-benchmark's JSON output and folds
# the per-kernel medians into BENCH_kernels.json at the repo root:
#
#   tools/bench_kernels.sh                 # refresh the "current" section
#   tools/bench_kernels.sh --set-baseline  # record this run as the baseline
#   tools/bench_kernels.sh --quick         # single short rep (CI smoke)
#
# The baseline and current sections each carry the commit and date they
# were measured at; "speedup" is baseline/current per kernel.  Compare
# numbers only when both sections come from the same machine.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
BIN="$BUILD_DIR/bench/micro_kernels"
OUT="${OUT:-$REPO_ROOT/BENCH_kernels.json}"
REPETITIONS="${REPETITIONS:-5}"
SET_BASELINE=0
QUICK=0

for arg in "$@"; do
  case "$arg" in
    --set-baseline) SET_BASELINE=1 ;;
    --quick) QUICK=1 ;;
    -h|--help)
      sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

if [[ ! -x "$BIN" ]]; then
  echo "benchmark binary not found at $BIN — build the repo first" >&2
  echo "(cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

RAW="$(mktemp /tmp/bench_kernels.XXXXXX.json)"
trap 'rm -f "$RAW"' EXIT

if [[ "$QUICK" -eq 1 ]]; then
  "$BIN" --benchmark_min_time=0.05 \
         --benchmark_format=json \
         --benchmark_out="$RAW" --benchmark_out_format=json >/dev/null
else
  "$BIN" --benchmark_repetitions="$REPETITIONS" \
         --benchmark_report_aggregates_only=true \
         --benchmark_format=json \
         --benchmark_out="$RAW" --benchmark_out_format=json >/dev/null
fi

COMMIT="$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
# Our CMAKE_BUILD_TYPE, not google-benchmark's (library_build_type says
# how libbenchmark itself was compiled).
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"

RAW="$RAW" OUT="$OUT" COMMIT="$COMMIT" DATE="$DATE" BUILD_TYPE="$BUILD_TYPE" \
SET_BASELINE="$SET_BASELINE" QUICK="$QUICK" python3 - <<'PY'
import json, os

raw_path = os.environ["RAW"]
out_path = os.environ["OUT"]
quick = os.environ["QUICK"] == "1"
set_baseline = os.environ["SET_BASELINE"] == "1"

raw = json.load(open(raw_path))
# Benchmarks report in their declared time_unit (->Unit(...)); normalize
# everything to milliseconds.
to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
kernels = {}
rates = {}  # items_per_second, for the throughput-style rows (flow)
for b in raw["benchmarks"]:
    name = b["name"]
    ms = b["real_time"] * to_ms[b.get("time_unit", "ns")]
    # With repetitions we keep the median aggregate; a quick run has the
    # plain entries only.
    if quick:
        if b.get("run_type") == "iteration":
            kernels[name] = round(ms, 6)
            if "items_per_second" in b:
                rates[name] = b["items_per_second"]
    elif name.endswith("_median"):
        kernels[name[: -len("_median")]] = round(ms, 6)
        if "items_per_second" in b:
            rates[name[: -len("_median")]] = b["items_per_second"]

section = {
    "commit": os.environ["COMMIT"],
    "date": os.environ["DATE"],
    "time_unit": "ms",
    "kernels": kernels,
}

doc = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)

ctx = raw.get("context", {})
doc["host"] = {
    "num_cpus": ctx.get("num_cpus"),
    "mhz_per_cpu": ctx.get("mhz_per_cpu"),
    "build_type": os.environ["BUILD_TYPE"] or None,
    "library_build_type": ctx.get("library_build_type"),
}

if set_baseline or "baseline" not in doc:
    doc["baseline"] = section
doc["current"] = section if not set_baseline else doc.get("current", section)

base = doc["baseline"]["kernels"]
cur = doc["current"]["kernels"]
doc["speedup"] = {
    k: round(base[k] / cur[k], 3) for k in sorted(base) if k in cur and cur[k] > 0
}

# Per-width columns: fold BM_<Kernel>Backend/<serial|threaded>/<size> rows
# into one table row per (kernel, size).  `serial` runs on a one-thread
# pool and `threaded` on the hardware-width pool, over the same chunks
# and inner loops, so serial vs threaded is the pool's parallel speedup.
backends = {}
for name, ms in cur.items():
    parts = name.split("/")
    if len(parts) == 3 and parts[0].endswith("Backend"):
        kernel = parts[0][len("BM_") : -len("Backend")]
        row = backends.setdefault(f"{kernel}/{parts[2]}", {})
        row[parts[1]] = ms
if backends:
    doc["backends"] = {
        "time_unit": "ms",
        "kernels": dict(sorted(backends.items())),
    }

# Flow table: BM_AdvectFlow/<column>/<particles> rows fold into one row
# per particle count — the legacy/worksteal milliseconds, the work-steal
# RK4 step rate and the pipeline speedup (legacy over worksteal).
flow = {}
for name, ms in cur.items():
    parts = name.split("/")
    if len(parts) == 3 and parts[0] == "BM_AdvectFlow":
        row = flow.setdefault(int(parts[2]), {})
        row[f"{parts[1]}_ms"] = ms
        rate = rates.get(name)
        if rate is not None:
            row[f"{parts[1]}_steps_per_sec"] = round(rate)
for row in flow.values():
    if row.get("worksteal_ms") and row.get("legacy_ms"):
        row["pipeline_speedup"] = round(row["legacy_ms"] / row["worksteal_ms"], 3)
if flow:
    doc["flow"] = {
        "time_unit": "ms",
        "field": "vortex-trap (early-termination-heavy)",
        # Flow rates are only meaningful relative to the core count
        # they ran on; record it next to the numbers.
        "host_cpus": ctx.get("num_cpus"),
        "particles": {str(k): flow[k] for k in sorted(flow)},
    }

# Blocks table: BM_ContourBlocks/<blocks>/<size> rows fold into one row
# per (blocks, size) — the wall-clock milliseconds for the full
# multi-block path (partition, ghost exchange, per-block contour,
# gather) plus the overhead against the undecomposed blocks=1 row at
# the same size.  Outputs are bit-identical across block counts (the
# golden multi-block suite pins that), so overhead > 1.0 is pure
# decomposition cost.
blocks = {}
for name, ms in cur.items():
    parts = name.split("/")
    if len(parts) == 3 and parts[0] == "BM_ContourBlocks":
        blocks.setdefault(int(parts[2]), {})[int(parts[1])] = ms
if blocks:
    table = {}
    for size in sorted(blocks):
        rows = blocks[size]
        ref = rows.get(1)
        table[str(size)] = {
            str(b): {
                "ms": rows[b],
                **({"overhead_vs_single_block": round(rows[b] / ref, 3)}
                   if ref else {}),
            }
            for b in sorted(rows)
        }
    doc["blocks"] = {
        "time_unit": "ms",
        "kernel": "contour (10 isovalues, algorithm layer)",
        "host_cpus": ctx.get("num_cpus"),
        "sizes": table,
    }

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

print(f"wrote {out_path}")
for k in sorted(cur):
    s = doc["speedup"].get(k)
    note = f"  speedup {s:.2f}x" if s else ""
    print(f"  {k:28s} {cur[k]:10.3f} ms{note}")
PY
