#!/usr/bin/env bash
# Build and run the hot-path benchmark; optionally append the JSON
# trajectory point to the file the repo commits as BENCH_hotpath.json.
#
# Usage:
#   scripts/run_bench.sh                 # full run, human-readable
#   scripts/run_bench.sh --json          # full run, append to BENCH_hotpath.json
#   scripts/run_bench.sh --json --smoke  # fast run -> BENCH_hotpath.smoke.json
#   scripts/run_bench.sh --workers 1,2,4,8   # server-worker sweep for section 4
#   scripts/run_bench.sh --build-dir out # custom build directory
#
# BENCH_hotpath.json is a JSON *array* of runs — the perf trajectory; each
# --json invocation appends one run (a legacy single-object file is wrapped
# into the first trajectory point automatically).  Smoke output goes to a
# separate file so reproducing the CI step locally can never clobber the
# committed full-run trajectory (smoke throughput is noise-dominated; only
# its structural assertions are comparable).
#
# Every number is a wall-clock measurement of the real code.  A full run
# needs at least 4 hardware threads (the worker-pool, stealing and
# multi-root sections measure parallel hardware) and exits with status 2
# on a narrower host; --smoke runs anywhere.  The "mode" fields of the
# pool and multi-root sections read "wall_clock"; older trajectory points
# that read "modeled" came from a virtual-clock fallback that is gone, so
# compare a point only with points of the same mode.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build"
json=0
smoke=0
workers=""
jobs="$(nproc 2>/dev/null || echo 2)"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --json)  json=1; shift ;;
    --smoke) smoke=1; shift ;;
    --workers)
      [[ $# -ge 2 ]] || { echo "error: --workers needs a list, e.g. 1,2,4" >&2; exit 2; }
      workers="$2"; shift 2 ;;
    --build-dir)
      [[ $# -ge 2 ]] || { echo "error: --build-dir needs a path" >&2; exit 2; }
      build_dir="$2"; shift 2 ;;
    -j|--jobs)
      [[ $# -ge 2 ]] || { echo "error: $1 needs a number" >&2; exit 2; }
      jobs="$2"; shift 2 ;;
    -h|--help)
      sed -n '2,11p' "$0"; exit 0 ;;
    *)
      echo "error: unknown argument '$1' (see --help)" >&2; exit 2 ;;
  esac
done

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs" --target bench_hotpath

# Appends one run object to a trajectory file (a JSON array of runs).
append_trajectory() {
  local target="$1" newrun="$2" tmp="$1.tmp"
  if [[ ! -s "$target" ]]; then
    { echo "["; cat "$newrun"; echo "]"; } > "$target"
    return
  fi
  if [[ "$(head -c 1 "$target")" == "[" ]]; then
    # The append rewrites textually, so insist on the format this script
    # itself produces (closing "]" alone on the last line) rather than
    # silently corrupting a reformatted file.
    if [[ "$(tail -n 1 "$target")" != "]" ]]; then
      echo "error: $target is not in this script's trajectory format" \
           "(expected a closing ']' on its own last line); re-format or" \
           "remove it before appending" >&2
      exit 1
    fi
    sed '$d' "$target" > "$tmp"        # drop the closing "]"
  else
    { echo "["; cat "$target"; } > "$tmp"  # wrap a legacy single-run file
  fi
  { echo ","; cat "$newrun"; echo "]"; } >> "$tmp"
  mv "$tmp" "$target"
}

args=()
json_out="$repo_root/BENCH_hotpath.json"
[[ "$smoke" -eq 1 ]] && { args+=(--smoke); json_out="$repo_root/BENCH_hotpath.smoke.json"; }
[[ -n "$workers" ]] && args+=(--workers "$workers")

if [[ "$json" -eq 1 ]]; then
  run_json="$(mktemp)"
  trap 'rm -f "$run_json"' EXIT
  "$build_dir/bench/bench_hotpath" "${args[@]}" --json "$run_json"
  append_trajectory "$json_out" "$run_json"
  echo "appended run to $json_out"
else
  "$build_dir/bench/bench_hotpath" "${args[@]}"
fi
