#!/usr/bin/env sh
# Regenerates the checked-in bench baselines under bench/baselines/ from
# a built tree. Run after an INTENDED change to bench output (new cells,
# new fields, a deliberate perf characteristic shift), then commit the
# diff — CI's release-smoke job gates every run against these files.
#
# Usage: tools/update_baselines.sh [build-dir] [name...]
#   build-dir  defaults to build
#   name       baselines to rerun and rewrite, e.g. `kernel` for
#              BENCH_kernel.json; with none, all nine are rewritten
#              (simspeed kernel faults topology trace hybrid serve
#              model_fit paper)
set -eu

build="${1:-build}"
[ $# -gt 0 ] && shift
all="simspeed kernel faults topology trace hybrid serve model_fit paper"
names="${*:-$all}"
for b in $names; do
  case " $all " in
    *" $b "*) ;;
    *) echo "unknown baseline '$b' (known: $all)" >&2; exit 2 ;;
  esac
done

repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
baselines="$repo/bench/baselines"
compare="$repo/$build/tools/bench_compare"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

run() {
  name="$1"; shift
  echo "== $name"
  # Run from a scratch dir so side artifacts (chrome traces) stay out of
  # the repo, and route each report through bench_compare
  # --update-baseline so it is validated before it lands.
  (cd "$scratch" && "$repo/$build/bench/$name" "$@" >/dev/null)
}

# Every report is produced before any baseline is touched, so a failing
# bench leaves bench/baselines/ as it was.
for b in $names; do
  case "$b" in
    kernel) run bench_kernel --smoke --json="$scratch/BENCH_kernel.json" ;;
    trace)  run bench_trace --smoke --report="$scratch/BENCH_trace.json" \
                --trace=BENCH_trace.chrome.json ;;
    *)      run "bench_$b" --smoke --report="$scratch/BENCH_$b.json" ;;
  esac
done

mkdir -p "$baselines"
for b in $names; do
  "$compare" --update-baseline \
    "$baselines/BENCH_$b.json" "$scratch/BENCH_$b.json"
done
echo "baselines updated ($names); review with: git diff bench/baselines/"
