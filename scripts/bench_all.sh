#!/usr/bin/env bash
# Runs every bench binary of a build tree, one at a time, each under a
# 600 s timeout, and prints one line per bench: its exit code and the host
# wall, user and sys seconds it cost. Each bench's output goes to
# results/<bench>.txt (benches that export JSON also write results/*.json).
#
# Usage: scripts/bench_all.sh [-b BUILD_DIR]
#   -b BUILD_DIR build tree holding bench/bench_* (default: build)
#
# Exit code 124 on a bench line means it timed out. The script exits 1 if
# any bench exited nonzero, 2 on bad usage.
set -u
cd "$(dirname "$0")/.." || exit 2

build=build
while getopts "b:h" opt; do
  case $opt in
    b) build=$OPTARG ;;
    *) sed -n '2,11p' "$0"; exit 2 ;;
  esac
done

if ! compgen -G "$build/bench/bench_*" > /dev/null; then
  echo "no $build/bench/bench_* binaries; build the tree first" >&2
  exit 2
fi

mkdir -p results
timing=$(mktemp)
trap 'rm -f "$timing"' EXIT
TIMEFORMAT='%R %U %S'
failed=0
printf '%-32s %5s %9s %9s %9s\n' bench exit wall_s user_s sys_s
for bin in "$build"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  { time timeout 600 "$bin" > "results/$name.txt" 2>&1; } 2> "$timing"
  rc=$?
  read -r wall user sys < "$timing"
  printf '%-32s %5d %9s %9s %9s\n' "$name" "$rc" "$wall" "$user" "$sys"
  [ $rc -eq 0 ] || failed=1
done
exit $failed
