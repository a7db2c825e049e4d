#!/usr/bin/env bash
# Runs every bench that bench/CMakeLists.txt declares (its vedb_bench(...)
# and add_executable(bench_...) lines) from a build tree, one at a time,
# each under a 600 s timeout, and prints one line per bench: its exit code, the host
# wall, user and sys seconds it cost and its peak resident set (MiB). Each
# bench's output goes to results/<bench>.txt (benches that export JSON also
# write results/*.json).
#
# Usage: scripts/bench_all.sh [-b BUILD_DIR]
#   -b BUILD_DIR build tree holding bench/bench_* (default: build)
#
# Exit code 124 on a bench line means it timed out. A bench_* binary that
# the CMake file no longer declares (left over in an old build tree) is not
# run. The script exits 1 if any bench exited nonzero, 2 on bad usage or
# when a declared bench has no binary in the build tree.
set -u
cd "$(dirname "$0")/.." || exit 2

build=build
while getopts "b:h" opt; do
  case $opt in
    b) build=$OPTARG ;;
    *) sed -n '2,15p' "$0"; exit 2 ;;
  esac
done

benches=$(sed -n -e 's/^vedb_bench(\(bench_[a-z0-9_]*\)).*/\1/p' \
                 -e 's/^add_executable(\(bench_[a-z0-9_]*\) .*/\1/p' \
                 bench/CMakeLists.txt | LC_ALL=C sort)
if [ -z "$benches" ]; then
  echo "no benches declared in bench/CMakeLists.txt" >&2
  exit 2
fi
missing=0
for name in $benches; do
  if [ ! -x "$build/bench/$name" ]; then
    echo "missing $build/bench/$name; build the tree first" >&2
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 2

# Runs "$2" with its output in file "$1" under a 600 s timeout; prints its
# exit code, wall, user and sys seconds, and peak RSS in MiB (the largest
# resident set of any process it waited for: the bench). Linux carries a
# process's peak across exec, so the launching python's own resident set
# (~14 MiB) is the floor: a bench smaller than that reads as the floor.
run_timed() {
  python3 -c '
import resource, subprocess, sys, time
start = time.monotonic()
with open(sys.argv[1], "wb") as out:
    rc = subprocess.call(["timeout", "600", sys.argv[2]], stdin=subprocess.DEVNULL,
                         stdout=out, stderr=subprocess.STDOUT)
wall = time.monotonic() - start
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(rc, "%.3f" % wall, "%.3f" % ru.ru_utime, "%.3f" % ru.ru_stime,
      "%.1f" % (ru.ru_maxrss / 1024.0))
' "$1" "$2"
}

mkdir -p results
failed=0
printf '%-32s %5s %9s %9s %9s %9s\n' bench exit wall_s user_s sys_s rss_mib
for name in $benches; do
  read -r rc wall user sys rss < <(run_timed "results/$name.txt" \
                                              "$build/bench/$name")
  printf '%-32s %5d %9s %9s %9s %9s\n' "$name" "$rc" "$wall" "$user" "$sys" \
    "$rss"
  [ "$rc" -eq 0 ] || failed=1
done
exit $failed
