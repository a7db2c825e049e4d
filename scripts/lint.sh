#!/usr/bin/env bash
# lint.sh — repo-specific correctness lint for the veDB/AStore codebase.
#
# Rules (all greppable, no compiler needed):
#
#   1. pmem-raw-write: raw memcpy/memmove/memset is banned in the layers
#      that sit on top of the PMem abstraction (src/astore, src/net,
#      src/logstore, src/ebp). All bytes headed for persistent memory must
#      flow through the PmemDevice API so the persist checker sees them.
#      Genuinely volatile uses are waived with a `// pmem-ok` comment on
#      the same line.
#
#   2. pmem-api-bypass: PmemDevice::WriteFromRemote is the RDMA fabric's
#      private entry point. Calling it outside src/pmem and src/net
#      bypasses the fabric's DDIO/persistence model.
#
#   3. status-discard: a `(void)` cast that discards a call result must be
#      justified by a `discard-ok:` comment on the same line or within the
#      four preceding lines. (The compiler half of this rule is
#      [[nodiscard]] on Status/Result plus -Werror in CI; this half makes
#      sure every explicit discard says why.)
#
#   4. naked-thread: no naked threads. std::thread / pthread_* are banned
#      everywhere, src/sim included: every actor is a fiber on the clock's
#      one OS thread (ActorGroup, VirtualCondition, vedb::Mutex), so the
#      deterministic scheduler and the held-lock check see every actor and
#      lock. A deliberate exception is waived with a
#      `// thread-ok` comment on the same line.
#
#   5. ucontext-switch: <ucontext.h> and its getcontext/makecontext/
#      swapcontext/setcontext calls are banned everywhere. Those save and
#      restore the signal mask, i.e. make a system call on every fiber
#      switch; the clock switches fibers with its own register-only routine
#      (src/sim/clock.cc). No waiver.
#
#   6. raw-mutex: a declared std::mutex (or another std::*mutex) is banned
#      unless a `Waiver(thread-annotations)` comment on its line or within
#      the three lines above says why it cannot be a vedb::Mutex. Only a
#      vedb::Mutex carries the Clang thread-safety annotations and shows up
#      in the clock's held-across-wait check. Mentions in comments and
#      template arguments (std::lock_guard<std::mutex>) are not declarations.
#
# In addition, if clang-tidy is on PATH, it is run over src/ with the
# repo's .clang-tidy config. Containers without clang-tidy (like the CI
# sanitizer image) still get rules 1-6.
#
# Usage:
#   scripts/lint.sh                # lint the repo; exit 1 on any violation
#   scripts/lint.sh --self-test    # verify the rules trip on the seeded
#                                  # fixtures under scripts/lint_fixtures/
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

FAILED=0

note() { printf '%s\n' "$*"; }
fail() {
  printf 'lint: %s\n' "$*" >&2
  FAILED=1
}

# --- Rule 1: raw byte-level writes above the PMem API -----------------------
# Matches actual calls (`memcpy(`), not mentions in comments.
check_pmem_raw_write() {
  local -a dirs=("$@")
  local hits
  hits=$(grep -rnE '\b(memcpy|memmove|memset)[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "${dirs[@]}" 2>/dev/null |
         grep -v 'pmem-ok')
  if [[ -n "$hits" ]]; then
    fail "raw memcpy/memmove/memset above the PmemDevice API (add the bytes
lint: through PmemDevice, or waive a volatile use with '// pmem-ok'):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 2: WriteFromRemote outside the fabric -----------------------------
check_pmem_api_bypass() {
  local root="$1"
  local hits
  hits=$(grep -rnE '\bWriteFromRemote[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "$root" 2>/dev/null |
         grep -vE "^$root/(pmem|net)/")
  if [[ -n "$hits" ]]; then
    fail "PmemDevice::WriteFromRemote called outside src/pmem and src/net
lint: (route remote writes through the RDMA fabric):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 3: (void) discards need a discard-ok justification ----------------
check_status_discard() {
  local -a dirs=("$@")
  local file rule_failed=0
  while IFS= read -r file; do
    awk -v file="$file" '
      { lines[NR] = $0 }
      # A call result being discarded: "(void)" immediately followed by an
      # expression that contains a "(". Plain "(void)var;" silencing is fine.
      /\(void\)[[:space:]]*[A-Za-z_][^;]*\(/ {
        ok = 0
        for (i = NR; i >= NR - 4 && i >= 1; i--) {
          if (lines[i] ~ /discard-ok/) { ok = 1; break }
        }
        if (!ok) {
          printf "%s:%d: %s\n", file, NR, $0
          bad = 1
        }
      }
      END { exit bad }
    ' "$file" >&2 || rule_failed=1
  done < <(find "${dirs[@]}" \
               \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) \
           2>/dev/null)
  if [[ $rule_failed -ne 0 ]]; then
    fail "unjustified (void) discard(s) above — explain each with a" \
         "'// discard-ok: <reason>' comment on or just above the line"
  fi
}

# --- Rule 4: no naked threads -----------------------------------------------
check_naked_threads() {
  local -a dirs=("$@")
  local hits
  hits=$(grep -rnE '\bstd::thread\b|\bpthread_[a-z_]+[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "${dirs[@]}" 2>/dev/null |
         grep -v 'thread-ok')
  if [[ -n "$hits" ]]; then
    fail "naked std::thread/pthread_* (spawn an actor through the sim
lint: runtime so the scheduler and detectors see it, or waive a
lint: deliberate use with '// thread-ok'):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 5: no ucontext fiber switching ----------------------------------
check_ucontext_switch() {
  local -a dirs=("$@")
  local hits
  hits=$(grep -rnE '\bucontext(\.h|_t)\b|\b(get|make|swap|set)context[[:space:]]*\(' \
              --include='*.cc' --include='*.h' "${dirs[@]}" 2>/dev/null)
  if [[ -n "$hits" ]]; then
    fail "ucontext fiber switching (one system call per switch; switch
lint: contexts through the sim clock's ActorGroup instead):"
    printf '%s\n' "$hits" >&2
  fi
}

# --- Rule 6: raw std::mutex needs a thread-annotations waiver --------------
check_raw_mutex() {
  local -a dirs=("$@")
  local file rule_failed=0
  while IFS= read -r file; do
    awk -v file="$file" '
      { lines[NR] = $0; code = $0; sub(/\/\/.*/, "", code) }
      code ~ /std::[a-z_]*mutex[[:space:]]+[A-Za-z_]/ {
        ok = 0
        for (i = NR; i >= NR - 3 && i >= 1; i--) {
          if (lines[i] ~ /Waiver\(thread-annotations\)/) { ok = 1; break }
        }
        if (!ok) {
          printf "%s:%d: %s\n", file, NR, $0
          bad = 1
        }
      }
      END { exit bad }
    ' "$file" >&2 || rule_failed=1
  done < <(find "${dirs[@]}" \( -name '*.cc' -o -name '*.h' \) 2>/dev/null)
  if [[ $rule_failed -ne 0 ]]; then
    fail "raw std::mutex above — use vedb::Mutex (common/thread_annotations.h)" \
         "or say why not in a '// Waiver(thread-annotations): <reason>' comment"
  fi
}

# --- clang-tidy (optional: skipped when the toolchain lacks it) -------------
run_clang_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    note "lint: clang-tidy not found on PATH; skipping (rules 1-6 still ran)"
    return 0
  fi
  if [[ ! -f build/compile_commands.json ]]; then
    note "lint: no build/compile_commands.json; configure with" \
         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON to enable clang-tidy"
    return 0
  fi
  local -a files
  mapfile -t files < <(find src -name '*.cc')
  if ! clang-tidy -p build --quiet "${files[@]}"; then
    fail "clang-tidy reported issues"
  fi
}

self_test() {
  # Each fixture seeds exactly one violation; every rule must trip on it.
  local fx="scripts/lint_fixtures"
  local st=0

  FAILED=0
  check_pmem_raw_write "$fx/raw_write"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 1 did NOT trip" >&2; st=1; }

  FAILED=0
  check_pmem_api_bypass "$fx/bypass/src"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 2 did NOT trip" >&2; st=1; }

  FAILED=0
  check_status_discard "$fx/discard"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 3 did NOT trip" >&2; st=1; }

  FAILED=0
  check_naked_threads "$fx/threads"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 4 did NOT trip" >&2; st=1; }

  FAILED=0
  check_ucontext_switch "$fx/ucontext"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 5 did NOT trip" >&2; st=1; }

  FAILED=0
  check_raw_mutex "$fx/raw_mutex"
  [[ $FAILED -eq 1 ]] || { echo "self-test: rule 6 did NOT trip" >&2; st=1; }

  # And none of them may trip on the clean fixture.
  FAILED=0
  check_pmem_raw_write "$fx/clean"
  check_pmem_api_bypass "$fx/clean"
  check_status_discard "$fx/clean"
  check_naked_threads "$fx/clean"
  check_ucontext_switch "$fx/clean"
  check_raw_mutex "$fx/clean"
  [[ $FAILED -eq 0 ]] || { echo "self-test: false positive on clean fixture" >&2; st=1; }

  if [[ $st -eq 0 ]]; then
    echo "lint self-test: OK (6 rules trip on fixtures, clean file passes)"
  fi
  return $st
}

if [[ "${1:-}" == "--self-test" ]]; then
  self_test
  exit $?
fi

check_pmem_raw_write src/astore src/net src/logstore src/ebp
check_pmem_api_bypass src
check_status_discard src tests bench examples
check_naked_threads src tests bench examples
check_ucontext_switch src tests bench examples
check_raw_mutex src tests bench examples
run_clang_tidy

if [[ $FAILED -eq 0 ]]; then
  echo "lint: OK"
fi
exit $FAILED
