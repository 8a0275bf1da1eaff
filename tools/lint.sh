#!/usr/bin/env bash
# Project lint gate. Exits non-zero on any violation.
#
# Rules checked by corm-tidy (tools/corm_tidy, DESIGN.md §10), which this
# script requires: a comment- and string-aware token linter with a fixture
# per rule under tests/lint_fixtures/.
#   1. No raw `new`/`delete` in src/ — ownership is RAII-only
#      (corm-raw-new; exemption: `NOLINT(corm-raw-new)` on the line or the
#      line above, for private-constructor factories make_unique cannot
#      reach).
#   5. No unbounded spin-waits on atomics outside src/common/ and src/rdma/
#      — every completion wait is deadline-bounded (common/retry.h) so a
#      dead node converts to kTimeout instead of a hang
#      (corm-unbounded-wait).
#   6. Every analysis escape in src/ — a `NOLINT(corm-*)` marker or a
#      `NO_THREAD_SAFETY_ANALYSIS` attribute — carries a written rationale
#      on the same or the preceding line (corm-escape-rationale).
#   7. No heap allocation in `// corm-hotpath` files (corm-hotpath-alloc).
#   8. The strict-wait files (src/core/compaction_engine.cc and the other
#      files corm-tidy lists) may contain no unbounded wait at all — no
#      atomic spin-waits, no sleeps — and no NOLINT escape is honored
#      (corm-unbounded-wait, strict mode).
# corm-tidy also runs corm-remap-hazard and corm-lock-rank.
#
# Rules checked here, by grep:
#   2. No std::mutex in src/alloc/ or src/core/ — the data plane uses the
#      ranked SpinLock / RankedSharedMutex primitives (common/lock_rank.h)
#      so the debug deadlock checker sees every acquisition. The simulated
#      substrate (src/sim/, src/rdma/) models kernel/NIC state and may keep
#      std::mutex.
#   3. Status / Result<T> must stay [[nodiscard]] (call-site enforcement is
#      then free via -Wall).
#   4. src/ must not include tests/ headers (no inverted layering).
#
# corm-tidy is found via $CORM_TIDY_BIN or under build*/tools/corm_tidy/.
# Additionally runs clang-tidy over src/ when a binary and a compilation
# database are available; skipped (with a note) otherwise, since the CI
# lint job provides clang-tidy.
set -u
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
  printf 'usage: tools/lint.sh\n' >&2
  exit 2
fi

fail=0
note() { printf '%s\n' "$*"; }
violation() { printf 'lint: %s\n' "$*" >&2; fail=1; }

# Locate a built corm-tidy: explicit override first, then build trees.
corm_tidy="${CORM_TIDY_BIN:-}"
if [ -z "$corm_tidy" ]; then
  for cand in build build-clang build-asan build-tsan build-rel; do
    if [ -x "$cand/tools/corm_tidy/corm-tidy" ]; then
      corm_tidy="$cand/tools/corm_tidy/corm-tidy"
      break
    fi
  done
fi
if [ -z "$corm_tidy" ] || [ ! -x "$corm_tidy" ]; then
  violation "no corm-tidy binary found; build it (cmake -B build -S . && cmake --build build --target corm-tidy) or set CORM_TIDY_BIN"
  note 'lint: FAILED'
  exit 1
fi

# A corm-tidy binary older than any of its sources silently lints with
# yesterday's rules — the worst failure mode for a gate. Fail fast with the
# rebuild recipe instead of running a stale analysis.
stale=$(find tools/corm_tidy -name '*.h' -o -name '*.cc' -o -name 'CMakeLists.txt' \
            | xargs -I{} find {} -newer "$corm_tidy" 2>/dev/null | head -1)
if [ -n "$stale" ]; then
  violation "corm-tidy binary $corm_tidy is older than $stale; rebuild it (cmake --build ${corm_tidy%%/tools/*} --target corm-tidy) or set CORM_TIDY_BIN"
  note 'lint: FAILED'
  exit 1
fi

src_files=$(find src -name '*.h' -o -name '*.cc' | sort)

# --- Rules 1, 5, 6, 7, 8 (+ remap-hazard, lock-rank): corm-tidy. ------------
note "lint: running corm-tidy ($corm_tidy)"
if ! "$corm_tidy" --src src; then
  violation 'corm-tidy reported diagnostics (see above)'
fi

# --- Rule 2: std::mutex in the data plane. ---------------------------------
for f in $(find src/alloc src/core -name '*.h' -o -name '*.cc' | sort); do
  matches=$(grep -n 'std::mutex\|std::shared_mutex\|std::recursive_mutex' "$f" \
      | grep -v '^\s*[0-9]*:\s*//' || true)
  [ -z "$matches" ] && continue
  while IFS= read -r line; do
    violation "$f:$line — std::mutex in the data plane; use the ranked locks from common/lock_rank.h (rule 2)"
  done <<EOF_MATCHES
$matches
EOF_MATCHES
done

# --- Rule 3: Status / Result stay [[nodiscard]]. ---------------------------
grep -q 'class \[\[nodiscard\]\] Status' src/common/status.h ||
  violation 'src/common/status.h — Status lost its [[nodiscard]] (rule 3)'
grep -q 'class \[\[nodiscard\]\] Result' src/common/result.h ||
  violation 'src/common/result.h — Result lost its [[nodiscard]] (rule 3)'

# --- Rule 4: src/ must not include tests/. ---------------------------------
for f in $src_files; do
  matches=$(grep -n '#include ["<]tests/' "$f" || true)
  [ -z "$matches" ] && continue
  while IFS= read -r line; do
    violation "$f:$line — src/ includes a tests/ header (rule 4)"
  done <<EOF_MATCHES
$matches
EOF_MATCHES
done

# --- clang-tidy (optional locally; required in CI). ------------------------
tidy_bin=$(command -v clang-tidy || true)
if [ -n "$tidy_bin" ]; then
  db=""
  for cand in build build-clang build-asan build-tsan; do
    [ -f "$cand/compile_commands.json" ] && db=$cand && break
  done
  if [ -n "$db" ]; then
    note "lint: running clang-tidy with compile database $db/"
    cc_files=$(find src -name '*.cc' | sort)
    if ! "$tidy_bin" -p "$db" --quiet $cc_files; then
      violation 'clang-tidy reported errors'
    fi
  else
    note 'lint: clang-tidy found but no compile_commands.json (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON); skipping tidy pass'
  fi
else
  note 'lint: clang-tidy not installed; skipping tidy pass (CI runs it)'
fi

if [ "$fail" -ne 0 ]; then
  note 'lint: FAILED'
  exit 1
fi
note 'lint: OK'
