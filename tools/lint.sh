#!/usr/bin/env bash
# Project lint gate. Exits non-zero on any violation.
#
# Rules (grep-based, always enforced):
#   1. No raw `new`/`delete` in src/ — ownership is RAII-only. Exemption:
#      a `NOLINT(corm-raw-new)` comment on the line or the line above
#      (private-constructor factories that make_unique cannot reach).
#   2. No std::mutex in src/alloc/ or src/core/ — the data plane uses the
#      ranked SpinLock / RankedSharedMutex primitives (common/lock_rank.h)
#      so the debug deadlock checker sees every acquisition. The simulated
#      substrate (src/sim/, src/rdma/) models kernel/NIC state and may keep
#      std::mutex.
#   3. Status / Result<T> must stay [[nodiscard]] (call-site enforcement is
#      then free via -Wall).
#   4. src/ must not include tests/ headers (no inverted layering).
#   5. No unbounded spin-waits on atomics outside src/common/ and
#      src/rdma/ — every completion wait must be deadline-bounded
#      (common/retry.h) so a dead node converts to kTimeout instead of a
#      hang. Exemption: `NOLINT(corm-spin-wait)` on the line or the line
#      above (service run-loops bounded by stop flags, and waits on local
#      workers that provably cannot die independently).
#   6. Every analysis escape in src/ — a `NOLINT(corm-*)` marker or a
#      `NO_THREAD_SAFETY_ANALYSIS` attribute — must carry a written
#      rationale: a `//` comment (beyond the escape token itself) on the
#      same line or the preceding line. Escapes are debts; undocumented
#      debts are violations. The macro definition itself
#      (src/common/thread_annotations.h) is exempt.
#   7. No heap allocation in hot-path files: a file whose first line is
#      `// corm-hotpath` declares the steady-state data-plane contract
#      (DESIGN.md §7) — no `new`, `make_unique`/`make_shared`, or
#      `malloc`-family call may appear in it. Exemption: a
#      `NOLINT(corm-hotpath-alloc)` (cold-path allocation living in a hot
#      file: construction, growth, pool refill) or `NOLINT(corm-raw-new)`
#      comment on the line or the line above.
#   8. src/core/compaction_engine.cc (the sliced engine's phase handlers)
#      may contain no unbounded waits whatsoever — no atomic spin-waits, no
#      sleeps — and, unlike rule 5, no NOLINT escape is honored. Phase
#      handlers poll and return, or bound their loops with a Deadline.
#
# Rules 1, 5, and 7 have a precise implementation in tools/corm_tidy (a
# token/AST-level linter that also adds corm-escape-rationale and
# corm-remap-hazard). When a built corm-tidy binary is found — via
# $CORM_TIDY_BIN or under build*/tools/corm_tidy/ — those rules delegate
# to it and the grep versions below stay dormant. `--fallback-only`
# forces the grep path (used by CI to keep the fallback from rotting).
#
# Additionally runs clang-tidy over src/ when a binary and a compilation
# database are available; skipped (with a note) otherwise, since the CI
# lint job provides clang-tidy.
set -u
cd "$(dirname "$0")/.."

fallback_only=0
for arg in "$@"; do
  case "$arg" in
    --fallback-only) fallback_only=1 ;;
    *) printf 'usage: tools/lint.sh [--fallback-only]\n' >&2; exit 2 ;;
  esac
done

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
use_tidy=0
if [ "$fallback_only" -eq 0 ] && [ -n "$corm_tidy" ] && [ -x "$corm_tidy" ]; then
  use_tidy=1
fi

# A corm-tidy binary older than any of its sources silently lints with
# yesterday's rules — the worst failure mode for a gate. Fail fast with the
# rebuild recipe instead of delegating to a stale analysis.
if [ "$use_tidy" -eq 1 ]; then
  stale=$(find tools/corm_tidy -name '*.h' -o -name '*.cc' -o -name 'CMakeLists.txt' \
              | xargs -I{} find {} -newer "$corm_tidy" 2>/dev/null | head -1)
  if [ -n "$stale" ]; then
    violation "corm-tidy binary $corm_tidy is older than $stale; rebuild it (cmake --build ${corm_tidy%%/tools/*} --target corm-tidy) or set CORM_TIDY_BIN"
    note 'lint: FAILED'
    exit 1
  fi
fi

src_files=$(find src -name '*.h' -o -name '*.cc' | sort)

# --- corm-tidy delegation (rules 1, 5, 7 + escape-rationale, remap-hazard,
# --- strict rule 8). --------------------------------------------------------
if [ "$use_tidy" -eq 1 ]; then
  note "lint: delegating rules 1/5/7 to corm-tidy ($corm_tidy)"
  if ! "$corm_tidy" --src src; then
    violation 'corm-tidy reported diagnostics (see above)'
  fi
fi

# --- Rule 1: raw new/delete in src/. ---------------------------------------
# Comment- and string-aware scanner (awk): block comments and string
# literals are stripped with a real state machine before matching, so
# `/* new Foo() */` and "delete p" in a literal never fire; plain
# placement-new `new (buf) T` is skipped but allocating nothrow-new
# `new (std::nothrow) T` is caught; a `delete[]` whose operand wrapped to
# the next line is caught via carried state. corm-tidy does this at the
# token level — this is the no-binary fallback.
rule1_scan() {
  awk '
    function strip(line,    out, i, n, c, c2, p) {
      out = ""; i = 1; n = length(line)
      while (i <= n) {
        if (inblock) {
          p = index(substr(line, i), "*/")
          if (p == 0) return out
          i += p + 1; inblock = 0; continue
        }
        c = substr(line, i, 1); c2 = substr(line, i, 2)
        if (c2 == "//") return out
        if (c2 == "/*") { inblock = 1; i += 2; continue }
        if (c == "\"" || c == "\x27") {
          q = c; i++
          while (i <= n) {
            if (substr(line, i, 1) == "\\") { i += 2; continue }
            if (substr(line, i, 1) == q) { i++; break }
            i++
          }
          out = out " "; continue
        }
        out = out c; i++
      }
      return out
    }
    {
      s = strip($0)
      if (s ~ /^[ \t]*#/) { pending = 0; next }
      # Declarations and deleted members are not allocation sites.
      gsub(/operator[ \t]*new[ \t]*\[?[ \t]*\]?/, " ", s)
      gsub(/operator[ \t]*delete[ \t]*\[?[ \t]*\]?/, " ", s)
      gsub(/=[ \t]*delete/, " ", s)
      if (pending && s ~ /^[ \t]*[A-Za-z_*(]/) print pending_line
      pending = 0
      hit = 0
      # Allocating new: `new Type(...)` / `new Type[...]` / `new Type{...}`
      # (a `(` directly after `new` is placement and stays silent) ...
      if (s ~ /(^|[^A-Za-z0-9_])new[ \t]+[A-Za-z_:][A-Za-z0-9_:<>, \t]*[({[]/) hit = 1
      # ... except nothrow placement, which does allocate.
      if (s ~ /(^|[^A-Za-z0-9_])new[ \t]*\([ \t]*(std[ \t]*::[ \t]*)?nothrow/) hit = 1
      # delete / delete[] with the operand on the same line. An identifier
      # operand must be set apart from `delete` by a blank or `[]`, so an
      # identifier that merely starts with delete (delete_fraction) is silent.
      if (s ~ /(^|[^A-Za-z0-9_])delete([ \t]*(\[[ \t]*\])?[ \t]*[*(]|([ \t]+|[ \t]*\[[ \t]*\][ \t]*)[A-Za-z_])/) hit = 1
      if (hit) { print NR }
      else if (s ~ /(^|[^A-Za-z0-9_])delete[ \t]*(\[[ \t]*\])?[ \t]*$/) {
        pending = 1; pending_line = NR
      }
    }
  ' "$1" | sort -un
}
if [ "$use_tidy" -eq 0 ]; then
  for f in $src_files; do
    linenos=$(rule1_scan "$f")
    [ -z "$linenos" ] && continue
    for lineno in $linenos; do
      # Exemption: NOLINT(corm-raw-new) on this or the preceding line.
      if sed -n "$((lineno > 1 ? lineno - 1 : 1)),${lineno}p" "$f" \
          | grep -q 'NOLINT(corm-raw-new)'; then
        continue
      fi
      violation "$f:$lineno:$(sed -n "${lineno}p" "$f") — raw new/delete in src/ (rule 1)"
    done
  done
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

# --- Rule 5: unbounded atomic spin-waits outside common/ and rdma/. --------
# A `while (...load(...))` loop with no deadline is exactly the bug the
# RPC transport had: a remote death turns it into a hang. The low-level
# primitives (common/, rdma/) own the sanctioned bounded waits.
if [ "$use_tidy" -eq 0 ]; then
  for f in $(find src -name '*.h' -o -name '*.cc' \
                 | grep -v '^src/common/' | grep -v '^src/rdma/' | sort); do
    matches=$(grep -nE 'while[[:space:]]*\(.*(\.|->)load\(' "$f" \
        | grep -vE '^\s*[0-9]+:\s*(//|\*)' || true)
    [ -z "$matches" ] && continue
    while IFS= read -r line; do
      lineno=${line%%:*}
      if sed -n "$((lineno > 1 ? lineno - 1 : 1)),${lineno}p" "$f" \
          | grep -q 'NOLINT(corm-spin-wait)'; then
        continue
      fi
      violation "$f:$line — unbounded spin-wait on an atomic; bound it with a Deadline (common/retry.h) or annotate NOLINT(corm-spin-wait) (rule 5)"
    done <<EOF_MATCHES
$matches
EOF_MATCHES
  done
fi

# --- Rule 6: every analysis escape carries a written rationale. ------------
# An escape (NOLINT(corm-*) or NO_THREAD_SAFETY_ANALYSIS) silences a checker;
# the why must live next to it. Accept: after deleting the escape tokens
# themselves from the match line and the preceding line, a `//` comment with
# real words (>= 3 consecutive letters) must remain in that window.
for f in $src_files; do
  [ "$f" = "src/common/thread_annotations.h" ] && continue
  matches=$(grep -nE 'NOLINT\(corm-|NO_THREAD_SAFETY_ANALYSIS' "$f" || true)
  [ -z "$matches" ] && continue
  while IFS= read -r line; do
    lineno=${line%%:*}
    window=$(sed -n "$((lineno > 1 ? lineno - 1 : 1)),${lineno}p" "$f" \
        | sed -E 's/NOLINT\(corm-[a-z-]+\)//g; s/NO_THREAD_SAFETY_ANALYSIS//g')
    if ! printf '%s\n' "$window" | grep -qE '//.*[[:alpha:]]{3,}'; then
      violation "$f:$line — escape without a rationale comment on the same or preceding line (rule 6)"
    fi
  done <<EOF_MATCHES
$matches
EOF_MATCHES
done

# --- Rule 7: no allocation in `// corm-hotpath` files. ---------------------
# The steady-state data plane must not allocate; a marked file promising
# that gets every allocating expression flagged unless explicitly exempted
# as cold-path.
if [ "$use_tidy" -eq 0 ]; then
  for f in $src_files; do
    # Exact-line marker: a first line merely *starting* with the marker
    # text (e.g. a prose comment) does not opt a file in.
    head -1 "$f" | grep -qE '^// corm-hotpath[[:space:]]*$' || continue
    matches=$(grep -nE '(^|[^_[:alnum:]"])(new[[:space:]]+[[:alnum:]_:<]+[[:space:]]*[({[]|std::make_unique|std::make_shared|(^|[^_[:alnum:]])(malloc|calloc|realloc)[[:space:]]*\()' "$f" \
        | grep -vE '^\s*[0-9]+:\s*(//|\*)' || true)
    [ -z "$matches" ] && continue
    while IFS= read -r line; do
      lineno=${line%%:*}
      if sed -n "$((lineno > 1 ? lineno - 1 : 1)),${lineno}p" "$f" \
          | grep -qE 'NOLINT\(corm-hotpath-alloc\)|NOLINT\(corm-raw-new\)'; then
        continue
      fi
      violation "$f:$line — heap allocation in a corm-hotpath file; move it off the data plane or annotate NOLINT(corm-hotpath-alloc) with a rationale (rule 7)"
    done <<EOF_MATCHES
$matches
EOF_MATCHES
  done
fi

# --- Rule 8: compaction phase handlers carry no unbounded waits. -----------
# The sliced engine's contract (DESIGN.md §9) is that every phase handler
# returns to the leader's RPC loop in bounded time: no spin-wait on an
# atomic, no sleeps, and — unlike rule 5 — no NOLINT escape hatch at all.
# Waits must be non-blocking polls re-entered on the next slice or
# Deadline-bounded loops (common/retry.h) that abort the run with kTimeout.
engine_file=src/core/compaction_engine.cc
if [ -f "$engine_file" ]; then
  matches=$(grep -nE 'while[[:space:]]*\(.*(\.|->)load\(|sleep_for|NOLINT\(corm-spin-wait\)' "$engine_file" \
      | grep -vE '^\s*[0-9]+:\s*(//|\*)' || true)
  if [ -n "$matches" ]; then
    while IFS= read -r line; do
      violation "$engine_file:$line — unbounded wait in a compaction phase handler; poll and re-enter on the next slice, or bound it with a Deadline (rule 8)"
    done <<EOF_MATCHES
$matches
EOF_MATCHES
  fi
else
  violation "$engine_file missing — rule 8 has no target"
fi

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
  note 'lint: clang-tidy not installed; grep rules only (CI runs the tidy pass)'
fi

if [ "$fail" -ne 0 ]; then
  note 'lint: FAILED'
  exit 1
fi
note 'lint: OK'
