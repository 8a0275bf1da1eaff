#!/usr/bin/env python3
"""Fixture harness for corm-tidy.

Four subcommands:

  fixtures <corm-tidy> <fixture-dir>
      Runs corm-tidy (its token engine gives identical results on every
      host) over each fixture and asserts the emitted
      diagnostics match the fixture's expectations EXACTLY — no missing
      findings, no extras. Expectations are written in the fixtures:

        code;  // EXPECT: <check-id>       same-line marker
        // EXPECT-LINE <n>: <check-id>     header marker, for fixtures where
                                           a same-line comment would change
                                           the check's behavior

      Fixtures with no expectations (the *_nolint / *_clean controls) must
      produce zero diagnostics.

      Fixtures named interproc_* additionally re-run under --no-interproc
      and must then be SILENT: each one is a hazard the PR-6 per-function
      pass provably misses and only the call-graph summaries catch.

  audit <corm-tidy> <repo-root>
      Cross-checks `corm-tidy --list-hotpath` against the canonical hotpath
      contract in DESIGN.md section 7 (the list between the
      hotpath-contract-begin/end markers). A file carrying the marker but
      missing from the contract — or vice versa — fails the audit.

  audit-trees <corm-tidy> <fixture-dir>
      Pins `corm-tidy --audit` end to end against the two mini repo trees
      under the fixture dir: audit_tree_good must exit 0, audit_tree_bad
      must exit 1 and report each seeded violation class.

  wire-abi <corm-tidy> <repo-root>
      Regenerates the wire ABI (`--wire-abi --src <repo>/src`) and diffs it
      byte-for-byte against the committed golden
      tools/corm_tidy/wire_abi.json. Any drift in a wire struct's
      offset/size/alignment — or in the golden itself — fails.
"""

import re
import subprocess
import sys
from pathlib import Path

EXPECT_SAME = re.compile(r"//\s*EXPECT:\s*([a-z0-9-]+)")
EXPECT_LINE = re.compile(r"//\s*EXPECT-LINE\s+(\d+):\s*([a-z0-9-]+)")
# corm-tidy diagnostic: path:line:col: warning: msg [check-id]
DIAG = re.compile(r"^(.*?):(\d+):(\d+): warning: .* \[([a-z0-9-]+)\]$")


def expectations(path: Path):
    """Collect (line, check-id) pairs a fixture declares, as a multiset."""
    expected = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        m = EXPECT_LINE.search(text)
        if m:
            expected.append((int(m.group(1)), m.group(2)))
            continue
        m = EXPECT_SAME.search(text)
        if m:
            expected.append((lineno, m.group(1)))
    return sorted(expected)


def run_tidy(tidy: str, args):
    proc = subprocess.run(
        [tidy, *args], capture_output=True, text=True, check=False
    )
    if proc.returncode not in (0, 1):
        sys.exit(
            f"FATAL: corm-tidy exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc


def diags_for(tidy: str, fixture: Path, extra_args=()):
    proc = run_tidy(tidy, [*extra_args, str(fixture)])
    found = []
    for line in proc.stdout.splitlines():
        m = DIAG.match(line)
        if m:
            found.append((int(m.group(2)), m.group(4)))
    return sorted(found)


def cmd_fixtures(tidy: str, fixture_dir: Path) -> int:
    fixtures = sorted(fixture_dir.glob("*.cc"))
    if not fixtures:
        sys.exit(f"FATAL: no fixtures under {fixture_dir}")
    failures = 0
    for fx in fixtures:
        want = expectations(fx)
        got = diags_for(tidy, fx)
        if want == got:
            print(f"  OK   {fx.name}: {len(want)} expected diagnostic(s)")
        else:
            failures += 1
            print(f"  FAIL {fx.name}")
            for line, check in sorted(set(want) - set(got)):
                print(f"       missing: line {line} [{check}]")
            for line, check in sorted(set(got) - set(want)):
                print(f"       extra:   line {line} [{check}]")
            # Multiset mismatches with identical sets (count differences).
            if set(want) == set(got):
                print(f"       count mismatch: want {want} got {got}")
            continue
        # interproc_* fixtures document hazards only the call-graph summaries
        # expose: the PR-6 baseline (--no-interproc) must miss every one.
        if fx.name.startswith("interproc_"):
            baseline = diags_for(tidy, fx, ["--no-interproc"])
            if baseline:
                failures += 1
                print(f"  FAIL {fx.name}: --no-interproc should be silent "
                      f"(the hazard must need the summaries), got {baseline}")
            else:
                print(f"  OK   {fx.name}: silent under --no-interproc")
    print(f"{len(fixtures) - failures}/{len(fixtures)} fixtures pass")
    return 1 if failures else 0


CONTRACT = re.compile(
    r"<!-- hotpath-contract-begin -->(.*?)<!-- hotpath-contract-end -->",
    re.S,
)


def cmd_audit(tidy: str, repo_root: Path) -> int:
    design = (repo_root / "DESIGN.md").read_text()
    m = CONTRACT.search(design)
    if not m:
        sys.exit("FATAL: DESIGN.md has no hotpath-contract markers")
    contract = {
        ln.strip().lstrip("-").strip().strip("`")
        for ln in m.group(1).splitlines()
        if ln.strip().startswith("-")
    }
    proc = run_tidy(
        tidy, ["--list-hotpath", "--src", str(repo_root / "src")]
    )
    marked = set()
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line:
            marked.add(str(Path(line).resolve().relative_to(repo_root.resolve())))
    ok = True
    for path in sorted(marked - contract):
        ok = False
        print(f"  FAIL {path} carries // corm-hotpath but is absent from "
              f"the DESIGN.md section 7 contract")
    for path in sorted(contract - marked):
        ok = False
        print(f"  FAIL {path} is in the DESIGN.md section 7 contract but "
              f"does not carry the // corm-hotpath marker")
    if ok:
        print(f"  OK   hotpath contract: {len(marked)} file(s) in sync")
    return 0 if ok else 1


def cmd_audit_trees(tidy: str, fixture_dir: Path) -> int:
    ok = True
    good = subprocess.run(
        [tidy, "--audit", "--root", str(fixture_dir / "audit_tree_good")],
        capture_output=True, text=True, check=False,
    )
    if good.returncode != 0:
        ok = False
        print(f"  FAIL audit_tree_good: expected exit 0, got "
              f"{good.returncode}\n{good.stdout}{good.stderr}")
    else:
        print("  OK   audit_tree_good: --audit exits 0")
    bad = subprocess.run(
        [tidy, "--audit", "--root", str(fixture_dir / "audit_tree_bad")],
        capture_output=True, text=True, check=False,
    )
    if bad.returncode != 1:
        ok = False
        print(f"  FAIL audit_tree_bad: expected exit 1, got "
              f"{bad.returncode}\n{bad.stdout}{bad.stderr}")
    # One representative FAIL per violation class the bad tree seeds.
    seeded = [
        "`qp.break` (kQpBreak) is exercised by no test",
        "`qp.break` is missing from the DESIGN.md fault-site table",
        "`node.crash`, which is not a fault_sites constant",
    ]
    for needle in seeded:
        if not any(needle in line for line in bad.stdout.splitlines()):
            ok = False
            print(f"  FAIL audit_tree_bad: seeded violation not reported: "
                  f"{needle}")
    if bad.returncode == 1 and ok:
        print(f"  OK   audit_tree_bad: --audit exits 1 with all "
              f"{len(seeded)} seeded violation classes reported")
    return 0 if ok else 1


def cmd_wire_abi(tidy: str, repo_root: Path) -> int:
    golden_path = repo_root / "tools" / "corm_tidy" / "wire_abi.json"
    golden = golden_path.read_text()
    proc = subprocess.run(
        [tidy, "--wire-abi", "--src", str(repo_root / "src")],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        print(f"  FAIL --wire-abi exited {proc.returncode}\n{proc.stderr}")
        return 1
    if proc.stdout != golden:
        print(f"  FAIL wire ABI drifted from {golden_path}")
        import difflib
        sys.stdout.writelines(difflib.unified_diff(
            golden.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile="wire_abi.json (golden)", tofile="--wire-abi (current)",
        ))
        print("       If the change is intentional, regenerate the golden:\n"
              "       corm-tidy --wire-abi --src src > "
              "tools/corm_tidy/wire_abi.json")
        return 1
    print("  OK   wire ABI matches the committed golden")
    return 0


COMMANDS = {
    "fixtures": cmd_fixtures,
    "audit": cmd_audit,
    "audit-trees": cmd_audit_trees,
    "wire-abi": cmd_wire_abi,
}


def main() -> int:
    if len(sys.argv) != 4 or sys.argv[1] not in COMMANDS:
        sys.exit(
            "usage: run_fixture_checks.py fixtures    <corm-tidy> <fixture-dir>\n"
            "       run_fixture_checks.py audit       <corm-tidy> <repo-root>\n"
            "       run_fixture_checks.py audit-trees <corm-tidy> <fixture-dir>\n"
            "       run_fixture_checks.py wire-abi    <corm-tidy> <repo-root>"
        )
    return COMMANDS[sys.argv[1]](sys.argv[2], Path(sys.argv[3]))


if __name__ == "__main__":
    sys.exit(main())
