#!/usr/bin/env python3
"""easlint regression suite over the known-good / known-bad fixture corpus.

Contract the fixtures encode (and this suite enforces):

  fixtures/good/*.cc   must lint completely clean - zero findings, exit 0.
                       A finding here is a false positive regression.
  fixtures/bad/*.cc    carry `// expect: <rule>` markers. For each file the
                       multiset of reported rules must EQUAL the multiset of
                       expected markers - a missing finding means a check
                       stopped detecting its known-bad pattern (e.g. someone
                       disabled or broke it), an extra finding is a new false
                       positive. Exit status must be 1.

Additionally, for every rule expected by a bad fixture, the suite re-runs
easlint with `--disable <rule>` and asserts those findings disappear (and
nothing else changes), proving the disable plumbing works per-rule. Unknown
`--disable` names must be rejected with exit 2.

Run:  python3 tools/easlint/selftest.py          (wired into ctest as
                                                  `easlint_selftest`)
"""

import collections
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EASLINT = os.path.join(HERE, "easlint.py")
GOOD_DIR = os.path.join(HERE, "fixtures", "good")
BAD_DIR = os.path.join(HERE, "fixtures", "bad")

EXPECT_RE = re.compile(r"//.*?\bexpect:\s*([\w-]+)")
FINDING_RE = re.compile(r"^.+?:\d+:\s+\[([\w-]+)\]", re.MULTILINE)

failures = []


def run_easlint(files, extra_args=()):
    cmd = [sys.executable, EASLINT, "--engine", "tokens", *extra_args, *files]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def reported_rules(stdout):
    return collections.Counter(FINDING_RE.findall(stdout))


def check(condition, label, detail=""):
    status = "ok" if condition else "FAIL"
    print(f"{status:4s} {label}")
    if not condition:
        if detail:
            print("     " + detail.replace("\n", "\n     "))
        failures.append(label)


def main():
    good = sorted(
        os.path.join(GOOD_DIR, f) for f in os.listdir(GOOD_DIR) if f.endswith(".cc"))
    bad = sorted(
        os.path.join(BAD_DIR, f) for f in os.listdir(BAD_DIR) if f.endswith(".cc"))
    check(good, "fixture corpus has known-good files")
    check(bad, "fixture corpus has known-bad files")

    # Known-good: clean as a batch (cross-file checks see them together too).
    code, stdout, stderr = run_easlint(good)
    check(code == 0 and not reported_rules(stdout),
          "good fixtures lint clean (exit 0, zero findings)",
          stdout + stderr)

    rules_covered = collections.Counter()
    for path in bad:
        name = os.path.basename(path)
        with open(path, "r", encoding="utf-8") as handle:
            expected = collections.Counter(EXPECT_RE.findall(handle.read()))
        check(expected, f"{name}: declares expect markers")
        rules_covered.update(expected)

        code, stdout, stderr = run_easlint([path])
        found = reported_rules(stdout)
        check(code == 1, f"{name}: exits 1", stdout + stderr)
        check(
            found == expected,
            f"{name}: findings match expect markers exactly",
            f"expected {dict(expected)}\nfound    {dict(found)}\n{stdout}{stderr}")

        # Disabling each expected rule must remove exactly those findings.
        for rule in sorted(expected):
            code, stdout, stderr = run_easlint([path], ["--disable", rule])
            remaining = reported_rules(stdout)
            without = expected.copy()
            del without[rule]
            want_code = 1 if without else 0
            check(
                remaining == without and code == want_code,
                f"{name}: --disable {rule} removes exactly those findings",
                f"expected {dict(without)} exit {want_code}\n"
                f"found    {dict(remaining)} exit {code}\n{stdout}{stderr}")

    # Every check family is represented by at least one known-bad fixture.
    required = {
        "determinism-wall-clock", "determinism-raw-rand",
        "determinism-unseeded-prng", "determinism-unordered-iter",
        "determinism-pointer-key", "fault-rng-isolation",
        "registry-naming", "metric-schema", "suppression-justification",
    }
    missing = required - set(rules_covered)
    check(not missing, "every rule has a known-bad fixture",
          f"missing: {sorted(missing)}")

    code, stdout, stderr = run_easlint(bad[:1], ["--disable", "no-such-rule"])
    check(code == 2, "--disable with unknown rule is rejected (exit 2)",
          stdout + stderr)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
