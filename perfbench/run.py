#!/usr/bin/env python3
"""Build and run the sani production-path benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload deep-order --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the repository's libraries
from src/ plus sani_perfbench) into .bench_build/perfbench; later calls rebuild
incrementally.  Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result.  The exit status is sani_perfbench's (0: every
verdict as expected), or 2 when the build fails.

--self-test runs every workload of BENCHMARK.json briefly, traced and
untraced, and checks the output against the metric and workload names and
units there, that two runs with one seed do the same work, and that two
seeds give the same job mix.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sani_perfbench")


def build():
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        sys.exit("perfbench: run from the checkout root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "sani_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)


def run(args):
    """Runs sani_perfbench; returns (exit status, stdout lines)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def field(lines, prefix):
    return [line[len(prefix):] for line in lines if line.startswith(prefix)]


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    groups = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    problems = []

    def check(workload, seed, trace):
        status, lines = run(["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", trace])
        tag = "%s seed %d trace %s" % (workload, seed, trace)
        if status != 0 or not lines:
            problems.append("%s: exit %d" % (tag, status))
            return lines
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append("%s: result keys %s" % (tag, sorted(result)))
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append("%s: correct=%s failed=%s attempted=%s" % (
                tag, result["correct"], result["failed"], result["attempted"]))
        want = {m["name"]: m["unit"] for m in groups[trace]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            problems.append("%s: metrics missing %s, unexpected %s, "
                            "wrong unit %s" % (tag, missing, extra, wrong))
        return lines

    for w in spec["workloads"]:
        name = w["name"]
        first = check(name, 1, "0")
        again = check(name, 1, "0")
        traced = check(name, 1, "1")
        other = check(name, 2, "0")
        fp = [field(x, "fingerprint ") for x in (first, again, traced)]
        if not fp[0] or fp.count(fp[0]) != 3:
            problems.append("%s: work fingerprint differs between runs with "
                            "one seed: %s" % (name, fp))
        # deep-order: the same jobs every pass.  resubmit: the same
        # family and kind sequence shares over the store pass's requests.
        mix = [field(x, "job mix per pass") or
               sorted(line.split(":")[0].split(" ", 2)[2]
                      for line in field(x, "work "))
               for x in (first, other)]
        if not mix[0] or mix[0] != mix[1]:
            problems.append("%s: job mix differs between seeds: %s"
                            % (name, mix))
        print("self-test %s: fingerprint %s" % (name, " ".join(fp[0])),
              file=sys.stderr)

    for p in problems:
        print("self-test FAILED: " + p, file=sys.stderr)
    print("self-test %s" % ("failed" if problems else "passed"),
          file=sys.stderr)
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(subprocess.run([BINARY] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
