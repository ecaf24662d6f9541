#!/usr/bin/env python3
"""Paired bench gate: does a change make the program slower than its parent?

Usage:
  python3 scripts/bench_pair.py PARENT_CHECKOUT CHANGE_CHECKOUT

Both arguments are checkouts of the repository: the parent commit and the
change.  The host's speed moves by tens of percent for seconds to minutes at
a time, so a rate measured once says more about the host than about the
code.  The gate therefore never compares against a committed number: it
measures both checkouts on this host, alternating between them, and fails
only when the change is worse in a clear majority of pairs.

Each of the ``PAIRS`` pairs runs, once per side and one side right after the
other (the side that goes first swaps every pair):

* ``lofat bench-json`` (the in-process hot-path rates, E10);
* the ``BENCHMARK.json`` command on every workload for ``RUN_SECONDS``, with
  the pair's seed (both sides of a pair share it; each pair has its own).

A pair regresses a metric when the change is worse than the parent by more
than the metric's bound: the ``BENCHMARK.json`` bound of each end-to-end
metric, and ``RATE_BOUND`` for the fleet workloads' ``sessions_per_sec``
(read from the run's report) and the gated bench-json rates.  A metric
missing from the parent's output is not compared.  The gate fails when

* a metric regresses in at least ``REGRESSED_PAIRS_TO_FAIL`` pairs;
* any run exits non-zero;
* a change run counts more ``failed`` sessions than its pair's parent run;
* on a SIMD tier, the change's median 4-lane SHA-3 rate is below
  ``X4_MIN_MULTIPLIER`` times its median scalar rate.

The ratio floor compares two rates of one build measured side by side, so
it holds on any host.  Every rule is a constant below, not a flag.  The
script prints one table per metric (each pair's parent value, change value
and ratio), then the verdict; it exits 1 when the gate fails.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 6
REGRESSED_PAIRS_TO_FAIL = 5
RUN_SECONDS = 10
RATE_BOUND = 0.25
X4_MIN_MULTIPLIER = 2.0

# The workloads whose report line's `sessions_per_sec` is gated.
SESSIONS_PER_SEC_WORKLOADS = ("fleet-hot", "fleet-cold")

BENCH_JSON = "bench-json"
# (field of bench-json's `current` sample, better, bound); a bound of None
# prints the field without gating it.
BENCH_JSON_FIELDS = (
    ("attested_instructions_per_sec", "higher", RATE_BOUND),
    ("plain_instructions_per_sec", "higher", None),
    ("hashed_bytes_per_sec", "higher", RATE_BOUND),
    ("hashed_bytes_per_sec_x4", "higher", RATE_BOUND),
    ("ns_per_permutation", "lower", None),
    ("verify_sessions_per_sec", "higher", RATE_BOUND),
)

SESSIONS_PER_SEC = re.compile(r"^sessions_per_sec\s+(\S+)\s", re.MULTILINE)


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(args, cwd):
    """Runs one measurement; returns (exit code, stdout, stderr, seconds)."""
    start = time.monotonic()
    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr, time.monotonic() - start


def report_failure(label, code, stdout, stderr):
    print(f"  {label} exited {code}; last lines of its output:")
    for line in (stdout.splitlines() + stderr.splitlines())[-12:]:
        print(f"    {line}")


def bench_json(checkout, out_path, label):
    """One `lofat bench-json` run: (values by field, simd tier, exit code)."""
    command = ["cargo", "run", "--release", "--offline", "--quiet", "--bin", "lofat", "--"]
    code, stdout, stderr, seconds = run(command + ["bench-json", "--out", out_path], checkout)
    print(f"  {label}: {seconds:.1f} s")
    if code != 0:
        report_failure(label, code, stdout, stderr)
        return {}, None, code
    with open(out_path, encoding="utf-8") as handle:
        document = json.load(handle)
    current = document["current"]
    values = {field: float(current[field]) for field, _, _ in BENCH_JSON_FIELDS if field in current}
    return values, document.get("simd_tier"), 0


def workload_run(checkout, command, workload, seed, label):
    """One benchmark run: (values by metric, failed sessions, exit code)."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(RUN_SECONDS)]
    code, stdout, stderr, seconds = run(args, checkout)
    print(f"  {label}: {seconds:.1f} s")
    if code != 0:
        report_failure(label, code, stdout, stderr)
        return {}, None, code
    result = json.loads(stdout.strip().splitlines()[-1])
    values = {name: float(m["value"]) for name, m in result["metrics"].items()}
    found = SESSIONS_PER_SEC.search(stdout)
    if found:
        values["sessions_per_sec"] = float(found.group(1))
    return values, int(result["failed"]), 0


def regressed(better, bound, parent, change):
    if better == "lower":
        return change > parent * (1.0 + bound)
    return change < parent * (1.0 - bound)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"parent": os.path.abspath(sys.argv[1]), "change": os.path.abspath(sys.argv[2])}
    benchmarks = {side: load_benchmark(path) for side, path in sides.items()}
    workloads = [w["name"] for w in benchmarks["change"]["workloads"]]
    parent_workloads = {w["name"] for w in benchmarks["parent"]["workloads"]}

    # (job, metric, better, bound), in print order.
    metrics = [(BENCH_JSON, field, better, bound) for field, better, bound in BENCH_JSON_FIELDS]
    for workload in workloads:
        for m in benchmarks["change"]["end_to_end"]:
            metrics.append((workload, m["name"], m["better"], m["bound"]))
        if workload in SESSIONS_PER_SEC_WORKLOADS:
            metrics.append((workload, "sessions_per_sec", "higher", RATE_BOUND))

    # values[side][(job, metric)][pair]; failed[side][(workload, pair)].
    values = {side: {} for side in sides}
    failed = {side: {} for side in sides}
    tiers = set()
    problems = []
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(PAIRS):
            seed = pair + 1
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            print(f"pair {pair + 1} of {PAIRS}: seed {seed}, {order[0]} first", flush=True)
            for job in [BENCH_JSON] + workloads:
                for side in order:
                    label = f"{side} {job}"
                    if job == BENCH_JSON:
                        out_path = os.path.join(tmp, f"{side}-{pair}.json")
                        got, tier, code = bench_json(sides[side], out_path, label)
                        if side == "change" and tier:
                            tiers.add(tier)
                    elif side == "parent" and job not in parent_workloads:
                        continue
                    else:
                        command = benchmarks[side]["command"]
                        got, fail_count, code = workload_run(
                            sides[side], command, job, seed, label
                        )
                        failed[side][(job, pair)] = fail_count
                    if code != 0:
                        problems.append(f"pair {pair + 1}: {label} exited {code}")
                    for metric, value in got.items():
                        values[side].setdefault((job, metric), {})[pair] = value
                sys.stdout.flush()
            for job in workloads:
                parent_failed = failed["parent"].get((job, pair))
                change_failed = failed["change"].get((job, pair))
                if parent_failed is not None and change_failed is not None:
                    if change_failed > parent_failed:
                        problems.append(
                            f"pair {pair + 1}: change {job} failed {change_failed} sessions, "
                            f"parent {parent_failed}"
                        )

    print()
    for job, metric, better, bound in metrics:
        parent = values["parent"].get((job, metric), {})
        change = values["change"].get((job, metric), {})
        rule = f"bound {bound:.0%}" if bound is not None else "not gated"
        print(f"{job} {metric} ({better} is better, {rule})")
        if not parent:
            print("  missing from the parent's output: not compared\n")
            continue
        print(f"  {'pair':>4} {'seed':>4} {'parent':>16} {'change':>16} {'ratio':>7}")
        count = 0
        for pair in range(PAIRS):
            if pair not in parent or pair not in change:
                print(f"  {pair + 1:>4} {pair + 1:>4} {'-':>16} {'-':>16}")
                continue
            ratio = change[pair] / parent[pair] if parent[pair] else float("inf")
            worse = bound is not None and regressed(better, bound, parent[pair], change[pair])
            count += worse
            mark = "  regressed" if worse else ""
            print(
                f"  {pair + 1:>4} {pair + 1:>4} {parent[pair]:>16.6g} {change[pair]:>16.6g} "
                f"{ratio:>7.3f}{mark}"
            )
        if bound is not None:
            print(f"  regressed in {count} of {PAIRS} pairs")
            if count >= REGRESSED_PAIRS_TO_FAIL:
                problems.append(f"{job} {metric} regressed in {count} of {PAIRS} pairs")
        print()

    def change_median(field):
        samples = list(values["change"].get((BENCH_JSON, field), {}).values())
        return statistics.median(samples) if samples else None

    floors = [("hashed_bytes_per_sec_x4", "hashed_bytes_per_sec", X4_MIN_MULTIPLIER)]
    if tiers <= {"scalar"}:
        print(f"simd tier {sorted(tiers)}: the 4-lane floor does not apply")
        floors = []
    for numerator, denominator, floor in floors:
        top, bottom = change_median(numerator), change_median(denominator)
        if top is None or bottom is None or bottom <= 0:
            problems.append(f"change median {numerator} / {denominator}: no measurement")
            continue
        ok = top >= floor * bottom
        print(
            f"change median {numerator} / {denominator} = {top / bottom:.2f}x "
            f"(floor {floor:.1f}x){'' if ok else '  BELOW FLOOR'}"
        )
        if not ok:
            problems.append(f"change median {numerator} is {top / bottom:.2f}x {denominator}")

    print(f"\nwall time {time.monotonic() - started:.0f} s")
    if problems:
        print("bench pair: FAIL")
        for problem in problems:
            print(f"  {problem}")
        sys.exit(1)
    print("bench pair: pass")


if __name__ == "__main__":
    main()
