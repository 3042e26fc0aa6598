#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig9-paper --seed 2005 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, one table
    python3 perfbench/run.py --workload city-10k --trace 1  # the traced pass only
    python3 perfbench/run.py --steady --runs 10 --save runs.json
    python3 perfbench/run.py --compare parent.json change.json
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-reference

Each run builds perfbench (CMake, Release) into .bench_build/perfbench
under the repository root, runs the workload, checks its outputs against
perfbench/reference.json (reference seed only) and the binary's own
invariant checks, prints a table, and ends stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-trace")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 2005
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def configured_here():
    """Whether BUILD holds a finished configure of this checkout's
    perfbench/.  A tree copied or moved from another path does not."""
    # cmake writes check_cache only when configure and generate succeed.
    if not os.path.exists(os.path.join(BUILD, "CMakeFiles", "cmake.check_cache")):
        return False
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    source = line.split("=", 1)[1].strip()
                    return os.path.realpath(source) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build():
    """Configure when needed, then build incrementally; output goes to
    stderr.  A failed build is retried once from an empty tree with one
    job, which clears a tree left half-written by an interrupted build
    and a compiler killed for want of memory.  Compiler temporaries go to
    .bench_build/tmp, so the build writes nothing outside the checkout."""
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)
    for jobs in (min(2, os.cpu_count() or 1), 1):
        steps = []
        if not configured_here():
            shutil.rmtree(BUILD, ignore_errors=True)
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(jobs)])
        if all(subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode == 0
               for step in steps):
            return
        log("perfbench: build with -j %d failed" % jobs)
        shutil.rmtree(BUILD, ignore_errors=True)
    sys.exit("perfbench: build failed")


def run_binary(workload, seed, seconds, trace):
    work = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work]
    if trace:
        cmd += ["--trace-dir", os.path.join(TRACES, "%s-s%d" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s failed (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1])


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def score(raw, reference):
    """Failed operations: the binary's own invariant failures plus, at the
    reference seed, every operation whose output digest differs."""
    failed = raw["failed"]
    notes = list(raw["failures"])
    expected = reference.get(raw["workload"], {}) if raw["seed"] == REFERENCE_SEED else {}
    for check in raw["checks"]:
        want = expected.get(check["id"])
        if want is not None and want != check["digest"]:
            failed += check["ops"] * raw["passes"]
            notes.append("%s: digest %s, reference %s" % (check["id"], check["digest"], want))
    if expected and {c["id"] for c in raw["checks"]} != set(expected):
        failed += 1
        notes.append("output set differs from the reference")
    return min(failed, raw["attempted"]), notes


def run_one(workload, seed, seconds, trace, spec, reference):
    raw = run_binary(workload, seed, seconds, trace)
    failed, notes = score(raw, reference)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in raw["metrics"]]
    if missing:
        sys.exit("perfbench: %s did not report %s" % (workload, ", ".join(missing)))
    return {
        "workload": workload,
        "passes": raw["passes"],
        "notes": notes,
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {n: raw["metrics"][n] for n in names},
        "table": raw["metrics"],
    }


def print_table(results):
    """One row per reported metric, one column per workload; fail_rate last."""
    workloads = [r["workload"] for r in results]
    names = list(results[0]["table"])
    width = max(len(n) for n in names + ["fail_rate"]) + 2
    print("%-*s%-8s" % (width, "metric", "unit") + "".join("%18s" % w for w in workloads))
    for name in names:
        unit = results[0]["table"][name]["unit"]
        cells = "".join("%18.6g" % r["table"][name]["value"] for r in results)
        print("%-*s%-8s%s" % (width, name, unit, cells))
    cells = "".join("%18.6g" % (r["failed"] / r["attempted"]) for r in results)
    print("%-*s%-8s%s" % (width, "fail_rate", "ratio", cells))
    for r in results:
        for note in r["notes"]:
            print("  %s: %s" % (r["workload"], note))


def quartile_spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(args, spec, reference):
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    seeds = [args.first_seed + k for k in range(args.runs)]
    saved = {}
    flagged = 0
    for workload in workloads:
        values = {}
        for seed in seeds:
            result = run_one(workload, seed, args.seconds, 0, spec, reference)
            if not result["correct"]:
                log("perfbench: %s seed %d failed: %s" % (workload, seed, result["notes"]))
                flagged += 1
            for name, metric in result["table"].items():
                values.setdefault(name, []).append(metric["value"])
            log("%s seed %d: %s" % (workload, seed, json.dumps(
                {n: round(m["value"], 6) for n, m in result["table"].items()})))
        saved[workload] = values
        print("%s (%d runs, seeds %d..%d)" % (workload, len(seeds), seeds[0], seeds[-1]))
        print("  %-20s %14s %14s %14s %8s %7s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name in values:
            q1, q2, q3, spread = quartile_spread(values[name])
            if name not in bounds:  # reported for information, not gated
                print("  %-20s %14.6g %14.6g %14.6g %8.4f %7s" % (name, q1, q2, q3, spread, "-"))
                continue
            bound = bounds[name]
            verdict = ""
            if spread > bound:
                verdict = "  OVER BOUND"
                if name != "setup_s":
                    flagged += 1
            elif spread > bound / 3:
                verdict = "  above bound/3"
            print("  %-20s %14.6g %14.6g %14.6g %8.4f %7.3f%s"
                  % (name, q1, q2, q3, spread, bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seeds": seeds, "seconds": args.seconds, "values": saved}, f, indent=1)
    return 1 if flagged else 0


def compare(base_path, change_path, spec):
    """Medians of two --save files against each metric's bound."""
    with open(base_path) as f:
        base = json.load(f)["values"]
    with open(change_path) as f:
        change = json.load(f)["values"]
    worse = 0
    for workload in base:
        if workload not in change:
            continue
        print(workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = statistics.median(base[workload][name])
            c = statistics.median(change[workload][name])
            delta = (c - b) / b
            regress = delta > metric["bound"] if metric["better"] == "lower" else -delta > metric["bound"]
            worse += regress
            print("  %-18s parent %14.6g  change %14.6g  %+8.2f%%  bound %4.0f%%%s"
                  % (name, b, c, 100 * delta, 100 * metric["bound"], "  REGRESSION" if regress else ""))
    return 1 if worse else 0


def record_reference(spec):
    reference = {}
    for w in spec["workloads"]:
        raw = run_binary(w["name"], REFERENCE_SEED, 0, 0)
        if raw["failed"]:
            sys.exit("perfbench: %s fails its invariants: %s" % (w["name"], raw["failures"]))
        reference[w["name"]] = {c["id"]: c["digest"] for c in raw["checks"]}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", REFERENCE)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run each workload --runs times on distinct seeds; report spreads")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="--steady: write every measured value to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --save files against the bounds")
    parser.add_argument("--selftest", action="store_true", help="build and run perfbench_test")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json from the reference seed")
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    build()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_test"),
                               os.path.join(WORK, "selftest")]).returncode
    if args.record_reference:
        record_reference(spec)
        return 0
    reference = load_reference()
    if args.steady:
        return steady(args, spec, reference)

    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    if any(w not in known for w in workloads):
        sys.exit("perfbench: unknown workload %r (known: %s)" % (args.workload, ", ".join(known)))
    results = [run_one(w, args.seed, args.seconds, args.trace, spec, reference) for w in workloads]
    print_table(results)
    if len(results) == 1:
        r = results[0]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s/%s" % (r["workload"], n): m
                        for r in results for n, m in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
