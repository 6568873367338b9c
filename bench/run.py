"""cinfstruct benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload pushed-pipeline --seed 1 --seconds 19 --trace 0
    python3 bench/run.py --all --seed 1          # every workload, one table
    python3 bench/run.py --steadiness            # two batches per workload
                                                 # (--workload W: only W)
    python3 bench/run.py --selftest              # generators and oracle

One workload run times the import of the workload's entry module in fresh
interpreters, before and after the timed phase.  The timed phase runs whole
rounds of cases for the given seconds, each round in a child forked from
one fresh single-threaded interpreter.  The run then checks every output
with the oracle in this process and prints one JSON object as its last line.
With ``--trace 1`` it runs a fixed number of rounds twice, untraced and
traced, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

# Set-up is the median of two sets of imports, one before the timed phase
# and one after it, so that it samples the machine at two times.  Each set
# has at least SETUP_MIN_PROBES imports, and as many more as fit in
# SETUP_BUDGET_S: a cheap entry module gets many probes.
SETUP_MIN_PROBES = 3
SETUP_MAX_PROBES = 20
SETUP_BUDGET_S = 2.0
IMPORT_PROBES = 3
STEADY_RUNS = 5  # runs per batch in --steadiness
CHILD_TIMEOUT_S = 150

_IMPORT_PROBE = """
import importlib, json, sys, time
t0 = time.perf_counter()
importlib.import_module(sys.argv[1])
print(json.dumps(time.perf_counter() - t0))
"""

_LAYER_PROBE = """
import importlib, json, sys, time
out = {}
for key, mod in (("mpmath", "mpmath"), ("scipy", "scipy.integrate"), ("cinfstruct", sys.argv[1])):
    t0 = time.perf_counter()
    importlib.import_module(mod)
    out["import.%s_s" % key] = time.perf_counter() - t0
print(json.dumps(out))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv) -> str:
    proc = subprocess.run(
        [sys.executable] + argv,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (argv[:2], proc.stderr[-2000:]))
    return proc.stdout


def import_times(workload: str) -> list:
    """Import times of the entry module in fresh interpreters."""
    argv = ["-c", _IMPORT_PROBE, gen.ENTRY[workload]]
    times = []
    t0 = time.perf_counter()
    while len(times) < SETUP_MIN_PROBES or (
        len(times) < SETUP_MAX_PROBES and time.perf_counter() - t0 < SETUP_BUDGET_S
    ):
        times.append(json.loads(run_child(argv)))
    return times


def import_layers(workload: str) -> dict:
    argv = ["-c", _LAYER_PROBE, gen.ENTRY[workload]]
    probes = [json.loads(run_child(argv)) for _ in range(IMPORT_PROBES)]
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def run_worker(workload, seed, seconds, work: Path, rounds=0, trace=False) -> dict:
    out = work / ("worker-%s.json" % ("trace" if trace else "plain"))
    argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--work", str(work), "--out", str(out)]
    if rounds:
        argv += ["--rounds", str(rounds)]
    if trace:
        argv.append("--trace")
    run_child(argv)
    return json.loads(out.read_text())


def judge(workload: str, seed: int, result: dict):
    """(attempted, failed, problems) for a worker result, via the oracle."""
    import oracle

    problems = []
    failed = 0
    rounds = [gen.make_round(workload, seed, r) for r in range(result["rounds"])]
    for rec in result["cases"]:
        case = rounds[rec["round"]][rec["index"]]
        if rec["capped"] or rec["error"]:
            # Only a kill at the cap is the expected (frontier) failure.
            failed += 1
            if rec["error"]:
                problems.append(
                    "round %d case %d raised %s" % (rec["round"], rec["index"], rec["error"])
                )
            continue
        why = oracle.check(case, rec)
        if why is not None:
            problems.append("round %d case %d: %s" % (rec["round"], rec["index"], why))
    return len(result["cases"]), failed, problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> dict:
    run_child(["-c", _IMPORT_PROBE, gen.ENTRY[workload]])  # writes the bytecode caches
    setup = import_times(workload)
    result = run_worker(workload, seed, seconds, work)
    setup += import_times(workload)
    attempted, failed, problems = judge(workload, seed, result)
    times = [rec["seconds"] for rec in result["cases"]]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "case_s_p50": _metric(statistics.median(times), "s"),
        "cases_per_s": _metric(attempted / result["timed_s"], "1/s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems[:20]}


def per_layer(workload: str, seed: int, work: Path, out_dir: Path) -> dict:
    """Fixed rounds untraced then traced (same inputs), so counts repeat."""
    import worker

    rounds = worker.TRACE_ROUNDS[workload]
    plain = run_worker(workload, seed, 0, work, rounds=rounds)
    traced = run_worker(workload, seed, 0, work, rounds=rounds, trace=True)
    attempted, failed, problems = judge(workload, seed, traced)
    layers = dict(traced["trace"])
    layers.update(import_layers(workload))
    layers["trace.overhead_pct"] = 100.0 * (traced["timed_s"] / plain["timed_s"] - 1.0)
    out_dir.mkdir(exist_ok=True)
    (out_dir / ("trace-%s-%d.json" % (workload, seed))).write_text(json.dumps({
        "workload": workload, "seed": seed, "rounds": rounds,
        "metrics": layers, "spans_dropped": traced["spans_dropped"],
        "spans": traced["spans"],
    }))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics = {name: _metric(layers[name], unit) for name, unit in units.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems[:20]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "cinfstruct" / "__init__.py").is_file():
        raise SystemExit("error: no src/cinfstruct under %s; run from a checkout" % ROOT)
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return per_layer(workload, seed, work, ROOT / ".bench_out")
        return end_to_end(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass


# -- whole-benchmark modes -----------------------------------------------------


def run_all(seed: int, seconds: float) -> None:
    for w in gen.WORKLOADS:
        res = run_one(w, seed, seconds, False)
        print("%-20s attempted %5d  failed %4d  correct %s"
              % (w, res["attempted"], res["failed"], res["correct"]))
        for name, m in res["metrics"].items():
            print("    %-14s %12.6g %s" % (name, m["value"], m["unit"]))
        for p in res["problems"]:
            print("    problem: %s" % p)


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(seconds: float, workloads) -> None:
    """Two batches of runs per workload, on disjoint seeds.  For each
    end-to-end metric: each batch's quartiles and spread (IQR / median), the
    spread over both batches, the shift between the batch medians, and the
    metric's bound; then each batch's share of failed cases."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        batches = []
        shares = []
        for b in range(2):
            values = {}
            share = set()
            for i in range(STEADY_RUNS):
                seed = 1000 * (b + 1) + i
                res = run_one(w, seed, seconds, False)
                print("  %s seed %d: %s" % (w, seed, "  ".join(
                    "%s %.5g" % (k, m["value"]) for k, m in res["metrics"].items())))
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                share.add((res["failed"], res["attempted"]))
                if not res["correct"]:
                    print("    incorrect run: %s" % res["problems"][:3])
            batches.append(values)
            shares.append(sorted({f / a for f, a in share}))
        print(w)
        for name in bounds:
            qa, qb = _quartiles(batches[0][name]), _quartiles(batches[1][name])
            qall = _quartiles(batches[0][name] + batches[1][name])
            print("    %-12s A %.4g/%.4g/%.4g spread %.3f | B %.4g/%.4g/%.4g spread %.3f"
                  " | both spread %.3f | shift %.3f | bound %.2f" % (
                      name, qa[0], qa[1], qa[2], (qa[2] - qa[0]) / qa[1],
                      qb[0], qb[1], qb[2], (qb[2] - qb[0]) / qb[1],
                      (qall[2] - qall[0]) / qall[1], abs(qb[1] - qa[1]) / qa[1], bounds[name]))
        print("    failed share A %s | B %s" % (shares[0], shares[1]))
        sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload once")
    ap.add_argument("--steadiness", action="store_true", help="two batches per workload")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.selftest:
        import selftest

        return selftest.main()
    if args.all:
        run_all(args.seed, seconds)
        return 0
    if args.steadiness:
        steadiness(seconds, [args.workload] if args.workload else gen.WORKLOADS)
        return 0
    if args.workload is None:
        ap.error("give --workload, --all, --steadiness or --selftest")
    res = run_one(args.workload, args.seed, seconds, bool(args.trace))
    for p in res.pop("problems"):
        print("problem: %s" % p)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
