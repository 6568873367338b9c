"""Runs one workload's cases and records them.

Started by run.py with ``PYTHONPATH=src``.  Inputs come from gen.py, round
by round, and are prepared (scenario files written) before a round's timer
starts.  Each round runs in a child forked from this interpreter right after
the import, so every round starts from the same state: no round finds the
kernel's memo filled by an earlier one, whatever the seed or the round count.
Untraced, whole rounds run until the timed phase is as near the requested
seconds as whole rounds allow; traced, a fixed number of rounds runs so that
the per-layer counts repeat exactly for a seed.  A case with a time cap runs
in a further forked child that is killed at the cap, so abandoning it leaves
the round's caches as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

# Rounds of a traced run: a few seconds of work each.
TRACE_ROUNDS = {
    "pushed-pipeline": 1,
    "factor-queries": 1,
    "elementary-numeric": 40,
    "dense-linear": 3,
}


class Runner:
    def __init__(self, work: Path):
        self.work = work

    # -- preparation (untimed) ------------------------------------------------

    def prepare(self, rnd: int, cases) -> None:
        written = {}
        for i, case in enumerate(cases):
            if case["kind"] == "cli":
                key = json.dumps(gen.shear_json(case["shear"]), sort_keys=True)
                path = written.get(key)
                if path is None:
                    doc = gen.push_scenario(gen.load_base(case["shear"]["base"]), case["shear"])
                    path = self.work / ("r%d_s%d.json" % (rnd, len(written)))
                    path.write_text(json.dumps(doc))
                    written[key] = path
                case["path"] = str(path)
                case["report"] = str(self.work / ("r%d_c%d.out.json" % (rnd, i)))

    # -- one case (timed) -----------------------------------------------------

    def run(self, case) -> dict:
        return getattr(self, "_run_" + case["kind"])(case)

    def _run_cli(self, case) -> dict:
        from cinfstruct import cli

        cmd = case["command"]
        path = case["path"]
        if cmd == "check":
            argv = ["check", path, "cinf-structure"]
        elif cmd == "reduce":
            argv = ["reduce", path]
        elif cmd == "factors":
            argv = ["factors", path, "--emit-solvable"]
        elif cmd == "verify":
            argv = ["verify", "factor", path, "--level", str(case["level"]),
                    "--kind", "symmetrizing", "--expr", case["expr"]]
        else:
            argv = ["convert", "factor", path, "--direction", "f2mu",
                    "--level", str(case["level"]), "--expr", case["expr"]]
        argv += ["--report", case["report"]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        return {"exit": code}

    def _run_primitive(self, case) -> dict:
        from cinfstruct.calculus import d_of_function
        from cinfstruct.charts import Chart
        from cinfstruct.factors import primitive_by_quadrature

        chart = Chart("P", ("x", "u"))
        form = d_of_function(chart, chart.parse(case["F"]))
        bx, bu = case["base"]
        res = primitive_by_quadrature(form, base=(bx, bu))
        table = [[res(bx + dx, bu + du) for du in gen.GRID] for dx in gen.GRID]
        return {"ok": res.ok, "table": table}

    def _run_identity(self, case) -> dict:
        from cinfstruct.charts import Chart
        from cinfstruct.zerotest import is_zero

        chart = Chart("I", ("x", "u", "v"))
        res = is_zero(chart.parse(case["expr"]))
        return {
            "certainty": res.certainty.value,
            "witness": res.witness.as_json() if res.witness is not None else None,
            "witness_value": res.witness_value,
        }

    def _run_linear(self, case) -> dict:
        from cinfstruct import syntax
        from cinfstruct.charts import Chart
        from cinfstruct.linalg import det, rank_certified, solve_linear

        chart = Chart("L", gen.LINEAR_VARS)
        matrix = [[chart.parse(t) for t in row] for row in case["matrix"]]
        rhs = [chart.parse(t) for t in case["rhs"]]
        sol = solve_linear(matrix, rhs)
        rank, _pivots, _witness = rank_certified(matrix)
        d = det(matrix)
        fmt = syntax.format_expression
        return {"x": [fmt(v) for v in sol.values], "rank": rank, "det": fmt(d)}

    def run_capped(self, case, cap: float):
        """Run in a forked child: (output, seconds charged, error or None).

        A case still running at the cap is killed and charged the cap.  One
        that exits with an error is charged the cap too, so that breaking it
        cannot make a run look faster."""
        out = self.work / "capped.json"
        if out.exists():
            out.unlink()
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            # Ends itself even if this process dies before it can kill it.
            signal.alarm(int(cap) + 2)
            in_child(out, lambda: self.run(case))
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() - t0 >= cap:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return None, cap, None
            time.sleep(0.005)
        elapsed = time.perf_counter() - t0
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            return json.loads(out.read_text()), elapsed, None
        time.sleep(max(0.0, cap - elapsed))
        return None, max(elapsed, cap), "capped case exited with status %d" % status


def in_child(out: Path, fn) -> None:
    """The child's side of a fork: write fn()'s result to out as JSON, exit."""
    code = 1
    try:
        out.write_text(json.dumps(fn()))
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).  A round's child starts at
    the size of the worker it was forked from.  ru_maxrss would do, but it
    survives exec: a worker spawned by a large parent would report the
    parent's size."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cases_path(runner: Runner, rnd: int) -> Path:
    return runner.work / ("round-%d-cases.json" % rnd)


def play_round(runner: Runner, rnd: int, cases, tracer) -> dict:
    """The timed cases of one round; then, untimed, their records and
    reports go to cases_path and the round's totals are returned."""
    records = []
    t_round = time.perf_counter()
    for i, case in enumerate(cases):
        cap = case.get("cap_s")
        t0 = time.perf_counter()
        error = None
        try:
            if cap is None:
                output = runner.run(case)
                spent = time.perf_counter() - t0
            else:
                output, spent, error = runner.run_capped(case, cap)
        except Exception as exc:  # a case that raises is a failed case
            output, spent = None, time.perf_counter() - t0
            error = "%s: %s" % (type(exc).__name__, exc)
        records.append({
            "round": rnd,
            "index": i,
            "seconds": spent,
            "capped": cap is not None and output is None and error is None,
            "error": error,
            "output": output,
            "report": case.get("report"),
        })
    result = {"timed_s": time.perf_counter() - t_round, "peak_rss_mb": peak_rss_mb()}
    for rec in records:
        rpt = rec.pop("report")
        if rpt and os.path.exists(rpt):
            rec["report"] = json.loads(Path(rpt).read_text())
    cases_path(runner, rnd).write_text(json.dumps(records))
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["spans"] = tracer.span_records()
        result["spans_dropped"] = tracer.spans_dropped
    return result


def fork_round(runner: Runner, rnd: int, cases, tracer) -> dict:
    """play_round in a child forked from this interpreter.  The records stay
    in their file until the run ends, so that this process, and with it the
    next round's child, does not grow from round to round."""
    out = runner.work / ("round-%d.json" % rnd)
    pid = os.fork()
    if pid == 0:
        in_child(out, lambda: play_round(runner, rnd, cases, tracer))
    _, status = os.waitpid(pid, 0)
    if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
        raise RuntimeError("round %d ended with status %d" % (rnd, status))
    result = json.loads(out.read_text())
    out.unlink()
    return result


def merge_trace(total: dict, part: dict) -> None:
    for name, value in part.items():
        if name.endswith(".max_terms"):
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=0, help="fixed round count (0: run by time)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    importlib.import_module(gen.ENTRY[args.workload])  # loaded before timing

    runner = Runner(Path(args.work))
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    timed = 0.0
    peak = 0.0
    trace, spans, dropped = {}, [], 0
    rnd = 0
    while True:
        cases = gen.make_round(args.workload, args.seed, rnd)
        runner.prepare(rnd, cases)
        part = fork_round(runner, rnd, cases, tracer)
        timed += part["timed_s"]
        peak = max(peak, part["peak_rss_mb"])
        if tracer is not None:
            merge_trace(trace, part["trace"])
            offset = len(spans)
            spans.extend(
                (name, start, end, parent + offset if parent >= 0 else -1)
                for name, start, end, parent in part["spans"]
            )
            dropped += part["spans_dropped"]
        rnd += 1
        if args.rounds:
            if rnd >= args.rounds:
                break
        elif timed + timed / rnd / 2 >= args.seconds:
            # The round count nearest to seconds / round time: a run whose
            # rounds last about seconds / k would otherwise do k or k + 1
            # rounds by chance.
            break
    records = []
    for r in range(rnd):
        records.extend(json.loads(cases_path(runner, r).read_text()))
    result = {"rounds": rnd, "timed_s": timed, "peak_rss_mb": peak, "cases": records}
    if tracer is not None:
        tracer.uninstall()
        result.update(trace=trace, spans=spans, spans_dropped=dropped)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
