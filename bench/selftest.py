"""Self-test of the benchmark: generators repeat, closed forms hold, and the
oracle rejects planted wrong answers.  Run ``python3 bench/run.py --selftest``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
from pathlib import Path

import sympy

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent


def _check(ok: bool, what: str, failures: list) -> None:
    print("%-4s %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def generators_repeat(failures) -> None:
    for w in gen.WORKLOADS:
        a = json.dumps(gen.make_round(w, 5, 2), default=str, sort_keys=True)
        b = json.dumps(gen.make_round(w, 5, 2), default=str, sort_keys=True)
        c = json.dumps(gen.make_round(w, 6, 2), default=str, sort_keys=True)
        _check(
            a == b and a != c,
            "%s: same seed, same inputs; other seed, other inputs" % w,
            failures,
        )


def closed_forms(failures) -> None:
    """f_k = 1 / X_k(I_k), with I_k lifted to the original chart."""
    for base, factors in gen.BASE_FACTORS.items():
        doc = gen.load_base(base)
        coords = [sympy.Symbol(c) for c in doc["chart"]["coords"]]
        lifted = {}
        for entry in doc["reduction"]:  # top level first
            integral = oracle.to_sympy(entry["integral"]).xreplace(lifted)
            lifted[sympy.Symbol(entry["constant"])] = integral
        for entry in doc["reduction"]:
            level = entry["level"]
            X = [oracle.to_sympy(c) for c in doc["fields"][doc["structure"]["fields"][level - 1]]]
            I = lifted[sympy.Symbol(entry["constant"])]
            XI = sum(Xi * sympy.diff(I, xi) for Xi, xi in zip(X, coords))
            diff = sympy.cancel(sympy.together(1 / XI - oracle.to_sympy(factors[level])))
            _check(diff == 0, "%s level %d factor is 1/X(I)" % (base, level), failures)


def planted(failures) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = worker.Runner(work)

        # A reduce report, then the same with one graph component moved.
        shear = gen.draw_shear(gen.round_rng("selftest", 0, 0), "example31", 2)
        case = {"kind": "cli", "command": "reduce", "shear": shear}
        runner.prepare(0, [case])
        rec = {"output": runner.run(case)}
        rec["report"] = json.loads(Path(case["report"]).read_text())
        _check(oracle.check(case, rec) is None, "oracle accepts a real reduce report", failures)
        bad = copy.deepcopy(rec)
        eqs = bad["report"]["report"]["equations"]
        eqs[-1] = eqs[-1] + " + 1/7"
        _check(oracle.check(case, bad) is not None, "oracle rejects a perturbed graph", failures)

        # A false factor claim, refuted; then its verdict flipped.
        rng = gen.round_rng("selftest", 0, 1)
        doc = gen.push_scenario(gen.load_base("example31"), shear)
        q = gen._query(rng, "example31", shear, doc, "verify", False, 2, True)
        runner.prepare(1, [q])
        rec = {"output": runner.run(q)}
        rec["report"] = json.loads(Path(q["report"]).read_text())
        _check(oracle.check(q, rec) is None, "oracle accepts a real refutation", failures)
        flipped = copy.deepcopy(rec)
        flipped["output"]["exit"] = 0
        _check(oracle.check(q, flipped) is not None, "oracle rejects a flipped verdict", failures)
        nowit = copy.deepcopy(rec)
        for item in nowit["report"]["certificate"]["checks"]:
            item.pop("witness", None)
        _check(
            oracle.check(q, nowit) is not None,
            "oracle rejects a refutation with no witness",
            failures,
        )

        # A linear system; then a wrong determinant and a wrong solution.
        lin = gen.linear_system(gen.round_rng("selftest", 0, 2), 2, 1, 2)
        rec = {"output": runner.run(lin)}
        _check(oracle.check(lin, rec) is None, "oracle accepts a real solve", failures)
        for rnd, how in ((0, "exactly"), (1, "at random points")):
            bad = copy.deepcopy(rec)
            bad["round"] = rnd
            bad["output"]["det"] = "2*(%s)" % bad["output"]["det"]
            _check(
                oracle.check(lin, bad) is not None,
                "oracle rejects a wrong determinant " + how,
                failures,
            )
            bad = copy.deepcopy(rec)
            bad["round"] = rnd
            bad["output"]["x"][0] = "(%s) + x1" % bad["output"]["x"][0]
            _check(
                oracle.check(lin, bad) is not None,
                "oracle rejects a wrong solution " + how,
                failures,
            )

        # The frontier case: a kill at its cap is the expected failure; an
        # exit with an error is a problem, and is charged the cap.
        import run

        for how, rec, problems_wanted in (
            ("killed at its cap is a failure only", {"capped": True, "error": None}, 0),
            ("that raised is a problem", {"capped": False, "error": "status 256"}, 1),
        ):
            rec.update(round=0, index=gen.LINEAR_PER_ROUND, seconds=gen.FRONTIER_CAP_S,
                       output=None)
            _attempted, failed, problems = run.judge("dense-linear", 0, {"rounds": 1,
                                                                         "cases": [rec]})
            _check(
                failed == 1 and len(problems) == problems_wanted,
                "a frontier case " + how,
                failures,
            )
        broken = {"kind": "linear", "matrix": [["x1 +"]], "rhs": ["1"]}
        with contextlib.redirect_stderr(io.StringIO()):  # the child's traceback
            output, spent, error = runner.run_capped(broken, 0.3)
        _check(
            output is None and error is not None and spent >= 0.3,
            "a capped case that raises at once is charged its cap",
            failures,
        )

        # A primitive table off by 1e-6, and an identity verdict flipped.
        prim = gen.primitive_case(gen.round_rng("selftest", 0, 3))
        rec = {"output": runner.run(prim)}
        _check(oracle.check(prim, rec) is None, "oracle accepts a real primitive", failures)
        bad = copy.deepcopy(rec)
        bad["output"]["table"][0][0] += 1e-6
        _check(
            oracle.check(prim, bad) is not None,
            "oracle rejects a primitive off by 1e-6",
            failures,
        )
        ident = gen.identity_case(gen.round_rng("selftest", 0, 4), True, 1)
        rec = {"output": runner.run(ident)}
        _check(oracle.check(ident, rec) is None, "oracle accepts a true identity", failures)
        bad = copy.deepcopy(rec)
        bad["output"]["certainty"] = "nonzero"
        _check(
            oracle.check(ident, bad) is not None,
            "oracle rejects a true identity called nonzero",
            failures,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    failures: list = []
    generators_repeat(failures)
    closed_forms(failures)
    planted(failures)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0
