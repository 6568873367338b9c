"""Golden digests of the command-line output on the two shipped scenarios.

Each digest is the sha256 of the exit code, stdout, stderr and --report
text of one command, run in-process.  The commands are check (all three
properties), reduce and factors --emit-solvable on each scenario, then
verify (both kinds) and convert (both directions) of every factor that
factors derives.  A refactoring that keeps the certificates must keep every
digest; a change that means to move a report updates the table on purpose.

A second table holds reduce and factors --emit-solvable on example31 with
all three upper coordinates sheared, where nearly all of the work is
substitution into rational functions.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from cinfstruct.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# example31 pushed through x2 += 2*x1, then x3 += -x1 + 2*x2, then
# x4 += x1 - 2*x3, one shear at a time as bench/gen.py's push_scenario does.
TRIPLE_SHEAR = Path(__file__).resolve().parent / "data" / "example31_triple_shear.json"

GOLDEN = {
    "airy check cinf-structure":
        "84d7f3ae02ee2fb6c223a019de60b7ba86d84fbc2cc907d5157a8c3e095b9008",
    "airy check independence":
        "328c7419ce344107e2f841c74be078e95fe5839e0222c96e036d008cdfa3b127",
    "airy check involutive":
        "d78512ba9dc57d68000ad468c370c57bfc10abe9666ab855733aa0cfe8286ba2",
    "airy convert f2mu 1":
        "aa988bbe183064c4aff51524d95256acc3583752e0aab6bea409b0357deb7af1",
    "airy convert f2mu 2":
        "2d2931ad6eb133cfc94218232875868c357cb71922b40a87b809bd907e13a5f6",
    "airy convert f2mu 3":
        "e9701b3291e2995c12a29a4e9c8a74fdeaa569671187062a1d29ea1c57679c0a",
    "airy convert mu2f 1":
        "b243f3ea208f6f65d40e9587c9b8dafb0dfcaa1615fdf356fd752b0f141751b0",
    "airy convert mu2f 2":
        "736c4c1d42b5ed54063144ad41135db1139e0ab8a15350eb212e101d00239df9",
    "airy convert mu2f 3":
        "1c3bf015ba141b8773dd4d1f643b9fea0e25ad0494ffab2945e2ea66aafb5efa",
    "airy factors":
        "ed9451ca38c92cf04e85dbac7b2bd4e9cdaada1b3c14ad670aa36a457b423264",
    "airy reduce":
        "ec3b1f838c14ad0c78371eacc0540c5c2c98b3980376ade635cb65f3b7218233",
    "airy verify relative-integrating 1":
        "d1ce2521a8d8a1da6228d0cdc116466751dea8847f31ecbd1c08400cea729dff",
    "airy verify relative-integrating 2":
        "8b473867991af19803001affca8fbec3bc896c5b164b32c04bf45eb61dba8d46",
    "airy verify relative-integrating 3":
        "67bbf291e2a383072ea811c5be135c6cf96a8297494195cb6949509c58a621a4",
    "airy verify symmetrizing 1":
        "ae6de5d07f4895583f7161bae6cde68c41650f0d32429fa4101c47328f0eed4c",
    "airy verify symmetrizing 2":
        "e438440a2eecb04087be358d8267baf1cdc030a904c33b1b9b07f146c7786637",
    "airy verify symmetrizing 3":
        "af853e2709253ef548b60680b0b66da13030bc009ff4477c7bd19ed7ecd35516",
    "example31 check cinf-structure":
        "427869682a97c177f85a1784372b81745acb9422b09fecb6bfca4ae53d5e23e2",
    "example31 check independence":
        "db08d89e388456f79780d7f4375bb830d0e657ac465822d962b1d52aba9dab1b",
    "example31 check involutive":
        "fea6240de175baeca6a9489ac006ab564231eafbab6b72a95cededbdd341803c",
    "example31 convert f2mu 1":
        "10d1a11fc1db6a01381612ad161873af1c9df1b28a0f494a3d9f25a1386abe01",
    "example31 convert f2mu 2":
        "b51c53fc1dfa8c059fdc13ac91e189e98523803b4899815a0f7ec32334a73c5e",
    "example31 convert mu2f 1":
        "5c64ceb927866f0ef3504f57c792c1bbebf5ad613f5f68719e1f516e6f8f56aa",
    "example31 convert mu2f 2":
        "bf65a7ed7074cfec1860d94d14cdc8286e59d4879b52114716cb0521421da006",
    "example31 factors":
        "abd88de5426717ff0a984136579cdaaa36c9cfd2d869d08aecee203fa133da9b",
    "example31 reduce":
        "2ac5a8f88440c993986a03521bc984fbe26560bdaf626e2ba1952947d33f89aa",
    "example31 verify relative-integrating 1":
        "f302240bcb2cfbc166d86229f769afefe303988bb23f5c311cb387f03bfee224",
    "example31 verify relative-integrating 2":
        "1d8429a231ec3e68865af51a4577a6f3461fce3ceb2acac69e938dc2bd8ae336",
    "example31 verify symmetrizing 1":
        "d1d13290554a260b470598ed740bb711419b660cf4b74384669e321768ce0fad",
    "example31 verify symmetrizing 2":
        "9a0d6514419a7a94aa4dee0b09bf6756c2a4cf3e66520aa143fdbd534e3266ac",
}

TRIPLE_SHEAR_GOLDEN = {
    "reduce": "613c2e279de3db3c107eed03d373e1b643f7a1614f597eb1cf1114ea4e166e30",
    "factors": "aeb5e1217fb43f62af542a9404ad0607c6b5b845a3b18094c4b0d3a9f26ebd70",
}


def _run(argv, report: Path):
    if report.exists():
        report.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--report", str(report)])
    text = report.read_text() if report.exists() else None
    blob = json.dumps([code, out.getvalue(), err.getvalue(), text])
    return hashlib.sha256(blob.encode()).hexdigest(), text


def digests(workdir: Path) -> dict:
    report = workdir / "report.json"
    got = {}
    for name in ("example31", "airy"):
        path = str(SCENARIOS / ("%s.json" % name))
        for what in ("involutive", "cinf-structure", "independence"):
            got["%s check %s" % (name, what)], _ = _run(["check", path, what], report)
        got["%s reduce" % name], _ = _run(["reduce", path], report)
        got["%s factors" % name], text = _run(["factors", path, "--emit-solvable"], report)
        for entry in json.loads(text)["factors"]:
            level = str(entry["level"])
            for kind, expr in (("symmetrizing", entry["f"]), ("relative-integrating", entry["mu"])):
                argv = ["verify", "factor", path, "--level", level, "--kind", kind, "--expr", expr]
                got["%s verify %s %s" % (name, kind, level)], _ = _run(argv, report)
            for direction, expr in (("f2mu", entry["f"]), ("mu2f", entry["mu"])):
                argv = ["convert", "factor", path, "--direction", direction, "--level", level,
                        "--expr", expr]
                got["%s convert %s %s" % (name, direction, level)], _ = _run(argv, report)
    return got


def test_cli_output_matches_the_golden_digests(tmp_path):
    got = digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    moved = sorted(k for k in GOLDEN if got[k] != GOLDEN[k])
    assert moved == []


def test_triple_shear_output_matches_the_golden_digests(tmp_path):
    report = tmp_path / "report.json"
    path = str(TRIPLE_SHEAR)
    got = {
        "reduce": _run(["reduce", path], report)[0],
        "factors": _run(["factors", path, "--emit-solvable"], report)[0],
    }
    assert got == TRIPLE_SHEAR_GOLDEN
