"""Scenario loading: strict validation first, resolution second."""

import copy
import json
from dataclasses import fields
from pathlib import Path

import pytest

from cinfstruct.errors import ScenarioError
from cinfstruct.reduction import init_reduction, run_reduction
from cinfstruct.scenario import _POLICY_KEYS, build_scenario, load_scenario
from cinfstruct.zerotest import DEFAULT_POLICY, ZeroTestPolicy

import helpers

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal():
    return {
        "chart": {"name": "P", "coords": ["x", "y"]},
        "fields": {"Z": ["1", "0"], "X": ["0", "1"]},
        "structure": {"generators": ["Z"], "fields": ["X"]},
    }


def test_load_the_four_coordinate_scenario():
    sc = load_scenario(SCENARIOS / "example31.json")
    assert sc.chart.name == "M"
    assert sc.chart.coords == ("x1", "x2", "x3", "x4")
    assert set(sc.fields) == {"Z1", "Z2", "X1", "X2"}
    assert sc.generator_names == ("Z1", "Z2")
    assert sc.field_names == ("X1", "X2")
    specs = sc.steps
    assert [s.solve_for for s in specs] == ["x4", "x3"]
    assert specs[0].solution == helpers.DIM4_SOLUTION_2
    assert specs[1].solution == helpers.DIM4_SOLUTION_1
    assert sc.policy == DEFAULT_POLICY


def test_load_the_jet_scenario():
    sc = load_scenario(SCENARIOS / "airy.json")
    assert sc.chart.coords == ("x", "u", "u1", "u2")
    assert len(sc.chart.rules) == 3
    assert sc.generator_names == ("A",)
    specs = sc.steps
    assert [s.solve_for for s in specs] == ["u2", "u1", "u"]
    assert specs[0].add_rules == (helpers.AIRY_RULE_G,)
    assert specs[1].add_rules == (helpers.AIRY_RULE_H,)
    assert specs[2].add_rules == ()


def test_scenario_drives_the_pipeline():
    sc = load_scenario(SCENARIOS / "example31.json")
    state = init_reduction(sc.distribution, sc.structure_fields, sc.policy)
    run_reduction(state, sc.steps)
    assert state.complete
    assert state.ok


def test_merged_policy_overrides():
    sc = build_scenario(minimal())
    merged = sc.merged_policy(seed=5, samples=9, tol=1e-6)
    assert (merged.seed, merged.samples, merged.tol) == (5, 9, 1e-6)
    assert sc.merged_policy() == sc.policy


def test_policy_block_is_validated():
    doc = minimal()
    doc["policy"] = {"seed": 3, "samples": 4, "tol": 0.5}
    sc = build_scenario(doc)
    assert (sc.policy.seed, sc.policy.samples, sc.policy.tol) == (3, 4, 0.5)
    for bad in [
        {"seed": "x"},
        {"samples": 0},
        {"samples": True},
        {"tol": -1},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"speed": 1},
    ]:
        doc = minimal()
        doc["policy"] = bad
        with pytest.raises(ScenarioError):
            build_scenario(doc)


def test_unknown_top_level_keys_are_rejected():
    doc = minimal()
    doc["fieldz"] = {}
    with pytest.raises(ScenarioError, match="the scenario has unknown keys: fieldz"):
        build_scenario(doc)
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        build_scenario(["not", "an", "object"])
    with pytest.raises(ScenarioError, match="missing the 'chart' key"):
        build_scenario({"fields": {}, "structure": {"generators": [], "fields": []}})


def test_field_component_counts_are_checked():
    doc = minimal()
    doc["fields"]["X"] = ["0", "1", "0"]
    with pytest.raises(ScenarioError, match="3 components on a 2-dimensional"):
        build_scenario(doc)
    doc = minimal()
    doc["fields"]["X"] = ["0", "1 +"]
    with pytest.raises(ScenarioError, match="field 'X'"):
        build_scenario(doc)


def test_structure_names_are_checked():
    doc = minimal()
    doc["structure"]["fields"] = ["X9"]
    with pytest.raises(ScenarioError, match="unknown field 'X9'"):
        build_scenario(doc)
    doc = minimal()
    doc["structure"]["fields"] = ["Z"]
    with pytest.raises(ScenarioError, match="cannot be both"):
        build_scenario(doc)


def test_reduction_levels_must_be_contiguous():
    doc = minimal()
    doc["reduction"] = [
        {"level": 2, "integral": "y", "constant": "K", "parametrization": ["x", "K"]}
    ]
    with pytest.raises(ScenarioError, match="levels must run contiguously"):
        build_scenario(doc)


def test_parametrization_must_be_a_graph():
    doc = minimal()
    doc["reduction"] = [
        {"level": 1, "integral": "y", "constant": "K", "parametrization": ["x", "x"]}
    ]
    # both components moved (the second equals a foreign coordinate)
    bad = copy.deepcopy(doc)
    bad["reduction"][0]["parametrization"] = ["y", "x"]
    with pytest.raises(ScenarioError, match="must be a graph"):
        build_scenario(bad)
    none_moved = copy.deepcopy(doc)
    none_moved["reduction"][0]["parametrization"] = ["x", "y"]
    with pytest.raises(ScenarioError, match="must be a graph"):
        build_scenario(none_moved)
    wide = copy.deepcopy(doc)
    wide["reduction"][0]["parametrization"] = ["x", "K", "K"]
    with pytest.raises(ScenarioError, match="has 3 components"):
        build_scenario(wide)


def test_reduction_entry_keys_are_strict():
    doc = minimal()
    doc["reduction"] = [
        {
            "level": 1,
            "integral": "y",
            "constant": "K",
            "parametrization": ["x", "K"],
            "solvefor": "y",
        }
    ]
    with pytest.raises(ScenarioError, match="reduction entry 1 has unknown keys"):
        build_scenario(doc)


def test_bad_rewrite_rules_are_reported():
    doc = minimal()
    doc["rules"] = ["D(phi, x) phi"]
    with pytest.raises(ScenarioError, match="bad rewrite rule"):
        build_scenario(doc)


def test_forms_block(tmp_path):
    # No command reads named forms, so a forms block is an unknown key.
    doc = minimal()
    doc["forms"] = {"w": ["y", "-x"]}
    with pytest.raises(ScenarioError, match="the scenario has unknown keys: forms"):
        build_scenario(doc)


def test_load_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)
    listy = tmp_path / "list.json"
    listy.write_text(json.dumps([1, 2]))
    with pytest.raises(ScenarioError, match="must be a JSON object"):
        load_scenario(listy)


def test_the_policy_has_exactly_the_fields_a_scenario_may_set():
    assert {f.name for f in fields(ZeroTestPolicy)} == _POLICY_KEYS
