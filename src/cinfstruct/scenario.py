"""Scenario files: JSON descriptions of a chart, fields, and a reduction.

A scenario binds everything a command-line run needs: the chart, rewrite
rules, named vector fields, the ordered structure (which names are
generators, which are the structure fields), the reduction script, and
zero-test policy overrides.  Loading is strict: unknown keys, unresolved
names, bad component counts, non-contiguous levels, policies that
``ZeroTestPolicy`` refuses and parametrizations that are not graphs are all
reported as :class:`~cinfstruct.errors.ScenarioError` before any
certification work starts.

Parametrizations are given as full component lists (one expression per
coordinate of the chart being descended from).  Every supported
parametrization is a graph: exactly one component differs from its
coordinate, and that coordinate is the one solved for.  Loading turns each
reduction entry into the reduction module's StepSpec, the one form the
descent reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from .calculus import VectorField
from .charts import Chart, parse_rule
from .errors import BadArgumentError, CinfstructError, ScenarioError
from .reduction import StepSpec
from .structures import Distribution
from .zerotest import DEFAULT_POLICY, ZeroTestPolicy

__all__ = ["Scenario", "build_scenario", "load_scenario"]

_TOP_KEYS = {"chart", "fields", "structure", "rules", "reduction", "policy"}
_ENTRY_KEYS = {"level", "integral", "constant", "parametrization", "rewrite_rules"}
_POLICY_KEYS = {"seed", "samples", "tol"}


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario, ready to hand to the pipeline."""

    chart: Chart
    fields: Mapping[str, VectorField]
    generator_names: tuple[str, ...]
    field_names: tuple[str, ...]
    steps: tuple[StepSpec, ...]
    policy: ZeroTestPolicy

    @property
    def generators(self) -> tuple[VectorField, ...]:
        return tuple(self.fields[n] for n in self.generator_names)

    @property
    def structure_fields(self) -> tuple[VectorField, ...]:
        return tuple(self.fields[n] for n in self.field_names)

    @property
    def distribution(self) -> Distribution:
        return Distribution(self.chart, self.generators)

    def merged_policy(
        self,
        seed: Optional[int] = None,
        samples: Optional[int] = None,
        tol: Optional[float] = None,
    ) -> ZeroTestPolicy:
        """The scenario policy with any explicitly given overrides applied."""
        policy = self.policy
        if seed is not None:
            policy = policy.replace(seed=seed)
        if samples is not None:
            policy = policy.replace(samples=samples)
        if tol is not None:
            policy = policy.replace(tol=tol)
        return policy


def _want(data, key, types, where, default=None, required=False):
    if key not in data:
        if required:
            raise ScenarioError("%s is missing the %r key" % (where, key))
        return default
    value = data[key]
    # A JSON true or false is a bool, which Python also counts as an int.
    if not isinstance(value, types) or (isinstance(value, bool) and types is int):
        raise ScenarioError(
            "%s key %r should be %s, got %s"
            % (where, key, _type_names(types), type(value).__name__)
        )
    return value


def _type_names(types) -> str:
    if not isinstance(types, tuple):
        types = (types,)
    return " or ".join(t.__name__ for t in types)


def _string_list(raw, where) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ScenarioError("%s must be a list of strings" % where)
    return tuple(raw)


def _reject_unknown(data, allowed, where) -> None:
    extra = set(data) - allowed
    if extra:
        raise ScenarioError("%s has unknown keys: %s" % (where, ", ".join(sorted(extra))))


def _build_chart(data) -> Chart:
    raw = _want(data, "chart", dict, "the scenario", required=True)
    _reject_unknown(raw, {"name", "coords", "constants"}, "the chart block")
    name = _want(raw, "name", str, "the chart block", default="M")
    coords = _string_list(_want(raw, "coords", list, "the chart block", required=True), "chart coords")
    constants = _string_list(raw.get("constants", []), "chart constants")
    try:
        return Chart(name, coords, constants)
    except CinfstructError as exc:
        raise ScenarioError("bad chart: %s" % exc) from None


def _build_policy(data) -> ZeroTestPolicy:
    raw = _want(data, "policy", dict, "the scenario", default={})
    _reject_unknown(raw, _POLICY_KEYS, "the policy block")
    try:
        return DEFAULT_POLICY.replace(**raw)
    except BadArgumentError as exc:
        raise ScenarioError(str(exc)) from None


def _build_fields(chart: Chart, data) -> dict[str, VectorField]:
    raw = _want(data, "fields", dict, "the scenario", required=True)
    out: dict[str, VectorField] = {}
    for name, comps in raw.items():
        comps = _string_list(comps, "field %r components" % name)
        if len(comps) != chart.dim:
            raise ScenarioError(
                "field %r has %d components on a %d-dimensional chart"
                % (name, len(comps), chart.dim)
            )
        try:
            out[name] = VectorField(chart, tuple(chart.parse(c) for c in comps), name=name)
        except CinfstructError as exc:
            raise ScenarioError("field %r: %s" % (name, exc)) from None
    return out


def _build_structure(data, fields) -> tuple[tuple[str, ...], tuple[str, ...]]:
    raw = _want(data, "structure", dict, "the scenario", required=True)
    _reject_unknown(raw, {"generators", "fields"}, "the structure block")
    gens = _string_list(_want(raw, "generators", list, "the structure block", required=True), "structure generators")
    fs = _string_list(_want(raw, "fields", list, "the structure block", required=True), "structure fields")
    for name in gens + fs:
        if name not in fields:
            raise ScenarioError("structure references unknown field %r" % name)
    overlap = set(gens) & set(fs)
    if overlap:
        raise ScenarioError(
            "fields cannot be both generators and structure fields: %s"
            % ", ".join(sorted(overlap))
        )
    return gens, fs


def _build_reduction(data, n_fields: int) -> list[tuple]:
    """The entries, checked key by key: (level, integral, constant,
    parametrization, rewrite rules) each."""
    raw = _want(data, "reduction", list, "the scenario", default=[])
    entries = []
    for i, item in enumerate(raw):
        where = "reduction entry %d" % (i + 1)
        if not isinstance(item, dict):
            raise ScenarioError("%s must be an object" % where)
        _reject_unknown(item, _ENTRY_KEYS, where)
        level = _want(item, "level", int, where, required=True)
        expected = n_fields - i
        if level != expected:
            raise ScenarioError(
                "%s has level %d; levels must run contiguously from %d down to 1"
                % (where, level, n_fields)
            )
        integral = _want(item, "integral", str, where, required=True)
        constant = _want(item, "constant", str, where, required=True)
        par = _string_list(
            _want(item, "parametrization", list, where, required=True),
            "%s parametrization" % where,
        )
        rules = _string_list(item.get("rewrite_rules", []), "%s rewrite_rules" % where)
        entries.append((level, integral, constant, par, rules))
    return entries


def _graph_specs(chart: Chart, entries) -> tuple[StepSpec, ...]:
    """Turn full parametrization component lists into graph descents."""
    coords = list(chart.coords)
    specs = []
    for level, integral, constant, par, rules in entries:
        where = "level-%d parametrization" % level
        if len(par) != len(coords):
            raise ScenarioError(
                "%s has %d components; the chart at that step has %d coordinates"
                % (where, len(par), len(coords))
            )
        moved = [
            i
            for i, (coord, comp) in enumerate(zip(coords, par))
            if comp.strip() != coord
        ]
        if len(moved) != 1:
            raise ScenarioError(
                "%s must be a graph: exactly one component may differ from its "
                "coordinate (found %d)" % (where, len(moved))
            )
        solve_for = coords[moved[0]]
        specs.append(
            StepSpec(
                integral=integral,
                constant=constant,
                solve_for=solve_for,
                solution=par[moved[0]],
                add_rules=rules,
            )
        )
        coords.remove(solve_for)
    return tuple(specs)


def build_scenario(data: Mapping) -> Scenario:
    """Validate a parsed JSON document and resolve it against the kernel."""
    if not isinstance(data, Mapping):
        raise ScenarioError("the scenario must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "the scenario")
    chart = _build_chart(data)
    rule_texts = _string_list(_want(data, "rules", list, "the scenario", default=[]), "rules")
    try:
        chart = chart.with_rules([parse_rule(t, chart) for t in rule_texts])
    except CinfstructError as exc:
        raise ScenarioError("bad rewrite rule: %s" % exc) from None
    fields = _build_fields(chart, data)
    gens, fs = _build_structure(data, fields)
    entries = _build_reduction(data, len(fs))
    policy = _build_policy(data)
    return Scenario(
        chart=chart,
        fields=fields,
        generator_names=gens,
        field_names=fs,
        steps=_graph_specs(chart, entries),
        policy=policy,
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError("cannot read scenario %s: %s" % (p, exc)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario %s is not valid JSON: %s" % (p.name, exc)) from None
    return build_scenario(data)
