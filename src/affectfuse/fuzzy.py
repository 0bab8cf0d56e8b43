"""Mamdani inference over (asr_conf, arousal, valence) producing a text weight.

min t-norm for rule activation, max aggregation over clipped output sets,
centroid defuzzification on a uniform 1001-point grid. Every inference
returns a complete trace: exact inputs, all rules with their firing
strengths (zero-strength rules included), the aggregated output-set levels,
and the crisp weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import ConfigError
from .core import clamp, load_yaml, read_data_file

GRID_POINTS = 1001


class InvalidRuleBase(ConfigError):
    """A rule base references unknown variables/sets or is malformed."""


class ZeroActivation(RuntimeError):
    """No rule fired: the aggregated output function is identically zero."""


@dataclass(frozen=True)
class MembershipFunction:
    """Trapezoid (a, b, c, d); triangle when b == c, shoulder when a == b or c == d.

    mu(x) is 0 outside [a, d], 1 on [b, c], and linear on the ramps. At a left
    foot with a < b, mu(a) == 0; likewise mu(d) == 0 when c < d.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (self.a <= self.b <= self.c <= self.d):
            raise InvalidRuleBase(
                f"membership points must satisfy a <= b <= c <= d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )

    def __call__(self, x: float) -> float:
        if self.b <= x <= self.c:
            return 1.0
        if self.a < x < self.b:
            return (x - self.a) / (self.b - self.a)
        if self.c < x < self.d:
            return (self.d - x) / (self.d - self.c)
        return 0.0

    def evaluate_grid(self, xs: np.ndarray) -> np.ndarray:
        y = np.where((xs >= self.b) & (xs <= self.c), 1.0, 0.0)
        if self.b > self.a:
            rising = (xs > self.a) & (xs < self.b)
            y = np.where(rising, (xs - self.a) / (self.b - self.a), y)
        if self.d > self.c:
            falling = (xs > self.c) & (xs < self.d)
            y = np.where(falling, (self.d - xs) / (self.d - self.c), y)
        return y


@dataclass(frozen=True)
class LinguisticVariable:
    name: str
    domain: Tuple[float, float]
    sets: Mapping[str, MembershipFunction]

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not lo < hi:
            raise InvalidRuleBase(f"empty domain {self.domain}")
        for label, mf in self.sets.items():
            if mf.a < lo or mf.d > hi:
                raise InvalidRuleBase(f"set {label!r} support outside domain")

    def clamp_input(self, x: float) -> float:
        return clamp(float(x), self.domain[0], self.domain[1])


@dataclass(frozen=True)
class FuzzyRule:
    antecedents: Tuple[Tuple[str, str], ...]
    consequent: str

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise InvalidRuleBase("rule must have at least one antecedent")


@dataclass(frozen=True)
class FiredRule:
    conditions: Tuple[str, ...]
    consequent: str
    strength: float

    def as_dict(self) -> Dict[str, object]:
        return {"if": list(self.conditions), "then": self.consequent, "strength": self.strength}


@dataclass(frozen=True)
class FuzzyTrace:
    inputs: Dict[str, float]
    fired_rules: Tuple[FiredRule, ...]
    out_sets: Dict[str, float]
    w_text: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "inputs": dict(self.inputs),
            "fired_rules": [rule.as_dict() for rule in self.fired_rules],
            "out_sets": dict(self.out_sets),
        }


@dataclass(frozen=True)
class RuleBase:
    """Versioned linguistic rules plus membership parameterizations.

    Immutable after load; inference over a rule base is pure and thread-safe.
    The id is recorded in every audit event. Construction also compiles what
    inference needs from the rules alone: each distinct (variable, set)
    antecedent, each rule's trace strings and consequent label, and the output
    grid with every output set's membership on it, as read-only arrays.
    """

    rule_base_id: str
    variables: Mapping[str, LinguisticVariable]
    output: LinguisticVariable
    rules: Tuple[FuzzyRule, ...]
    #: Distinct (variable, membership function) antecedents, in first-use order.
    _antecedents: Tuple[Tuple[str, MembershipFunction], ...] = field(
        init=False, repr=False, compare=False
    )
    #: Per rule: (indices into _antecedents, conditions, consequent, consequent label).
    _compiled: Tuple[Tuple[Tuple[int, ...], Tuple[str, ...], str, str], ...] = field(
        init=False, repr=False, compare=False
    )
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _out_grids: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: Dict[Tuple[str, str], int] = {}
        compiled = []
        for rule in self.rules:
            for var_name, set_label in rule.antecedents:
                variable = self.variables.get(var_name)
                if variable is None:
                    raise InvalidRuleBase(f"rule references unknown variable {var_name!r}")
                if set_label not in variable.sets:
                    raise InvalidRuleBase(
                        f"rule references unknown set {var_name}.{set_label!r}"
                    )
                index.setdefault((var_name, set_label), len(index))
            if rule.consequent not in self.output.sets:
                raise InvalidRuleBase(
                    f"rule references unknown output set {rule.consequent!r}"
                )
            compiled.append((
                tuple(index[pair] for pair in rule.antecedents),
                tuple(f"{var} is {label}" for var, label in rule.antecedents),
                f"{self.output.name} is {rule.consequent}",
                rule.consequent,
            ))
        xs = _output_grid(self.output)
        out_grids = {label: mf.evaluate_grid(xs) for label, mf in self.output.sets.items()}
        for grid in out_grids.values():
            grid.setflags(write=False)
        set_attr = object.__setattr__
        set_attr(self, "_antecedents", tuple(
            (var, self.variables[var].sets[label]) for var, label in index
        ))
        set_attr(self, "_compiled", tuple(compiled))
        set_attr(self, "_xs", xs)
        set_attr(self, "_out_grids", out_grids)


def _output_grid(output: LinguisticVariable) -> np.ndarray:
    """The read-only uniform grid of GRID_POINTS points over the output domain."""
    xs = np.linspace(output.domain[0], output.domain[1], GRID_POINTS)
    xs.setflags(write=False)
    return xs


def _fire(
    rule_base: RuleBase, inputs: Mapping[str, float]
) -> Tuple[List[FiredRule], Dict[str, float]]:
    """Fired rules in declaration order and the max activation per output set.

    Each antecedent's membership is evaluated once; a rule's strength is the
    min over its antecedents. ``inputs`` must already be clamped.
    """
    degrees = [mf(inputs[var]) for var, mf in rule_base._antecedents]
    out_sets = {label: 0.0 for label in rule_base.output.sets}
    fired = []
    for indices, conditions, consequent, label in rule_base._compiled:
        strength = min([degrees[i] for i in indices])
        fired.append(FiredRule(conditions=conditions, consequent=consequent, strength=strength))
        if strength > out_sets[label]:
            out_sets[label] = strength
    return fired, out_sets


def evaluate_rules(rule_base: RuleBase, inputs: Mapping[str, float]) -> List[FiredRule]:
    """Fire every rule in declaration order; strength is the min over antecedents.

    Inputs are clamped to their variable domains. Zero-strength rules are
    listed too, so the trace is complete and recomputable.
    """
    clamped = {
        name: variable.clamp_input(inputs[name]) for name, variable in rule_base.variables.items()
    }
    return _fire(rule_base, clamped)[0]


def aggregate_outputs(
    fired: Sequence[FiredRule], output_labels: Sequence[str]
) -> Dict[str, float]:
    """Max activation per output set; 0 when no rule targets a set.

    Recomputes a trace's ``out_sets`` from its fired rules alone.
    """
    out = {label: 0.0 for label in output_labels}
    for rule in fired:
        label = rule.consequent.rsplit(" is ", 1)[-1]
        if rule.strength > out[label]:
            out[label] = rule.strength
    return out


def _centroid(
    out_sets: Mapping[str, float], xs: np.ndarray, grids: Mapping[str, np.ndarray]
) -> float:
    aggregated = np.zeros_like(xs)
    for label, activation in out_sets.items():
        if activation <= 0.0:
            continue
        clipped = np.minimum(grids[label], activation)
        np.maximum(aggregated, clipped, out=aggregated)
    total = float(aggregated.sum())
    if total == 0.0:
        raise ZeroActivation("no output set is active")
    return float((xs * aggregated).sum() / total)


def defuzzify_centroid(out_sets: Mapping[str, float], output: LinguisticVariable) -> float:
    """Centroid of max_s min(mu_s(x), activation_s) on a uniform grid.

    Raises ZeroActivation when the aggregated function is identically zero;
    the caller then takes the linear-fallback path.
    """
    xs = _output_grid(output)
    grids = {label: mf.evaluate_grid(xs) for label, mf in output.sets.items()}
    return _centroid(out_sets, xs, grids)


def infer_w_text(
    rule_base: RuleBase,
    asr_conf: float,
    arousal: float,
    valence: float,
) -> FuzzyTrace:
    """Run the full Mamdani pipeline and return the trace.

    Inputs outside their domains are clamped. ZeroActivation propagates.
    """
    variables = rule_base.variables
    inputs = {
        "asr_conf": variables["asr_conf"].clamp_input(asr_conf),
        "arousal": variables["arousal"].clamp_input(arousal),
        "valence": variables["valence"].clamp_input(valence),
    }
    fired, out_sets = _fire(rule_base, inputs)
    w_text = _centroid(out_sets, rule_base._xs, rule_base._out_grids)
    return FuzzyTrace(
        inputs=inputs,
        fired_rules=tuple(fired),
        out_sets=out_sets,
        w_text=w_text,
    )


_INPUT_VARIABLES = ("asr_conf", "arousal", "valence")


def _parse_condition(text: str) -> Tuple[str, str]:
    parts = text.split(" is ")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise InvalidRuleBase(f"condition must look like 'var is set': {text!r}")
    return parts[0].strip(), parts[1].strip()


def parse_rule_base(mapping: Mapping[str, object], origin: str = "<rule base>") -> RuleBase:
    """Build a RuleBase from a parsed YAML mapping; see data/rules_*.yaml."""
    try:
        base_id = str(mapping["id"])
        variables_raw = mapping["variables"]
        output_raw = mapping["output"]
        rules_raw = mapping.get("rules", [])
    except (KeyError, TypeError) as exc:
        raise InvalidRuleBase(f"{origin}: missing section {exc}") from exc
    if not (isinstance(variables_raw, Mapping) and isinstance(output_raw, Mapping)
            and isinstance(rules_raw, list)):
        raise InvalidRuleBase(f"{origin}: variables and output must be mappings, rules a list")

    def build_variable(name: str, body: Mapping[str, object]) -> LinguisticVariable:
        try:
            domain = tuple(float(v) for v in body["domain"])
            sets = {
                str(label): MembershipFunction(*(float(p) for p in points))
                for label, points in body["sets"].items()
            }
            return LinguisticVariable(name=name, domain=domain, sets=sets)
        except KeyError as exc:
            raise InvalidRuleBase(f"{origin}: variable {name!r}: missing {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:  # InvalidRuleBase is a ValueError
            raise InvalidRuleBase(f"{origin}: variable {name!r}: {exc}") from exc

    variables = {str(name): build_variable(str(name), body) for name, body in variables_raw.items()}
    for required in _INPUT_VARIABLES:
        if required not in variables:
            raise InvalidRuleBase(f"{origin}: missing input variable {required!r}")
    for name in variables:
        if name not in _INPUT_VARIABLES:
            # infer_w_text feeds only the three inputs; no turn could give this one a value.
            raise InvalidRuleBase(
                f"{origin}: unknown input variable {name!r}; the inputs are {', '.join(_INPUT_VARIABLES)}"
            )

    output = build_variable(str(output_raw.get("name", "w_text")), output_raw)

    rules = []
    for index, rule in enumerate(rules_raw, start=1):
        try:
            if not isinstance(rule["if"], list):  # a string would be read character by character
                raise InvalidRuleBase("'if' must be a list of conditions")
            conditions = tuple(_parse_condition(str(c)) for c in rule["if"])
            _, consequent = _parse_condition(str(rule["then"]))
            rules.append(FuzzyRule(antecedents=conditions, consequent=consequent))
        except InvalidRuleBase as exc:
            raise InvalidRuleBase(f"{origin}: rule {index}: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise InvalidRuleBase(f"{origin}: rule {index} is malformed") from exc

    try:
        return RuleBase(rule_base_id=base_id, variables=variables, output=output, rules=tuple(rules))
    except InvalidRuleBase as exc:
        raise InvalidRuleBase(f"{origin}: {exc}") from exc


def load_rule_base(path: Optional[str] = None, builtin: str = "default") -> RuleBase:
    """Load a rule base from YAML.

    Without a path one of the bundled bases is used: "default" (the shipped
    gating base, id "default-r1r4") or "trace" (the minimal three-rule base).
    """
    bundled = {"default": "rules_default.yaml", "trace": "rules_trace.yaml"}[builtin]
    text, origin = read_data_file(path, bundled)
    parsed = load_yaml(text, origin)
    if not isinstance(parsed, Mapping):
        raise InvalidRuleBase(f"{origin}: top level must be a mapping")
    return parse_rule_base(parsed, origin)
