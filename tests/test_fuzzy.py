from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectfuse.fuzzy import (
    FiredRule,
    FuzzyRule,
    InvalidRuleBase,
    MembershipFunction,
    ZeroActivation,
    aggregate_outputs,
    defuzzify_centroid,
    evaluate_rules,
    infer_w_text,
    load_rule_base,
    parse_rule_base,
)

TRACE_BASE = load_rule_base(builtin="trace")
DEFAULT_BASE = load_rule_base(builtin="default")

GOLDEN_INPUTS = (0.9582073547338185, 0.12, 0.02)
GOLDEN_W_TEXT = 0.5843812629945782
GOLDEN_HIGH = 0.9164147094658042


def oracle_centroid(out_sets, output, points=1_000_000):
    """Independent dense-grid center of mass over the aggregated output."""
    xs = np.linspace(output.domain[0], output.domain[1], points)
    agg = np.zeros_like(xs)
    for label, act in out_sets.items():
        mf = output.sets[label]
        mu = np.zeros_like(xs)
        if mf.b > mf.a:
            sel = (xs > mf.a) & (xs < mf.b)
            mu[sel] = (xs[sel] - mf.a) / (mf.b - mf.a)
        if mf.d > mf.c:
            sel = (xs > mf.c) & (xs < mf.d)
            mu[sel] = (mf.d - xs[sel]) / (mf.d - mf.c)
        mu[(xs >= mf.b) & (xs <= mf.c)] = 1.0
        agg = np.maximum(agg, np.minimum(mu, act))
    total = agg.sum()
    if total == 0:
        return None
    return float((xs * agg).sum() / total)


# --- membership -------------------------------------------------------------

def test_membership_matches_published_high_ramp():
    high = TRACE_BASE.variables["asr_conf"].sets["high"]
    assert high(0.9582073547) == pytest.approx(0.9164147095, abs=1e-9)
    assert high(GOLDEN_INPUTS[0]) == pytest.approx(GOLDEN_HIGH, abs=1e-6)


def test_membership_zero_at_left_foot():
    mf = MembershipFunction(0.1, 0.3, 0.6, 0.9)
    assert mf(0.1) == 0.0
    assert mf(0.9) == 0.0


def test_membership_plateau_is_one():
    neu = TRACE_BASE.variables["valence"].sets["neu"]
    assert neu(0.02) == 1.0


def test_membership_ordering_validated():
    with pytest.raises(InvalidRuleBase):
        MembershipFunction(0.5, 0.4, 0.6, 0.7)


@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=4, max_size=4),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_membership_properties(points, x):
    a, b, c, d = sorted(points)
    mf = MembershipFunction(a, b, c, d)
    mu = mf(x)
    assert 0.0 <= mu <= 1.0
    if x < a or x > d:
        assert mu == 0.0
    if b <= x <= c:
        assert mu == 1.0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_membership_monotone_on_ramps(data):
    pts = sorted(data.draw(st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False), min_size=4, max_size=4)))
    mf = MembershipFunction(*pts)
    x1 = data.draw(st.floats(min_value=pts[0], max_value=pts[1], allow_nan=False))
    x2 = data.draw(st.floats(min_value=x1, max_value=pts[1], allow_nan=False))
    assert mf(x2) >= mf(x1) - 1e-12
    y1 = data.draw(st.floats(min_value=pts[2], max_value=pts[3], allow_nan=False))
    y2 = data.draw(st.floats(min_value=y1, max_value=pts[3], allow_nan=False))
    assert mf(y2) <= mf(y1) + 1e-12


# --- rule evaluation --------------------------------------------------------

def test_golden_rule_strengths():
    fired = evaluate_rules(TRACE_BASE, dict(zip(("asr_conf", "arousal", "valence"), GOLDEN_INPUTS)))
    assert [round(r.strength, 7) for r in fired] == [
        pytest.approx(0.9164147, abs=1e-6), 0.0, 1.0
    ]
    assert fired[1].conditions == ("arousal is low", "valence is pos")
    assert fired[1].strength == 0.0


def test_single_antecedent_full_membership():
    fired = evaluate_rules(TRACE_BASE, {"asr_conf": 1.0, "arousal": 0.5, "valence": 0.5})
    assert fired[0].strength == 1.0


def test_min_of_two_antecedents():
    # arousal low at 0.25 -> (0.4-0.25)/0.2 = 0.75; valence pos at 0.13 -> 0.4
    fired = evaluate_rules(TRACE_BASE, {"asr_conf": 0.0, "arousal": 0.25, "valence": 0.13})
    rule2 = fired[1]
    assert rule2.strength == pytest.approx(min(0.75, 0.4))


def test_every_rule_listed_once_in_order():
    fired = evaluate_rules(DEFAULT_BASE, {"asr_conf": 0.5, "arousal": 0.5, "valence": 0.0})
    assert len(fired) == len(DEFAULT_BASE.rules)


# --- aggregation ------------------------------------------------------------

def test_golden_out_sets():
    fired = evaluate_rules(TRACE_BASE, dict(zip(("asr_conf", "arousal", "valence"), GOLDEN_INPUTS)))
    out = aggregate_outputs(fired, ["low", "mid", "high"])
    assert out["low"] == 0.0
    assert out["mid"] == 1.0
    assert out["high"] == pytest.approx(GOLDEN_HIGH, abs=1e-6)


def test_aggregate_empty_is_zero():
    assert aggregate_outputs([], ["low", "mid", "high"]) == {"low": 0.0, "mid": 0.0, "high": 0.0}


def test_aggregate_takes_max():
    fired = [
        FiredRule(("a is b",), "w_text is high", 0.3),
        FiredRule(("a is c",), "w_text is high", 0.8),
    ]
    assert aggregate_outputs(fired, ["low", "mid", "high"])["high"] == 0.8


# --- defuzzification ---------------------------------------------------------

def test_symmetric_triangle_centroid():
    out = defuzzify_centroid({"low": 0.0, "mid": 1.0, "high": 0.0}, TRACE_BASE.output)
    assert out == pytest.approx(0.5, abs=1e-9)


def test_golden_centroid_within_tolerance():
    out = defuzzify_centroid({"low": 0.0, "mid": 1.0, "high": GOLDEN_HIGH}, TRACE_BASE.output)
    assert out == pytest.approx(GOLDEN_W_TEXT, abs=0.01)


def test_half_activated_high_matches_piecewise_oracle():
    # closed-form piecewise integration gives 59/108 for {0, 1, 0.5}
    out = defuzzify_centroid({"low": 0.0, "mid": 1.0, "high": 0.5}, TRACE_BASE.output)
    assert out == pytest.approx(59.0 / 108.0, abs=0.002)
    dense = oracle_centroid({"low": 0.0, "mid": 1.0, "high": 0.5}, TRACE_BASE.output)
    assert dense == pytest.approx(59.0 / 108.0, abs=1e-6)


def test_zero_activation_raises():
    with pytest.raises(ZeroActivation):
        defuzzify_centroid({"low": 0.0, "mid": 0.0, "high": 0.0}, TRACE_BASE.output)


def test_centroid_within_hull_of_active_supports():
    rng = np.random.default_rng(13)
    sets = TRACE_BASE.output.sets
    for _ in range(50):
        out_sets = {k: float(rng.uniform(0, 1)) if rng.random() < 0.7 else 0.0
                    for k in ("low", "mid", "high")}
        active = [k for k, v in out_sets.items() if v > 0.0]
        if not active:
            continue
        lo = min(sets[k].a for k in active)
        hi = max(sets[k].d for k in active)
        w = defuzzify_centroid(out_sets, TRACE_BASE.output)
        assert lo <= w <= hi
        assert 0.0 <= w <= 1.0


def test_grid_matches_dense_oracle_on_random_activations():
    rng = np.random.default_rng(5)
    for _ in range(25):
        out_sets = {k: float(rng.uniform(0, 1)) for k in ("low", "mid", "high")}
        if sum(out_sets.values()) == 0.0:
            continue
        grid = defuzzify_centroid(out_sets, TRACE_BASE.output)
        dense = oracle_centroid(out_sets, TRACE_BASE.output, points=200_001)
        assert grid == pytest.approx(dense, abs=1e-3)


# --- full inference ----------------------------------------------------------

def test_golden_trace_full():
    trace = infer_w_text(TRACE_BASE, *GOLDEN_INPUTS)
    assert trace.w_text == pytest.approx(GOLDEN_W_TEXT, abs=0.01)
    strengths = [r.strength for r in trace.fired_rules]
    assert strengths[0] == pytest.approx(0.9164147, abs=1e-6)
    assert strengths[1] == 0.0
    assert strengths[2] == 1.0
    assert trace.out_sets["low"] == 0.0
    assert trace.out_sets["mid"] == 1.0
    assert trace.out_sets["high"] == pytest.approx(0.9164147, abs=1e-6)
    assert trace.inputs == {
        "asr_conf": GOLDEN_INPUTS[0], "arousal": 0.12, "valence": 0.02,
    }


def test_only_neutral_valence_fires():
    trace = infer_w_text(TRACE_BASE, 0.2, 0.9, 0.0)
    assert trace.out_sets == {"low": 0.0, "mid": 1.0, "high": 0.0}
    assert trace.w_text == pytest.approx(0.5, abs=1e-9)


def test_partial_high_activation():
    trace = infer_w_text(TRACE_BASE, 0.75, 0.9, 0.0)
    assert trace.out_sets["high"] == pytest.approx(0.5)
    assert trace.w_text == pytest.approx(0.546, abs=0.002)


def test_trace_is_recomputable():
    trace = infer_w_text(DEFAULT_BASE, 0.7, 0.6, -0.1)
    assert len(trace.fired_rules) == len(DEFAULT_BASE.rules)
    recomputed = aggregate_outputs(trace.fired_rules, list(trace.out_sets))
    assert recomputed == trace.out_sets


def test_default_base_monotone_in_confidence():
    sweep = [
        infer_w_text(DEFAULT_BASE, c, 0.5, 0.0).w_text for c in np.linspace(0, 1, 101)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))


def test_inputs_clamped_to_domain():
    trace = infer_w_text(TRACE_BASE, 1.7, -0.3, 2.5)
    assert trace.inputs == {"asr_conf": 1.0, "arousal": 0.0, "valence": 1.0}


# --- loading ----------------------------------------------------------------

def test_unresolvable_set_rejected_at_load():
    bad_base = {
        "id": "bad",
        "variables": {
            "asr_conf": {"domain": [0, 1], "sets": {"low": [0, 0, 0.3, 0.5]}},
            "arousal": {"domain": [0, 1], "sets": {"low": [0, 0, 0.2, 0.4]}},
            "valence": {"domain": [-1, 1], "sets": {"neu": [-0.25, -0.05, 0.05, 0.25]}},
        },
        "output": {"name": "w_text", "domain": [0, 1], "sets": {"mid": [0, 0.5, 0.5, 1]}},
        "rules": [{"if": ["asr_conf is nosuch"], "then": "w_text is mid"}],
    }
    with pytest.raises(InvalidRuleBase):
        parse_rule_base(bad_base)


def test_input_variable_without_an_input_rejected_at_load():
    from affectfuse.core import load_yaml, read_data_file

    mapping = load_yaml(read_data_file(None, "rules_trace.yaml")[0])
    mapping["variables"]["pitch"] = {"domain": [0, 1], "sets": {"low": [0, 0, 0.3, 0.5]}}
    with pytest.raises(InvalidRuleBase, match="unknown input variable 'pitch'"):
        parse_rule_base(mapping)


def test_an_if_written_as_one_string_is_refused_naming_the_mistake():
    from affectfuse.core import load_yaml, read_data_file

    mapping = load_yaml(read_data_file(None, "rules_trace.yaml")[0])
    mapping["rules"][0]["if"] = "asr_conf is low"
    with pytest.raises(InvalidRuleBase, match="^rules.yaml: rule 1: 'if' must be a list of conditions$"):
        parse_rule_base(mapping, "rules.yaml")


def test_rule_without_antecedents_rejected():
    with pytest.raises(InvalidRuleBase):
        FuzzyRule(antecedents=(), consequent="mid")


def test_support_outside_domain_rejected():
    bad_base = {
        "id": "bad",
        "variables": {
            "asr_conf": {"domain": [0, 1], "sets": {"low": [-0.5, 0, 0.3, 0.5]}},
            "arousal": {"domain": [0, 1], "sets": {"low": [0, 0, 0.2, 0.4]}},
            "valence": {"domain": [-1, 1], "sets": {"neu": [-0.25, -0.05, 0.05, 0.25]}},
        },
        "output": {"name": "w_text", "domain": [0, 1], "sets": {"mid": [0, 0.5, 0.5, 1]}},
        "rules": [],
    }
    with pytest.raises(InvalidRuleBase):
        parse_rule_base(bad_base)


def test_builtin_ids():
    assert TRACE_BASE.rule_base_id == "trace"
    assert DEFAULT_BASE.rule_base_id == "default-r1r4"


# --- compiled rule base -------------------------------------------------------

def _infer_oracle(rule_base, asr_conf, arousal, valence):
    """Per-call Mamdani inference: formats every rule and rebuilds the output
    grid and each set's membership on it, then parses each consequent back."""
    given_inputs = {"asr_conf": asr_conf, "arousal": arousal, "valence": valence}
    inputs = {name: rule_base.variables[name].clamp_input(x) for name, x in given_inputs.items()}
    fired = []
    for rule in rule_base.rules:
        strength = min(rule_base.variables[v].sets[s](inputs[v]) for v, s in rule.antecedents)
        fired.append(FiredRule(
            conditions=tuple(f"{v} is {s}" for v, s in rule.antecedents),
            consequent=f"{rule_base.output.name} is {rule.consequent}",
            strength=strength,
        ))
    out_sets = {label: 0.0 for label in rule_base.output.sets}
    for rule in fired:
        label = rule.consequent.rsplit(" is ", 1)[-1]
        if rule.strength > out_sets[label]:
            out_sets[label] = rule.strength
    output = rule_base.output
    xs = np.linspace(output.domain[0], output.domain[1], 1001)
    aggregated = np.zeros_like(xs)
    for label, activation in out_sets.items():
        if activation > 0.0:
            np.maximum(aggregated, np.minimum(output.sets[label].evaluate_grid(xs), activation), out=aggregated)
    total = float(aggregated.sum())
    w_text = None if total == 0.0 else float((xs * aggregated).sum() / total)
    return inputs, tuple(fired), out_sets, w_text


def _input_grid(rule_base, seed, per_variable=12):
    """Domain edges, points just outside them, every breakpoint, then seeded draws."""
    rng = np.random.default_rng(seed)
    axes = []
    for name in ("asr_conf", "arousal", "valence"):
        variable = rule_base.variables[name]
        lo, hi = variable.domain
        points = {lo, hi, lo - 0.25, hi + 0.5}
        for mf in variable.sets.values():
            points.update((mf.a, mf.b, mf.c, mf.d))
        points = sorted(points)
        points += list(rng.uniform(lo - 0.1, hi + 0.1, max(0, per_variable - len(points))))
        axes.append(points)
    return [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]


def _assert_trace_matches_oracle(rule_base, triple):
    inputs, fired, out_sets, w_text = _infer_oracle(rule_base, *triple)
    if w_text is None:
        with pytest.raises(ZeroActivation):
            infer_w_text(rule_base, *triple)
        return None
    trace = infer_w_text(rule_base, *triple)
    assert trace.inputs == inputs
    assert [(r.conditions, r.consequent, r.strength.hex()) for r in trace.fired_rules] == [
        (r.conditions, r.consequent, r.strength.hex()) for r in fired
    ]
    assert {k: v.hex() for k, v in trace.out_sets.items()} == {k: v.hex() for k, v in out_sets.items()}
    assert list(trace.out_sets) == list(out_sets)
    assert trace.w_text.hex() == w_text.hex()
    return trace.w_text


@pytest.mark.parametrize("builtin", ["default", "trace"])
def test_compiled_inference_matches_per_call_oracle(builtin):
    rule_base = load_rule_base(builtin=builtin)
    triples = _input_grid(rule_base, seed=16)
    assert len(triples) >= 1000
    for triple in triples:
        _assert_trace_matches_oracle(rule_base, triple)


def _trace_mapping(mid_peak):
    from affectfuse.core import load_yaml, read_data_file

    mapping = load_yaml(read_data_file(None, "rules_trace.yaml")[0])
    mapping["output"]["sets"]["mid"] = [0.0, mid_peak, mid_peak, 1.0]
    return mapping


@pytest.mark.parametrize("order", [(0.5, 0.3), (0.3, 0.5)])
def test_output_tables_belong_to_each_rule_base(order):
    # Same rule_base_id, one output breakpoint apart: each base infers with
    # its own grid tables, whichever was built first.
    first, second = (parse_rule_base(_trace_mapping(peak)) for peak in order)
    assert first.rule_base_id == second.rule_base_id == "trace"
    inputs = (0.2, 0.9, 0.0)  # only "w_text is mid" fires
    w_first = _assert_trace_matches_oracle(first, inputs)
    w_second = _assert_trace_matches_oracle(second, inputs)
    assert w_first != w_second
    assert infer_w_text(first, *inputs).w_text == w_first


def test_compiled_tables_are_read_only():
    with pytest.raises(ValueError):
        DEFAULT_BASE._xs[0] = 1.0
    for grid in DEFAULT_BASE._out_grids.values():
        with pytest.raises(ValueError):
            grid[0] = 1.0
