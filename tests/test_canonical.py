from __future__ import annotations

import enum
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectfuse.audit.canonical import (
    CanonicalizationError,
    canonical_number,
    canonicalize,
    compute_txid,
    parse_canonical,
)

GOLDEN_TRACE_OBJECT = {
    "w_text": 0.5843812629945782,
    "details": {
        "inputs": {"asr_conf": 0.9582073547338185, "arousal": 0.12, "valence": 0.02},
        "fired_rules": [
            {"if": ["asr_conf is high"], "then": "w_text is high", "strength": 0.9164147094658042},
            {"if": ["arousal is low", "valence is pos"], "then": "w_text is high", "strength": 0.0},
            {"if": ["valence is neu"], "then": "w_text is mid", "strength": 1.0},
        ],
        "out_sets": {"low": 0.0, "mid": 1.0, "high": 0.9164147094658042},
    },
}


def test_insertion_order_does_not_matter():
    a = {"x": 1, "y": {"a": True, "b": None}, "z": [1, 2.5, "s"]}
    b = {"z": [1, 2.5, "s"], "y": {"b": None, "a": True}, "x": 1}
    assert canonicalize(a) == canonicalize(b)
    assert compute_txid(canonicalize(a)) == compute_txid(canonicalize(b))


def test_simple_float_formatting():
    assert canonicalize({"v": 0.5}) == b'{"v":0.5}'
    assert canonical_number(0.5) == "0.5"
    assert canonical_number(1.0) == "1"
    assert canonical_number(-0.0) == "0"
    assert canonical_number(0.1) == "0.1"
    assert canonical_number(1e-13) == "0"  # below the 12-digit grid
    assert "e" not in canonical_number(1e20).lower()


def test_booleans_null_and_strings():
    data = canonicalize({"t": True, "f": False, "n": None, "s": "año ñ"})
    assert data == '{"f":false,"n":null,"s":"año ñ","t":true}'.encode("utf-8")


def test_bool_is_not_int():
    assert canonicalize({"v": True}) != canonicalize({"v": 1})


def test_golden_trace_round_trips():
    data = canonicalize(GOLDEN_TRACE_OBJECT)
    assert b"\n" not in data
    parsed = parse_canonical(data)
    assert canonicalize(parsed) == data
    assert parsed["details"]["inputs"]["asr_conf"] == pytest.approx(0.9582073547338185, abs=1e-12)


def test_txid_of_empty_bytes_matches_reference_vector():
    assert compute_txid(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_txid_deterministic():
    data = canonicalize({"a": 1})
    assert compute_txid(data) == compute_txid(data)


def test_bit_flip_changes_txid():
    rng = random.Random(3)
    data = bytearray(canonicalize(GOLDEN_TRACE_OBJECT))
    base = compute_txid(bytes(data))
    for _ in range(100):
        pos = rng.randrange(len(data))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << rng.randrange(8)
        assert compute_txid(bytes(flipped)) != base


def test_non_finite_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize({"v": float("nan")})
    with pytest.raises(CanonicalizationError):
        canonicalize({"v": float("inf")})


def test_non_string_keys_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize({1: "x"})


def test_unsupported_types_rejected():
    with pytest.raises(CanonicalizationError):
        canonicalize({"v": {1, 2}})


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=150, deadline=None)
def test_canonicalize_parse_idempotent(value):
    first = canonicalize(value)
    second = canonicalize(parse_canonical(first))
    assert second == first


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_number_form_is_a_fixed_point_for_any_finite_float(value):
    text = canonical_number(value)
    assert "e" not in text.lower()
    if "." in text:
        assert len(text.split(".", 1)[1]) <= 12
    assert canonical_number(float(text)) == text


# --- the recursive emitter before the exact-type fast path, kept as an oracle ---


def _oracle_fixed(value):
    text = f"{value:.12f}"
    text = text.rstrip("0").rstrip(".")
    if text in ("", "-", "-0"):
        return "0"
    return text


def _oracle_number(value):
    if not math.isfinite(value):
        raise CanonicalizationError(f"non-finite number: {value!r}")
    text = _oracle_fixed(value)
    for _ in range(32):
        again = _oracle_fixed(float(text))
        if again == text:
            return text
        text = again
    raise CanonicalizationError(f"no stable decimal form for {value!r}")


def _oracle_emit(value, out):
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_oracle_number(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _oracle_emit(item, out)
        out.append("]")
    elif isinstance(value, dict):
        keys = list(value.keys())
        if any(not isinstance(k, str) for k in keys):
            raise CanonicalizationError("object keys must be strings")
        out.append("{")
        for i, key in enumerate(sorted(keys)):
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _oracle_emit(value[key], out)
        out.append("}")
    else:
        raise CanonicalizationError(f"unsupported type: {type(value).__name__}")


def _oracle_canonicalize(value):
    parts = []
    _oracle_emit(value, parts)
    return "".join(parts).encode("utf-8")


def _outcome(function, value):
    try:
        return function(value)
    except Exception as exc:  # the property compares exception types
        return type(exc)


class _Label(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


EDGE_FLOATS = [
    -0.0, 1e-13, -1e-13, 5e-13, 123456789012.5, 4095.9999999999995, 4096.0,
    float(2**53 - 1), float(2**53), float(2**53 + 2), 2.0**52 + 0.5,
    math.nextafter(2.0**53, 0.0), 1e20, -1e300, 5e-324, float("nan"),
    float("inf"), float("-inf"),
]

floats = st.one_of(
    st.floats(),
    st.floats(min_value=-1e4, max_value=1e4),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    # full 53-bit mantissas from 2**7 to 2**48, where the fixed-point loop
    # starts to need a second round
    st.builds(math.ldexp, st.integers(min_value=2**52, max_value=2**53 - 1),
              st.integers(min_value=-45, max_value=-5)),
    st.sampled_from(EDGE_FLOATS),
)
strings = st.one_of(
    st.text(st.characters(codec=None, categories=None), max_size=12),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "ñandú", "\U0001f600", "\ud800", "a\u2028b"]),
).flatmap(lambda s: st.sampled_from([s, _Label(s)]))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    floats,
    floats.map(np.float64),
    strings,
    st.sampled_from([_Level.LOW, {1, 2}, b"bytes", np.int64(3)]),
)
keys = st.one_of(strings, strings, st.integers(), st.none(), st.just((1, 2)))
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=24,
)


@given(values)
@settings(max_examples=600, deadline=None)
def test_canonicalize_matches_recursive_oracle(value):
    expected = _outcome(_oracle_canonicalize, value)
    got = _outcome(canonicalize, value)
    assert got == expected


@given(st.one_of(floats, floats.map(np.float64)))
@settings(max_examples=600, deadline=None)
def test_canonical_number_matches_iterated_oracle(value):
    assert _outcome(canonical_number, value) == _outcome(_oracle_number, value)


def test_oracle_edge_values_match():
    for value in EDGE_FLOATS:
        for form in (value, np.float64(value), [value], {"v": (value,)}):
            assert _outcome(canonicalize, form) == _outcome(_oracle_canonicalize, form), form
