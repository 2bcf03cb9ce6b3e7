import enum
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holosim.compiler import Reflection, Rotation, XYGate
from holosim.formats import (
    FormatError,
    dumps,
    gate_from_dict,
    loads_circuit,
    loads_schedule,
    pulse_from_dict,
    pulse_to_dict,
    schedule_to_obj,
)
from holosim.pulses import ENVELOPES, OneQubitPulse, ThreeSitePulse
from oracles import reference_dumps

README = Path(__file__).resolve().parents[1] / "README.md"

SCHEDULE_TEXT = """
{"pulses":[
  {"type":"one_qubit","qubit":1,"theta":0.785398,"phi":0.0,
   "area":3.141592653589793,"envelope":"square"},
  {"type":"three_site","pair":1,"vartheta":1.570796,
   "area":3.141592653589793,"envelope":"square"}
]}
"""

CIRCUIT_TEXT = """
{"gates":[
  {"kind":"rotation","qubit":1,"axis":[0,0,1],"angle":1.5707963},
  {"kind":"xy","pair":1,"vartheta":1.5707963},
  {"kind":"reflection","qubit":2,"n":[1,0,0]}
]}
"""


class TestScheduleFormat:
    def test_parse(self):
        schedule = loads_schedule(SCHEDULE_TEXT)
        assert schedule == [
            OneQubitPulse(1, 0.785398, 0.0, 3.141592653589793, "square"),
            ThreeSitePulse(1, 1.570796, 3.141592653589793, "square"),
        ]

    def test_round_trip(self):
        schedule = loads_schedule(SCHEDULE_TEXT)
        text = dumps(schedule_to_obj(schedule))
        assert loads_schedule(text) == schedule

    def test_defaults(self):
        schedule = loads_schedule('{"pulses":[{"type":"one_qubit","qubit":2,"theta":0,"phi":0}]}')
        assert schedule[0].area == pytest.approx(np.pi)
        assert schedule[0].envelope == "square"

    def test_missing_field_diagnostic(self):
        with pytest.raises(FormatError, match=r"pulses\[0\]: missing field 'theta'"):
            loads_schedule('{"pulses":[{"type":"one_qubit","qubit":1,"phi":0}]}')

    def test_bad_type_diagnostic(self):
        with pytest.raises(FormatError, match=r"pulses\[1\]\.type"):
            loads_schedule(
                '{"pulses":[{"type":"one_qubit","qubit":1,"theta":0,"phi":0},{"type":"xxx"}]}'
            )

    def test_bad_envelope(self):
        with pytest.raises(FormatError, match="envelope"):
            loads_schedule(
                '{"pulses":[{"type":"one_qubit","qubit":1,"theta":0,"phi":0,"envelope":"saw"}]}'
            )

    def test_invalid_json_reports_position(self):
        with pytest.raises(FormatError, match="line 2"):
            loads_schedule('{"pulses":\n[}')

    def test_non_integer_qubit(self):
        with pytest.raises(FormatError, match="integer"):
            loads_schedule('{"pulses":[{"type":"one_qubit","qubit":1.5,"theta":0,"phi":0}]}')

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("area", "null", r"^pulses\[0\]\.area: expected a number, got None$"),
            ("area", "true", r"^pulses\[0\]\.area: expected a number, got True$"),
            ("envelope", "3", r"^pulses\[0\]\.envelope: expected a string, got 3$"),
        ],
    )
    def test_optional_fields_are_type_checked(self, field, value, message):
        with pytest.raises(FormatError, match=message):
            loads_schedule(
                '{"pulses":[{"type":"three_site","pair":1,"vartheta":0,"%s":%s}]}' % (field, value)
            )

    def test_field_context_is_not_doubled(self):
        with pytest.raises(FormatError) as err:
            loads_schedule('{"pulses":[{"type":"one_qubit","qubit":1,"theta":"x","phi":0}]}')
        assert str(err.value) == "pulses[0].theta: expected a number, got 'x'"

    def test_pulse_validation_errors_keep_their_context(self):
        with pytest.raises(FormatError, match=r"^pulses\[0\]: unknown envelope 'saw'"):
            loads_schedule('{"pulses":[{"type":"one_qubit","qubit":1,"theta":0,"phi":0,"envelope":"saw"}]}')

    def test_missing_pulses_key(self):
        with pytest.raises(FormatError, match="pulses"):
            loads_schedule("{}")

    def test_integer_beyond_float_range_is_not_finite(self):
        with pytest.raises(FormatError, match=r"^pulses\[0\]\.theta: value must be finite$"):
            loads_schedule('{"pulses":[{"type":"one_qubit","qubit":1,"theta":1%s,"phi":0}]}'
                           % ("0" * 400))

    @pytest.mark.parametrize("loads", [loads_schedule, loads_circuit])
    def test_deep_nesting_is_a_format_error(self, loads):
        with pytest.raises(FormatError, match="nested too deeply"):
            loads("[" * 100_000 + "]" * 100_000)


class TestCircuitFormat:
    def test_parse(self):
        circuit = loads_circuit(CIRCUIT_TEXT)
        assert circuit == [
            Rotation(1, (0.0, 0.0, 1.0), 1.5707963),
            XYGate(1, 1.5707963),
            Reflection(2, (1.0, 0.0, 0.0)),
        ]

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match=r"gates\[0\]\.kind"):
            loads_circuit('{"gates":[{"kind":"toffoli"}]}')

    def test_bad_axis(self):
        with pytest.raises(FormatError, match="3-vector"):
            loads_circuit('{"gates":[{"kind":"rotation","qubit":1,"axis":[0,0],"angle":1}]}')

    def test_axis_integer_beyond_float_range(self):
        circuit = loads_circuit('{"gates":[{"kind":"reflection","qubit":1,"n":[-1%s,0,0]}]}'
                                % ("0" * 400))
        assert circuit == [Reflection(1, (-np.inf, 0.0, 0.0))]


_finite = st.floats(allow_nan=False, allow_infinity=False)
_vectors = st.tuples(_finite, _finite, _finite)
_pulse_tail = dict(area=_finite, envelope=st.sampled_from(ENVELOPES))
_KINDS = {
    "one_qubit": st.builds(OneQubitPulse, qubit=st.integers(), theta=_finite, phi=_finite, **_pulse_tail),
    "three_site": st.builds(ThreeSitePulse, pair=st.integers(), vartheta=_finite, **_pulse_tail),
    "rotation": st.builds(Rotation, qubit=st.integers(), axis=_vectors, angle=_finite),
    "reflection": st.builds(Reflection, qubit=st.integers(), n=_vectors),
    "xy": st.builds(XYGate, pair=st.integers(), vartheta=_finite),
}
_PULSE_KINDS = ("one_qubit", "three_site")


def readme_entries():
    """Every pulse and gate object in the README's JSON documents, keys in their written order."""
    entries = []
    for block in re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        doc = json.loads(block)
        entries += doc.get("pulses", []) + doc.get("gates", [])
    return entries


class TestDocumentArrays:
    @pytest.mark.parametrize("loads,noun,key,item", [
        (loads_schedule, "schedule", "pulses", {"type": "three_site", "pair": 1, "vartheta": 0}),
        (loads_circuit, "circuit", "gates", {"kind": "xy", "pair": 1, "vartheta": 0}),
    ], ids=["schedule", "circuit"])
    @pytest.mark.parametrize("build,message", [
        (lambda key, item: [item], "{noun} document must be an object with a '{key}' array"),
        (lambda key, item: {"items": [item]}, "{noun} document must be an object with a '{key}' array"),
        (lambda key, item: {key: item}, "'{key}' must be an array"),
        (lambda key, item: {key: [item, item, "x"]}, "{key}[2]: expected an object, got str"),
    ], ids=["not-an-object", "key-missing", "not-an-array", "item-context"])
    def test_shape_messages(self, loads, noun, key, item, build, message):
        with pytest.raises(FormatError) as err:
            loads(json.dumps(build(key, item)))
        assert str(err.value) == message.format(noun=noun, key=key)


class TestPulseAndGateDocuments:
    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip(self, kind, data):
        value = data.draw(_KINDS[kind])
        if kind in _PULSE_KINDS:
            doc = pulse_to_dict(value)
            assert doc["type"] == kind
            assert pulse_from_dict(doc) == value
            assert loads_schedule(dumps(schedule_to_obj([value]))) == [value]
        else:  # a literal document, each field as JSON holds it
            doc = {"kind": kind}
            for f in fields(value):
                field = getattr(value, f.name)
                doc[f.name] = list(field) if isinstance(field, tuple) else field
            assert gate_from_dict(doc) == value
            assert loads_circuit(dumps({"gates": [doc]})) == [value]

    def test_key_order_matches_the_readme(self):
        entries = readme_entries()
        assert {e.get("type", e.get("kind")) for e in entries} == set(_KINDS)
        for entry in entries:
            if "type" in entry:
                assert list(pulse_to_dict(pulse_from_dict(entry))) == list(entry)
            else:  # no gate document is written; the README lists a gate's fields in declaration order
                assert list(entry) == ["kind", *(f.name for f in fields(gate_from_dict(entry)))]

    def test_other_objects_are_rejected(self):
        with pytest.raises(TypeError, match="not a pulse"):
            pulse_to_dict(Reflection(1, (0.0, 0.0, 1.0)))

    @pytest.mark.parametrize("obj,message", [
        (OneQubitPulse(1, np.array([0.1, 0.2]), 0.3), r"^pulse field 'theta' has shape \(2,\), expected \(\)"),
        (ThreeSitePulse(1, 0.4, area=np.array([1.0])), r"^pulse field 'area' has shape \(1,\), expected \(\)"),
    ], ids=["pulse-angle", "pulse-area-of-one"])
    def test_batches_are_rejected_by_field_and_shape(self, obj, message):
        # a document holds one pulse; a batch of one must not pass as a number either
        with pytest.raises(ValueError, match=message):
            pulse_to_dict(obj)


class TestDeterministicEmission:
    def test_float_formatting_is_fixed(self):
        text = dumps({"a": np.pi, "b": 1.0, "c": 0.5, "d": -0.0})
        assert '"a": 3.1415926535897931' in text
        assert '"b": 1' in text
        assert '"c": 0.5' in text

    def test_byte_identical_runs(self):
        obj = {
            "m": np.array([[1 + 2j, 0], [0.25, -1j]]).tolist(),
            "z": 0.1 + 0.2j,
            "flag": True,
            "nothing": None,
        }
        assert dumps(obj) == dumps(obj)

    def test_emitted_text_is_valid_json(self):
        obj = {"xs": [1, 2.5, -3], "nested": {"m": np.eye(2, dtype=complex).tolist()}, "s": "q"}
        parsed = json.loads(dumps(obj))
        assert parsed["xs"] == [1, 2.5, -3]
        assert parsed["nested"]["m"][0][0] == [1, 0]

    def test_round_trip_precision(self):
        values = [np.pi, 1 / 3, 1e-300, 123456789.123456789, 2**-52]
        parsed = json.loads(dumps({"v": values}))
        assert parsed["v"] == values

    def test_a_complex_number_is_written_as_its_pair(self):
        assert dumps(1 + 2j) == "[1, 2]\n"
        matrix = np.array([[1 + 2j, 0], [0.25, -1j]])
        pairs = [[[1.0, 2.0], [0.0, 0.0]], [[0.25, 0.0], [-0.0, -1.0]]]
        assert dumps({"m": matrix.tolist(), "z": matrix[0, 0]}) == dumps({"m": pairs, "z": [1.0, 2.0]})
        assert dumps([np.complex64(0.1 + 0.5j)]) == "[\n  [0.10000000149011612, 0.5]\n]\n"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"x": float("nan")})

    def test_numpy_bools_are_emitted(self):
        assert dumps([np.bool_(True), np.bool_(False), True]) == "[true, false, true]\n"

    def test_keys_are_escaped(self):
        keys = ['quote " here', "back\\slash", "new\nline", "tab\t"]
        assert list(json.loads(dumps({key: 1 for key in keys}))) == keys


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Color(enum.IntEnum):
    RED = 1


# Text that needs escaping: quotes, backslashes, control characters, non-ASCII (and non-BMP) text
_texts = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u20ac\U0001f600ab') | st.characters(),
                 max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                                1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53 + 1])
_big_ints = st.integers(2 ** 64, 2 ** 200) | st.integers(-(2 ** 200), -(2 ** 64))
_complex = st.builds(complex, _finite | _edge_floats, _finite | _edge_floats)
_python_leaves = (st.none() | st.booleans() | st.integers() | _big_ints | _finite | _edge_floats | _texts)
_leaves = (_python_leaves
           | st.booleans().map(np.bool_)
           | st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64) | st.integers(0, 255).map(np.uint8)
           | (_finite | _edge_floats).map(np.float64)
           | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
           | st.integers().map(_Int) | _finite.map(_Float) | _texts.map(_Str) | _texts.map(np.str_)
           | st.just(_Color.RED) | _complex | _complex.map(np.complex128)
           | st.complex_numbers(width=64, allow_nan=False, allow_infinity=False).map(np.complex64))


def _nested(leaves, keys, tuples):
    def containers(inner):
        out = st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4)
        return out | st.lists(inner, max_size=4).map(tuple) if tuples else out
    return st.recursive(leaves, containers, max_leaves=24)


_documents = _nested(_leaves, _texts | st.integers(), tuples=True)
_json_documents = _nested(_python_leaves, _texts, tuples=False)  # json.loads reads them back as they are
_bad_leaves = st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("nan"), complex(0.5, float("inf")),
                                {1}, object()])
# [re, im] pairs of floats, the text of a complex number, and pairs with a NumPy float in them
_pair_floats = _finite | _edge_floats | st.just(1.0)
_pairs = st.lists(_pair_floats | _pair_floats.map(np.float64), min_size=2, max_size=2)
_pair_documents = _nested(_pairs | _leaves, _texts, tuples=True)


def _as_pairs(value):
    """``value`` with each complex number replaced by the list of its real and imaginary parts."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, dict):
        return {key: _as_pairs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_as_pairs(item) for item in value)
    return value


class TestEmitterAgainstReference:
    """``dumps`` against ``oracles.reference_dumps``, the recursive emitter it replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=_documents)
    @example(doc={"": [[], {}, ()], "a": [[[]], [{}]], "b": ([],), "c": {"d": {}}})
    @example(doc=[-0.0, 5e-324, 1e300, np.float32(0.1), 2 ** 64, -(2 ** 70), np.bool_(True), None])
    @example(doc={'k"\\\n\u00e9\U0001f600': 'v"\\\x00\u2028', "\x7f": [np.int64(-1), True, 0]})
    def test_same_text_as_reference(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=_pair_documents)
    @example(doc=[[[-0.0, 5e-324], [1e300, 1.0]], [[1.0, -0.0], [np.float64(0.1), 1e300]]])
    @example(doc={"g1": [0.5, -0.0], "m": [[[1.0, 0.0]]], "mixed": [[5e-324, -1e300], 3, "s", [1.0, 1.0, 1.0],
                                                                      {"p": [np.float64(-0.0), 1.0]}]})
    def test_pair_documents_same_text_as_reference(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=_documents)
    @example(doc=[[1 + 2j, -0.0j], (np.complex128(5e-324 - 1e300j),), {"z": [complex(-0.0, 1.0), 0.5]}])
    def test_complex_leaves_same_text_as_their_pairs(self, doc):
        # a complex number and the list of its two parts are one text, in every layout
        assert dumps(doc) == dumps(_as_pairs(doc))

    @pytest.mark.parametrize("pair", [[float("nan"), 0.0], [0.5, float("inf")], [-float("inf"), -float("inf")],
                                      [np.float64("nan"), 1.0]], ids=["nan-re", "inf-im", "both", "f64-nan"])
    @pytest.mark.parametrize("place", [lambda p: p, lambda p: [[p, [0.0, 1.0]]], lambda p: {"g": p, "x": 1.0},
                                       lambda p: [[1.0, 2.0], p, {"y": [p]}]], ids=["bare", "matrix", "dict", "mixed"])
    def test_non_finite_pair_raises_the_reference_error(self, pair, place):
        with pytest.raises(ValueError) as expected:
            reference_dumps(place(pair))
        with pytest.raises(ValueError) as got:
            dumps(place(pair))
        assert str(got.value) == str(expected.value)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=_json_documents)
    def test_python_documents_round_trip(self, doc):
        assert json.loads(dumps(doc)) == doc

    @pytest.mark.parametrize("bad,error", [
        (float("nan"), ValueError), (float("inf"), ValueError), (-float("inf"), ValueError),
        (np.float32("nan"), ValueError), (np.float64("-inf"), ValueError),
        (complex(1.0, float("nan")), ValueError), ({1, 2}, TypeError), (object(), TypeError),
    ], ids=["nan", "inf", "-inf", "f32-nan", "f64-inf", "complex", "set", "object"])
    @pytest.mark.parametrize("place", [lambda v: v, lambda v: [v], lambda v: {"a": [1.0, v]},
                                       lambda v: [[0.5], {"b": v}]], ids=["bare", "list", "pair", "nested"])
    def test_unserializable_values_raise(self, bad, error, place):
        with pytest.raises(error):
            dumps(place(bad))
        with pytest.raises(error):
            reference_dumps(place(bad))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=_nested(_leaves | _bad_leaves, _texts, tuples=True))
    @example(doc=[[float("nan")], object()])  # a container's error comes before a later leaf's
    @example(doc={"a": [0.5, [complex(float("nan"), 1.0)], float("inf")]})
    def test_same_error_as_reference(self, doc):
        # the first unserializable value in document order decides the exception, as in the reference
        try:
            expected = reference_dumps(doc)
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc)):
                dumps(doc)
        else:
            assert dumps(doc) == expected
