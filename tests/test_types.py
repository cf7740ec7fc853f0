"""The contract of the ten result types, and what importing the package
loads.  The repr texts are those the types have always printed."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nakayama
from nakayama import (
    ARQuiver,
    Fracture,
    Fracturing,
    Glued,
    NdCertificate,
    RenderSpec,
    Verdict,
    parse_series,
)
from nakayama.cluster import CompatReport, CompletionStep
from nakayama.gluing import GlueReport

K = parse_series("2,1")
L = parse_series("2,2,1")
TL = Fracture("left", 1, ((1, 1),), 1)
TR = Fracture("right", 1, ((2, 1),), 1)
OK = Verdict(True, ((1, 1), (1, 2), (2, 1)), ())
TRACE = ({"step": "chain", "k": 1, "series": {"kupisch": [2, 1]}},)

# (type, fields in order, repr, hashable)
CASES = [
    (ARQuiver,
     {"vertices": ((1, 1), (1, 2), (2, 1)),
      "arrows": (((1, 1), (1, 2)), ((1, 2), (2, 1))),
      "translation": {(2, 1): (1, 1)}},
     "ARQuiver(vertices=((1, 1), (1, 2), (2, 1)), arrows=(((1, 1), (1, 2)), "
     "((1, 2), (2, 1))), translation={(2, 1): (1, 1)})", False),
    (Glued, {"result": L, "h": 1, "a": K, "b": K},
     "Glued(result=KupischSeries([2, 2, 1]), h=1, a=KupischSeries([2, 1]), "
     "b=KupischSeries([2, 1]))", True),
    (GlueReport, {"ok": False, "failure": "tau not carried"},
     "GlueReport(ok=False, failure='tau not carried')", True),
    (Fracture,
     {"side": "left", "height": 2, "coords": ((1, 1), (1, 2)), "level": 1},
     "Fracture(side='left', height=2, coords=((1, 1), (1, 2)), level=1)",
     True),
    (Fracturing, {"TL": TL, "TR": TR},
     "Fracturing(TL=Fracture(side='left', height=1, coords=((1, 1),), "
     "level=1), TR=Fracture(side='right', height=1, "
     "coords=((2, 1),), level=1))", True),
    (CompatReport, {"compatible": True, "level_ok": False},
     "CompatReport(compatible=True, level_ok=False)", True),
    (CompletionStep,
     {"kind": "glue", "a": K, "b": L, "height": 1, "result": L,
      "note": "glued"},
     "CompletionStep(kind='glue', a=KupischSeries([2, 1]), "
     "b=KupischSeries([2, 2, 1]), height=1, result=KupischSeries([2, 2, 1]), "
     "note='glued')", True),
    (NdCertificate,
     {"n": 1, "d": 1, "kupisch": K, "verdict": OK, "gldim": 1,
      "pd_source_injective": 1, "trace": TRACE},
     "NdCertificate(n=1, d=1, kupisch=KupischSeries([2, 1]), "
     "verdict=Verdict(ok=True, candidate=((1, 1), (1, 2), (2, 1)), "
     "orbit=()), gldim=1, pd_source_injective=1, trace=({'step': 'chain', "
     "'k': 1, 'series': {'kupisch': [2, 1]}},))", False),
    (RenderSpec, {"format": "dot", "highlight": ((1, 1),), "labels": "dims"},
     "RenderSpec(format='dot', highlight=((1, 1),), labels='dims')", True),
    (Verdict,
     {"ok": False, "candidate": ((1, 1),), "orbit": (((1, 1), (2, 1)),),
      "stream": tuple},
     "Verdict(ok=False, candidate=((1, 1),), orbit=(((1, 1), (2, 1)),))",
     True),
]

# (type, the positional arguments a default needs, repr of the result)
DEFAULTS = [
    (GlueReport, (True,), "GlueReport(ok=True, failure=None)"),
    (CompletionStep, ("base",),
     "CompletionStep(kind='base', a=None, b=None, height=None, result=None, "
     "note='')"),
    (RenderSpec, (), "RenderSpec(format='ascii', highlight=(), "
                     "labels='coords')"),
    (Verdict, (True, (), ()), "Verdict(ok=True, candidate=(), orbit=())"),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
def test_constructors_repr_and_equality(cls, fields, text, hashable):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for obj in (by_position, by_keyword):
        assert repr(obj) == text
        assert [getattr(obj, name) for name in fields] == list(fields.values())
    assert by_position == by_keyword and not by_position != by_keyword
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)


@pytest.mark.parametrize("cls, args, text", DEFAULTS,
                         ids=[case[0].__name__ for case in DEFAULTS])
def test_default_constructors(cls, args, text):
    assert repr(cls(*args)) == text
    assert cls(*args) == cls(*args)
    if cls is Verdict:
        assert cls(*args).stream is tuple


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, text, hashable):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert repr(obj) == text


@pytest.mark.parametrize("cls, fields, text, hashable", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, text, hashable):
    obj = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj and repr(back) == text


@pytest.mark.parametrize("cls, fields, text, hashable", CASES[:-1],
                         ids=IDS[:-1])
def test_records_are_tuples(cls, fields, text, hashable):
    # the nine records iterate their fields and equal a plain tuple of them
    obj = cls(**fields)
    assert tuple(obj) == tuple(fields.values()) == obj


def test_truth_values():
    assert not GlueReport(False) and GlueReport(True)
    assert not CompatReport(False, True) and CompatReport(True, False)
    assert not Verdict(False, (), ()) and Verdict(True, (), ())
    assert all(cls(**fields) for cls, fields, _, _ in CASES
               if cls not in (GlueReport, CompatReport, Verdict))


def test_verdict_equality_ignores_the_stream():
    failing = Verdict(False, ((1, 1),), (), lambda: iter([{"detail": "x"}]))
    plain = Verdict(False, ((1, 1),), ())
    assert failing == plain and hash(failing) == hash(plain)
    assert repr(failing) == repr(plain)
    assert failing.failures == ({"detail": "x"},) and plain.failures == ()
    assert failing != Verdict(True, ((1, 1),), ())
    assert failing != (False, ((1, 1),), ())  # a Verdict is not a tuple


def test_verdict_failures_are_cached():
    calls = []

    def stream():
        calls.append(1)
        return iter([{"detail": "x"}])

    v = Verdict(False, (), (), stream)
    assert not calls  # nothing is read at construction
    first = v.failures
    assert v.failures is first and calls == [1]
    with pytest.raises(AttributeError):
        v.failures = ()


@pytest.mark.parametrize("module", ["nakayama", "nakayama.cli"])
def test_cold_import_loads_no_dataclasses(module):
    # the package costs its own code only: no dataclasses, no inspect;
    # json waits for the first json render, but the cli needs it at once
    src = str(Path(nakayama.__file__).resolve().parent.parent)
    banned = {"dataclasses", "inspect"} | ({"json"} if module == "nakayama"
                                           else set())
    code = ("import sys; before = set(sys.modules); "
            f"sys.path.insert(0, {src!r}); import {module}; "
            f"print(sorted({banned!r} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_public_api():
    # a name leaves or joins the package on purpose, not by accident
    assert sorted(nakayama.__all__) == [
        "ARQuiver", "Fracture", "Fracturing", "Glued", "KupischError",
        "KupischSeries", "NdCertificate", "RenderSpec", "Verdict", "ZERO",
        "abutments", "ar", "ar_quiver", "base_family_even",
        "base_family_odd", "check_fractured", "check_glue",
        "check_nct", "classify_sides", "cluster", "compatibility_check",
        "complete_slice", "construct", "cosyzygy",
        "enumerate_tilting",
        "footing_to_ka", "format_series", "foundation", "gldim", "glue",
        "glue_fractured", "gluing", "iR_category", "idim",
        "injective_fracture", "is_fracture", "is_slice", "is_tilting",
        "kupisch", "lambda_mh", "left_abutment_heights",
        "linear_quiver_algebra", "ndgen", "pL_category", "parse_series",
        "pd", "projective_fracture", "projective_injective_fracturing",
        "render", "right_abutment_heights", "supported", "syzygy", "tau",
        "tau_inv", "tau_n", "tau_n_inv", "tilting", "validate"]
    assert not hasattr(Glued, "overlap")
    assert nakayama.classify_sides.__code__.co_varnames[:3] == \
        ("K", "F", "verdict")
    assert nakayama.classify_sides.__code__.co_argcount == 3
