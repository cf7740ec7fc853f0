import random

import pytest

from nakayama.kupisch import (
    ZERO,
    KupischError,
    KupischSeries,
    format_series,
    lambda_mh,
    linear_quiver_algebra,
    parse_series,
    validate,
)

from oracles import classify_oracle, exists_oracle, random_series


def violation(entries):
    with pytest.raises(KupischError) as exc:
        validate(entries)
    return exc.value.violation


def test_validate_accepts():
    assert validate([2, 2, 1]).entries == (2, 2, 1)
    assert validate([1]).entries == (1,)
    assert validate([5, 5, 4, 4, 4, 4, 4, 4, 4, 3, 2, 1]).m == 12


def test_validate_rejects_named():
    assert violation([2, 2]) == "last-entry-not-one"
    assert violation([2, 1, 1]) == "entry-below-two"
    assert violation([4, 2, 2, 1]) == "kupisch-step"
    assert violation([3, 1]) == "overflow-past-sink"
    assert violation([]) == "last-entry-not-one"
    # entries may jump upward arbitrarily; only drops are bounded
    assert validate([2, 4, 3, 2, 1]).m == 5


def test_lambda_mh():
    assert lambda_mh(15, 3).entries == (3,) * 13 + (2, 1)
    assert lambda_mh(5, 5).entries == (5, 4, 3, 2, 1)
    assert lambda_mh(1, 1).entries == (1,)
    with pytest.raises(ValueError):
        lambda_mh(5, 1)
    with pytest.raises(ValueError):
        lambda_mh(3, 4)
    assert linear_quiver_algebra(4) == lambda_mh(4, 4)
    assert linear_quiver_algebra(1).entries == (1,)


def test_module_exists():
    glued = parse_series("5,5,4^7,3,2,1")
    assert glued.exists((7, 5))
    assert not glued.exists((1, 5))
    assert glued.exists((1, 1))
    K = lambda_mh(15, 3)
    assert K.exists((13, 3))
    assert not K.exists((14, 3))
    assert not K.exists(ZERO)
    assert not K.exists((0, 1)) and not K.exists((1, 0))


def test_all_modules():
    K = KupischSeries([2, 1])
    assert K.all_modules() == [(1, 1), (2, 1), (1, 2)]
    assert KupischSeries([1]).all_modules() == [(1, 1)]
    assert len(lambda_mh(9, 4).all_modules()) == 30
    # lengths above d_1 occur when later entries are larger
    K = KupischSeries([2, 2, 2, 3, 2, 1])
    assert (1, 3) in K.all_modules()
    assert len(K.all_modules()) == sum(K.entries)


def test_classify():
    A = lambda_mh(6, 5)
    proj = {x for x in A.all_modules() if A.is_projective(x)}
    inj = {x for x in A.all_modules() if A.is_injective(x)}
    assert proj == {(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5)}
    assert inj == {(6, 1), (5, 2), (4, 3), (3, 4), (2, 5), (1, 5)}
    assert A.is_projective((1, 1))
    B = lambda_mh(9, 4)
    assert B.is_injective((7, 3))
    assert B.is_injective((6, 4))
    assert not B.exists((7, 4))
    c = A.classify((2, 5))
    assert c == {"projective": True, "injective": True, "top": 1,
                 "socle": 5, "support": (1, 5), "dim": 5}
    with pytest.raises(ValueError):
        A.classify((7, 1))


def test_projective_injective_maps():
    rng = random.Random(0)
    for _ in range(25):
        K = random_series(rng, 9)
        projs = [K.projective_at(t) for t in range(1, K.m + 1)]
        assert len(set(projs)) == K.m
        assert all(K.is_projective(p) for p in projs)
        assert {p for p in K.all_modules() if K.is_projective(p)} == set(projs)
        injs = [K.injective_at(t) for t in range(1, K.m + 1)]
        assert len(set(injs)) == K.m
        assert {p for p in K.all_modules() if K.is_injective(p)} == set(injs)
        # top of projective_at(t) is t; socle of injective_at(t) is t
        for t in range(1, K.m + 1):
            assert K.top_vertex(K.projective_at(t)) == t
            assert K.socle_vertex(K.injective_at(t)) == t


def test_downward_closure_invariant():
    rng = random.Random(1)
    for _ in range(25):
        K = random_series(rng, 9)
        for (i, j) in K.all_modules():
            if j >= 2:
                assert K.exists((i, j - 1))
                assert K.exists((i + 1, j - 1))
            if i == 1:
                assert K.is_projective((i, j))
            if i + j == K.m + 1:
                assert K.is_injective((i, j))


def test_quiver_presentation():
    assert KupischSeries([2, 2, 1]).quiver_presentation() == {
        "vertices": 3,
        "arrows": [(1, 2), (2, 3)],
        "relations": [(1, 3)],
    }
    glued = parse_series("5,5,4^7,3,2,1")
    assert glued.quiver_presentation()["relations"] == [
        (1, 6), (3, 7), (4, 8), (5, 9), (6, 10), (7, 11), (8, 12)]
    assert lambda_mh(4, 4).quiver_presentation()["relations"] == []


def test_opposite():
    for (m, h) in [(6, 5), (9, 4), (12, 5), (7, 2)]:
        assert lambda_mh(m, h).opposite() == lambda_mh(m, h)
    rng = random.Random(2)
    for _ in range(40):
        K = random_series(rng, 10)
        op = K.opposite()
        assert op.opposite() == K
        assert sum(op.entries) == sum(K.entries)
        # duality swaps classification
        for x in K.all_modules():
            dx = K.dual_coord(x)
            assert op.exists(dx)
            assert K.is_projective(x) == op.is_injective(dx)
            assert K.is_injective(x) == op.is_projective(dx)


def test_interval_oracle_small():
    rng = random.Random(3)
    for _ in range(30):
        K = random_series(rng, 6)
        for i in range(1, K.m + 3):
            for j in range(1, K.m + 3):
                assert K.exists((i, j)) == exists_oracle(K, (i, j))
        for x in K.all_modules():
            assert K.classify(x) == classify_oracle(K, x)


def test_parse_and_format():
    assert parse_series("2^6,3^13,2^3,1").entries == \
        (2,) * 6 + (3,) * 13 + (2,) * 3 + (1,)
    assert parse_series("2,3,2,1") == KupischSeries([2, 3, 2, 1])
    K = parse_series("2^2,3^2,4^3,5^13,4^4,3^3,2^3,1")
    assert format_series(K) == "2^2,3^2,4^3,5^13,4^4,3^3,2^3,1"
    assert format_series(KupischSeries([2, 1])) == "2,1"


def test_parse_rejects_empty_runs():
    for text in ("2^-3,1", "2^0,1"):
        with pytest.raises(ValueError, match="run length"):
            parse_series(text)


def test_json_round_trip():
    K = parse_series("5,5,4^7,3,2,1")
    assert KupischSeries.from_json(K.to_json()) == K
