import random

import pytest

from nakayama import ar
from nakayama.abutments import (
    foundation,
    footing_to_ka,
    left_abutment_heights,
    max_left_height,
    right_abutment_heights,
)
from nakayama.kupisch import KupischSeries, lambda_mh

from oracles import all_series, footing_from_ka, footing_to_ka_oracle, \
    ka_modules, random_series, verify_foundation_shape


def test_height_examples():
    assert left_abutment_heights(lambda_mh(6, 5)) == {1, 2, 3, 4, 5}
    assert left_abutment_heights(lambda_mh(4, 4)) == {1, 2, 3, 4}
    assert left_abutment_heights(KupischSeries([2, 2, 2, 1])) == {1, 2}
    assert right_abutment_heights(lambda_mh(9, 4)) == {1, 2, 3, 4}
    assert right_abutment_heights(lambda_mh(5, 5)) == {1, 2, 3, 4, 5}
    assert right_abutment_heights(KupischSeries([1])) == {1}


def test_foundation_examples():
    assert foundation(lambda_mh(6, 5), "left", 3) == \
        [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert foundation(lambda_mh(9, 4), "left", 1) == [(1, 1)]
    assert foundation(lambda_mh(9, 4), "right", 3) == \
        [(7, 1), (7, 2), (7, 3), (8, 1), (8, 2), (9, 1)]
    with pytest.raises(ValueError):
        foundation(lambda_mh(9, 4), "right", 5)
    with pytest.raises(ValueError):
        foundation(KupischSeries([2, 2, 1]), "left", 3)


def test_foundations_nested():
    rng = random.Random(8)
    for _ in range(25):
        K = random_series(rng, 10)
        for side, heights in (("left", left_abutment_heights(K)),
                              ("right", right_abutment_heights(K))):
            prev = set()
            for h in sorted(heights):
                fnd = set(foundation(K, side, h))
                assert len(fnd) == h * (h + 1) // 2
                assert prev <= fnd
                prev = fnd


def test_footing():
    K = lambda_mh(12, 5)
    assert footing_to_ka(K, "right", 3, (10, 3)) == (1, 3)
    B = lambda_mh(9, 4)
    assert footing_to_ka(B, "right", 3, (7, 1)) == (1, 1)
    assert footing_to_ka(B, "right", 3, (9, 1)) == (3, 1)
    assert footing_to_ka(B, "left", 2, (1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        footing_to_ka(B, "right", 3, (6, 1))
    rng = random.Random(9)
    for _ in range(25):
        K = random_series(rng, 10)
        for side in ("left", "right"):
            heights = left_abutment_heights(K) if side == "left" \
                else right_abutment_heights(K)
            h = max(heights)
            fnd = foundation(K, side, h)
            footed = [footing_to_ka(K, side, h, x) for x in fnd]
            assert sorted(footed) == sorted(ka_modules(h))
            assert [footing_from_ka(K, side, h, y) for y in footed] == fnd


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except ValueError as exc:
        return "error", str(exc)


def test_footing_against_membership():
    rng = random.Random(18)
    series = [lambda_mh(9, 4), lambda_mh(6, 5), KupischSeries([1]),
              KupischSeries([2, 2, 1])]
    series += [random_series(rng, 9) for _ in range(12)]
    for K in series:
        points = [(i, j) for i in range(-1, K.m + 3)
                  for j in range(-1, K.m + 3)] + [None]
        for side in ("left", "right", "top"):
            for h in range(0, K.m + 2):
                for x in points:
                    assert _outcome(footing_to_ka, K, side, h, x) == \
                        _outcome(footing_to_ka_oracle, K, side, h, x)


def test_footing_conjugates_ar_structure():
    # arrows, tau, syzygy and cosyzygy restricted to a foundation commute
    # with the footing into the hereditary algebra
    from nakayama.kupisch import linear_quiver_algebra
    rng = random.Random(10)
    for _ in range(15):
        K = random_series(rng, 10)
        for side in ("left", "right"):
            heights = left_abutment_heights(K) if side == "left" \
                else right_abutment_heights(K)
            h = max(heights)
            ka = linear_quiver_algebra(h)
            fnd = set(foundation(K, side, h))

            def foot(x):
                return None if x is None or x not in fnd \
                    else footing_to_ka(K, side, h, x)

            for x in fnd:
                fx = footing_to_ka(K, side, h, x)
                tx, ftx = ar.tau(K, x), ar.tau(ka, fx)
                if tx in fnd or (tx is None and ftx is None):
                    assert foot(tx) == ftx
                sx, fsx = ar.syzygy(K, x), ar.syzygy(ka, fx)
                if sx in fnd or (sx is None and fsx is None):
                    assert foot(sx) == fsx


def test_verify_foundation_shape():
    g = ar.ar_quiver(lambda_mh(9, 4))
    assert verify_foundation_shape(g, "right", (7, 3))
    assert verify_foundation_shape(g, "left", (1, 4))
    assert not verify_foundation_shape(g, "left", (2, 3))
    assert not verify_foundation_shape(g, "right", (6, 3))
    with pytest.raises(ValueError):
        verify_foundation_shape(g, "left", (9, 9))


def _shape_matches_height_rules(K):
    g = ar.ar_quiver(K)
    m = K.m
    lh = left_abutment_heights(K)
    rh = right_abutment_heights(K)
    for h in range(1, m + 1):
        if K.exists((1, h)):
            assert verify_foundation_shape(g, "left", (1, h)) == (h in lh)
        if K.exists((m - h + 1, h)):
            assert verify_foundation_shape(
                g, "right", (m - h + 1, h)) == (h in rh)


def test_shape_oracle_agrees_with_height_rules():
    # exhaustive at small size, sampled up to m = 12
    for m in range(1, 9):
        for K in all_series(m):
            _shape_matches_height_rules(K)
    rng = random.Random(11)
    for _ in range(60):
        _shape_matches_height_rules(random_series(rng, 12, min_m=9))


def test_left_right_duality():
    rng = random.Random(12)
    for _ in range(30):
        K = random_series(rng, 11)
        assert left_abutment_heights(K) == right_abutment_heights(K.opposite())
        assert right_abutment_heights(K) == left_abutment_heights(K.opposite())


def test_unique_maximal_abutments():
    rng = random.Random(13)
    for _ in range(20):
        K = random_series(rng, 10)
        # heights form initial segments, hence unique maximal elements
        lh = left_abutment_heights(K)
        rh = right_abutment_heights(K)
        assert lh == set(range(1, max(lh) + 1))
        assert rh == set(range(1, max(rh) + 1))
        assert max_left_height(K) == max(lh)
