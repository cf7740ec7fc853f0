import math
import random
import re
from itertools import combinations

import pytest

from nakayama import tilting
from nakayama.abutments import footing_to_ka
from nakayama.cluster import complete_slice
from nakayama.kupisch import lambda_mh, parse_series
from nakayama.tilting import (
    dual_slice_indices,
    enumerate_tilting,
    iR_category,
    injective_fracture,
    is_fracture,
    is_slice,
    is_tilting,
    pL_category,
    projective_fracture,
    projective_injective_fracturing,
    slice_from_indices,
    slice_indices,
)

from oracles import all_series, enumerate_slices, enumerate_tilting_oracle, \
    ext1_dim_ka, ext1_dim_oracle, hom_dim_ka, hom_dim_oracle, \
    is_slice_oracle, is_tilting_oracle, ka_modules, make_fracturing


def catalan(h):
    return math.comb(2 * h, h) // (h + 1)


def test_hom_examples():
    for h in range(1, 6):
        for x in ka_modules(h):
            assert hom_dim_ka(h, x, x) == 1
    assert hom_dim_ka(3, (1, 3), (3, 1)) == 1
    assert hom_dim_ka(3, (3, 1), (1, 3)) == 0
    assert hom_dim_ka(2, (1, 2), (2, 1)) == 1
    with pytest.raises(ValueError):
        hom_dim_ka(3, (4, 1), (1, 1))


def test_ext_examples():
    for h in range(2, 6):
        for y in ka_modules(h):
            assert ext1_dim_ka(h, (1, h), y) == 0  # projective source
    assert ext1_dim_ka(2, (2, 1), (1, 1)) == 1
    assert ext1_dim_ka(2, (2, 1), (1, 2)) == 0


def test_hom_ext_against_matrix_oracle():
    for h in range(1, 7):
        for x in ka_modules(h):
            for y in ka_modules(h):
                assert hom_dim_ka(h, x, y) == hom_dim_oracle(h, x, y)
                assert ext1_dim_ka(h, x, y) == ext1_dim_oracle(h, x, y)


def test_tilting_counts():
    for h in range(1, 6):
        tiltings = enumerate_tilting(h)
        assert len(tiltings) == catalan(h)
        # the projective-injective is a summand of every tilting module
        assert all((1, h) in t for t in tiltings)
    assert is_tilting(3, [(1, 1), (1, 2), (1, 3)])
    assert not is_tilting(2, [(1, 1), (2, 1)])
    assert not is_tilting(3, [(1, 1), (1, 2)])  # wrong cardinality


def test_enumerate_tilting_matches_filter():
    for h in range(0, 7):
        assert enumerate_tilting(h) == enumerate_tilting_oracle(h)
    with pytest.raises(ValueError, match="height"):
        enumerate_tilting(-1)


def test_enumerate_tilting_catalan():
    for h in range(1, 11):
        assert len(enumerate_tilting(h)) == catalan(h)


def test_arc_rule_matches_pairwise_ext_on_every_set():
    # every h-element set of modules for h <= 6, tilting or not; the
    # slice rule is pinned against the former set rule on the same sets
    sets = 0
    for h in range(1, 7):
        for cand in combinations(ka_modules(h), h):
            assert is_tilting(h, cand) == is_tilting_oracle(h, cand), cand
            assert is_slice(h, cand) == is_slice_oracle(h, cand), cand
            sets += 1
    assert sets == 57501


def test_arc_rule_matches_pairwise_ext_on_perturbed_slices():
    # beyond the exhaustive sizes: a random slice (tilting) and each of its
    # one-summand perturbations to a random module (mostly not tilting)
    rng = random.Random(0)
    verdicts = set()
    for h in range(7, 41):
        mods = ka_modules(h)
        idx = [1]
        while len(idx) < h:
            idx.append(idx[-1] + rng.randint(0, 1))
        base = slice_from_indices(reversed(idx))
        assert is_tilting(h, base) and is_tilting_oracle(h, base)
        for k in range(h):
            cand = list(base)
            cand[k] = rng.choice([x for x in mods if x != base[k]])
            verdict = is_tilting(h, cand)
            assert verdict == is_tilting_oracle(h, cand), cand
            verdicts.add(verdict)
    assert verdicts == {False, True}


def test_enumerate_tilting_is_every_tilting_module_in_index_order():
    # strictly increasing, Catalan(h) many, each tilting by the pairwise
    # test: as there are exactly Catalan(h) tilting modules, this pins
    # the whole list
    for h in range(0, 10):
        index = {x: a for a, x in enumerate(ka_modules(h))}
        keys = [tuple(index[x] for x in t) for t in enumerate_tilting(h)]
        assert all(list(k) == sorted(set(k)) for k in keys)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(keys) == catalan(h)
        assert all(is_tilting_oracle(h, t) for t in enumerate_tilting(h))


def test_tilting_modules_with_every_length_are_the_slices():
    # both ways: every slice is tilting (complete_slice builds its
    # fracture on this), and a tilting module with one summand of each
    # length is a slice
    for h in range(1, 9):
        one_each = {frozenset(t) for t in enumerate_tilting(h)
                    if sorted(j for _, j in t) == list(range(1, h + 1))}
        assert one_each == {frozenset(s) for s in enumerate_slices(h)}
        assert len(one_each) == 2 ** (h - 1)


def test_is_fracture_validates_each_summand_once(monkeypatch):
    # the arc test compares no pair of summands, so a fracture of height
    # h costs h coordinate checks, not one per ordered pair
    calls = 0
    check = tilting._check_ka_coord

    def counting(h, x):
        nonlocal calls
        calls += 1
        return check(h, x)

    monkeypatch.setattr(tilting, "_check_ka_coord", counting)
    K = parse_series(",".join(map(str, [2] + list(range(501, 0, -1)))))
    is_fracture(K, "left", 501, [(1, j) for j in range(1, 502)])
    assert calls == 501


def test_slices():
    assert is_slice(5, [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)])
    # every slice is tilting: complete_slice builds its fracture on this
    for h in range(1, 10):
        assert is_slice(h, [(1, j) for j in range(1, h + 1)])
        slices = enumerate_slices(h)
        assert len(slices) == 2 ** (h - 1)
        for s in slices:
            assert is_slice(h, s)
            assert is_tilting(h, s)
    assert not is_slice(3, [(1, 1), (1, 2), (2, 3)])
    assert not is_slice(3, [(3, 1), (1, 2), (1, 3)])


def test_a_repeated_length_is_no_slice():
    # h summands, but two of length 1 and none of length 2
    assert not is_slice(2, [(1, 1), (2, 1)])
    assert not is_slice(3, [(1, 1), (2, 1), (1, 3)])
    # h + 1 summands, of which the set would be a slice
    coords = [(1, 1), (1, 1), (1, 2)]
    assert not is_slice(2, coords)
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="is not a slice of height 2"):
            complete_slice(2, coords, 2, side)


def test_a_summand_that_is_no_pair_is_named():
    for x in (None, (1,), (1, 1, 1), "ab", ("a", 1), (2, 2)):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(x))} is "
                                             r"not a module coordinate "
                                             r"for height 2$"):
            is_tilting(2, [x, (1, 1)])


def test_a_slice_summand_that_is_no_coordinate_is_named():
    # each summand is checked before the sort reads its length
    assert not is_slice(1, [(1,)])
    assert not is_slice(1, [None])
    for x in (None, (1,), (1, 1, 1), "ab", (2, 1)):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(x))} is "
                                             r"not a module coordinate "
                                             r"for height 1$"):
            slice_indices(1, [x])
    for side in ("left", "right"):
        with pytest.raises(ValueError, match="^None is not a module "
                                             "coordinate for height 1$"):
            complete_slice(1, [None], 2, side)
    # well-formed coordinates that are no slice keep their message
    with pytest.raises(ValueError,
                       match=r"^\[\(1, 1\), \(1, 3\), \(2, 1\)\] is not a "
                             r"slice of height 3$"):
        slice_indices(3, [(1, 1), (2, 1), (1, 3)])


def test_a_height_that_is_no_integer_is_named():
    # each checks h before any work: a float or a bool is not read as the
    # integer it equals
    coords = [(1, 1), (1, 2)]
    for h in (2.0, True, "2", None):
        msg = rf"^height must be an integer, got {re.escape(repr(h))}$"
        with pytest.raises(ValueError, match=msg):
            is_tilting(h, coords)
        with pytest.raises(ValueError, match=msg):
            slice_indices(h, coords)
        with pytest.raises(ValueError, match=msg):
            enumerate_tilting(h)
        # is_slice says whether slice_indices accepts the arguments
        assert not is_slice(h, coords)


def test_a_summand_that_is_no_pair_of_ints_is_named():
    # a coordinate is a pair of ints: a float or a bool is not read as
    # the integer it equals, in a tilting module, a slice or a fracture
    K = lambda_mh(3, 3)
    for x in ((1, 1.0), (1, True), (True, 1), [1, 1]):
        msg = rf"^{re.escape(str(x))} is not a module coordinate for " \
            r"height 2$"
        with pytest.raises(ValueError, match=msg):
            is_tilting(2, [x, (1, 2)])
        with pytest.raises(ValueError, match=msg):
            complete_slice(2, [x, (1, 2)], 2, "right")
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(x))} is "
                                             r"not a summand of a left "
                                             r"fracture of height 3$"):
            is_fracture(K, "left", 3, [x, (1, 2), (1, 3)])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(x))} not "
                                             r"in the left foundation of "
                                             r"height 3$"):
            footing_to_ka(K, "left", 3, x)
    for x in ("ab", (1,), None):  # no pair: refused before the sort
        with pytest.raises(ValueError, match="is not a summand of a left"):
            is_fracture(K, "left", 3, [(1, 1), x, (1, 3)])


def test_slice_indices_round_trip():
    for h in range(1, 7):
        for s in enumerate_slices(h):
            idx = slice_indices(h, s)
            assert tuple(sorted(slice_from_indices(idx))) == tuple(sorted(s))
            dual = dual_slice_indices(h, idx)
            assert is_slice(h, slice_from_indices(dual))
            assert dual_slice_indices(h, dual) == idx


def test_height_zero_is_no_slice():
    # no length has a summand, so there is no index i_h = 1 to read
    for h in (0, -1):
        assert not is_slice(h, [])
    with pytest.raises(ValueError, match=r"\[\] is not a slice of height 0"):
        slice_indices(0, [])
    with pytest.raises(ValueError, match=r"is not a slice of height 0"):
        complete_slice(0, [], 2, "right")


def test_fracture_examples():
    K = lambda_mh(12, 5)
    fr = is_fracture(K, "left", 5, [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)])
    assert fr.level == 3
    assert projective_fracture(K).level == 1
    assert injective_fracture(K).level == 1
    tr = is_fracture(K, "right", 5,
                     [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    assert tr.level == 3
    with pytest.raises(ValueError):
        is_fracture(K, "left", 5, [(2, 1), (2, 2), (1, 3), (1, 4), (9, 1)])
    with pytest.raises(ValueError):
        is_fracture(K, "left", 2, [(1, 1), (2, 1)])  # not tilting
    with pytest.raises(ValueError, match="zero module"):
        is_fracture(K, "left", 2, [None, (1, 1)])


def test_fracture_repeated_summand_refused():
    # a repeated summand is not collapsed into the smaller set: is_tilting
    # refuses repeats, and so does is_fracture, naming the summand
    K = lambda_mh(3, 3)
    with pytest.raises(ValueError, match=r"repeated summand \(3, 1\)"):
        is_fracture(K, "right", 3, [(1, 3), (2, 2), (3, 1), (3, 1)])
    with pytest.raises(ValueError, match=r"repeated summand \(1, 1\)"):
        is_fracture(K, "left", 3, [(1, 1), (1, 2), (1, 1), (1, 3)])


@pytest.mark.parametrize("side, h, message", [
    ("left", 0, "no left abutment of height 0 on "),
    ("up", 2, "side must be left/right, got 'up'"),
    ("right", 9, "no right abutment of height 9 on "),
])
def test_empty_fracture_checks_the_abutment(side, h, message):
    # with no coordinate to foot, the side and height are still checked
    with pytest.raises(ValueError) as exc:
        is_fracture(lambda_mh(6, 3), side, h, [])
    assert str(exc.value).startswith(message)


def test_fracture_outside_the_foundation_named_by_the_footing():
    K = lambda_mh(12, 5)
    with pytest.raises(ValueError,
                       match=r"^\(9, 1\) not in the left foundation of "
                             r"height 5$"):
        is_fracture(K, "left", 5, [(2, 1), (2, 2), (1, 3), (1, 4), (9, 1)])


def test_canonical_fractures_validate():
    # the canonical fractures are built without validation; is_fracture
    # must accept them and give the same fracture, on every series
    for m in range(2, 10):
        series = all_series(m)
        assert len(series) == catalan(m - 1)
        for K in series:
            fr = projective_fracture(K)
            assert fr == is_fracture(K, "left", fr.height, fr.coords)
            fr = injective_fracture(K)
            assert fr == is_fracture(K, "right", fr.height, fr.coords)


def test_fracture_level_monotone():
    # removing an abutment apex (replacing it by another summand) never
    # lowers the level
    h = 4
    K = lambda_mh(9, 4)
    base = [(1, 1), (1, 2), (1, 3), (1, 4)]
    lvl0 = is_fracture(K, "left", h, base).level
    for t in enumerate_tilting(h):
        lvl = is_fracture(K, "left", h, list(t)).level
        missing = [j for j in range(1, h + 1) if (1, j) not in set(t)]
        assert lvl >= lvl0
        assert lvl == (max(missing) + 1 if missing else 1)


def test_pl_ir_categories():
    K = lambda_mh(12, 5)
    F = make_fracturing(
        K,
        [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)],
        [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    pl = pL_category(K, F)
    assert set(pl) == {(i, 5) for i in range(2, 9)} | set(F.TL.coords)
    assert len(pl) == len(K.projectives())
    ir = iR_category(K, F)
    assert len(ir) == len(K.injectives())
    # the projective/injective fracturing reproduces the projectives and
    # the injectives, which check_nct passes in its place
    for S in [K] + [S for m in range(1, 11) for S in all_series(m)]:
        F0 = projective_injective_fracturing(S)
        assert pL_category(S, F0) == S.projectives()
        assert iR_category(S, F0) == S.injectives()


def test_ir_category_refuses_a_right_fracture_off_the_maximal_abutment():
    K = lambda_mh(12, 5)
    low = is_fracture(K, "right", 4, [(12, 1), (11, 2), (10, 3), (9, 4)])
    for TR in (low, projective_fracture(K)):
        F = projective_injective_fracturing(K)._replace(TR=TR)
        with pytest.raises(ValueError, match="^right fracture must sit at "
                                             "the maximal right abutment$"):
            iR_category(K, F)


def test_hereditary_fracturing():
    # over the hereditary algebra every tilting module is both a left
    # and a right fracture
    h = 4
    K = lambda_mh(h, h)
    for t in enumerate_tilting(h):
        F = make_fracturing(K, list(t), list(t))
        assert pL_category(K, F) == sorted(t)
        assert iR_category(K, F) == sorted(t)


def test_fracture_json():
    K = lambda_mh(12, 5)
    fr = is_fracture(K, "left", 5, [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)])
    data = fr.to_json()
    assert data["side"] == "left" and data["height"] == 5
    assert data["level"] == 3 and [2, 1] in data["coords"]
