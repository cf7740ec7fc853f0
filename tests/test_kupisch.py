import pickle
import random
import tracemalloc
from itertools import product

import pytest

from nakayama import ar, kupisch
from nakayama.cluster import check_fractured
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
from nakayama.tilting import projective_injective_fracturing

from oracles import all_series, classify_oracle, exists_oracle, \
    minimal_relations_oracle, random_series, v_oracle


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
    # not truncated or parsed: 2.5 used to become 2, and "3" to be read
    for entries in ([2.5, 2, 1], ["3", 2, 1], [2, True], (2, 1.0)):
        assert violation(entries) == "not-an-integer"
    # entries may jump upward arbitrarily; only drops are bounded
    assert validate([2, 4, 3, 2, 1]).m == 5


def _named_in_rule_order(entries):
    """The violation and message of the first broken rule, the rules taken
    in the order of the class docstring, or None for a series."""
    m = len(entries)
    if not entries:
        return "last-entry-not-one", "empty series"
    if entries[-1] != 1:
        return "last-entry-not-one", f"d_{m} = {entries[-1]} != 1"
    for i, d in enumerate(entries[:-1], start=1):
        if d < 2:
            return ("entry-below-two",
                    f"d_{i} = {d} < 2 (only d_{m} may be 1)")
    for i, d in enumerate(entries, start=1):
        if d > m - i + 1:
            return ("overflow-past-sink",
                    f"d_{i} = {d} > m - i + 1 = {m - i + 1}")
    for i in range(1, m):
        if entries[i - 1] - 1 > entries[i]:
            return ("kupisch-step", f"d_{i} - 1 = {entries[i - 1] - 1} "
                                    f"> d_{i + 1} = {entries[i]}")
    return None


def test_validate_names_the_first_broken_rule():
    # every integer list with m <= 5 and entries -1..m+2: the sink bound is
    # read only on a step failure, and still named before it
    for m in range(6):
        for entries in product(range(-1, m + 3), repeat=m):
            try:
                KupischSeries(entries)
                got = None
            except KupischError as exc:
                got = exc.violation, str(exc)
            assert got == _named_in_rule_order(entries), entries


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
    # no height below 1 is read as the single vertex
    for h in (0, -3):
        with pytest.raises(ValueError, match=r"need 1 <= h <= m"):
            linear_quiver_algebra(h)


def test_lambda_mh_refuses_a_size_that_is_not_an_integer():
    # refused by name, True included, where it was an unnamed TypeError or
    # True was taken for 1
    for m, h, name in ((2.0, 2, "m"), (3, 2.0, "h"), (True, 1, "m"),
                       (3, True, "h")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            lambda_mh(m, h)


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


def test_all_modules_matches_exists():
    # all_modules reads the u table; exists reads the entries
    for m in range(1, 10):
        for K in all_series(m):
            assert K.all_modules() == [
                (i, j) for j in range(1, m + 1) for i in range(1, m + 2 - j)
                if K.exists((i, j))], K


def test_all_modules_reads_u_once_per_module():
    # one tall run and a long low tail: scanning every i for every length
    # would read u m * max(d) = 400,000 times
    class Counted(tuple):
        reads = 0

        def __getitem__(self, k):
            Counted.reads += 1
            return tuple.__getitem__(self, k)

    K = parse_series(",".join(map(str, range(200, 1, -1))) + ",2^1800,1")
    K._u = Counted(K._u)
    mods = K.all_modules()
    assert len(mods) == sum(K.entries) == 23700
    assert Counted.reads <= 2 * len(mods) + K.m


def test_length_and_dual_of_zero():
    K = parse_series("2^3,3,2,1")
    assert len(K) == K.m == 6
    assert K.dual_coord(ZERO) is ZERO


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
        assert K.projectives() == sorted(projs)
        assert K.injectives() == sorted(injs)
        # top of projective_at(t) is t; socle of injective_at(t) is t
        for t in range(1, K.m + 1):
            assert K.top_vertex(K.projective_at(t)) == t
            assert K.socle_vertex(K.injective_at(t)) == t


def test_projective_injective_sets():
    # a module is projective iff j = u(i + j), injective iff j = v(i):
    # the rules pick out the projective_at and injective_at modules
    for m in range(1, 10):
        for K in all_series(m):
            mods = K.all_modules()
            assert {(i, j) for i, j in mods if j == K.u(i + j)} == \
                {K.projective_at(t) for t in range(1, m + 1)}
            assert {(i, j) for i, j in mods if j == K.v(i)} == \
                {K.injective_at(t) for t in range(1, m + 1)}


def test_tables_against_formulas():
    # u(s) is min(d_{m-s+2}, s - 1); the projectives and injectives are
    # listed sorted, one on each co-diagonal and on each diagonal, and
    # each call returns a fresh list
    rng = random.Random(13)
    series = [K for m in range(1, 10) for K in all_series(m)]
    series += [random_series(rng, 40) for _ in range(300)]
    for K in series:
        e, m = K.entries, K.m
        assert K._u == (0, 0) + tuple(min(e[m - s + 1], s - 1)
                                      for s in range(2, m + 2)), K
        p, i = K.projectives(), K.injectives()
        assert p == sorted(set(p)) and i == sorted(set(i)), K
        assert [a + b for a, b in p] == list(range(2, m + 2)), K
        assert [a for a, _ in i] == list(range(1, m + 1)), K
        assert p is not K.projectives() and i is not K.injectives()


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


def test_quiver_presentation_matches_oracle():
    rng = random.Random(23)
    for _ in range(300):
        K = random_series(rng, 40)
        assert K.quiver_presentation()["relations"] == \
            minimal_relations_oracle(K), K


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
    rng = random.Random(16)
    for _ in range(40):
        K = random_series(rng, 40)
        text = format_series(K)
        assert parse_series(text) == K
        # runs are maximal: no two neighbouring runs share an entry
        bases = [part.partition("^")[0] for part in text.split(",")]
        assert all(a != b for a, b in zip(bases, bases[1:]))


def test_v_against_scan_down():
    from nakayama.ndgen import base_family_even, base_family_odd
    from oracles import chain_algebra
    rng = random.Random(17)
    series = [random_series(rng, 30) for _ in range(60)]
    series += [lambda_mh(m, h) for m in range(1, 16) for h in range(1, m + 1)
               if h > 1 or m == 1]
    series += [chain_algebra(n, k) for n in range(1, 6) for k in range(1, 5)]
    series += [base_family_odd(n, d) for n in (3, 5, 7, 9)
               for d in range(n + 1, 2 * n)]
    series += [base_family_even(n, k) for n in (2, 4, 6, 8)
               for k in range(1, n)]
    for K in series:
        assert [K.v(i) for i in range(1, K.m + 1)] == \
            [v_oracle(K, i) for i in range(1, K.m + 1)], K


def test_long_series_builds():
    # the v table is filled in one forward pass, so a long chain is cheap
    K = parse_series("2^30000,1")
    assert K.m == 30001
    assert K.v(1) == 2 and K.v(K.m) == 1
    assert format_series(K) == "2^30000,1"


def test_parse_rejects_empty_runs():
    for text in ("2^-3,1", "2^0,1"):
        with pytest.raises(ValueError, match="run length"):
            parse_series(text)


def test_parse_reads_ascii_decimal_only():
    # an entry or run length is an optional '-' and ASCII digits; int()
    # alone would read each of these as another series
    for text, part in (("1_0,9,8,7,6,5,4,3,2,1", "1_0"), ("2^1_0,1", "1_0"),
                       ("+2,1", "+2"), ("\uff12,1", "\uff12"),
                       ("\u0662,1", "\u0662"), ("2^+3,1", "+3"),
                       ("2^\u0663,1", "\u0663"), ("2,1.0", "1.0"),
                       ("--2,1", "--2"), ("-,1", "-")):
        with pytest.raises(ValueError) as exc:
            parse_series(text)
        assert str(exc.value) == f"not a decimal integer: {part!r}"
    assert parse_series(" 2 ^ 03 , 1 ").entries == (2, 2, 2, 1)
    with pytest.raises(ValueError, match="run length -3 < 1"):
        parse_series("2^-3,1")


def test_parse_refuses_empty_parts():
    # an empty part is refused by position, not dropped; the empty text
    # stays the empty series, refused by its named violation
    for text, k in (("2,,1", 2), ("2,1,", 3), (",2,1", 1), ("2, ,1", 2)):
        with pytest.raises(ValueError) as exc:
            parse_series(text)
        assert str(exc.value) == f"empty part at position {k}"
        assert not isinstance(exc.value, KupischError)
    for text in ("", "  "):
        with pytest.raises(KupischError) as exc:
            parse_series(text)
        assert exc.value.violation == "last-entry-not-one"


def test_projective_and_injective_at_refuse_a_vertex_out_of_range():
    K = lambda_mh(3, 2)
    for vertex in (0, 4):
        for at in (K.projective_at, K.injective_at):
            with pytest.raises(ValueError,
                               match=f"vertex {vertex} out of range"):
                at(vertex)


def test_a_coordinate_is_a_pair_of_ints():
    # exists is False for anything else, bool included, so each function
    # that validates a coordinate names it
    K = KupischSeries([3, 2, 1])
    assert K.exists((1, 1)) and K.exists((1, 3))
    for x in ((True, 1), (1, True), (1.0, 1), (1, 1.0), (1, 1, 1), (1,),
              [1, 1], "11", 11):
        assert not K.exists(x)
        for check in (K.check_exists, K.classify, K.dual_coord,
                      K.is_projective, lambda x: ar.tau(K, x),
                      lambda x: ar.pd(K, x)):
            with pytest.raises(ValueError, match="^no module at "):
                check(x)
        with pytest.raises(ValueError, match="^no module at "):
            check_fractured(K, 2, projective_injective_fracturing(K),
                            candidate=[x])


def test_an_index_is_an_int_in_range():
    # no wrap (-1), no padding slot (0) and no IndexError past the end:
    # u, v and the projective and injective at a vertex name the index
    K = KupischSeries([3, 2, 1])
    for name, at, lo, hi in (("co-diagonal", K.u, 2, 4),
                             ("diagonal", K.v, 1, 3),
                             ("vertex", K.projective_at, 1, 3),
                             ("vertex", K.injective_at, 1, 3)):
        for k in (-1, 0, lo - 1, hi + 1):
            with pytest.raises(ValueError, match=rf"^{name} {k} out of "
                                                 rf"range {lo}\.\.{hi}$"):
                at(k)
        for k in (True, 2.0, "2"):
            with pytest.raises(ValueError, match=rf"^{name} must be an "
                                                 r"integer, got "):
                at(k)
    assert [K.u(s) for s in range(2, 5)] == [1, 2, 3]
    assert [K.v(i) for i in range(1, 4)] == [3, 2, 1]
    assert K.projective_at(2) == (1, 2) and K.injective_at(2) == (2, 2)


def test_parse_caps_vertices(monkeypatch):
    # the cap is checked before a run is expanded, so rejecting a huge
    # run allocates next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_VERTICES"):
            parse_series("2^1000001,1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(kupisch, "MAX_VERTICES", 5)
    assert parse_series("2^4,1").m == 5
    for text in ("2^5,1", "2,2,2,2,2,1", "2^3,2^3,1"):
        with pytest.raises(ValueError, match="MAX_VERTICES = 5"):
            parse_series(text)


def test_lambda_mh_caps_vertices(monkeypatch):
    # the cap is checked before the entries are built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_VERTICES = 1000000"):
            lambda_mh(kupisch.MAX_VERTICES + 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(kupisch, "MAX_VERTICES", 5)
    assert lambda_mh(5, 2).m == 5
    for m, h in ((6, 2), (6, 6)):
        with pytest.raises(ValueError, match="MAX_VERTICES = 5"):
            lambda_mh(m, h)


def test_series_holds_its_entries_and_two_tables():
    # entries, u and v take a word per vertex each; the projectives and
    # injectives are not kept
    m = 10**4
    entries = [8] * (m - 7) + list(range(7, 0, -1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        K = KupischSeries(entries)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert K.m == m and held < 40 * m


def test_series_pickles_its_entries():
    # at every protocol a pickle holds the entries and the gldim memo,
    # not the tables u and v, which unpickling builds again, nor the
    # memo of a check
    from nakayama.ar import gldim
    from nakayama.cluster import check_nct
    K = parse_series("3^500,2,1")
    for memo in (None, 334):
        if memo:
            assert gldim(K) == memo
            check_nct(K, 2)
            assert K._pi is not None
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(K, protocol)
            assert len(data) < len(pickle.dumps(K.entries, protocol)) + 64
            back = pickle.loads(data)
            assert back == K and back._gldim == memo and back._pi is None
            assert (back._u, back._v, back.projectives(),
                    back.injectives()) == (K._u, K._v, K.projectives(),
                                           K.injectives())


def test_json_round_trip():
    K = parse_series("5,5,4^7,3,2,1")
    assert KupischSeries.from_json(K.to_json()) == K
    for entries in ([2.5, 2, 1], "21", [True, 1], [2, "1"], {"2": 1}):
        with pytest.raises(ValueError, match="list of integers"):
            KupischSeries.from_json({"kupisch": entries})
