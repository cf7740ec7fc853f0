import pickle
import random
from itertools import combinations

import pytest

from nakayama import ar, cluster, tilting
from nakayama.abutments import footing_from_ka
from nakayama.cluster import (
    check_fractured,
    check_nct,
    classify_sides,
    compatibility_check,
    complete_slice,
    glue_fractured,
)
from nakayama.gluing import check_glue, glue
from nakayama.kupisch import KupischSeries, lambda_mh, parse_series
from nakayama.tilting import (
    enumerate_slices,
    injective_fracture,
    is_fracture,
    make_fracturing,
    projective_fracture,
    projective_injective_fracturing,
    Fracturing,
)

from oracles import all_series, check_fractured_oracle, random_series

GLUED = parse_series("5,5,4^7,3,2,1")


def test_generate_candidate_motivating():
    A = lambda_mh(6, 5)
    cand = check_fractured(A, 2, projective_injective_fracturing(A)).candidate
    proj = set(A.projectives())
    inj = set(A.injectives())
    assert set(cand) == proj | inj
    # high n: only fractured projectives and injectives remain
    K = lambda_mh(9, 4)
    n = ar.gldim(K) + 1
    cand = check_fractured(K, n, projective_injective_fracturing(K)).candidate
    assert set(cand) == set(K.projectives()) | set(K.injectives())


def test_generate_candidate_sliced():
    K = lambda_mh(12, 5)
    F = make_fracturing(
        K,
        [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)],
        [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    cand = list(check_fractured(K, 4, F).candidate)
    assert cand == sorted(
        [(i, 5) for i in range(1, 9)]
        + [(2, 1), (2, 2), (1, 3), (1, 4)]
        + [(11, 1), (10, 2), (10, 3), (9, 4)])
    assert len(cand) == 16


def test_check_fractured_sliced():
    K = lambda_mh(12, 5)
    F = make_fracturing(
        K,
        [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)],
        [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    v = check_fractured(K, 4, F)
    assert v.ok
    sides = classify_sides(F, v)
    assert sides == {"left_nct": False, "right_nct": False, "nct": False}


def test_check_nct_motivating():
    assert check_nct(lambda_mh(6, 5), 2).ok
    vb = check_nct(lambda_mh(9, 4), 2)
    assert not vb.ok
    assert any(f["condition"] == 2 and f["coord"] == [7, 1]
               for f in vb.failures)
    vl = check_nct(GLUED, 2)
    assert vl.ok and len(vl.candidate) == 22


def test_check_nct_chains():
    for m in range(2, 7):
        K = lambda_mh(m, 2)
        v = check_nct(K, m - 1)
        assert v.ok
        assert len(v.candidate) == m + 1
        assert set(v.candidate) == set(K.projectives()) | {(m, 1)}


def test_check_nct_n1():
    # every module category is its own 1-cluster-tilting subcategory
    for K in (lambda_mh(5, 3), GLUED, KupischSeries([1])):
        v = check_nct(K, 1)
        assert v.ok and set(v.candidate) == set(K.all_modules())


def test_hereditary_fractured():
    h, n = 4, 3
    K = lambda_mh(h, h)
    from nakayama.tilting import enumerate_tilting
    for t in enumerate_tilting(h):
        F = make_fracturing(K, list(t), list(t))
        v = check_fractured(K, n, F)
        assert v.ok and set(v.candidate) == set(t)
    # mismatched tilting pair fails
    F = make_fracturing(K, [(1, j) for j in range(1, h + 1)],
                        [(h + 1 - j, j) for j in range(1, h + 1)])
    assert not check_fractured(K, n, F).ok


def test_verdict_idempotent():
    K = lambda_mh(12, 5)
    F = make_fracturing(
        K,
        [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)],
        [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    v = check_fractured(K, 4, F)
    again = check_fractured(K, 4, F, candidate=list(v.candidate))
    assert again.ok and again.candidate == v.candidate
    # dropping a fractured projective is caught by condition 1
    broken = [c for c in v.candidate if c != (2, 1)]
    bad = check_fractured(K, 4, F, candidate=broken)
    assert not bad.ok
    assert any(f["condition"] == 1 for f in bad.failures)


def test_orbit_pairing():
    v = check_nct(GLUED, 2)
    xs = [x for (x, y) in v.orbit]
    ys = [y for (x, y) in v.orbit]
    pl = set(GLUED.projectives())
    ir = set(GLUED.injectives())
    assert sorted(xs) == sorted(set(v.candidate) - ir)
    assert sorted(ys) == sorted(set(v.candidate) - pl)
    for x, y in v.orbit:
        assert ar.tau_n_inv(GLUED, 2, x) == y
        assert ar.tau_n(GLUED, 2, y) == x


def test_brute_force_uniqueness():
    # at most one candidate containing the fractured projectives and
    # injectives satisfies the four conditions
    for (m, n) in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 4)]:
        K = lambda_mh(m, 2)
        F = projective_injective_fracturing(K)
        must = set(K.projectives()) | set(K.injectives())
        free = [x for x in K.all_modules() if x not in must]
        winners = []
        for r in range(len(free) + 1):
            for extra in combinations(free, r):
                cand = sorted(must | set(extra))
                if check_fractured(K, n, F, candidate=cand).ok:
                    winners.append(cand)
        expected = check_nct(K, n)
        if expected.ok:
            assert winners == [list(expected.candidate)]
        else:
            assert winners == []


def test_brute_force_fractured_uniqueness():
    # for a fixed fracturing, at most one candidate containing the
    # fractured projectives and injectives passes the four conditions,
    # and when one does it is the generated one
    from itertools import product
    from nakayama.abutments import footing_from_ka, max_left_height, \
        max_right_height
    from nakayama.tilting import enumerate_tilting, iR_category, pL_category
    rng = random.Random(17)
    from oracles import random_series
    for n in (2, 3, 4):
        for _ in range(6):
            K = random_series(rng, 5)
            hl, hr = max_left_height(K), max_right_height(K)
            tls = [[footing_from_ka(K, "left", hl, c) for c in t]
                   for t in enumerate_tilting(hl)]
            trs = [[footing_from_ka(K, "right", hr, c) for c in t]
                   for t in enumerate_tilting(hr)]
            for tl, tr in product(tls[:3], trs[:3]):
                F = make_fracturing(K, tl, tr)
                must = set(pL_category(K, F)) | set(iR_category(K, F))
                free = [x for x in K.all_modules() if x not in must]
                winners = []
                for r in range(len(free) + 1):
                    for extra in combinations(free, r):
                        cand = sorted(must | set(extra))
                        if check_fractured(K, n, F, candidate=cand).ok:
                            winners.append(cand)
                assert len(winners) <= 1
                v = check_fractured(K, n, F)
                if v.ok:
                    assert winners == [list(v.candidate)]
                else:
                    assert winners == []


def test_compatibility():
    A = lambda_mh(8, 3)
    ta = is_fracture(A, "left", 3, [(2, 1), (1, 2), (1, 3)])
    B = lambda_mh(12, 5)
    tb = is_fracture(B, "right", 5,
                     [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    rep = compatibility_check((A, ta), (B, tb), 3)
    assert rep.compatible and rep.level_ok
    # height-1 gluing is always compatible for fractures containing the
    # simple corner
    rep1 = compatibility_check(
        (A, projective_fracture(A)), (B, injective_fracture(B)), 1)
    assert rep1.compatible
    # projective fracture vs proper slice mismatch
    bad = compatibility_check((A, projective_fracture(A)), (B, tb), 3)
    assert not bad.compatible


def test_glue_fractured_worked_step():
    B = lambda_mh(12, 5)
    FB = Fracturing(
        is_fracture(B, "left", 5, [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)]),
        is_fracture(B, "right", 5,
                    [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)]))
    A = lambda_mh(8, 3)
    FA = Fracturing(
        is_fracture(A, "left", 3, [(2, 1), (1, 2), (1, 3)]),
        is_fracture(A, "right", 3, [(7, 1), (7, 2), (6, 3)]))
    g, F, v = glue_fractured((B, FB), (A, FA), 3, 4)
    assert g.result == parse_series("3^5,5^8,4,3,2,1")
    assert v.ok
    assert not classify_sides(F, v)["right_nct"]


def test_glue_fractured_nct_at_simples():
    # gluing two cluster-tilting algebras at height 1 stays cluster-tilting
    n = 2
    B = lambda_mh(2 * n + 1, 2)
    A = lambda_mh(n + 1, 2)
    FB = projective_injective_fracturing(B)
    FA = projective_injective_fracturing(A)
    g, F, v = glue_fractured((B, FB), (A, FA), 1, n)
    assert v.ok
    assert classify_sides(F, v)["nct"]
    assert g.result == lambda_mh(3 * n + 1, 2)


def test_glue_fractured_trivial():
    # gluing with the hereditary algebra leaves everything unchanged
    h, n = 2, 2
    A = lambda_mh(5, 2)
    FA = projective_injective_fracturing(A)
    B = lambda_mh(h, h)
    t = [(1, j) for j in range(1, h + 1)]
    FB = make_fracturing(B, t, t)
    g, F, v = glue_fractured((B, FB), (A, FA), h, n)
    assert g.result == A
    assert v.ok
    assert set(F.TL.coords) == set(FA.TL.coords)
    assert set(F.TR.coords) == set(FA.TR.coords)


def test_glue_fractured_slice_grid():
    # completing a slice on both sides and gluing the halves yields an
    # honest n-cluster-tilting subcategory, for every slice of height
    # at most 4 and every n up to 5
    for h in range(1, 5):
        for s in enumerate_slices(h):
            for n in (2, 3, 4, 5):
                KB, FB, vb, _ = complete_slice(h, list(s), n, "left")
                KA, FA, va, _ = complete_slice(h, list(s), n, "right")
                g, F, v = glue_fractured((KB, FB), (KA, FA), h, n)
                assert v.ok, (h, s, n, v.failures)
                assert classify_sides(F, v)["nct"]


def _fractured_algebras(max_m, n):
    """Every (K, F, verdict) with K on at most max_m vertices, F a pair of
    tilting fractures at the maximal abutments, and the verdict of
    check_fractured at n ok."""
    from nakayama.abutments import footing_from_ka, max_left_height, \
        max_right_height
    from nakayama.tilting import enumerate_tilting
    for m in range(1, max_m + 1):
        for K in all_series(m):
            hl, hr = max_left_height(K), max_right_height(K)
            for tl in enumerate_tilting(hl):
                for tr in enumerate_tilting(hr):
                    F = make_fracturing(
                        K, [footing_from_ka(K, "left", hl, c) for c in tl],
                        [footing_from_ka(K, "right", hr, c) for c in tr])
                    v = check_fractured(K, n, F)
                    if v.ok:
                        yield K, F, v


def test_glue_fractured_level_hypothesis():
    # every compatible gluing of fractured algebras on at most 4 vertices,
    # n = 2..4, with h at least both fracture levels: the glued verdict is
    # ok and its candidate is the union of the embedded components'
    glued = 0
    for n in (2, 3, 4):
        algebras = list(_fractured_algebras(4, n))
        for (KB, FB, vb), (KA, FA, va) in ((b, a) for b in algebras
                                           for a in algebras):
            for h in range(1, min(FA.TL.height, FB.TR.height) + 1):
                rep = compatibility_check((KA, FA.TL), (KB, FB.TR), h)
                if not (rep.compatible and rep.level_ok):
                    continue
                g, F, v = glue_fractured((KB, FB), (KA, FA), h, n)
                assert v.ok, (KB, KA, h, n)
                assert set(v.candidate) == {g.phi(x) for x in va.candidate} \
                    | {g.psi(x) for x in vb.candidate}
                glued += 1
    assert glued == 436


def test_check_nct_duality_and_orbits():
    # seeded random series with m <= 30: check_nct agrees on K and its
    # opposite, an ok candidate goes to the opposite's under dual_coord,
    # and every ok orbit pair (y, x) has tau_n x = y and tau_n_inv y = x
    rng = random.Random(11)
    oks = 0
    for _ in range(300):
        K = random_series(rng, 30)
        Kop = K.opposite()
        for n in range(1, ar.gldim(K) + 2):
            v, w = check_nct(K, n), check_nct(Kop, n)
            assert v.ok == w.ok, (K, n)
            if not v.ok:
                continue
            oks += n > 1
            assert sorted(map(K.dual_coord, v.candidate)) == list(w.candidate)
            for y, x in v.orbit:
                assert ar.tau_n(K, n, x) == y and ar.tau_n_inv(K, n, y) == x
    assert oks


def test_check_nct_ok_structure():
    # an ok verdict contains all projectives and injectives and pairs
    # the complements bijectively
    for K, n in [(GLUED, 2), (lambda_mh(6, 5), 2), (lambda_mh(7, 2), 3),
                 (parse_series("2^5,3^5,2^6,1"), 9)]:
        v = check_nct(K, n)
        assert v.ok
        cset = set(v.candidate)
        assert set(K.projectives()) <= cset
        assert set(K.injectives()) <= cset
        c_minus_p = cset - set(K.projectives())
        c_minus_i = cset - set(K.injectives())
        assert len(c_minus_p) == len(c_minus_i) == len(v.orbit)


def test_check_fractured_against_oracle():
    # every series with 2 <= m <= 8, n = 1..m: the default verdict, and
    # explicit candidates (the default one, one module removed, one
    # added), equal those of the two-loop checker on the public kernel
    rng = random.Random(5)
    for m in range(2, 9):
        for K in all_series(m):
            F = projective_injective_fracturing(K)
            for n in range(1, m + 1):
                v = check_fractured(K, n, F)
                expected = check_fractured_oracle(K, n, F).to_json()
                cand = list(v.candidate)
                assert v.to_json() == expected
                assert check_fractured(K, n, F, cand).to_json() == expected
                rest = [x for x in K.all_modules() if x not in v.candidate]
                cut = rng.randrange(len(cand))
                explicit = [cand[:cut] + cand[cut + 1:]]
                if rest:
                    explicit.append(cand + [rng.choice(rest)])
                for c in explicit:
                    assert check_fractured(K, n, F, c).to_json() == \
                        check_fractured_oracle(K, n, F, c).to_json()


def test_check_nct_equals_fractured_check():
    # check_nct passes the projectives and injectives in place of the
    # projective/injective fracturing: the same verdict, byte for byte,
    # also in closed form on a series whose gldim is memoized
    for m in range(1, 9):
        for K in all_series(m):
            F = projective_injective_fracturing(K)
            known = KupischSeries(K.entries)
            ar.gldim(known)
            for n in range(1, m + 2):
                v, w = check_nct(K, n), check_nct(known, n)
                assert v == w and v.to_json() == w.to_json() == \
                    check_fractured(K, n, F).to_json(), (K, n)


def test_classify_sides_against_canonical_fractures():
    # every fracture at a maximal abutment of a series with m <= 8: a
    # side is honest iff its fracture is the projective (injective) one
    from nakayama.abutments import footing_from_ka
    from nakayama.cluster import Verdict
    from nakayama.tilting import _fracture, enumerate_tilting
    ok = Verdict(True, (), ())  # classify_sides reads only ok from it
    for m in range(2, 9):
        for K in all_series(m):
            P, I = projective_fracture(K), injective_fracture(K)
            for side, canon in (("left", P), ("right", I)):
                h = canon.height
                for t in enumerate_tilting(h):
                    T = _fracture(K, side, h, sorted(
                        footing_from_ka(K, side, h, c) for c in t))
                    F = Fracturing(T, I) if side == "left" \
                        else Fracturing(P, T)
                    honest = set(T.coords) == set(canon.coords)
                    assert classify_sides(F, ok)[f"{side}_nct"] \
                        == honest


def record_walks(monkeypatch):
    """A list that gets (name, x) for each call of ar._down and ar._up."""
    walked = []

    def recording(name):
        walk = getattr(ar, name)

        def record(K, x, limit):
            walked.append((name, x))
            return walk(K, x, limit)
        return record

    for name in ("_down", "_up"):
        monkeypatch.setattr(ar, name, recording(name))
    return walked


def test_check_nct_walks_each_module_once(monkeypatch):
    # generation and verdict share one (co)syzygy walk per module and
    # direction, and an injective takes no cosyzygy walk
    walked = record_walks(monkeypatch)
    for m in range(1, 9):
        for K in all_series(m):
            for n in range(1, m + 1):
                walked.clear()
                check_nct(K, n)
                assert not any(name == "_up" and x in K._i
                               for name, x in walked), (K, n)
                assert len(walked) == len(set(walked)), (K, n)


def test_closure_stops_at_the_fractured_injectives():
    # seeded with P and stopped at I, the closure holds exactly the
    # non-injective modules of the check_nct candidate, each with the
    # walk the kernel gives
    for m in range(1, 8):
        for K in all_series(m):
            for n in range(1, m + 2):
                walks = cluster._closure(K, n, K._pseq, K._i)
                assert walks.keys() == \
                    set(check_nct(K, n).candidate) - K._i, (K, n)
                for x, w in walks.items():
                    assert w == ar._up(K, x, n - 1), (K, n, x)


def test_generated_candidate_follows_orbits_through_i_r(monkeypatch):
    # a fractured injective that is not injective is not recorded, but
    # its orbit goes on: for n = 1, tau^- of (1, 1) over 2,1 is (2, 1)
    K = parse_series("2,1")
    F = make_fracturing(K, [(1, 1), (1, 2)], [(1, 1), (1, 2)])
    assert check_fractured(K, 1, F).candidate == ((1, 1), (1, 2), (2, 1))
    # seeded random fracturings whose I_R leaves some injectives out:
    # each of those gets the walk (ZERO, 0), the candidate and the
    # verdict are those of the oracle, and the check walks each module
    # at most once per direction
    from nakayama.abutments import footing_from_ka, max_left_height, \
        max_right_height
    from nakayama.tilting import enumerate_tilting, iR_category, \
        pL_category
    walked = record_walks(monkeypatch)
    rng = random.Random(23)
    seen = 0
    while seen < 300:
        K = random_series(rng, 8, 2)
        hl, hr = max_left_height(K), max_right_height(K)
        tl = rng.choice(enumerate_tilting(hl))
        tr = rng.choice(enumerate_tilting(hr))
        F = make_fracturing(
            K, [footing_from_ka(K, "left", hl, c) for c in tl],
            [footing_from_ka(K, "right", hr, c) for c in tr])
        ir = set(iR_category(K, F))
        left_out = K._i - ir
        if not left_out:
            continue
        seen += 1
        for n in range(1, K.m + 2):
            expected = check_fractured_oracle(K, n, F)
            assert list(check_fractured(K, n, F).candidate) \
                == list(expected.candidate)
            walked.clear()
            v = check_fractured(K, n, F)
            assert len(walked) == len(set(walked)), (K, n)
            assert v.to_json() == expected.to_json()
            walks = cluster._closure(K, n, pL_category(K, F), ir)
            assert not walks.keys() & ir
            for x in left_out & walks.keys():
                assert walks[x] == (None, 0), (K, n, x)


def test_check_nct_memoizes_the_closed_form_candidate(monkeypatch):
    # the closed-form verdicts of one series share one P ∪ I tuple, built
    # on the first of them; the memo is invisible to ==, hash and pickle
    merges, merged = [], cluster._merged

    def counting(rest, ir):
        merges.append(rest)
        return merged(rest, ir)

    monkeypatch.setattr(cluster, "_merged", counting)
    for entries in ([1], [3, 2, 1], GLUED.entries, [2, 3, 3, 2, 1]):
        K, fresh = KupischSeries(entries), KupischSeries(entries)
        g = ar.gldim(K)
        assert K._pi is None
        merges.clear()
        v, w = check_nct(K, g + 1), check_nct(K, g + 2)
        assert v.candidate is w.candidate is K._pi
        assert len(merges) == 1
        assert K == fresh and hash(K) == hash(fresh)
        ar.gldim(fresh)  # the same memo as K but for _pi
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(K, protocol)
            assert data == pickle.dumps(fresh, protocol)
            back = pickle.loads(data)
            assert back == K and back._pi is None and back._gldim == g


def test_check_nct_closed_form_walks_nothing(monkeypatch):
    # above a memoized gldim the verdict takes no walk; its failures
    # come from the general check when they are read
    walked = record_walks(monkeypatch)
    for m in range(1, 8):
        for K in all_series(m):
            g = ar.gldim(K)
            for n in range(g + 1, m + 2):
                walked.clear()
                v = check_nct(K, n)
                assert not walked and v.ok == (m == 1) and not v.orbit
                back = pickle.loads(pickle.dumps(v))
                assert not walked
                assert (v.failures == ()) == (m == 1) == (not walked)
                assert back == v and back.to_json() == v.to_json()


def test_complete_slice_worked_chain():
    K, F, v, trace = complete_slice(
        5, [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)], 4, "right")
    assert K == parse_series("2^3,3^5,5^8,4,3,2,1")
    assert v.ok
    assert classify_sides(F, v)["right_nct"]
    for step in trace:
        if step.kind in ("staircase", "glue"):
            g = glue(step.b, step.a, step.height)
            assert g.result == step.result
            assert check_glue(g)[0].ok


def test_complete_slice_base():
    for n in (2, 5):
        for side in ("left", "right"):
            K, F, v, _ = complete_slice(1, [(1, 1)], n, side)
            assert K == KupischSeries([1])
            assert v.ok and classify_sides(F, v)["nct"]


def test_complete_slice_injective_slice():
    # the injective slice needs no completion to the right: the
    # hereditary algebra itself carries it
    h, n = 3, 2
    inj = [(h + 1 - j, j) for j in range(1, h + 1)]
    K, F, v, _ = complete_slice(h, inj, n, "right")
    assert K == lambda_mh(h, h)
    # dually the projective slice completes to the left with no gluing
    proj = [(1, j) for j in range(1, h + 1)]
    K2, F2, v2, _ = complete_slice(h, proj, n, "left")
    assert K2 == lambda_mh(h, h)


def test_complete_slice_all_small():
    for h in range(1, 5):
        for n in (2, 3, 4):
            for s in enumerate_slices(h):
                for side in ("left", "right"):
                    K, F, v, trace = complete_slice(h, list(s), n, side)
                    assert v.ok
                    assert classify_sides(F, v)[f"{side}_nct"]
                    for step in trace:
                        if step.kind in ("staircase", "glue"):
                            g = glue(step.b, step.a, step.height)
                            assert check_glue(g)[0].ok


def test_complete_slice_errors():
    with pytest.raises(ValueError):
        complete_slice(3, [(1, 1), (1, 2), (1, 3)], 1, "right")
    with pytest.raises(ValueError):
        complete_slice(3, [(3, 1), (1, 2), (1, 3)], 2, "right")
    with pytest.raises(ValueError):
        complete_slice(2, [(1, 1), (1, 2)], 2, "sideways")


def test_complete_slice_builds_the_fracture_without_is_tilting(monkeypatch):
    # every slice is tilting and slice_indices validated the given one,
    # so the completed fracture is built as it is: the one is_fracture
    # would validate
    def refuse(h, coords):
        raise AssertionError("is_tilting called")

    for h in range(1, 6):
        for s in enumerate_slices(h):
            with monkeypatch.context() as mp:
                mp.setattr(tilting, "is_tilting", refuse)
                Kr, Fr, vr, _ = complete_slice(h, list(s), 2, "right")
                Kl, Fl, vl, _ = complete_slice(h, list(s), 2, "left")
            assert vr.ok and vl.ok
            assert Fr.TL == is_fracture(Kr, "left", h, s)
            assert Fl.TR == is_fracture(
                Kl, "right", h,
                [footing_from_ka(Kl, "right", h, c) for c in s])


def test_complete_slice_raises_without_the_abutment(monkeypatch):
    # a completion lacking the height-h abutment is a construction bug
    monkeypatch.setattr(cluster, "_complete_right_series",
                        lambda h, indices, n, trace: lambda_mh(5, 2))
    for side, other in (("right", "left"), ("left", "right")):
        with pytest.raises(ValueError,
                           match=f"no {other} abutment of height 3"):
            complete_slice(3, [(1, 1), (1, 2), (1, 3)], 2, side)


# -- the failure stream ------------------------------------------------------

FAILING = parse_series("4^6,3,2,1")  # fails at n = 3, condition 2 first


FULL_UP = parse_series("2,3^2,2,1")  # every up walk full and nonzero at n = 3


def test_check_nct_stops_at_first_failure(monkeypatch):
    # a closure walk that vanishes decides the verdict with no _down
    # call: over FAILING at n = 3 the walks from (6, 1), (6, 2) and
    # (6, 3) stop early.  Where every up walk is full and nonzero, ok is
    # decided by the stream's first record: C minus P is walked only up
    # to it, and reading failures runs the stream again, in full
    calls = []
    walk = ar._down
    monkeypatch.setattr(ar, "_down",
                        lambda *a: calls.append(a) or walk(*a))
    for K, first in ((FAILING, 0), (FULL_UP, 1)):
        calls.clear()
        v = check_nct(K, 3)
        assert not v.ok
        early = len(calls)
        assert early == first
        rest = len(set(v.candidate) - K._p)
        assert early < rest
        assert v.failures
        assert len(calls) == early + rest
    walks = cluster._closure(FAILING, 3, FAILING._pseq, FAILING._i)
    assert [y for y, (x, k) in walks.items() if x is None] == \
        [(6, 1), (6, 2), (6, 3)]
    assert all(x is not None and k == 2 for x, k in
               cluster._closure(FULL_UP, 3, FULL_UP._pseq,
                                FULL_UP._i).values())


def test_failures_read_once():
    v = check_nct(FAILING, 3)
    first = v.failures
    assert first and v.failures is first
    assert first == tuple(v.stream())


def test_unread_verdict_pickles():
    v = check_nct(FAILING, 3)
    w = pickle.loads(pickle.dumps(v))
    assert w == v and w.to_json() == v.to_json()
    assert w.failures and w.to_json() == check_nct(FAILING, 3).to_json()


def test_check_errors_raise_at_call():
    F = projective_injective_fracturing(FAILING)
    with pytest.raises(ValueError, match="n must be >= 1"):
        check_nct(FAILING, 0)
    with pytest.raises(ValueError, match="no module"):
        check_fractured(FAILING, 2, F, [(1, 1), (1, 99)])


def test_verdict_equality_ignores_the_stream():
    from nakayama.cluster import Verdict
    assert Verdict(True, (), ()).failures == ()
    v = check_nct(FAILING, 3)
    same = Verdict(v.ok, v.candidate, v.orbit)
    assert same == v and hash(same) == hash(v) and not same.failures


def test_orbit_is_built_once_on_first_read(monkeypatch):
    # a check whose orbit is never read never builds it; the first read
    # builds it and every later read returns the same tuple
    builds = []
    orbit = cluster._orbit

    def counting(*args):
        builds.append(args)
        return orbit(*args)

    monkeypatch.setattr(cluster, "_orbit", counting)
    for K, n in ((FAILING, 3), (FULL_UP, 3), (GLUED, 2)):
        v = check_nct(K, n)
        v.ok, v.candidate, v.failures
        assert not builds
        assert v.orbit is v.orbit and len(builds) == 1
        builds.clear()


def test_unread_orbit_compares_hashes_and_pickles_as_read():
    for K, n in ((FAILING, 3), (FULL_UP, 3), (GLUED, 2), (GLUED, 3)):
        read = check_nct(K, n)
        read.orbit
        for unread in (check_nct(K, n), check_nct(K, n)):
            assert unread == read and read == unread
        assert hash(check_nct(K, n)) == hash(read)
        assert repr(check_nct(K, n)) == repr(read)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(check_nct(K, n), protocol)
            assert data == pickle.dumps(read, protocol)
            assert pickle.loads(data) == read


def test_verdict_takes_a_tuple_orbit():
    from nakayama.cluster import Verdict
    orbit = (((1, 1), (2, 1)),)
    v = Verdict(True, (), orbit)
    assert v.orbit is orbit and v == Verdict(True, (), orbit)
    assert Verdict(True, (), ()).orbit == ()


def test_explicit_candidate_orbit_leaves_out_images_outside_it():
    # over 3,2,1 at n = 1, tau^- sends (1, 1) to (2, 1); a candidate
    # without (2, 1) keeps (1, 1) out of the orbit
    K = parse_series("3,2,1")
    F = projective_injective_fracturing(K)
    full = check_fractured(K, 1, F)
    assert ((1, 1), (2, 1)) in full.orbit
    part = [x for x in full.candidate if x != (2, 1)]
    v = check_fractured(K, 1, F, part)
    assert not v.ok and (2, 1) not in v.candidate
    assert all(x in v.candidate for _, x in v.orbit)
    assert [p for p in v.orbit if p[0] == (1, 1)] == []
    assert v.to_json() == check_fractured_oracle(K, 1, F, part).to_json()
