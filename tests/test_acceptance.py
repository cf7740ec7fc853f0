"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with -s to see them).  All expected
values are exact; the runtime bounds are asserted as stated.
"""

import random
import time
from itertools import combinations

from nakayama import ar
from nakayama.abutments import left_abutment_heights, right_abutment_heights
from nakayama.cluster import (
    check_fractured,
    check_nct,
    classify_sides,
    complete_slice,
)
from nakayama.gluing import check_glue, glue
from nakayama.kupisch import lambda_mh, parse_series
from nakayama.ndgen import base_family_even, base_family_odd, construct, \
    source_injective_pd, supported
from nakayama.tilting import (
    enumerate_slices,
    enumerate_tilting,
    ext1_dim_ka,
    hom_dim_ka,
    is_tilting,
    ka_modules,
    make_fracturing,
    projective_injective_fracturing,
)

from oracles import (
    all_series,
    classify_oracle,
    cosyzygy_oracle,
    ext1_dim_oracle,
    exists_oracle,
    hom_dim_oracle,
    pushout_matches,
    random_series,
    syzygy_oracle,
    tau_n_closed_lambda_mh,
)


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    print(f"criterion {num:2d}: PASS ({label}, {elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_table_n9():
    t0 = time.time()
    rows = {
        10: "2,3^11,2^2,1",
        11: "2^2,3^2,4^3,5^13,4^4,3^3,2^3,1",
        12: "2^3,3^8,2^4,1",
        13: "2^4,3^2,4^14,3^3,2^3,1",
        14: "2^5,3^5,2^6,1",
        15: "2^6,3^13,2^3,1",
        16: "2^7,3^2,2^8,1",
        17: "2^8,3^13,2,1",
    }
    for d, text in rows.items():
        K = parse_series(text)
        assert base_family_odd(9, d) == K
        assert check_nct(K, 9).ok
        assert ar.gldim(K) == d
        assert source_injective_pd(K) == d
    _report(1, "8 rows of the (9,d) table reproduced", t0, 1.0)


def test_criterion_02_table_n6():
    t0 = time.time()
    printed = {
        6: "2^6,1",
        8: "2^2,3^5,2^3,1",
        10: "2^4,3^2,2^5,1",
        15: "2^3,3^12,2^4,1",
        17: "3^25,2,1",
        # the printed d = 13 row has a spurious extra entry; the family
        # formula gives the 19-vertex series below and it verifies
        13: "2,3^15,2^2,1",
    }
    for d, text in printed.items():
        K = parse_series(text)
        assert check_nct(K, 6).ok
        assert ar.gldim(K) == d
        assert source_injective_pd(K) == d
    assert base_family_even(6, 1) == parse_series("2,3^15,2^2,1")
    # the literally printed 20-entry row does not verify at d = 13
    K20 = parse_series("2^2,3^15,2^2,1")
    assert not check_nct(K20, 6).ok
    _report(2, "(6,d) table rows incl. corrected d=13", t0, 1.0)


def test_criterion_03_chain_grid():
    t0 = time.time()
    for n in range(2, 7):
        for k in range(1, 6):
            K = lambda_mh(k * n + 1, 2)
            v = check_nct(K, n)
            assert v.ok
            assert ar.gldim(K) == k * n
            # the n-cluster-tilting subcategory is the k*n + k + 1
            # proj-injectives plus the step-n orbit in the bottom row
            # (= k*n + 2 exactly when k = 1)
            assert len(v.candidate) == k * n + k + 1
            # the (kn)-cluster-tilting subcategory of the same algebra is
            # the algebra plus its source injective, of size kn + 2
            vtop = check_nct(K, k * n)
            assert vtop.ok and len(vtop.candidate) == k * n + 2
            assert set(vtop.candidate) == \
                set(K.projectives()) | {(K.m, 1)}
    _report(3, "chain grid n=2..6, k=1..5", t0, 1.0)


def test_criterion_04_uniqueness_brute_force():
    t0 = time.time()
    for m in range(2, 6):
        K = lambda_mh(m, 2)
        F = projective_injective_fracturing(K)
        proj = set(K.projectives())
        free = [x for x in K.all_modules() if x not in proj]
        winners = []
        for r in range(len(free) + 1):
            for extra in combinations(free, r):
                cand = sorted(proj | set(extra))
                if check_fractured(K, m - 1, F, candidate=cand).ok:
                    winners.append(cand)
        expected = sorted(proj | {K.injective_at(1)})
        assert winners == [expected]
    _report(4, "unique (m-1)-cluster-tilting subcategory, m <= 5", t0, 10.0)


def test_criterion_05_motivating_example():
    t0 = time.time()
    A, B = lambda_mh(6, 5), lambda_mh(9, 4)
    g = glue(B, A, 3)
    L = g.result
    assert L == parse_series("5,5,4^7,3,2,1")
    assert check_nct(L, 2).ok
    assert ar.tau_n_inv(L, 2, (7, 1)) == (9, 4)
    assert ar.tau_n_inv(L, 2, (7, 2)) == (10, 3)
    vb = check_nct(B, 2)
    assert not vb.ok
    assert check_nct(A, 2).ok
    _report(5, "motivating glue end-to-end", t0, 1.0)


def test_criterion_06_closed_form_vs_stepwise():
    t0 = time.time()
    checked = 0
    for m in range(1, 16):
        for h in range(2, m + 1) if m > 1 else [1]:
            K = lambda_mh(m, h)
            for n in range(1, 7):
                for x in K.all_modules():
                    if not K.is_projective(x):
                        assert tau_n_closed_lambda_mh(
                            m, h, n, x, "forward") == ar.tau_n(K, n, x)
                        checked += 1
                    if not K.is_injective(x):
                        assert tau_n_closed_lambda_mh(
                            m, h, n, x, "backward") == ar.tau_n_inv(K, n, x)
                        checked += 1
    _report(6, f"closed form = stepwise on {checked} instances", t0, 30.0)


def test_criterion_07_matrix_oracle():
    t0 = time.time()
    series = [K for m in range(1, 7) for K in all_series(m)]
    assert len(series) == 1 + 1 + 2 + 5 + 14 + 42
    for K in series:
        for i in range(1, K.m + 2):
            for j in range(1, K.m + 2):
                assert K.exists((i, j)) == exists_oracle(K, (i, j))
        for x in K.all_modules():
            assert K.classify(x) == classify_oracle(K, x)
            assert ar.syzygy(K, x) == syzygy_oracle(K, x)
            assert ar.cosyzygy(K, x) == cosyzygy_oracle(K, x)
    for h in range(1, 7):
        for x in ka_modules(h):
            for y in ka_modules(h):
                assert hom_dim_ka(h, x, y) == hom_dim_oracle(h, x, y)
                assert ext1_dim_ka(h, x, y) == ext1_dim_oracle(h, x, y)
    _report(7, f"matrix oracle over {len(series)} series and h <= 6", t0, 60.0)


def test_criterion_08_tilting_combinatorics():
    t0 = time.time()
    import math
    for h in range(1, 6):
        assert len(enumerate_tilting(h)) == math.comb(2 * h, h) // (h + 1)
    for h in range(1, 7):
        slices = enumerate_slices(h)
        assert len(slices) == 2 ** (h - 1)
        assert all(is_tilting(h, s) for s in slices)
    _report(8, "Catalan counts and slice tilting", t0, 10.0)


def test_criterion_09_gluing_properties():
    t0 = time.time()
    rng = random.Random(20260810)
    trials = 0
    while trials < 500:
        A = random_series(rng, 12)
        B = random_series(rng, 12)
        common = sorted(left_abutment_heights(A) &
                        right_abutment_heights(B))
        h = rng.choice(common)
        g = glue(B, A, h)
        assert g.result.entries == A.entries[:A.m - h] + B.entries
        assert len(g.result.all_modules()) == \
            len(A.all_modules()) + len(B.all_modules()) - h * (h + 1) // 2
        assert pushout_matches(g)
        inv, dis = check_glue(g)
        assert inv.ok
        assert dis.ok
        da, db = ar.gldim(A), ar.gldim(B)
        assert max(da, db) <= ar.gldim(g.result) <= da + db
        trials += 1
    _report(9, "500 random gluings verified", t0, 60.0)


def test_criterion_10_worked_chain():
    t0 = time.time()
    K12 = lambda_mh(12, 5)
    F = make_fracturing(
        K12,
        [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)],
        [(11, 1), (10, 2), (10, 3), (9, 4), (8, 5)])
    v12 = check_fractured(K12, 4, F)
    assert v12.ok and len(v12.candidate) == 16
    K, Fc, v, trace = complete_slice(
        5, [(2, 1), (2, 2), (1, 3), (1, 4), (1, 5)], 4, "right")
    assert K == parse_series("2^3,3^5,5^8,4,3,2,1")
    assert v.ok
    assert classify_sides(Fc, v)["right_nct"]
    for step in trace:
        if step.kind in ("staircase", "glue"):
            assert check_glue(glue(step.b, step.a, step.height))[0].ok
    _report(10, "slice completion chain", t0, 5.0)


def test_criterion_11_construct_sweep():
    t0 = time.time()
    built = rejected = 0
    for n in range(1, 10):
        for d in range(n, 31):
            if supported(n, d):
                cert = construct(n, d)
                assert cert.verdict.ok
                assert cert.gldim == d == cert.pd_source_injective
                built += 1
            else:
                try:
                    construct(n, d)
                except ValueError:
                    rejected += 1
                else:
                    raise AssertionError(f"({n},{d}) must be rejected")
    _report(11, f"{built} certificates, {rejected} rejections", t0, 60.0)
