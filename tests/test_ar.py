import pickle
import random
import tracemalloc

import pytest

from nakayama import ar
from nakayama.ar import (
    ar_quiver,
    cosyzygy,
    gldim,
    idim,
    pd,
    syzygy,
    tau,
    tau_inv,
    tau_n,
    tau_n_inv,
)
from nakayama.kupisch import ZERO, KupischSeries, lambda_mh, parse_series
from nakayama.ndgen import base_family_even, base_family_odd

from oracles import all_series, ar_quiver_oracle, chain_algebra, \
    cosyzygy_oracle, predecessors, random_series, successors, \
    syzygy_oracle, tau_n_closed_lambda_mh, translation_oracle

GLUED = parse_series("5,5,4^7,3,2,1")


def test_tau_examples():
    B = lambda_mh(9, 4)
    assert tau_inv(B, (7, 3)) is ZERO  # injective
    for x in B.all_modules():
        if B.is_projective(x):
            assert tau(B, x) is ZERO
    assert tau(GLUED, (9, 4)) == (8, 4)
    assert tau(GLUED, ZERO) is ZERO and tau_inv(GLUED, ZERO) is ZERO
    with pytest.raises(ValueError):
        tau(B, (14, 2))


def test_tau_bijection():
    rng = random.Random(4)
    for _ in range(30):
        K = random_series(rng, 10)
        nonproj = [x for x in K.all_modules() if not K.is_projective(x)]
        noninj = [x for x in K.all_modules() if not K.is_injective(x)]
        image = [tau(K, x) for x in nonproj]
        assert sorted(image) == sorted(noninj)
        assert all(tau_inv(K, tau(K, x)) == x for x in nonproj)


def test_syzygy_examples():
    B = lambda_mh(9, 4)
    assert syzygy(B, (5, 1)) == (2, 3)
    for x in B.all_modules():
        if B.is_projective(x):
            assert syzygy(B, x) is ZERO
    K = lambda_mh(7, 2)
    assert syzygy(K, (7, 1)) == (6, 1)


def test_syzygy_dimension_identity():
    # dim(cover) = dim(x) + dim(syzygy x)
    rng = random.Random(5)
    for _ in range(30):
        K = random_series(rng, 10)
        for (i, j) in K.all_modules():
            w = syzygy(K, (i, j))
            if w is not ZERO:
                assert K.u(i + j) == j + w[1]


def test_cosyzygy_examples():
    assert cosyzygy(GLUED, (7, 1)) == (8, 4)
    A = lambda_mh(6, 5)
    for x in A.all_modules():
        if A.is_injective(x):
            assert cosyzygy(A, x) is ZERO
    # the series separating the diagonal profile from the co-diagonal one
    K = KupischSeries([2, 3, 2, 1])
    assert cosyzygy(K, (1, 2)) == (3, 1)


def oracle_chain(K, step, x):
    """x, step(x), step(step(x)), ... up to the first ZERO (excluded)."""
    chain = [x]
    while (y := step(K, chain[-1])) is not ZERO:
        chain.append(y)
    return chain


def test_matrix_oracle_omega():
    rng = random.Random(6)
    for _ in range(25):
        K = random_series(rng, 6)
        for x in K.all_modules():
            assert syzygy(K, x) == syzygy_oracle(K, x)
            assert cosyzygy(K, x) == cosyzygy_oracle(K, x)
        t = translation_oracle(K)
        t_inv = {y: x for x, y in t.items()}
        for x in K.all_modules():
            if not K.is_projective(x):
                assert tau(K, x) == t[x]
            # higher translates and dimensions from oracle-composed chains
            omega = oracle_chain(K, syzygy_oracle, x)
            comega = oracle_chain(K, cosyzygy_oracle, x)
            assert pd(K, x) == len(omega) - 1
            assert idim(K, x) == len(comega) - 1
            for n in range(1, 5):
                assert tau_n(K, n, x) == \
                    (t.get(omega[n - 1], ZERO) if n <= len(omega) else ZERO)
                assert tau_n_inv(K, n, x) == \
                    (t_inv.get(comega[n - 1], ZERO) if n <= len(comega)
                     else ZERO)


def test_tau_n_examples():
    B = lambda_mh(9, 4)
    assert tau_n_inv(B, 2, (7, 1)) is ZERO
    assert tau_n_inv(B, 2, (7, 2)) is ZERO
    assert tau_n_inv(GLUED, 2, (7, 1)) == (9, 4)
    assert tau_n_inv(GLUED, 2, (7, 2)) == (10, 3)
    K = lambda_mh(12, 5)
    assert tau_n_inv(K, 4, (1, 4)) == (11, 1)
    assert tau_n_inv(K, 4, (2, 2)) == (10, 3)
    with pytest.raises(ValueError):
        tau_n(K, 0, (1, 1))


def test_closed_form_examples():
    assert tau_n_closed_lambda_mh(12, 5, 4, (2, 1), "backward") == (9, 4)
    assert tau_n_closed_lambda_mh(12, 5, 4, (1, 3), "backward") == (10, 2)
    # odd n: forward then backward is the identity inside the quiver
    K = lambda_mh(11, 4)
    for x in K.all_modules():
        if K.is_injective(x):
            continue
        y = tau_n_closed_lambda_mh(11, 4, 3, x, "backward")
        if y is not ZERO and not K.is_projective(y):
            assert tau_n_closed_lambda_mh(11, 4, 3, y, "forward") == x
    with pytest.raises(ValueError):
        tau_n_closed_lambda_mh(12, 5, 4, (1, 5), "backward")  # injective


def test_closed_form_vs_stepwise_small():
    for (m, h) in [(6, 3), (8, 4), (9, 2), (10, 5)]:
        K = lambda_mh(m, h)
        for n in range(1, 6):
            for x in K.all_modules():
                if not K.is_injective(x):
                    assert tau_n_closed_lambda_mh(m, h, n, x, "backward") \
                        == tau_n_inv(K, n, x)
                if not K.is_projective(x):
                    assert tau_n_closed_lambda_mh(m, h, n, x, "forward") \
                        == tau_n(K, n, x)


def test_fused_walks_against_oracle():
    # every series with m <= 8, every module and n = 1..m: _down (_up) is
    # tau (tau_inv) after n-1 oracle syzygies (cosyzygies), ZERO once a
    # step vanishes, and the walk's length is the vanishing order
    for m in range(1, 9):
        for K in all_series(m):
            for walk, step, last in ((ar._down, syzygy_oracle, tau),
                                     (ar._up, cosyzygy_oracle, tau_inv)):
                steps = {x: step(K, x) for x in K.all_modules()}
                for x in steps:
                    chain = [x]  # x, step(x), step(step(x)), ... up to ZERO
                    while (y := steps[chain[-1]]) is not ZERO:
                        chain.append(y)
                    for n in range(1, m + 1):
                        want = last(K, chain[n - 1]) if n <= len(chain) \
                            else ZERO
                        assert walk(K, x, n - 1) == \
                            (want, min(n, len(chain)) - 1), (K, x, n)


def test_dimensions():
    K = lambda_mh(5, 2)
    assert pd(K, (5, 1)) == 4
    assert gldim(K) == 4
    for x in K.all_modules():
        if K.is_projective(x):
            assert pd(K, x) == 0
    row = parse_series("2,3^11,2^2,1")
    assert gldim(row) == 10 and pd(row, (15, 1)) == 10


def test_gldim_against_oracle():
    # every series with m <= 9: the longest chain of oracle syzygies
    for m in range(1, 10):
        for K in all_series(m):
            lengths = {}

            def chain(x):
                if x not in lengths:
                    y = syzygy_oracle(K, x)
                    lengths[x] = 0 if y is None else chain(y) + 1
                return lengths[x]

            assert gldim(K) == max(map(chain, K.all_modules())), K


def test_gldim_on_construct_families():
    # the series construct(n, d) certifies for n <= 8 and d <= 240: a
    # chain algebra or a base family member with chains prepended, whose
    # source injective attains the global dimension
    for n in range(2, 9):
        if n % 2:
            bases = [base_family_odd(n, d) for d in range(n + 1, 2 * n)]
        else:
            bases = [base_family_even(n, k) for k in range(1, n)]
        for base in [chain_algebra(n, 1)] + bases:
            g = gldim(base)
            for k in range((240 - g) // n + 1):
                K = KupischSeries([2] * (k * n) + list(base.entries))
                assert gldim(K) == pd(K, (K.m, 1)) == g + k * n, K


def test_gldim_duality():
    rng = random.Random(7)
    for _ in range(30):
        K = random_series(rng, 10)
        op = K.opposite()
        assert gldim(K) == gldim(op)
        for x in K.all_modules():
            assert idim(K, x) == pd(op, K.dual_coord(x))
        g = gldim(K)
        assert all(pd(K, x) <= g for x in K.all_modules())
        assert any(K.is_injective(x) and pd(K, x) == g
                   for x in K.all_modules())


def test_gldim_is_injective_dimension_of_the_algebra():
    # gldim = id of the regular module: check_nct's closed form for n
    # above gldim rests on it
    rng = random.Random(12)
    series = [K for m in range(1, 10) for K in all_series(m)]
    series += [random_series(rng, 40) for _ in range(300)]
    for K in series:
        assert gldim(K) == max(idim(K, p) for p in K.projectives()), K


def test_gldim_is_the_largest_pd_of_a_simple():
    # gldim keeps the maximum over the simples (s - 1, 1) only: on every
    # series with m <= 9 it is also the maximum over all modules
    for m in range(1, 10):
        for K in all_series(m):
            g = gldim(KupischSeries(K.entries))
            assert g == max(pd(K, (s - 1, 1)) for s in range(2, m + 2)), K
            assert g == max(pd(K, x) for x in K.all_modules()), K


def test_gldim_memo_is_invisible():
    for entries in ([1], [3, 2, 1], GLUED.entries):
        K, fresh = KupischSeries(entries), KupischSeries(entries)
        assert pickle.loads(pickle.dumps(K))._gldim is None
        g = gldim(K)
        assert gldim(K) == g == gldim(KupischSeries(entries))
        assert K == fresh and hash(K) == hash(fresh)
        back = pickle.loads(pickle.dumps(K))
        assert back == K and back._gldim == g and gldim(back) == g


def test_gldim_memory_is_linear_in_m():
    # one pass over the tree j -> j + d_j keeps one int per vertex; a pd
    # row per co-diagonal would hold |Ind| = 3,980,100 ints (33 MB traced)
    K = lambda_mh(20000, 200)
    tracemalloc.start()
    try:
        g = gldim(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == 199
    assert peak < 4 * 2**20, peak


def test_v_table_shares_the_entries():
    # on the plateau every injective is the whole projective at its top,
    # so v holds the entries' own ints: 1,001 objects, not one per vertex
    # (100,001 objects and 5.4 MB traced when each was a new int)
    text = "1000^99001," + ",".join(map(str, range(999, 0, -1)))
    tracemalloc.start()
    try:
        K = parse_series(text)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({id(x) for x in K._v}) <= 1001
    assert size < 3 * 2**20, size
    assert K._v == (0,) + tuple(t - max(1, t - 999) + 1
                                for t in range(K.m, 0, -1))


def test_ar_quiver():
    g3 = ar_quiver(lambda_mh(3, 3))
    assert len(g3.vertices) == 6 and len(g3.arrows) == 6
    assert len(g3.translation) == 3
    g1 = ar_quiver(KupischSeries([1]))
    assert len(g1.vertices) == 1 and not g1.arrows
    g = ar_quiver(lambda_mh(9, 4))
    assert len(g.vertices) == 30
    # mesh property: predecessors of x = successors of tau(x)
    for x, tx in g.translation.items():
        assert sorted(predecessors(g, x)) == sorted(successors(g, tx))
    data = g.to_json()
    assert len(data["vertices"]) == 30
    assert all(len(pair) == 2 for pair in data["tau"])


def test_ar_quiver_walks_the_diagonals(monkeypatch):
    # the arrows come from the v table in one walk of the diagonals:
    # equal to the set-and-sort form on every series with m <= 8, sorted,
    # with no set or sort in the walk
    def refuse(*args):
        raise AssertionError("vertex set or sort built")

    expected = {}
    for m in range(1, 9):
        for K in all_series(m):
            expected[K] = ar_quiver_oracle(K)
    monkeypatch.setattr(ar, "set", refuse, raising=False)
    monkeypatch.setattr(ar, "sorted", refuse, raising=False)
    for K, want in expected.items():
        got = ar_quiver(K)
        assert got == want, K
        assert list(got.arrows) == sorted(got.arrows)
    assert len(expected) == 626
