import random
from collections import Counter

import pytest

from nakayama import ar
from nakayama.abutments import foundation, left_abutment_heights, \
    max_left_height, right_abutment_heights
from nakayama.gluing import Glued, check_glue, glue
from nakayama.kupisch import ZERO, KupischSeries, lambda_mh, \
    linear_quiver_algebra, parse_series

from oracles import all_series, check_glue_invariants_oracle, \
    dispatch_check_oracle, pushout_matches, random_series


def test_glue_motivating():
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    assert g.result == parse_series("5,5,4^7,3,2,1")
    assert len(g.result.all_modules()) == 20 + 30 - 6
    assert g.phi((1, 1)) == (7, 1)
    assert g.psi((1, 1)) == (1, 1)
    assert {g.psi(x) for x in foundation(g.b, "right", g.h)} == \
        {(7, 1), (7, 2), (7, 3), (8, 1), (8, 2), (9, 1)}


def test_glue_trivial():
    A = lambda_mh(6, 5)
    h = max_left_height(A)
    g = glue(linear_quiver_algebra(h), A, h)
    assert g.result == A
    inv, dis = check_glue(g)
    assert inv.ok and dis.ok


def test_glue_chains():
    for n in range(1, 6):
        g = glue(lambda_mh(n + 1, 2), lambda_mh(n + 1, 2), 1)
        assert g.result == lambda_mh(2 * n + 1, 2)


def test_glue_height_errors():
    with pytest.raises(ValueError):
        glue(lambda_mh(9, 4), lambda_mh(6, 5), 5)  # B has no height-5 right
    with pytest.raises(ValueError):
        glue(lambda_mh(9, 4), KupischSeries([2, 2, 1]), 3)


def test_glue_worked_chain_counts():
    g = glue(lambda_mh(12, 5), lambda_mh(8, 3), 3)
    assert g.result == parse_series("3^5,5^8,4,3,2,1")
    assert len(g.result.all_modules()) == 21 + 50 - 6
    inv, dis = check_glue(g)
    assert inv.ok
    assert dis.ok


def test_glue_associative():
    C = lambda_mh(5, 2)
    B = lambda_mh(8, 3)
    A = lambda_mh(12, 5)
    lhs = glue(C, glue(B, A, 3).result, 2).result
    rhs = glue(glue(C, B, 2).result, A, 3).result
    assert lhs == rhs == parse_series("5^8,4,3^6,2^4,1")


def test_glue_associative_random_triples():
    rng = random.Random(16)
    compared = 0
    for _ in range(200):
        C, B, A = (random_series(rng, 9) for _ in range(3))
        h1 = rng.choice(sorted(left_abutment_heights(B) &
                               right_abutment_heights(C)))
        h2 = rng.choice(sorted(left_abutment_heights(A) &
                               right_abutment_heights(B)))
        try:
            lhs = glue(C, glue(B, A, h2).result, h1).result
            rhs = glue(glue(C, B, h1).result, A, h2).result
        except ValueError:
            continue
        assert lhs == rhs, (C, B, A, h1, h2)
        compared += 1
    assert compared >= 100


def test_remaining_abutment_heights():
    # left heights of the gluing contain those of the suffix algebra
    rng = random.Random(14)
    for _ in range(40):
        A = random_series(rng, 9)
        B = random_series(rng, 9)
        h = rng.choice(sorted(left_abutment_heights(A) &
                              right_abutment_heights(B)))
        g = glue(B, A, h)
        if B.m > h:
            assert left_abutment_heights(g.result) == left_abutment_heights(B)
        else:
            assert g.result == A
        if A.m > h:
            assert max(right_abutment_heights(g.result)) == A.entries[0]
        else:
            assert g.result == B


def test_glue_property_sweep():
    rng = random.Random(15)
    for _ in range(60):
        A = random_series(rng, 9)
        B = random_series(rng, 9)
        h = rng.choice(sorted(left_abutment_heights(A) &
                              right_abutment_heights(B)))
        g = glue(B, A, h)
        assert g.result.entries == A.entries[:A.m - h] + B.entries
        report, dispatch = check_glue(g)
        assert report.ok, report.failure
        assert dispatch.ok, dispatch.failure
        assert pushout_matches(g)
        da, db = ar.gldim(A), ar.gldim(B)
        assert max(da, db) <= ar.gldim(g.result) <= da + db


def test_one_simple_projective_and_injective():
    # every series has exactly one simple projective, at the sink, and one
    # simple injective, at the source, so their counts add up in a gluing
    for m in range(1, 11):
        for K in all_series(m):
            simples = [(i, 1) for i in range(1, m + 1)]
            assert [x for x in simples if K.is_projective(x)] == [(1, 1)]
            assert [x for x in simples if K.is_injective(x)] == [(m, 1)]


def test_embeddings_injective_foundations_identified_arrows_kept():
    # what the coordinate encoding guarantees, so check_glue
    # does not test it: on every gluing of series with m <= 6, phi and psi
    # are injective, both foundations give the overlap, and every
    # component arrow is an arrow of the result
    series = [K for m in range(1, 7) for K in all_series(m)]
    arrows = {K: ar.ar_quiver(K).arrows for K in series}
    for A in series:
        for B in series:
            for h in left_abutment_heights(A) & right_abutment_heights(B):
                g = glue(B, A, h)
                arrows_l = set(ar.ar_quiver(g.result).arrows)
                for K, emb in ((A, g.phi), (B, g.psi)):
                    img = {x: emb(x) for x in K.all_modules()}
                    assert len(set(img.values())) == len(img)
                    assert all((img[x], img[y]) in arrows_l
                               for x, y in arrows[K])
                assert {g.phi(x) for x in foundation(A, "left", h)} == \
                    {g.psi(x) for x in foundation(B, "right", h)}


def test_invariant_failures_on_wrong_results():
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)  # 5^2,4^7,3,2,1
    for L, failure in (
            (lambda_mh(12, 4), "indecomposable count formula"),
            (parse_series("4,5^2,4^6,3,2,1"),  # same count, other modules
             "phi and psi not jointly surjective")):
        report = check_glue(Glued(L, g.h, g.a, g.b))[0]
        assert not report.ok and report.failure == failure


def test_check_glue_validates_each_module_once(monkeypatch):
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    calls = []
    check_exists = KupischSeries.check_exists

    def record(K, x):
        calls.append(x)
        return check_exists(K, x)

    monkeypatch.setattr(KupischSeries, "check_exists", record)
    inv, dis = check_glue(g)
    assert inv.ok and dis.ok
    assert calls
    assert len(calls) <= len(g.a.all_modules()) + len(g.b.all_modules())


def _dispatch_public(g):
    """The dispatch report through the validating public kernel."""
    A, B, L = g.a, g.b, g.result
    overlap_a = set(foundation(A, "left", g.h))
    overlap_b = set(foundation(B, "right", g.h))
    down = (("tau", ar.tau), ("syzygy", ar.syzygy))
    up = (("tau_inv", ar.tau_inv), ("cosyzygy", ar.cosyzygy))
    for x in A.all_modules():
        for name, op in up if x in overlap_a else down + up:
            if op(L, g.phi(x)) != g.phi(op(A, x)):
                return f"{name} dispatch fails at phi{x}"
    for x in B.all_modules():
        for name, op in down if x in overlap_b else down + up:
            if op(L, g.psi(x)) != g.psi(op(B, x)):
                return f"{name} dispatch fails at psi{x}"
    return None


def test_dispatch_failures_on_wrong_results():
    # a Glued whose result is some other series of the right length: the
    # failure string, or the error for an image outside it, is the one
    # the public kernel gives
    rng = random.Random(19)
    for _ in range(80):
        A = random_series(rng, 8)
        B = random_series(rng, 8)
        h = rng.choice(sorted(left_abutment_heights(A) &
                              right_abutment_heights(B)))
        m = A.m + B.m - h
        L = random_series(rng, m, min_m=m)
        g = Glued(L, h, A, B)
        try:
            expected = _dispatch_public(g)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                check_glue(g)
            assert str(got.value) == str(exc)
            continue
        report = check_glue(g)[1]
        assert report.failure == expected
        assert report.ok == (expected is None)
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    short = Glued(lambda_mh(3, 2), g.h, g.a, g.b)
    with pytest.raises(ValueError) as exc:
        _dispatch_public(short)
    with pytest.raises(ValueError, match="no module at") as got:
        check_glue(short)
    assert str(got.value) == str(exc.value)


def _oracle_pair(g):
    """The reports of the two checkers check_glue replaced, or the text
    of the error they raise."""
    try:
        return check_glue_invariants_oracle(g), dispatch_check_oracle(g)
    except ValueError as exc:
        return str(exc)


def _check_glue_or_error(g):
    try:
        return check_glue(g)
    except ValueError as exc:
        return str(exc)


def test_check_glue_matches_oracles_on_small_gluings():
    series = [K for m in range(1, 6) for K in all_series(m)]
    count = 0
    for A in series:
        for B in series:
            for h in left_abutment_heights(A) & right_abutment_heights(B):
                g = glue(B, A, h)
                assert check_glue(g) == _oracle_pair(g), (A, B, h)
                count += 1
    assert count == 1208


def test_check_glue_matches_oracles_on_wrong_results():
    # hand-built Glued whose result is a random series of about the right
    # length: the same pair of reports, or the same error
    rng = random.Random(17)
    seen = Counter()
    for _ in range(2000):
        A = random_series(rng, 8)
        B = random_series(rng, 8)
        h = rng.choice(sorted(left_abutment_heights(A) &
                              right_abutment_heights(B)))
        m = A.m + B.m - h
        L = random_series(rng, m + 1, min_m=max(1, m - 1))
        g = Glued(L, h, A, B)
        want = _oracle_pair(g)
        assert _check_glue_or_error(g) == want, (L, h, A, B)
        if isinstance(want, str):
            seen["error"] += 1
        else:
            seen[want[0].failure] += 1
            seen[(want[1].failure or "ok").split()[0]] += 1
    assert seen["error"] and seen[None] and seen["ok"]
    assert seen["indecomposable count formula"]
    assert seen["phi and psi not jointly surjective"]
    assert all(seen[name] for name in ("syzygy", "tau_inv", "cosyzygy"))


@pytest.mark.parametrize("step", ["_tau", "_syzygy", "_tau_inv", "_cosyzygy"])
def test_check_glue_matches_oracles_with_patched_kernel(monkeypatch, step):
    # a true gluing passes count, surjectivity, overlap and arrows, so the
    # tau failure is reached only through a kernel step patched on the
    # result: wrong at one module, ZERO or one step off
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    L, real = g.result, getattr(ar, step)
    failures = set()
    for y in L.all_modules():
        for wrong in (ZERO, (y[0] + 1, y[1])):
            monkeypatch.setattr(ar, step, lambda K, x, y=y, wrong=wrong:
                                wrong if K is L and x == y else real(K, x))
            want = _oracle_pair(g)
            assert check_glue(g) == want, (y, wrong)
            failures |= {r.failure for r in want}
    failures.discard(None)
    assert failures
    if step == "_tau":
        assert any(f.startswith("tau not preserved") for f in failures)


def test_check_glue_tau_invariant_goes_on_after_a_dispatch_failure(
        monkeypatch):
    # the dispatch fails at the first A-module, the tau invariant only at
    # the last B-module whose tau is not ZERO: both are reported
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    L, tau, cosyzygy = g.result, ar._tau, ar._cosyzygy
    first = g.phi(g.a.all_modules()[0])
    last = [x for x in g.b.all_modules() if tau(g.b, x) is not ZERO][-1]
    monkeypatch.setattr(ar, "_cosyzygy", lambda K, x: (
        (x[0] + 1, x[1]) if K is L and x == first else cosyzygy(K, x)))
    monkeypatch.setattr(ar, "_tau", lambda K, x: (
        ZERO if K is L and x == last else tau(K, x)))
    inv, dis = check_glue(g)
    assert inv.failure == f"tau not preserved at {last}"
    assert dis.failure == f"cosyzygy dispatch fails at phi{(1, 1)}"
    assert (inv, dis) == _oracle_pair(g)


def test_check_glue_gldim_bound_with_patched_gldim(monkeypatch):
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    real = ar.gldim
    for delta in (-10, 10):
        monkeypatch.setattr(ar, "gldim", lambda K, d=delta:
                            real(K) + d if K is g.result else real(K))
        inv, dis = check_glue(g)
        assert inv.failure.startswith("gldim bound violated") and dis.ok
        assert (inv, dis) == _oracle_pair(g)


def test_check_glue_builds_no_ar_quiver(monkeypatch):
    def refuse(K):
        raise AssertionError("check_glue built an AR quiver")

    monkeypatch.setattr(ar, "ar_quiver", refuse)
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    inv, dis = check_glue(g)
    assert inv.ok and dis.ok
    wrong = Glued(parse_series("4,5^2,4^6,3,2,1"), g.h, g.a, g.b)
    assert check_glue(wrong)[0].failure == \
        "phi and psi not jointly surjective"


def test_glued_json():
    g = glue(lambda_mh(3, 2), lambda_mh(3, 2), 1)
    data = g.to_json()
    assert data["result"]["kupisch"] == [2, 2, 2, 2, 1]
    assert len(data["phi"]) == len(g.a.all_modules())
    assert [[1, 1], [3, 1]] in data["phi"]
