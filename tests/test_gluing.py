import random
from collections import Counter

import pytest

from nakayama import abutments, ar, gluing
from nakayama.abutments import foundation, left_abutment_heights, \
    max_left_height, right_abutment_heights
from nakayama.gluing import Glued, GlueReport, check_glue, glue
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


@pytest.mark.parametrize("a, h, message", [
    ([2, 1], 5, "no left abutment of height 5"),
    ([3, 2, 1], 3, "no right abutment of height 3"),
    ([2, 1], 0, "no left abutment of height 0"),
])
def test_glue_refusal_names_the_abutment(a, h, message):
    # glue tests h by the O(1) abutment rule, which names the refusal
    with pytest.raises(ValueError) as exc:
        glue(KupischSeries([2, 1]), KupischSeries(a), h)
    assert str(exc.value) == f"{message} on KupischSeries([2, 1])"


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
    # a true gluing is decided by its entries: no image is validated
    assert not calls


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


def _first_difference(g):
    """The dispatch failure of a result other than glue's: the first
    entry where it differs, with both values."""
    L, G = g.result.entries, glue(g.b, g.a, g.h).result.entries
    k = next(k for k, (d, e) in enumerate(zip(L, G)) if d != e)
    return f"dispatch fails at d_{k + 1} = {L[k]}, glued {G[k]}"


def test_dispatch_failures_on_wrong_results():
    # a Glued whose result is some other series of the right length: the
    # dispatch passes iff the public kernel's does, and a failure names
    # the first differing entry; where the public kernel raises for an
    # image outside the result, both reports fail
    rng = random.Random(19)
    seen = Counter()
    for _ in range(80):
        A = random_series(rng, 8)
        B = random_series(rng, 8)
        h = rng.choice(sorted(left_abutment_heights(A) &
                              right_abutment_heights(B)))
        m = A.m + B.m - h
        L = random_series(rng, m, min_m=m)
        g = Glued(L, h, A, B)
        inv, report = check_glue(g)
        assert report.failure == (None if report.ok else _first_difference(g))
        try:
            expected = _dispatch_public(g)
        except ValueError:
            assert not inv.ok and not report.ok
            seen["error"] += 1
            continue
        assert report.ok == (expected is None)
        seen[report.ok] += 1
    assert seen == {False: 73, True: 7}
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    short = Glued(lambda_mh(3, 2), g.h, g.a, g.b)
    with pytest.raises(ValueError, match="no module at"):
        _dispatch_public(short)
    assert check_glue(short) == (
        GlueReport(False, "indecomposable count formula"),
        GlueReport(False, "dispatch fails at d_1 = 2, glued 5"))


def _oracle_pair(g):
    """The reports of the two checkers check_glue replaced, or the text
    of the error they raise."""
    try:
        return check_glue_invariants_oracle(g), dispatch_check_oracle(g)
    except ValueError as exc:
        return str(exc)


def _check_against_oracles(g):
    """check_glue's reports against the oracles': the same invariants
    report and the same dispatch flag, a dispatch failure naming the
    first differing entry, and two failing reports where an oracle
    raises for an image outside the result.  Returns _oracle_pair(g)."""
    inv, dis = got = check_glue(g)
    assert dis.failure == (None if dis.ok else _first_difference(g))
    want = _oracle_pair(g)
    if isinstance(want, str):
        assert not inv.ok and not dis.ok, (want, got)
    else:
        assert inv == want[0] and dis.ok == want[1].ok, (want, got)
    return want


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


def test_check_glue_matches_oracles_on_every_small_hand_built_result():
    # A and B with at most 4 vertices, every common height, and every L
    # whose length is within one of m_A + m_B - h: check_glue agrees with
    # the oracles as _check_against_oracles says.  The oracle never
    # reports the two checks that count and coverage imply, and both its
    # reports pass iff L has glue's entries
    by_m = {m: all_series(m) for m in range(1, 9)}
    series = [K for m in range(1, 5) for K in by_m[m]]
    seen = Counter()
    for A in series:
        for B in series:
            for h in left_abutment_heights(A) & right_abutment_heights(B):
                m = A.m + B.m - h
                for L in (L for k in (m - 1, m, m + 1) for L in by_m.get(k, ())):
                    want = _check_against_oracles(Glued(L, h, A, B))
                    if not isinstance(want, str):
                        assert (want[0].ok and want[1].ok) == (
                            L.entries == A.entries[:A.m - h] + B.entries)
                    seen["error" if isinstance(want, str)
                         else want[0].failure or "ok"] += 1
    assert seen == {"indecomposable count formula": 25529,
                    "phi and psi not jointly surjective": 1283,
                    "ok": 162, "error": 13}


def test_check_glue_builds_no_module_set_or_foundation(monkeypatch):
    # the reports of every small gluing, with the oracles computed first:
    # check_glue decides a true gluing by its entries, so it needs no set,
    # no foundation and no module list at all
    series = [K for m in range(1, 6) for K in all_series(m)]
    cases = [(g, _oracle_pair(g)) for A in series for B in series
             for h in left_abutment_heights(A) & right_abutment_heights(B)
             for g in (glue(B, A, h),)]
    assert len(cases) == 1208

    def refuse(*args):
        raise AssertionError("check_glue built a set or a foundation")

    listed = []
    all_modules = KupischSeries.all_modules
    monkeypatch.setattr(abutments, "foundation", refuse)
    monkeypatch.setattr(gluing, "set", refuse, raising=False)
    monkeypatch.setattr(KupischSeries, "all_modules",
                        lambda K: listed.append(K) or all_modules(K))
    for g, want in cases:
        assert check_glue(g) == want
    # every true gluing passes both reports, so no module is listed
    assert all(inv.ok and dis.ok for _, (inv, dis) in cases)
    assert not listed


def test_check_glue_walks_no_module_of_any_result(monkeypatch):
    # a result other than glue's is decided by its entries too: no kernel
    # step, no module list and no image validated, so an image outside
    # the result (the first case) does not raise
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)  # 5^2,4^7,3,2,1

    def refuse(*args):
        raise AssertionError("check_glue walked the modules")

    for name in ("_tau", "_syzygy", "_tau_inv", "_cosyzygy", "_down", "_up"):
        monkeypatch.setattr(ar, name, refuse)
    for name in ("all_modules", "check_exists", "exists"):
        monkeypatch.setattr(KupischSeries, name, refuse)
    count, cover = "indecomposable count formula", \
        "phi and psi not jointly surjective"
    for L, inv, dis in ((lambda_mh(3, 2), count, "d_1 = 2, glued 5"),
                        (lambda_mh(12, 4), count, "d_1 = 4, glued 5"),
                        (parse_series("4,5^2,4^6,3,2,1"), cover,
                         "d_1 = 4, glued 5"),
                        (lambda_mh(14, 5), count, "d_3 = 5, glued 4")):
        assert check_glue(Glued(L, g.h, g.a, g.b)) == (
            GlueReport(False, inv),
            GlueReport(False, "dispatch fails at " + dis))


def test_check_glue_matches_oracles_on_wrong_results():
    # hand-built Glued whose result is a random series of about the right
    # length: check_glue agrees with the oracles as _check_against_oracles
    # says, whichever dispatch step the oracle finds failing first
    rng = random.Random(17)
    seen = Counter()
    for _ in range(2000):
        A = random_series(rng, 8)
        B = random_series(rng, 8)
        h = rng.choice(sorted(left_abutment_heights(A) &
                              right_abutment_heights(B)))
        m = A.m + B.m - h
        L = random_series(rng, m + 1, min_m=max(1, m - 1))
        want = _check_against_oracles(Glued(L, h, A, B))
        if isinstance(want, str):
            seen["error"] += 1
        else:
            seen[want[0].failure] += 1
            seen[(want[1].failure or "ok").split()[0]] += 1
    assert seen["error"] and seen[None] and seen["ok"]
    assert seen["indecomposable count formula"]
    assert seen["phi and psi not jointly surjective"]
    assert all(seen[name] for name in ("syzygy", "tau_inv", "cosyzygy"))


def test_check_glue_matches_oracles_on_one_entry_changes():
    # every gluing of series with m <= 4, and every series that differs
    # from its result in one entry: the count fails, and so does the
    # dispatch, at the changed entry, as in the oracles
    series = [K for m in range(1, 5) for K in all_series(m)]
    seen = Counter()
    for A in series:
        for B in series:
            for h in left_abutment_heights(A) & right_abutment_heights(B):
                true = glue(B, A, h).result.entries
                for k in range(len(true) - 1):  # d_m = 1 stays
                    for d in range(2, len(true) - k + 1):
                        if d == true[k]:
                            continue
                        try:
                            L = KupischSeries(true[:k] + (d,) + true[k + 1:])
                        except ValueError:
                            continue
                        g = Glued(L, h, A, B)
                        want = _check_against_oracles(g)
                        assert want[0].failure == \
                            "indecomposable count formula"
                        assert check_glue(g)[1].failure == (
                            f"dispatch fails at d_{k + 1} = {d}, "
                            f"glued {true[k]}")
                        seen[want[1].failure.split()[0]] += 1
    # a changed entry changes u on one co-diagonal of L, and every
    # co-diagonal is an image: the dispatch always fails, first at a simple
    # module, where syzygy (cosyzygy) sees a u (v) that tau (tau_inv) does
    # not
    assert seen == {"syzygy": 125, "cosyzygy": 547}


def test_check_glue_dispatch_follows_patched_tables(monkeypatch):
    # a true gluing whose result has one u or v entry moved by one: the
    # kernel steps on L read the patched table, so the dispatch oracle
    # fails, while check_glue, which decides by the entries, keeps its
    # passing dispatch report; with the three gldims memoized first, both
    # its reports pass even once L's u and v are all zeros.  The
    # invariants oracle is not compared: it lists L's modules from u and
    # its arrows from v
    series = [K for m in range(1, 5) for K in all_series(m)]
    seen = Counter()
    for A in series:
        for B in series:
            for h in left_abutment_heights(A) & right_abutment_heights(B):
                g = glue(B, A, h)
                L = g.result
                for K in (A, B, L):
                    ar.gldim(K)
                for table, first in (("_u", 2), ("_v", 1)):
                    real = getattr(L, table)
                    for k in range(first, len(real)):
                        for d in (-1, 1):
                            monkeypatch.setattr(L, table, real[:k] + (
                                real[k] + d,) + real[k + 1:])
                            want = dispatch_check_oracle(g)
                            assert not want.ok
                            assert check_glue(g)[1] == GlueReport(True)
                            seen[want.failure.split()[0]] += 1
                    monkeypatch.setattr(L, table, real)
                L._u, L._v = (0,) * len(L._u), (0,) * len(L._v)
                assert check_glue(g) == (GlueReport(True), GlueReport(True))
    assert set(seen) == {"tau", "syzygy", "tau_inv", "cosyzygy"}


@pytest.mark.parametrize("step", ["_tau", "_syzygy", "_tau_inv", "_cosyzygy"])
def test_check_glue_matches_oracles_with_patched_kernel(monkeypatch, step):
    # a kernel step patched on a true gluing's result, wrong at one module,
    # ZERO or one step off: the dispatch oracle sees the patch, while
    # check_glue decides by the entries, so its reports stay those of the
    # real kernel
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    L, real = g.result, getattr(ar, step)
    want = _oracle_pair(g)
    assert all(r.ok for r in want)
    failures = set()
    for y in L.all_modules():
        for wrong in (ZERO, (y[0] + 1, y[1])):
            monkeypatch.setattr(ar, step, lambda K, x, y=y, wrong=wrong:
                                wrong if K is L and x == y else real(K, x))
            assert check_glue(g) == want, (y, wrong)
            failures.add(dispatch_check_oracle(g).failure)
    failures.discard(None)
    assert failures and all(f.startswith(step[1:] + " ") for f in failures)


def test_check_glue_tau_invariant_goes_on_after_a_dispatch_failure(
        monkeypatch):
    # the oracles, with cosyzygy patched at the first A-module's image and
    # L's translation missing the last B-module whose tau is not ZERO,
    # report both failures.  check_glue reads neither: the entries decide,
    # so both its reports pass.  With a moved v entry of L the dispatch
    # oracle fails, while check_glue keeps the passing dispatch and goes
    # on to the gldim bound
    g = glue(lambda_mh(9, 4), lambda_mh(6, 5), 3)
    L, translation, cosyzygy = g.result, ar._translation, ar._cosyzygy
    first = g.phi(g.a.all_modules()[0])
    last = [x for x in g.b.all_modules() if ar._tau(g.b, x) is not ZERO][-1]
    monkeypatch.setattr(ar, "_cosyzygy", lambda K, x: (
        (x[0] + 1, x[1]) if K is L and x == first else cosyzygy(K, x)))
    monkeypatch.setattr(ar, "_translation", lambda K: (
        (x, tx) for x, tx in translation(K) if not (K is L and x == last)))
    inv, dis = _oracle_pair(g)
    assert inv.failure == f"tau not preserved at {last}"
    assert dis.failure == f"cosyzygy dispatch fails at phi{(1, 1)}"
    assert check_glue(g) == (GlueReport(True), GlueReport(True))
    monkeypatch.undo()

    real_gldim, v, k = ar.gldim, L._v, first[0]
    monkeypatch.setattr(L, "_v", v[:k] + (v[k] - 1,) + v[k + 1:])
    monkeypatch.setattr(ar, "gldim", lambda K: real_gldim(K) + 10
                        if K is L else real_gldim(K))
    assert not dispatch_check_oracle(g).ok
    inv, dis = check_glue(g)
    assert inv.failure.startswith("gldim bound violated")
    assert dis == GlueReport(True)


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
