import tracemalloc

import pytest

from nakayama import ar, kupisch
from nakayama.cluster import check_nct
from nakayama.kupisch import KupischSeries, lambda_mh, parse_series
from nakayama.ndgen import (
    _row,
    base_family_even,
    base_family_odd,
    construct,
    source_injective_pd,
    supported,
)

from oracles import all_series, chain_algebra, extend_by_n_oracle, row_oracle


def test_base_family_odd_rows():
    assert base_family_odd(9, 10) == parse_series("2,3^11,2^2,1")
    assert base_family_odd(9, 11) == \
        parse_series("2^2,3^2,4^3,5^13,4^4,3^3,2^3,1")
    assert base_family_odd(9, 15) == parse_series("2^6,3^13,2^3,1")
    assert base_family_odd(9, 17) == parse_series("2^8,3^13,2,1")
    with pytest.raises(ValueError):
        base_family_odd(6, 7)
    with pytest.raises(ValueError):
        base_family_odd(9, 9)
    with pytest.raises(ValueError):
        base_family_odd(9, 18)


def test_base_family_even_rows():
    assert base_family_even(6, 2) == parse_series("2^2,3^5,2^3,1")
    assert base_family_even(6, 5) == parse_series("3^25,2,1")
    assert base_family_even(6, 1) == parse_series("2,3^15,2^2,1")
    assert ar.gldim(base_family_even(6, 2)) == 8
    assert ar.gldim(base_family_even(6, 5)) == 17
    assert ar.gldim(base_family_even(6, 1)) == 13
    with pytest.raises(ValueError):
        base_family_even(5, 2)
    with pytest.raises(ValueError):
        base_family_even(6, 6)


def test_row_matches_the_parity_split():
    # the row shared by odd n, even d and even n, even k is written once
    for n in range(2, 61):
        for r in range(1, n):
            assert _row(n, r) == row_oracle(n, r), (n, r)


def test_base_family_table_against_the_engine():
    # every row that construct starts from for n <= 40: the built series
    # has the table's length, and its global dimension and the projective
    # dimension of its source injective are the table's dimension
    for n in range(2, 41):
        for r in range(1, n):
            runs, g = _row(n, r)
            K = base_family_odd(n, n + r) if n % 2 else base_family_even(n, r)
            assert K.m == sum(count for _, count in runs), (n, r)
            assert ar.gldim(K) == source_injective_pd(K) == g, (n, r)
            assert check_nct(K, n).ok, (n, r)


def test_base_family_caps_vertices(monkeypatch):
    # the row is sized from its runs and refused before it is expanded:
    # base_family_odd(20001, 20003) has 100,030,003 entries
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^base_family_odd\(20001, "
                           r"20003\) would have 100030003 vertices, more "
                           r"than MAX_VERTICES = 1000000$"):
            base_family_odd(20001, 20003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    monkeypatch.setattr(kupisch, "MAX_VERTICES", 11)
    assert base_family_even(6, 2).m == 11
    with pytest.raises(ValueError, match=r"^base_family_even\(6, 1\) would "
                       r"have 19 vertices, more than MAX_VERTICES = 11$"):
        base_family_even(6, 1)


def test_base_family_odd_top_is_a_gluing():
    # the d = 2n-1 member is the chain algebra glued below the wide
    # height-3 algebra at a height-2 abutment
    from nakayama.gluing import check_glue, glue
    for n in (3, 5, 7, 9):
        g = glue(lambda_mh(3 * (n + 1) // 2, 3), lambda_mh(n + 1, 2), 2)
        assert g.result == base_family_odd(n, 2 * n - 1)
        assert check_glue(g)[0].ok


def test_verdict_idempotent_across_families():
    from nakayama.cluster import check_fractured
    from nakayama.tilting import projective_injective_fracturing
    for n, d in [(2, 4), (3, 5), (6, 8), (9, 11), (9, 17)]:
        cert = construct(n, d)
        F = projective_injective_fracturing(cert.kupisch)
        again = check_fractured(cert.kupisch, n, F,
                                candidate=list(cert.verdict.candidate))
        assert again.ok and again.candidate == cert.verdict.candidate


def test_extend_by_n():
    K = parse_series("2,3^11,2^2,1")
    ext = extend_by_n_oracle(K, 9)
    assert ext == parse_series("2^10,3^11,2^2,1")
    assert ar.gldim(ext) == 19
    assert check_nct(ext, 9).ok
    for n, k in [(2, 1), (3, 2), (4, 1)]:
        assert extend_by_n_oracle(chain_algebra(n, k), n) \
            == chain_algebra(n, k + 1)
    # the precondition is enforced
    with pytest.raises(ValueError):
        extend_by_n_oracle(lambda_mh(9, 4), 2)  # not 2-cluster-tilting


def test_supported():
    assert supported(9, 10000003)
    assert not supported(6, 7)
    assert supported(6, 19)
    assert supported(6, 6) and supported(6, 8)
    assert not supported(6, 9) and not supported(6, 11)
    assert supported(2, 4) and not supported(2, 3)
    assert not supported(3, 2)  # d < n
    assert supported(1, 5)


def test_realised_pairs_are_supported_at_m_up_to_9():
    # every acyclic Nakayama algebra on at most 9 vertices (2,056
    # series): each pair (n, d) with 2 <= n < d, d its global dimension,
    # and an n-cluster-tilting check that passes lies in supported().
    # None has n even and d odd below 2n, a case the paper's abstract
    # claims and supported() leaves out.
    realised = set()
    count = 0
    for m in range(1, 10):
        for K in all_series(m):
            count += 1
            d = ar.gldim(K)
            realised.update((n, d) for n in range(2, d) if check_nct(K, n).ok)
    assert count == 2056
    assert all(supported(n, d) for n, d in realised)
    assert not any(n % 2 == 0 and d % 2 == 1 and d < 2 * n
                   for n, d in realised)
    assert sorted(realised) == [
        (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6),
        (3, 7), (4, 6), (4, 8), (5, 6)]


def test_construct_examples():
    cert = construct(6, 12)
    assert cert.kupisch == lambda_mh(13, 2)
    cert = construct(9, 14)
    assert cert.kupisch == parse_series("2^5,3^5,2^6,1")
    with pytest.raises(ValueError):
        construct(6, 7)


def test_certificate_contents():
    cert = construct(5, 12)
    assert cert.verdict.ok
    assert cert.gldim == 12 == cert.pd_source_injective
    assert ar.gldim(cert.kupisch) == 12
    assert source_injective_pd(cert.kupisch) == 12
    assert cert.trace[0]["step"] in ("chain", "base-odd", "base-even")
    data = cert.to_json()
    assert data["n"] == 5 and data["d"] == 12
    assert data["verdict"]["ok"] is True


def test_construct_rejects_a_wrong_base(monkeypatch):
    # a base whose gldim misses d mod n is caught by the final certificate
    monkeypatch.setattr("nakayama.ndgen._row",
                        lambda n, r: ([(2, n), (1, 1)], n + r))
    with pytest.raises(RuntimeError, match=r"certificate for \(3, 4\) "
                       "failed verification: .*gldim=3"):
        construct(3, 4)


def test_construct_computes_gldim_once(monkeypatch):
    # the base's dimension is read from the table; only the certificate
    # computes the global dimension
    calls, gldim = [], ar.gldim

    def counting(K):
        calls.append(K)
        return gldim(K)

    monkeypatch.setattr(ar, "gldim", counting)
    for n, d in ((3, 4), (9, 14), (6, 8), (6, 19), (2, 8), (4, 8)):
        calls.clear()
        cert = construct(n, d)
        assert calls == [cert.kupisch], (n, d)


def test_construct_builds_one_series(monkeypatch):
    # construct expands its start entries and prepends the chains to one
    # list; it builds only the final series, whose checks cover the start
    calls, init = [], KupischSeries.__init__

    def counting(self, entries):
        calls.append(len(entries))
        init(self, entries)

    monkeypatch.setattr(KupischSeries, "__init__", counting)
    for n, d in ((4, 14), (9, 14), (2, 239)):
        calls.clear()
        cert = construct(n, d)
        assert calls == [cert.kupisch.m], (n, d)


def test_construct_small_sweep():
    for n in range(1, 7):
        for d in range(n, 16):
            if supported(n, d):
                cert = construct(n, d)
                assert cert.gldim == d and cert.verdict.ok
            else:
                with pytest.raises(ValueError):
                    construct(n, d)


def test_construct_matches_repeated_extension():
    # construct prepends the chains without re-verifying each step; the
    # result and the trace equal those of extend_by_n_oracle, which checks
    # each
    for n in range(1, 10):
        for d in range(n, 31):
            if not supported(n, d):
                continue
            r = d % n
            if r == 0:
                K, first = chain_algebra(n, d // n), \
                    {"step": "chain", "k": d // n}
            elif n % 2 == 1:
                K, first = base_family_odd(n, n + r), \
                    {"step": "base-odd", "target": n + r}
            else:
                K, first = base_family_even(n, r), \
                    {"step": "base-even", "k": r}
            trace = [dict(first, series=K.to_json())]
            g = ar.gldim(K)
            while g < d:
                K = extend_by_n_oracle(K, n)
                g += n
                trace.append({"step": "extend", "series": K.to_json()})
            cert = construct(n, d)
            assert cert.kupisch == K, (n, d)
            assert list(cert.trace) == trace, (n, d)


def test_construct_cap_counts_series_and_trace(monkeypatch):
    # the cap is exact: a cap one below the entries that the final series
    # and its trace hold is refused before anything is built
    for n in range(1, 8):
        for d in range(n, 31):
            if not supported(n, d):
                continue
            cert = construct(n, d)
            held = cert.kupisch.m + sum(len(step["series"]["kupisch"])
                                        for step in cert.trace)
            monkeypatch.setattr(kupisch, "MAX_VERTICES", held - 1)
            with pytest.raises(ValueError,
                               match=f"would hold {held} entries .* "
                                     f"MAX_VERTICES = {held - 1}$"):
                construct(n, d)
            monkeypatch.undo()


def test_construct_refuses_a_large_d_at_once():
    # a chain of 3*10^6 + 1 vertices, and the quadratic trace of many
    # extensions (n = 2, d odd; n = 3, d = 10^4), are refused by the cap
    for n, d in ((3, 3 * 10**6), (2, 2 * 10**5 + 1), (3, 10**4)):
        with pytest.raises(ValueError, match="MAX_VERTICES = 1000000"):
            construct(n, d)
    assert construct(2, 239).gldim == 239  # the benchmark's d <= 240 passes
