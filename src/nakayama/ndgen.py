"""Certified construction of algebras with prescribed global dimension
admitting an n-cluster-tilting subcategory.

For every pair (n, d) with n odd and d >= n, or n even and d even or
d >= 2n, there is an acyclic Nakayama algebra of global dimension d
whose module category has an n-cluster-tilting subcategory.  Multiples
of n come from the radical-square-zero chains; other residues start
from a base family member with gldim congruent to d mod n and are
extended by gluing radical-square-zero chains below the source
injective, which adds exactly n to the global dimension.

Each base family row is written once, as (entry, count) runs with its
global dimension, which only sets the number of extensions.  All claimed
dimensions are recomputed on the final series; nothing is trusted from
the table.
"""

from __future__ import annotations

from collections import namedtuple

from . import ar, kupisch
from .cluster import Verdict, check_nct
from .kupisch import KupischSeries


def _row(n: int, r: int) -> tuple[list[tuple[int, int]], int]:
    """The base family member that construct starts from for a residue
    0 < r < n, base_family_odd(n, n + r) for odd n and
    base_family_even(n, r) for even n, as its runs of (entry, count)
    with its global dimension.  The runs are O(n), whatever the length.
    When n and r have the same parity the two families share one formula,
    written once here."""
    if (n - r) % 2 == 0:
        return [(2, r), (3, 3 * (n - r) // 2 - 1), (2, r + 1), (1, 1)], n + r
    if n % 2 == 1:
        d = n + r
        if d == 2 * n - 1:
            return [(2, r), (3, 3 * (n + 1) // 2 - 2), (2, 1), (1, 1)], d
        h = n - (d - 1) // 2
        return [(2, r)] + [(k, k - 1) for k in range(3, h + 1)] \
            + [(h + 1, (r // 2) * (h + 1) + 2 * h)] \
            + [(k, k) for k in range(h, 2, -1)] + [(2, 3), (1, 1)], d
    if r != n - 1:
        return [(2, r), (3, 3 * (n - (r + 1) // 2)), (2, r + 1), (1, 1)], \
            2 * n + r
    return [(3, 9 * n // 2 - 2), (2, 1), (1, 1)], 2 * n + r


def _expand(runs: list[tuple[int, int]]) -> list[int]:
    """The entries that the (entry, count) runs spell out."""
    entries: list[int] = []
    for entry, count in runs:
        entries += [entry] * count
    return entries


def _build(name: str, n: int, r: int) -> KupischSeries:
    """Expand the row's runs, refusing more than MAX_VERTICES first."""
    runs = _row(n, r)[0]
    m = sum(count for _, count in runs)
    if m > kupisch.MAX_VERTICES:
        raise ValueError(f"{name} would have {m} vertices, more than "
                         f"MAX_VERTICES = {kupisch.MAX_VERTICES}")
    return KupischSeries(_expand(runs))


def base_family_odd(n: int, d: int) -> KupischSeries:
    """Base members for odd n and n < d < 2n.

    * d even: (2^(d-n), 3^(3(n-d/2)-1), 2^(d-n+1), 1), with k = d - n
      the formula of the k-even row of base_family_even;
    * d odd, d != 2n-1: an ascending run 2^(d-n), 3^2, ..., h^(h-1) into
      a long plateau of height h+1, then the descending run h^h, ...,
      3^3, 2^3, 1, where h = n - (d-1)/2 (both runs empty at h = 2);
    * d = 2n-1: (2^(n-1), 3^(3(n+1)/2 - 2), 2, 1).
    """
    if n % 2 == 0 or not n < d < 2 * n:
        raise ValueError(f"need n odd and n < d < 2n, got ({n}, {d})")
    return _build(f"base_family_odd({n}, {d})", n, d - n)


def base_family_even(n: int, k: int) -> KupischSeries:
    """Base members for even n and 0 < k < n; the target dimension
    (n+k for k even, 2n+k for k odd) is recomputed by the engine.

    * k even: (2^k, 3^(3(n-k)/2 - 1), 2^(k+1), 1), with d = n + k
      the formula of the d-even row of base_family_odd;
    * k odd, k != n-1: (2^k, 3^(3(n-(k+1)/2)), 2^(k+1), 1);
    * k = n-1: (3^(9n/2 - 2), 2, 1).
    """
    if n % 2 == 1 or not 0 < k < n:
        raise ValueError(f"need n even and 0 < k < n, got ({n}, {k})")
    return _build(f"base_family_even({n}, {k})", n, k)


def source_injective_pd(K: KupischSeries) -> int:
    """Projective dimension of the injective at the source vertex."""
    return ar.pd(K, (K.m, 1))


def supported(n: int, d: int) -> bool:
    """Pairs of ints covered by the construction: every d >= n for odd
    n; for even n the even d >= n and every d >= 2n."""
    if type(n) is not int or type(d) is not int or n < 1 or d < n:
        return False
    if n % 2 == 1 or d == n:
        return True
    return d % 2 == 0 or d >= 2 * n


class NdCertificate(namedtuple("NdCertificate", "n d kupisch verdict gldim "
                               "pd_source_injective trace")):
    """A verified (n, d) algebra: its series, the verdict of its
    n-cluster-tilting check, its global dimension, the projective
    dimension of its source injective and the steps that built it."""

    __slots__ = ()
    n: int
    d: int
    kupisch: KupischSeries
    verdict: Verdict
    gldim: int
    pd_source_injective: int
    trace: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "kupisch": self.kupisch.to_json(),
            "verdict": self.verdict.to_json(),
            "gldim": self.gldim,
            "pd_source_injective": self.pd_source_injective,
            "trace": list(self.trace),
        }


def construct(n: int, d: int) -> NdCertificate:
    """Build and fully verify an algebra of global dimension d with an
    n-cluster-tilting subcategory.  Raises ValueError on unsupported
    pairs, and before building anything if the series and its trace
    would hold more than MAX_VERTICES entries."""
    if not supported(n, d):
        raise ValueError(f"pair (n, d) = ({n}, {d}) is not supported")
    residue = d % n
    if residue == 0:
        runs, k = [(2, d), (1, 1)], 0
        first = {"step": "chain", "k": d // n}
    else:
        runs, g = _row(n, residue)
        k = (d - g) // n
        first = {"step": "base-odd", "target": n + residue} if n % 2 else \
            {"step": "base-even", "k": residue}
    m = sum(count for _, count in runs)
    # the final series and the trace, which keeps the start series and a
    # copy after each of the k extensions of n entries
    held = m * (k + 2) + n * k * (k + 3) // 2
    if held > kupisch.MAX_VERTICES:
        raise ValueError(f"construct({n}, {d}) would hold {held} entries in "
                         f"its series and trace, more than MAX_VERTICES = "
                         f"{kupisch.MAX_VERTICES}")
    entries = _expand(runs)
    trace = [dict(first, series={"kupisch": entries[:]})]
    # Each extension prepends n entries of 2; the certificate below
    # verifies the final series, and nothing before.
    for _ in range(k):
        entries[:0] = [2] * n
        trace.append({"step": "extend", "series": {"kupisch": entries[:]}})
    K = KupischSeries(entries)
    verdict = check_nct(K, n)
    g = ar.gldim(K)
    pd_src = source_injective_pd(K)
    if not verdict.ok or g != d or pd_src != d:
        raise RuntimeError(
            f"certificate for ({n}, {d}) failed verification: "
            f"ok={verdict.ok}, gldim={g}, pd(source injective)={pd_src}")
    return NdCertificate(n, d, K, verdict, g, pd_src, tuple(trace))
