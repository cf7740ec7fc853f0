"""Auslander-Reiten combinatorics over a Kupisch series.

Everything reduces to coordinate arithmetic:

* tau(i, j) = (i-1, j) for nonprojective modules, tau_inv dually,
* the syzygy of a nonprojective (i, j) on co-diagonal s = i + j is
  (s - u(s), u(s) - j), where u(s) is the length of the projective on
  that co-diagonal,
* the cosyzygy of a noninjective (i, j) is (i + j, v(i) - j), where
  v(i) is the length of the injective on diagonal i,
* the higher translations compose n-1 (co)syzygies with tau.

One fused loop per direction walks a (co)syzygy chain and applies the
translate to its end in the same call; tau and tau_inv are its walks of
length 0, and the higher translates, pd, idim and the checker of
nakayama.cluster use it too.  syzygy and cosyzygy are one-line formulas
after their validation.  The zero module absorbs every operation.
"""

from __future__ import annotations

from collections import namedtuple

from .kupisch import ZERO, Coord, KupischSeries, _check_int, coord_to_json


# The walks trust their argument: a nonzero coordinate of a module over
# K.  The public functions validate it once.

def _down(K: KupischSeries, x, limit: int):
    """tau of the end of a walk of up to limit syzygies from x, and the
    walk's length.  A walk that stops early ends at a projective: ZERO."""
    u = K._u
    i, j = x
    for k in range(limit):
        s = i + j
        us = u[s]
        if j == us:
            return ZERO, k
        i, j = s - us, us - j
    return (ZERO if j == u[i + j] else (i - 1, j)), limit


def _up(K: KupischSeries, x, limit: int):
    """tau_inv of the end of a walk of up to limit cosyzygies from x, and
    the walk's length.  A walk that stops early ends at an injective."""
    v = K._v
    i, j = x
    for k in range(limit):
        vi = v[i]
        if j == vi:
            return ZERO, k
        i, j = i + j, vi - j
    return (ZERO if j == v[i] else (i + 1, j)), limit


def _check_order(n: int):
    _check_int("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def tau(K: KupischSeries, x):
    """Auslander-Reiten translate; ZERO on projectives."""
    return ZERO if x is ZERO else _down(K, K.check_exists(x), 0)[0]


def tau_inv(K: KupischSeries, x):
    """Inverse translate; ZERO on injectives."""
    return ZERO if x is ZERO else _up(K, K.check_exists(x), 0)[0]


def syzygy(K: KupischSeries, x):
    """Kernel of the projective cover; ZERO on projectives."""
    if x is ZERO:
        return ZERO
    i, j = K.check_exists(x)
    s = i + j
    us = K._u[s]
    return ZERO if j == us else (s - us, us - j)


def cosyzygy(K: KupischSeries, x):
    """Cokernel of the injective envelope; ZERO on injectives."""
    if x is ZERO:
        return ZERO
    i, j = K.check_exists(x)
    vi = K._v[i]
    return ZERO if j == vi else (i + j, vi - j)


def tau_n(K: KupischSeries, n: int, x):
    """Higher translate: tau after n-1 syzygies."""
    _check_order(n)
    return ZERO if x is ZERO else _down(K, K.check_exists(x), n - 1)[0]


def tau_n_inv(K: KupischSeries, n: int, x):
    """Higher inverse translate: tau_inv after n-1 cosyzygies."""
    _check_order(n)
    return ZERO if x is ZERO else _up(K, K.check_exists(x), n - 1)[0]


def pd(K: KupischSeries, x) -> int:
    """Projective dimension: the largest k with a nonzero k-th syzygy."""
    # an algebra on m vertices has global dimension below m
    return _down(K, K.check_exists(x), K.m)[1]


def idim(K: KupischSeries, x) -> int:
    """Injective dimension, via cosyzygies."""
    return _up(K, K.check_exists(x), K.m)[1]


def gldim(K: KupischSeries) -> int:
    """Global dimension: the largest projective dimension of a simple
    module (always finite), in one O(m) pass.  With f(j) = j + d_j, the
    module with top a and socle b - 1 has syzygy (b, f(a)), so pd S_j is
    the distance from j to j + 1 in the tree j -> f(j), rooted at m + 1,
    less one.  f never decreases, so each depth is an interval.  For j + 1
    of j's depth, M[j] is the number of steps before j and j + 1 meet: 1
    if f(j) = f(j + 1), else 1 + the largest M on f(j)..f(j + 1) - 1, and
    pd S_j = 2 M[j] - 1.  For the last j of a depth, f(j) meets j + 1
    after the largest M on j + 1..f(j) - 1 steps, and pd S_j is twice
    that.  So one descending pass fills M.  The value is memoized on the
    series, which is immutable."""
    if K._gldim is not None:
        return K._gldim
    m = K.m
    M = [0] * (m + 1)
    # top: the first vertex of the depth above j + 1's; fk: f(j + 1)
    top = fk = m + 2
    g = 0
    for j, d in zip(range(m, 0, -1), reversed(K.entries)):
        fj = j + d
        if fj < top:  # j + 1 starts a depth, and f(j) is on it
            top = j + 1
            pd = 2 * max(M[top:fj]) if fj > top else 0
        else:  # f(j) + 1 = f(j + 1) is the common case: no slice
            M[j] = k = (1 if fj == fk else M[fj] + 1 if fj + 1 == fk
                        else max(M[fj:fk]) + 1)
            pd = 2 * k - 1
        if pd > g:
            g = pd
        fk = fj
    K._gldim = g
    return g


class ARQuiver(namedtuple("ARQuiver", "vertices arrows translation")):
    """The Auslander-Reiten quiver: vertices, irreducible-map arrows and
    the translation as a partial map on coordinates."""

    __slots__ = ()
    vertices: tuple[Coord, ...]
    arrows: tuple[tuple[Coord, Coord], ...]
    translation: dict[Coord, Coord]

    def to_json(self) -> dict:
        return {
            "vertices": [coord_to_json(x) for x in self.vertices],
            "arrows": [[coord_to_json(a), coord_to_json(b)]
                       for a, b in self.arrows],
            "tau": sorted([coord_to_json(x), coord_to_json(tx)]
                          for x, tx in self.translation.items()),
        }


def _arrows(K: KupischSeries):
    """The arrows in sorted order: (i, j) -> (i, j + 1) for j < v(i) and
    (i, j) -> (i + 1, j - 1) for j > 1, a submodule that exists as
    (i, j) does."""
    v = K._v
    for i in range(1, K.m + 1):
        vi = v[i]
        for j in range(1, vi + 1):
            if j < vi:
                yield (i, j), (i, j + 1)
            if j > 1:
                yield (i, j), (i + 1, j - 1)


def _translation(K: KupischSeries):
    """The pairs (x, tau x) of the nonprojectives x, in sorted order:
    _down's rule at length 0, read along the diagonals."""
    u, v = K._u, K._v
    for i in range(1, K.m + 1):
        for j in range(1, v[i] + 1):
            if j != u[i + j]:
                yield (i, j), (i - 1, j)


def ar_quiver(K: KupischSeries) -> ARQuiver:
    """The quiver as values: the vertices of all_modules(), and the
    arrows and translation that render writes from the same generators."""
    return ARQuiver(tuple(K.all_modules()), tuple(_arrows(K)),
                    dict(_translation(K)))
