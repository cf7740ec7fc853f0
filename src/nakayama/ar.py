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
translate to its end in the same call; the higher translates, pd, idim
and the checker of nakayama.cluster all use it.  The single steps are
one-line formulas.  The zero module absorbs every operation.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .kupisch import ZERO, Coord, KupischSeries, _check_int, coord_to_json


# The private steps and walks trust their argument: a nonzero coordinate
# of a module over K.  The public functions validate it once.

def _tau(K: KupischSeries, x):
    i, j = x
    return ZERO if j == K._u[i + j] else (i - 1, j)


def _tau_inv(K: KupischSeries, x):
    i, j = x
    return ZERO if j == K._v[i] else (i + 1, j)


def _syzygy(K: KupischSeries, x):
    i, j = x
    s = i + j
    us = K._u[s]
    return ZERO if j == us else (s - us, us - j)


def _cosyzygy(K: KupischSeries, x):
    i, j = x
    vi = K._v[i]
    return ZERO if j == vi else (i + j, vi - j)


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
    return ZERO if x is ZERO else _tau(K, K.check_exists(x))


def tau_inv(K: KupischSeries, x):
    """Inverse translate; ZERO on injectives."""
    return ZERO if x is ZERO else _tau_inv(K, K.check_exists(x))


def syzygy(K: KupischSeries, x):
    """Kernel of the projective cover; ZERO on projectives."""
    return ZERO if x is ZERO else _syzygy(K, K.check_exists(x))


def cosyzygy(K: KupischSeries, x):
    """Cokernel of the injective envelope; ZERO on injectives."""
    return ZERO if x is ZERO else _cosyzygy(K, K.check_exists(x))


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
    module (always finite).  The syzygy of (s - j, j) lies on co-diagonal
    s - j < s, so one pass over the co-diagonals fills in every
    projective dimension, and the simple (s - 1, 1) on co-diagonal s is
    the first of its row.  The value is memoized on the series, which
    is immutable."""
    if K._gldim is not None:
        return K._gldim
    u = K._u
    pds = [[0], [0]]  # pds[s][j - 1]: pd of (s - j, j), 0 at j = u(s)
    g = 0
    for s in range(2, K.m + 2):
        us = u[s]
        row = [pds[s - j][us - j - 1] + 1 for j in range(1, us)]
        row.append(0)
        if row[0] > g:
            g = row[0]
        pds.append(row)
    K._gldim = g
    return g


class ARQuiver(NamedTuple):
    """The Auslander-Reiten quiver: vertices, irreducible-map arrows and
    the translation as a partial map on coordinates."""

    vertices: Tuple[Coord, ...]
    arrows: Tuple[Tuple[Coord, Coord], ...]
    translation: Dict[Coord, Coord]

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
    _tau's rule, read along the diagonals."""
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
