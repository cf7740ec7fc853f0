"""Auslander-Reiten combinatorics over a Kupisch series.

Everything reduces to coordinate arithmetic:

* tau(i, j) = (i-1, j) for nonprojective modules, tau_inv dually,
* the syzygy of a nonprojective (i, j) on co-diagonal s = i + j is
  (s - u(s), u(s) - j), where u(s) is the length of the projective on
  that co-diagonal,
* the cosyzygy of a noninjective (i, j) is (i + j, v(i) - j), where
  v(i) is the length of the injective on diagonal i,
* the higher translations compose n-1 (co)syzygies with tau.

The zero module absorbs every operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .kupisch import ZERO, Coord, KupischSeries, coord_to_json


# The private steps and the walk trust their argument: a nonzero coordinate
# of a module over K.  The public functions validate it once.

def _tau(K: KupischSeries, x):
    i, j = x
    return ZERO if j == K.u(i + j) else (i - 1, j)


def _tau_inv(K: KupischSeries, x):
    i, j = x
    return ZERO if j == K.v(i) else (i + 1, j)


def _syzygy(K: KupischSeries, x):
    i, j = x
    s = i + j
    u = K.u(s)
    return ZERO if j == u else (s - u, u - j)


def _cosyzygy(K: KupischSeries, x):
    i, j = x
    v = K.v(i)
    return ZERO if j == v else (i + j, v - j)


def _walk(K: KupischSeries, step, x, limit: int):
    """Apply step to x until it gives ZERO or limit steps are taken;
    return the last nonzero module and the number of steps taken."""
    k = 0
    while k < limit:
        y = step(K, x)
        if y is ZERO:
            break
        x = y
        k += 1
    return x, k


def _translate(K: KupischSeries, n: int, step, last, x):
    """last after up to n-1 steps of step from x, and the number of steps
    taken: the higher translate of x, and below n-1 iff its chain vanishes.

    A (co)syzygy walk that stops early ends at a projective (injective)
    module, which _tau (_tau_inv) sends to ZERO: tau_n of a module whose
    chain vanishes is ZERO without a separate check."""
    w, k = _walk(K, step, x, n - 1)
    return last(K, w), k


def _check_order(n: int):
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
    if x is ZERO:
        return ZERO
    return _translate(K, n, _syzygy, _tau, K.check_exists(x))[0]


def tau_n_inv(K: KupischSeries, n: int, x):
    """Higher inverse translate: tau_inv after n-1 cosyzygies."""
    _check_order(n)
    if x is ZERO:
        return ZERO
    return _translate(K, n, _cosyzygy, _tau_inv, K.check_exists(x))[0]


def pd(K: KupischSeries, x) -> int:
    """Projective dimension: the largest k with a nonzero k-th syzygy."""
    # an algebra on m vertices has global dimension below m
    return _walk(K, _syzygy, K.check_exists(x), K.m)[1]


def idim(K: KupischSeries, x) -> int:
    """Injective dimension, via cosyzygies."""
    return _walk(K, _cosyzygy, K.check_exists(x), K.m)[1]


def gldim(K: KupischSeries) -> int:
    """Global dimension: maximal projective dimension (always finite)."""
    memo: Dict[Coord, int] = {}
    for x in K.all_modules():
        chain = []
        while x is not ZERO and x not in memo:
            chain.append(x)
            x = _syzygy(K, x)
        k = -1 if x is ZERO else memo[x]
        for y in reversed(chain):
            k += 1
            memo[y] = k
    return max(memo.values())


@dataclass(frozen=True)
class ARQuiver:
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


def ar_quiver(K: KupischSeries) -> ARQuiver:
    """Arrows are (i,j) -> (i,j+1) and (i,j) -> (i+1,j-1) whenever both
    endpoints exist; the translation sends nonprojectives one step left."""
    verts = K.all_modules()
    vset = set(verts)
    arrows = []
    for (i, j) in verts:
        if (i, j + 1) in vset:
            arrows.append(((i, j), (i, j + 1)))
        if (i + 1, j - 1) in vset:
            arrows.append(((i, j), (i + 1, j - 1)))
    translation = {x: y for x in verts if (y := _tau(K, x)) is not ZERO}
    return ARQuiver(tuple(verts), tuple(sorted(arrows)), translation)
