"""Abutments of acyclic Nakayama algebras.

A left abutment is a uniserial projective all of whose submodules are
projective; its foundation is a triangular region of the AR quiver
isomorphic to the AR quiver of the hereditary linear-quiver algebra of
the same height.  Right abutments are the duals.  Over a Kupisch series
the left abutments of height h are exactly those whose tail reads
(h, h-1, ..., 1), and every height up to the first entry d_1 gives a
right abutment.  The footing identifies a foundation with the module
coordinates of the linear-quiver algebra.
"""

from __future__ import annotations

from typing import List, Set

from .kupisch import ZERO, Coord, KupischSeries, _check_int


def left_abutment_heights(K: KupischSeries) -> Set[int]:
    """Heights {1..max_left_height(K)}."""
    return set(range(1, max_left_height(K) + 1))


def right_abutment_heights(K: KupischSeries) -> Set[int]:
    """Heights {1..d_1}: the initial segment of the quiver carries no
    relation of length below d_1."""
    return set(range(1, K.entries[0] + 1))


def max_left_height(K: KupischSeries) -> int:
    """The longest staircase tail (d_{m-h+1}, ..., d_m) = (h, ..., 1)."""
    m = K.m
    h = 1
    while h < m and K.entries[m - h - 1] == h + 1:
        h += 1
    return h


def max_right_height(K: KupischSeries) -> int:
    return K.entries[0]


def _check_abutment(K: KupischSeries, side: str, h: int) -> int:
    """Raise unless K has a height-h abutment on the given side; return
    the shift of its foundation from the linear-quiver triangle: 0 on the
    left, m - h on the right.  Costs O(1)."""
    _check_int("abutment height", h)
    m = K.m
    if side == "left":
        # a tail entry d_{m-h+1} = h forces the staircase below it
        if not (1 <= h <= m and K.entries[m - h] == h):
            raise ValueError(f"no left abutment of height {h} on {K!r}")
        return 0
    if side == "right":
        if not 1 <= h <= K.entries[0]:
            raise ValueError(f"no right abutment of height {h} on {K!r}")
        return m - h
    raise ValueError(f"side must be left/right, got {side!r}")


def foundation(K: KupischSeries, side: str, h: int) -> List[Coord]:
    """The triangle of the height-h abutment: left foundations are
    {(i,j) : i+j <= h+1}, right foundations {(i,j) : i >= m-h+1}."""
    s = _check_abutment(K, side, h)
    return sorted((i + s, j) for j in range(1, h + 1)
                  for i in range(1, h - j + 2))


def footing_to_ka(K: KupischSeries, side: str, h: int, x: Coord) -> Coord:
    """Identify a foundation coordinate with a module of the hereditary
    linear-quiver algebra on h vertices (left: identity; right: shift).

    Costs O(1): the foundation triangle is tested by its inequalities,
    not by building the foundation."""
    s = _check_abutment(K, side, h)
    if x is ZERO or not (x[0] - s >= 1 and x[1] >= 1
                         and x[0] - s + x[1] <= h + 1):
        raise ValueError(f"{x} not in the {side} foundation of height {h}")
    return (x[0] - s, x[1])


def abutment_to_json(side: str, h: int, K: KupischSeries) -> dict:
    apex = [1, h] if side == "left" else [K.m - h + 1, h]
    return {"side": side, "height": h, "apex": apex}
