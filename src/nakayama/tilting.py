"""Tilting combinatorics over the hereditary linear-quiver algebra, and
fractures of abutments.

Over the path algebra of 1 -> 2 -> ... -> h all hom and ext spaces
between indecomposables are at most one-dimensional.  Read the module
(i, j) as the arc (i, s) with s = i + j: then Ext^1(M(x), M(y)) != 0
iff i_y < i_x <= s_y < s_x, that is iff the two arcs cross (arcs that
meet end to start cross too).  A basic tilting module is a pairwise
Ext-orthogonal set of h indecomposables, so a non-crossing system of h
arcs; these are binary trees, and there are Catalan(h) of them.  Slices
are the 2^(h-1) tilting modules with one summand of each length and
unit steps.

A fracture replaces the projectives (resp. injectives) along an
abutment by a tilting module of the identified linear-quiver algebra;
its level measures how far it is from the projective (resp. injective)
fracture.
"""

from __future__ import annotations

from functools import cache
from typing import List, NamedTuple, Tuple

from . import abutments
from .kupisch import ZERO, Coord, KupischSeries, _check_int, _is_coord, \
    coord_to_json


def _check_ka_coord(h: int, x: Coord):
    if not (_is_coord(x) and x[0] >= 1 and x[1] >= 1 and sum(x) <= h + 1):
        raise ValueError(f"{x} is not a module coordinate for height {h}")


def is_tilting(h: int, coords) -> bool:
    """Basic tilting module: h distinct summands whose arcs do not cross.

    Sorted by i ascending and s descending, each arc comes after every
    arc that encloses it; a stack holds the ends s of the arcs enclosing
    the current one, innermost on top.  One sort and one pass: O(h log h)."""
    _check_int("height", h)
    coords = list(coords)
    for x in coords:
        _check_ka_coord(h, x)
    if len(set(coords)) != len(coords) or len(coords) != h:
        return False
    ends = []
    for i, j in sorted(coords, key=lambda x: (x[0], -x[1])):
        while ends and ends[-1] < i:  # ended, with a gap, before i
            ends.pop()
        if ends and ends[-1] < i + j:
            return False
        ends.append(i + j)
    return True


def enumerate_tilting(h: int) -> List[Tuple[Coord, ...]]:
    """All basic tilting modules, each with its summands sorted by length
    and then by i, in the lexicographic order of those lists; there are
    Catalan(h) many.

    A tilting module on the positions a..b is the module (a, b - a + 1)
    covering them all, with, for one position c, a tilting module on
    a..c-1 and one on c+1..b.  Each interval's list is built once; the
    summands are kept as (j, i) for the sort."""
    _check_int("height", h)
    if h < 0:
        raise ValueError(f"height must be >= 0, got {h}")

    @cache
    def on(a, b):
        if a > b:
            return [()]
        top = ((b - a + 1, a),)
        return [top + left + right for c in range(a, b + 1)
                for left in on(a, c - 1) for right in on(c + 1, b)]

    return [tuple((i, j) for j, i in t)
            for t in sorted(tuple(sorted(t)) for t in on(1, h))]


def is_slice(h: int, coords) -> bool:
    """Whether slice_indices accepts the coordinates."""
    try:
        slice_indices(h, coords)
    except ValueError:
        return False
    return True


def slice_from_indices(indices) -> List[Coord]:
    """Slice coordinates from the index sequence (i_1, ..., i_h)."""
    return [(i, k) for k, i in enumerate(indices, 1)]


def slice_indices(h: int, coords) -> Tuple[int, ...]:
    """The index sequence (i_1, ..., i_h) of a slice: exactly h summands,
    one (i_k, k) of each length k, with i_h = 1 and i_k in
    {i_{k+1}, i_{k+1} + 1}.  Raises ValueError otherwise, naming a
    summand that is no module coordinate for height h."""
    _check_int("height", h)
    coords = list(coords)
    for x in coords:
        _check_ka_coord(h, x)
    by_len = sorted(coords, key=lambda c: c[1])
    indices = tuple(i for i, _ in by_len)
    if not (len(by_len) == h >= 1 and indices[-1] == 1
            and [j for _, j in by_len] == list(range(1, h + 1))
            and all(a - b in (0, 1) for a, b in zip(indices, indices[1:]))):
        raise ValueError(f"{sorted(by_len)} is not a slice of height {h}")
    return indices


def dual_slice_indices(h: int, indices) -> Tuple[int, ...]:
    """Index sequence of the dual slice, (i_k) -> (h + 2 - i_k - k)."""
    return tuple(h + 2 - i - k for k, i in enumerate(indices, 1))


class Fracture(NamedTuple):
    """A tilting replacement for the (co)composition series of an abutment."""

    side: str  # "left" or "right"
    height: int
    coords: Tuple[Coord, ...]  # sorted, inside the foundation
    level: int  # output only: no decision reads it

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "height": self.height,
            "coords": [coord_to_json(c) for c in self.coords],
            "level": self.level,
        }


def _fracture(K: KupischSeries, side: str, h: int, coords) -> Fracture:
    """Build the fracture of sorted, distinct coordinates already known
    to be tilting under the footing.  Its level is 1 + the largest
    height whose abutment apex is missing (left: M(1,i); right:
    M(m-i+1,i)), or 1 if none is missing."""
    cset = set(coords)
    if side == "left":
        missing = [i for i in range(1, h + 1) if (1, i) not in cset]
    else:
        missing = [i for i in range(1, h + 1)
                   if (K.m - i + 1, i) not in cset]
    return Fracture(side, h, tuple(coords), max(missing, default=0) + 1)


def is_fracture(K: KupischSeries, side: str, h: int, coords) -> Fracture:
    """Validate a fracture from outside the library: the coordinates must
    be nonzero and distinct, lie in the foundation of the height-h
    abutment, as the footing decides, and become a basic tilting module
    under it.  Raises ValueError otherwise."""
    coords = list(coords)
    for x in coords:
        if not _is_coord(x):  # ZERO, or no pair of ints: the sort may fail
            x = "the zero module" if x is ZERO else repr(x)
            raise ValueError(f"{x} is not a summand of a {side} fracture "
                             f"of height {h}")
    # checked here too, as an empty fracture is never footed
    abutments._check_abutment(K, side, h)
    coords.sort()
    for x, y in zip(coords, coords[1:]):
        if x == y:
            raise ValueError(f"repeated summand {x} in a {side} fracture")
    footed = [abutments.footing_to_ka(K, side, h, c) for c in coords]
    if not is_tilting(h, footed):
        raise ValueError(f"{coords} is not tilting under the {side} footing")
    return _fracture(K, side, h, coords)


# The canonical fractures are the projectives (injectives) of the linear
# quiver on the foundation: tilting by definition, built without validation.

def projective_fracture(K: KupischSeries) -> Fracture:
    """The unique projective fracture of the maximal left abutment."""
    h = abutments.max_left_height(K)
    return _fracture(K, "left", h, [(1, j) for j in range(1, h + 1)])


def injective_fracture(K: KupischSeries) -> Fracture:
    """The unique injective fracture of the maximal right abutment."""
    h = abutments.max_right_height(K)
    return _fracture(K, "right", h,
                     [(K.m - j + 1, j) for j in range(h, 0, -1)])


class Fracturing(NamedTuple):
    """One fracture per maximal abutment; over a Kupisch series there is
    exactly one on each side, so a pair."""

    TL: Fracture
    TR: Fracture

    def to_json(self) -> dict:
        return {"TL": self.TL.to_json(), "TR": self.TR.to_json()}


def projective_injective_fracturing(K: KupischSeries) -> Fracturing:
    return Fracturing(projective_fracture(K), injective_fracture(K))


def _flips(K: KupischSeries, F: Fracturing, side: str) -> frozenset:
    """TL Δ the projective fracture, or TR Δ the injective one.  The only
    projectives in the left foundation are the (1, j), so P_L = P Δ the
    left flips; dually I_R = I Δ the right flips.  K places F by its
    maximal heights and the footing: a Fracture is a public record, of
    which only the side, height and coordinates are read."""
    fracture, canonical = (F.TL, projective_fracture(K)) if side == "left" \
        else (F.TR, injective_fracture(K))
    h = canonical.height
    if not (fracture.side == side and fracture.height == h):
        raise ValueError(
            f"{side} fracture must sit at the maximal {side} abutment")
    for x in fracture.coords:
        abutments.footing_to_ka(K, side, h, x)
    return frozenset(fracture.coords).symmetric_difference(canonical.coords)


def pL_category(K: KupischSeries, F: Fracturing) -> List[Coord]:
    """Projectives that are not abutments, together with the left
    fracture, sorted.  Same cardinality as the projectives."""
    return sorted(_flips(K, F, "left").symmetric_difference(K.projectives()))


def iR_category(K: KupischSeries, F: Fracturing) -> List[Coord]:
    """Injectives that are not abutments, and the right fracture, sorted."""
    return sorted(_flips(K, F, "right").symmetric_difference(K.injectives()))
