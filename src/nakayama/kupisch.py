"""Acyclic Nakayama algebras encoded as Kupisch series.

An acyclic Nakayama algebra is a quotient of the path algebra of the
linearly oriented quiver 1 -> 2 -> ... -> m by an admissible monomial
ideal.  It is determined by the tuple (d_1, ..., d_m) of lengths of the
indecomposable projectives, its Kupisch series.  Indecomposable modules
are uniserial and addressed by coordinates (i, j): the module of length
j sitting on co-diagonal i + j of the Auslander-Reiten quiver, supported
on the vertex interval [m-i-j+2, m-i+1].

The zero module is represented by ``ZERO`` (= None) so that translation
and (co)syzygy chains can saturate without exceptions.
"""

from __future__ import annotations

from functools import reduce
from typing import Optional, Tuple

Coord = Tuple[int, int]

#: The zero module.  Serialized as JSON null.
ZERO: Optional[Coord] = None


class KupischError(ValueError):
    """Rejected Kupisch series, carrying a named violation."""

    def __init__(self, violation: str, message: str):
        super().__init__(message)
        self.violation = violation


class KupischSeries:
    """An acyclic Nakayama algebra given by its Kupisch series.

    Invariants (checked on construction):

    * d_m = 1,
    * d_i >= 2 for 1 <= i <= m-1,
    * d_{i-1} - 1 <= d_i for 2 <= i <= m,
    * d_i <= m - i + 1 (a projective cannot overshoot the sink).

    Instances are immutable and hashable.
    """

    __slots__ = ("entries", "m", "_u", "_v")

    def __init__(self, entries):
        entries = tuple(int(d) for d in entries)
        if not entries:
            raise KupischError("last-entry-not-one", "empty series")
        m = len(entries)
        if entries[-1] != 1:
            raise KupischError(
                "last-entry-not-one", f"d_{m} = {entries[-1]} != 1")
        for i, d in enumerate(entries[:-1], start=1):
            if d < 2:
                raise KupischError(
                    "entry-below-two", f"d_{i} = {d} < 2 (only d_{m} may be 1)")
        for i, d in enumerate(entries, start=1):
            if d > m - i + 1:
                raise KupischError(
                    "overflow-past-sink",
                    f"d_{i} = {d} > m - i + 1 = {m - i + 1}")
        for i in range(1, m):
            if entries[i - 1] - 1 > entries[i]:
                raise KupischError(
                    "kupisch-step",
                    f"d_{i} - 1 = {entries[i - 1] - 1} > d_{i + 1} = {entries[i]}")
        self.entries = entries
        self.m = m
        # max module length per co-diagonal s = i + j, for s = 2 .. m+1
        self._u = {s: min(entries[m - s + 1], s - 1) for s in range(2, m + 2)}
        # max module length per diagonal i; existence is downward-closed
        # in j (Kupisch step), so scan down from the co-diagonal bound
        v = {}
        for i in range(1, m + 1):
            j = m + 1 - i
            while j > 1 and entries[m - i - j + 1] < j:
                j -= 1
            v[i] = j
        self._v = v

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, KupischSeries) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"KupischSeries({list(self.entries)})"

    def __len__(self):
        return self.m

    # -- depth profiles ----------------------------------------------------

    def u(self, s: int) -> int:
        """Maximal module length on co-diagonal i + j = s (2 <= s <= m+1)."""
        return self._u[s]

    def v(self, i: int) -> int:
        """Maximal module length on diagonal i (1 <= i <= m)."""
        return self._v[i]

    # -- module coordinates ------------------------------------------------

    def exists(self, coord) -> bool:
        """True iff the coordinate names a nonzero indecomposable module."""
        if coord is ZERO:
            return False
        i, j = coord
        if i < 1 or j < 1 or i + j > self.m + 1:
            return False
        return j <= self.entries[self.m - i - j + 1]

    def check_exists(self, coord) -> Coord:
        if not self.exists(coord):
            raise ValueError(f"no module at {coord!r} over {self!r}")
        return coord

    def all_modules(self):
        """All coordinates in row-major order; the count is sum(d_i)."""
        out = []
        for j in range(1, max(self.entries) + 1):
            for i in range(1, self.m - j + 2):
                if self.exists((i, j)):
                    out.append((i, j))
        return out

    # -- structure of a single module --------------------------------------

    def is_projective(self, coord) -> bool:
        i, j = self.check_exists(coord)
        return j == self.u(i + j)

    def is_injective(self, coord) -> bool:
        i, j = self.check_exists(coord)
        return j == self.v(i)

    def top_vertex(self, coord) -> int:
        i, j = self.check_exists(coord)
        return self.m - i - j + 2

    def socle_vertex(self, coord) -> int:
        i, j = self.check_exists(coord)
        return self.m - i + 1

    def classify(self, coord) -> dict:
        """Projectivity, injectivity, top, socle, support and dimension."""
        i, j = self.check_exists(coord)
        top = self.m - i - j + 2
        soc = self.m - i + 1
        return {
            "projective": j == self.u(i + j),
            "injective": j == self.v(i),
            "top": top,
            "socle": soc,
            "support": (top, soc),
            "dim": j,
        }

    def projective_at(self, vertex: int) -> Coord:
        """The indecomposable projective with top at the given vertex."""
        if not 1 <= vertex <= self.m:
            raise ValueError(f"vertex {vertex} out of range")
        d = self.entries[vertex - 1]
        return (self.m - vertex + 2 - d, d)

    def injective_at(self, vertex: int) -> Coord:
        """The indecomposable injective with socle at the given vertex."""
        if not 1 <= vertex <= self.m:
            raise ValueError(f"vertex {vertex} out of range")
        i = self.m - vertex + 1
        return (i, self.v(i))

    def projectives(self):
        return sorted(self.projective_at(t) for t in range(1, self.m + 1))

    def injectives(self):
        return sorted(self.injective_at(t) for t in range(1, self.m + 1))

    # -- presentation and duality -------------------------------------------

    def quiver_presentation(self) -> dict:
        """Bound quiver: linear arrows plus minimal monomial zero relations.

        A relation is the zero path from vertex i to vertex i + d_i
        (defined when i + d_i <= m).  Relations whose path contains a
        shorter relation path are dropped, so the returned generators
        are minimal.
        """
        m = self.m
        spans = [(i, i + self.entries[i - 1])
                 for i in range(1, m + 1) if i + self.entries[i - 1] <= m]
        minimal = [
            (a, b) for (a, b) in spans
            if not any((a2, b2) != (a, b) and a <= a2 and b2 <= b
                       for (a2, b2) in spans)
        ]
        return {
            "vertices": m,
            "arrows": [(i, i + 1) for i in range(1, m)],
            "relations": minimal,
        }

    def opposite(self) -> "KupischSeries":
        """The opposite algebra: entries are the injective length profile."""
        return KupischSeries([self.v(i) for i in range(1, self.m + 1)])

    def dual_coord(self, coord):
        """Coordinate of the dual module over the opposite algebra."""
        if coord is ZERO:
            return ZERO
        i, j = self.check_exists(coord)
        return (self.m - i - j + 2, j)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"kupisch": list(self.entries)}

    @classmethod
    def from_json(cls, data: dict) -> "KupischSeries":
        return cls(data["kupisch"])


def validate(entries) -> KupischSeries:
    """Validate a candidate series, raising KupischError with a named
    violation (last-entry-not-one, entry-below-two, kupisch-step,
    overflow-past-sink) on failure."""
    return KupischSeries(entries)


def lambda_mh(m: int, h: int) -> KupischSeries:
    """The algebra on m vertices with radical nilpotency h:
    series (h^(m-h+1), h-1, ..., 2, 1).

    h = 1 is accepted only for m = 1 (a connected quiver with zero
    radical has a single vertex).
    """
    if m < 1 or h < 1 or h > m:
        raise ValueError(f"need 1 <= h <= m, got (m, h) = ({m}, {h})")
    if h == 1 and m > 1:
        raise ValueError("radical-square-zero with h = 1 forces m = 1")
    return KupischSeries([h] * (m - h + 1) + list(range(h - 1, 0, -1)))


def linear_quiver_algebra(h: int) -> KupischSeries:
    """The hereditary algebra of the linear quiver on h vertices."""
    return lambda_mh(h, h) if h > 1 else KupischSeries([1])


def parse_series(text: str) -> KupischSeries:
    """Parse '2,3,3,1' or run-length '2^6,3^13,2^3,1' into a series."""
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "^" in part:
            base, _, count = part.partition("^")
            k = int(count)
            if k < 1:
                raise ValueError(f"run length {k} < 1 in {part!r}")
            entries.extend([int(base)] * k)
        else:
            entries.append(int(part))
    return KupischSeries(entries)


def format_series(series: KupischSeries) -> str:
    """Run-length form, e.g. '2^6,3^13,2^3,1'."""
    runs = reduce(
        lambda acc, d: acc[:-1] + [(d, acc[-1][1] + 1)]
        if acc and acc[-1][0] == d else acc + [(d, 1)],
        series.entries, [])
    return ",".join(f"{d}^{k}" if k > 1 else f"{d}" for d, k in runs)


def coord_to_json(coord):
    return None if coord is ZERO else [coord[0], coord[1]]


def coord_from_json(data):
    """Inverse of coord_to_json: null or a list of exactly two integers."""
    if data is None:
        return ZERO
    if not (isinstance(data, list) and len(data) == 2
            and all(type(c) is int for c in data)):
        raise ValueError(f"bad coordinate {data!r}: expected [i, j]")
    return (data[0], data[1])
