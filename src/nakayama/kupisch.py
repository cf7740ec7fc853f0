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

from itertools import groupby
from operator import sub

Coord = tuple[int, int]

#: The most vertices parse_series and lambda_mh accept, checked before a
#: run is expanded, so that a short text or a pair of integers cannot
#: claim unbounded memory.
MAX_VERTICES = 10**6

#: The zero module.  Serialized as JSON null.
ZERO: Coord | None = None


def _check_int(name: str, value):
    if type(value) is not int:  # not isinstance: bool is refused too
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_index(name: str, value, lo: int, hi: int) -> int:
    _check_int(name, value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} out of range {lo}..{hi}")
    return value


def _decimal(text: str) -> int:
    """The integer that `text` writes: an optional '-' and ASCII digits,
    surrounding spaces stripped.  int() would also read '1_0', '+2' and
    non-ASCII digits such as '٢'."""
    text = text.strip()
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _is_coord(x) -> bool:
    """A coordinate is a pair of ints; bool is refused."""
    return (type(x) is tuple and len(x) == 2
            and type(x[0]) is int and type(x[1]) is int)


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
    * d_i <= m - i + 1 (a projective cannot overshoot the sink), which
      the two rules above imply; a series that breaks it is named by it.

    Instances are immutable and hashable, and hold the entries and the
    tables u and v.  ``_gldim`` memoizes ``ar.gldim`` and ``_pi`` the
    list [P minus I, I, P ∪ I], sorted, that ``cluster`` checks against:
    P minus I and I from the first check, P ∪ I from the first
    closed-form ``check_nct``.  Each is None until first needed, and
    equality and hashing ignore both.
    A pickle holds the entries and ``_gldim`` only.
    """

    __slots__ = ("entries", "m", "_u", "_v", "_gldim", "_pi")

    def __init__(self, entries):
        entries = tuple(entries)
        for i, d in enumerate(entries, start=1):
            if type(d) is not int:  # not isinstance: bool is rejected too
                raise KupischError(
                    "not-an-integer", f"d_{i} = {d!r} is not an integer")
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
        for k in range(1, m):
            if entries[k - 1] - 1 > entries[k]:
                # d_m = 1 and the step rule give d_i <= m - i + 1, so the
                # sink bound fails only here, and is named first
                for i, d in enumerate(entries, start=1):
                    if d > m - i + 1:
                        raise KupischError(
                            "overflow-past-sink",
                            f"d_{i} = {d} > m - i + 1 = {m - i + 1}")
                raise KupischError(
                    "kupisch-step",
                    f"d_{k} - 1 = {entries[k - 1] - 1} > d_{k + 1} = {entries[k]}")
        self.entries = entries
        self.m = m
        # max module length per co-diagonal s = i + j, indexed by s >= 2:
        # the projective with top m - s + 2, whose length d <= s - 1 by
        # the sink bound
        self._u = (0, 0) + entries[::-1]
        # max module length per diagonal i = m - t + 1, indexed by i >= 1:
        # the injective with socle t has as top the least vertex r whose
        # projective reaches t.  The reach r + d_r - 1 never decreases
        # (Kupisch step), so one pointer moving forward over t finds them.
        # Where the reach is t, the injective is that projective, and v
        # holds the entry d_r itself rather than an equal new int.
        v = [0] * (m + 1)
        r, reach = 1, entries[0]
        for t in range(1, m + 1):
            while reach < t:
                r += 1
                reach = r + entries[r - 1] - 1
            v[m - t + 1] = entries[r - 1] if reach == t else t - r + 1
        self._v = tuple(v)
        self._gldim = None
        self._pi = None

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, KupischSeries) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"KupischSeries({list(self.entries)})"

    def __len__(self):
        return self.m

    def __reduce__(self):
        return KupischSeries, (self.entries,), self._gldim

    def __setstate__(self, gldim):
        self._gldim = gldim

    # -- depth profiles ----------------------------------------------------

    def u(self, s: int) -> int:
        """Maximal module length on co-diagonal i + j = s (2 <= s <= m+1)."""
        return self._u[_check_index("co-diagonal", s, 2, self.m + 1)]

    def v(self, i: int) -> int:
        """Maximal module length on diagonal i (1 <= i <= m)."""
        return self._v[_check_index("diagonal", i, 1, self.m)]

    # -- module coordinates ------------------------------------------------

    def exists(self, coord) -> bool:
        """True iff the coordinate, a pair of ints, names a nonzero
        indecomposable module."""
        if not _is_coord(coord):
            return False
        i, j = coord
        if i < 1 or j < 1 or i + j > self.m + 1:
            return False
        return j <= self.entries[self.m - i - j + 1]

    def check_exists(self, coord) -> Coord:
        if not self.exists(coord):
            raise ValueError(f"no module at {coord!r} over {self!r}")
        return coord

    def _rows(self):
        """(j, the co-diagonals s with u(s) >= j) for j = 1, 2, ...: row j
        holds the modules (s - j, j).  Each row keeps those of the row
        before with u(s) > j - 1, so u is read once per module."""
        u, row, j = self._u, range(2, self.m + 2), 1
        while row:
            yield j, row
            row = [s for s in row if u[s] > j]
            j += 1

    def all_modules(self):
        """All coordinates in row-major order; the count is sum(d_i)."""
        return [(s - j, j) for j, row in self._rows() for s in row]

    # -- structure of a single module --------------------------------------

    def is_projective(self, coord) -> bool:
        i, j = self.check_exists(coord)
        return j == self._u[i + j]

    def is_injective(self, coord) -> bool:
        i, j = self.check_exists(coord)
        return j == self._v[i]

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
            "projective": j == self._u[i + j],
            "injective": j == self._v[i],
            "top": top,
            "socle": soc,
            "support": (top, soc),
            "dim": j,
        }

    def projective_at(self, vertex: int) -> Coord:
        """The indecomposable projective with top at the given vertex."""
        d = self.entries[_check_index("vertex", vertex, 1, self.m) - 1]
        return (self.m - vertex + 2 - d, d)

    def injective_at(self, vertex: int) -> Coord:
        """The indecomposable injective with socle at the given vertex."""
        i = self.m + 1 - _check_index("vertex", vertex, 1, self.m)
        return (i, self._v[i])

    def projectives(self):
        """The projectives, one on each co-diagonal, in sorted order: the
        diagonal s - u(s) never decreases, and where it stays, u(s) grows."""
        u = self._u[2:]
        return list(zip(map(sub, range(2, self.m + 2), u), u))

    def injectives(self):
        """The injectives, one on each diagonal, in sorted order."""
        return list(zip(range(1, self.m + 1), self._v[1:]))

    # -- presentation and duality -------------------------------------------

    def quiver_presentation(self) -> dict:
        """Bound quiver: linear arrows plus minimal monomial zero relations.

        A relation is the zero path from vertex i to vertex e_i = i + d_i
        (defined when e_i <= m).  Relations whose path contains a
        shorter relation path are dropped, so the returned generators
        are minimal.  The ends e_i never decrease (Kupisch step), so the
        path of relation i contains another one exactly when
        e_{i+1} = e_i.
        """
        m = self.m
        e = [i + d for i, d in enumerate(self.entries, 1)]
        return {
            "vertices": m,
            "arrows": [(i, i + 1) for i in range(1, m)],
            "relations": [(i, e[i - 1]) for i in range(1, m)
                          if e[i - 1] <= m and e[i] != e[i - 1]],
        }

    def opposite(self) -> "KupischSeries":
        """The opposite algebra: entries are the injective length profile."""
        return KupischSeries(self._v[1:])

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
        if "kupisch" not in data:
            raise ValueError("missing key 'kupisch'")
        entries = data["kupisch"]
        if not (isinstance(entries, list)
                and all(type(d) is int for d in entries)):
            raise ValueError(f"kupisch must be a list of integers, "
                             f"got {entries!r}")
        return cls(entries)


def validate(entries) -> KupischSeries:
    """Validate a candidate series, raising KupischError with a named
    violation (not-an-integer, last-entry-not-one, entry-below-two,
    kupisch-step, overflow-past-sink) on failure."""
    return KupischSeries(entries)


def lambda_mh(m: int, h: int) -> KupischSeries:
    """The algebra on m vertices with radical nilpotency h:
    series (h^(m-h+1), h-1, ..., 2, 1).

    h = 1 is accepted only for m = 1 (a connected quiver with zero
    radical has a single vertex).
    """
    _check_int("m", m)
    _check_int("h", h)
    if m < 1 or h < 1 or h > m:
        raise ValueError(f"need 1 <= h <= m, got (m, h) = ({m}, {h})")
    if h == 1 and m > 1:
        raise ValueError("radical-square-zero with h = 1 forces m = 1")
    if m > MAX_VERTICES:
        raise ValueError(f"lambda_mh({m}, {h}) has more than MAX_VERTICES = "
                         f"{MAX_VERTICES} vertices")
    return KupischSeries([h] * (m - h + 1) + list(range(h - 1, 0, -1)))


def linear_quiver_algebra(h: int) -> KupischSeries:
    """The hereditary algebra of the linear quiver on h vertices."""
    return lambda_mh(h, h)


def parse_series(text: str) -> KupischSeries:
    """Parse '2,3,3,1' or run-length '2^6,3^13,2^3,1' into a series.
    Entries and run lengths are decimal integers (`_decimal`).  An empty
    part is refused by position; the empty text is the empty series,
    refused as last-entry-not-one."""
    entries = []
    for pos, part in enumerate(text.split(",") if text.strip() else (), 1):
        part = part.strip()
        if not part:
            raise ValueError(f"empty part at position {pos}")
        if "^" in part:
            base, _, count = part.partition("^")
            k = _decimal(count)
            if k < 1:
                raise ValueError(f"run length {k} < 1 in {part!r}")
        else:
            base, k = part, 1
        if len(entries) + k > MAX_VERTICES:
            raise ValueError(f"series of more than MAX_VERTICES = "
                             f"{MAX_VERTICES} vertices at {part!r}")
        entries.extend([_decimal(base)] * k)
    return KupischSeries(entries)


def format_series(series: KupischSeries) -> str:
    """Run-length form, e.g. '2^6,3^13,2^3,1'."""
    runs = ((d, sum(1 for _ in run)) for d, run in groupby(series.entries))
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
