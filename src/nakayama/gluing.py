"""Gluing of two Kupisch series along an abutment.

Gluing identifies a height-h left abutment of A with a height-h right
abutment of B.  At the Kupisch level this is concatenation with overlap:
the result keeps the first (len(A) - h) entries of A and all of B.  Its
module category decomposes accordingly, as check_glue's count and
coverage show: the coordinate embedding of B-modules is the identity,
that of A-modules shifts the diagonal index by len(B) - h, and the two
images overlap exactly in the identified foundations.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from . import abutments, ar
from .kupisch import ZERO, KupischSeries


class Glued(NamedTuple):
    """A glued algebra with its coordinate embeddings."""

    result: KupischSeries
    h: int
    a: KupischSeries  # supplies the left abutment, forms the prefix
    b: KupischSeries  # supplies the right abutment, forms the suffix

    _shift = property(lambda g: g.b.m - g.h)  # phi's, on diagonals; psi's is 0

    def phi(self, x):
        """Embed an A-module coordinate into the result."""
        if x is ZERO:
            return ZERO
        self.a.check_exists(x)
        return (x[0] + self._shift, x[1])

    def psi(self, x):
        """Embed a B-module coordinate into the result (identity)."""
        if x is ZERO:
            return ZERO
        self.b.check_exists(x)
        return x

    def to_json(self) -> dict:
        s = self._shift
        return {
            "result": self.result.to_json(),
            "height": self.h,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "phi": [[[i, j], [i + s, j]] for i, j in self.a.all_modules()],
            "psi": [[[i, j], [i, j]] for i, j in self.b.all_modules()],
        }


def glue(B: KupischSeries, A: KupischSeries, h: int) -> Glued:
    """Glue B (right abutment of height h) below A (left abutment of
    height h).  The argument order matches the quiver: A's vertices come
    first, B's last, and A's staircase tail of height h merges into B's
    initial segment."""
    abutments._check_abutment(A, "left", h)
    abutments._check_abutment(B, "right", h)
    entries = A.entries[:A.m - h] + B.entries
    return Glued(KupischSeries(entries), h, A, B)


class GlueReport(NamedTuple):
    ok: bool
    failure: Optional[str] = None

    def __bool__(self):
        return self.ok


def check_glue(g: Glued) -> Tuple[GlueReport, GlueReport]:
    """Both reports of a gluing, (invariants, dispatch), each with its
    first failure.  Invariants: |Ind L| = |Ind A| + |Ind B| - h(h+1)/2;
    phi/psi are jointly surjective;
    max(gldim A, gldim B) <= gldim L <= gldim A + gldim B.  Dispatch:
    computed in the component, tau and syzygy agree with L's except on
    A's overlap, tau_inv and cosyzygy except on B's.

    The dispatch report is read from the tables.  tau and syzygy of
    (i, j) read only u(i + j), tau_inv and cosyzygy only v(i), and j
    runs up to that length, so with the images in L the steps agree on
    a co-diagonal (a diagonal) iff its u (its v) equals L's at the
    image.  A's overlap is its co-diagonals 2..h+1, B's its diagonals
    m_B - h + 1..m_B.  Only when a report fails does one pass over the
    component modules name the first dispatch failure.  It validates an
    image in L only once the invariants failed, as the count and
    coverage otherwise put every image in L; an image outside L raises
    ValueError unless a dispatch failure comes before it.

    Not run, as the count and coverage imply them: the images overlap
    exactly in the identified foundations, L has no arrow between them
    that is not a component's, and phi/psi carry tau to tau (u_K(s) <=
    u_L(s + t) keeps every nonprojective of a component off L's
    projectives).  Not checked, as the coordinate encoding makes them
    true: phi (a shift) and psi (the identity) are injective and keep
    the arrow rule; both foundations are
    {(i, j) : i >= m_B - h + 1, i + j <= m_B + 1}; as d_i >= 2 for
    i < m, each series has one simple projective, (1, 1), and one simple
    injective, (m, 1).
    """
    A, B, L, h, t = g.a, g.b, g.result, g.h, g._shift
    # the footings' shifts: x is in a foundation iff f < i, i + j <= f + h + 1
    fa = abutments._check_abutment(A, "left", h)
    fb = abutments._check_abutment(B, "right", h)

    inv = dis = None  # the first failure of each report
    if sum(L.entries) != sum(A.entries) + sum(B.entries) - h * (h + 1) // 2:
        inv = "indecomposable count formula"
    # A's images have i > t and B's modules i + j <= m_B + 1, so the images
    # meet in exactly the foundation T, which both hold: with the count,
    # they cover Ind L iff each lies in it.  Co-diagonal s holds the
    # lengths 1..u(s), and m_B <= m_A + t as m_A >= h
    elif not (A.m + t <= L.m
              and all(A._u[s] <= L._u[s + t] for s in range(2, A.m + 2))
              and all(B._u[s] <= L._u[s] for s in range(2, B.m + 2))):
        inv = "phi and psi not jointly surjective"
    # an arrow raises i and i + j by at most one, so an arrow of L between
    # an A-only and a B-only module would have an end in T: none is tested
    if inv or not (A._u[h + 2:] == L._u[h + 2 + t:A.m + 2 + t]
                   and A._v[1:] == L._v[1 + t:A.m + 1 + t]
                   and B._u[2:] == L._u[2:B.m + 2]
                   and B._v[1:B.m - h + 1] == L._v[1:B.m - h + 1]):
        dis = _first_dispatch_failure(g, fa, fb, inv)

    if not inv:
        da, db, dl = ar.gldim(A), ar.gldim(B), ar.gldim(L)
        if not max(da, db) <= dl <= da + db:
            inv = f"gldim bound violated: {da}, {db} vs {dl}"
    return GlueReport(not inv, inv), GlueReport(not dis, dis)


def _first_dispatch_failure(g: Glued, fa: int, fb: int, inv):
    """The first kernel step on which a component module and its image
    disagree, in the order of all_modules, A's before B's; None if none
    does.  With inv set, each image is validated in L first."""
    L, h = g.result, g.h

    def lift(z, s):  # an embedding on a kernel result: no validation
        return ZERO if z is ZERO else (z[0] + s, z[1])

    steps = (("tau", ar._tau), ("syzygy", ar._syzygy),
             ("tau_inv", ar._tau_inv), ("cosyzygy", ar._cosyzygy))
    for K, emb, s, f, kept in ((g.a, "phi", g._shift, fa, steps[2:]),
                               (g.b, "psi", 0, fb, steps[:2])):
        for x in K.all_modules():
            y = (x[0] + s, x[1])
            if inv:  # count and coverage put every image in L otherwise
                L.check_exists(y)
            for name, step in (
                    kept if f < x[0] and x[0] + x[1] <= f + h + 1 else steps):
                if step(L, y) != lift(step(K, x), s):
                    return f"{name} dispatch fails at {emb}{x}"
    return None
