"""Gluing of two Kupisch series along an abutment.

Gluing identifies a height-h left abutment of A with a height-h right
abutment of B.  At the Kupisch level this is concatenation with overlap:
the result keeps the first (len(A) - h) entries of A and all of B.  Its
module category decomposes accordingly: the coordinate embedding of
B-modules is the identity, that of A-modules shifts the diagonal index
by len(B) - h, and the two images cover the result and overlap exactly
in the identified foundations.
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

    The count and coverage hold iff L has glue's entries, A's without
    its last h followed by B's.  Let t = m_B - h and L* = glue(B, A, h).
    u_L* is u_B on co-diagonals 2..m_B + 1 and u_A(s - t) above them; on
    the overlap u_A(s - t) = s - t - 1 <= u_B(s), by the Kupisch step
    from d_1 >= h.  Co-diagonal s holds the lengths 1..u(s), so coverage
    says u_L >= u_L* on 2..m_L* + 1 with m_L >= m_L*.  The count says
    sum u_L = sum u_L*, as A's last h entries are h..1, and a further
    co-diagonal of L adds at least 1 to sum u_L.  So both hold iff
    u_L = u_L*, that is iff the entries are equal.  A true gluing then
    only has its gldim bound checked: its dispatch holds, and so do the
    checks the count and coverage imply, which are not run (the images
    overlap exactly in the identified foundations, L has no arrow
    between them that is not a component's, phi/psi carry tau to tau).
    Otherwise the count or the coverage fails, and one pass over the
    component modules names the first dispatch failure; an image outside
    L raises ValueError unless a dispatch failure comes before it.

    Not checked, as the coordinate encoding makes them true: phi (a
    shift) and psi (the identity) are injective and keep the arrow rule;
    both foundations are {(i, j) : i >= m_B - h + 1, i + j <= m_B + 1};
    as d_i >= 2 for i < m, each series has one simple projective,
    (1, 1), and one simple injective, (m, 1).
    """
    A, B, L, h = g.a, g.b, g.result, g.h
    # the footings' shifts: x is in a foundation iff f < i, i + j <= f + h + 1
    fa = abutments._check_abutment(A, "left", h)
    fb = abutments._check_abutment(B, "right", h)
    if L.entries != A.entries[:A.m - h] + B.entries:
        count = sum(A.entries) + sum(B.entries) - h * (h + 1) // 2
        inv = ("indecomposable count formula" if sum(L.entries) != count
               else "phi and psi not jointly surjective")
        dis = _first_dispatch_failure(g, fa, fb)
        return GlueReport(False, inv), GlueReport(not dis, dis)
    da, db, dl = ar.gldim(A), ar.gldim(B), ar.gldim(L)
    inv = (None if max(da, db) <= dl <= da + db
           else f"gldim bound violated: {da}, {db} vs {dl}")
    return GlueReport(not inv, inv), GlueReport(True)


def _first_dispatch_failure(g: Glued, fa: int, fb: int):
    """The first kernel step on which a component module and its image
    disagree, in the order of all_modules, A's before B's; None if none
    does.  Each image is validated in L first."""
    L, h = g.result, g.h

    def lift(z, s):  # an embedding on a kernel result: no validation
        return ZERO if z is ZERO else (z[0] + s, z[1])

    steps = (("tau", ar._tau), ("syzygy", ar._syzygy),
             ("tau_inv", ar._tau_inv), ("cosyzygy", ar._cosyzygy))
    for K, emb, s, f, kept in ((g.a, "phi", g._shift, fa, steps[2:]),
                               (g.b, "psi", 0, fb, steps[:2])):
        for x in K.all_modules():
            y = L.check_exists((x[0] + s, x[1]))
            for name, step in (
                    kept if f < x[0] and x[0] + x[1] <= f + h + 1 else steps):
                if step(L, y) != lift(step(K, x), s):
                    return f"{name} dispatch fails at {emb}{x}"
    return None
