"""Gluing of two Kupisch series along an abutment.

Gluing identifies a height-h left abutment of A with a height-h right
abutment of B.  The result keeps A's entries without the last h, then
B's; the coordinate embedding of B-modules is the identity, that of
A-modules shifts the diagonal index by m_B - h, and the two images
cover the result and overlap exactly in the identified foundations.
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
    first failure.  Invariants: |Ind L| = |Ind A| + |Ind B| - h(h+1)/2,
    phi/psi jointly surjective, and max(gldim A, gldim B) <= gldim L <=
    gldim A + gldim B.  Dispatch: computed in the component, tau and
    syzygy agree with L's except on A's overlap, tau_inv and cosyzygy
    except on B's.

    The count and coverage together, and the dispatch, hold iff L has
    glue's entries, A's without its last h followed by B's; only then is
    the gldim bound checked.  Let L* = glue(B, A, h), t = m_B - h: u_L*
    is u_B on co-diagonals 2..m_B + 1 and u_A(s - t) above them, and on
    the overlap u_A(s - t) = s - t - 1 <= u_B(s), as d_1 >= h.
    Co-diagonal s holds the lengths 1..u(s), so coverage says u_L >=
    u_L* on 2..m_L* + 1 with m_L >= m_L*; the count says sum u_L =
    sum u_L* (A's last h entries are h..1), and a further co-diagonal
    adds 1 or more.  Dispatch compares tau, ZERO exactly on projectives,
    on B's modules and A's outside its overlap, which fill co-diagonals
    2..m_L* + 1; a co-diagonal's projective is its longest module, so
    u_L = u_L* there.  It compares tau_inv on A's injective source simple
    (m_A, 1), whose image (m_L*, 1) is not injective if m_L > m_L*, as
    u_L(m_L* + 2) >= 2; if m_L < m_L*, some image lies outside L.  A
    failing dispatch names the first differing entry, which exists as
    only d_m is 1: no series is a proper prefix of another.

    Not run: what the count and coverage imply (the images overlap in
    the identified foundations, add no arrow, carry tau to tau) and what
    the coordinates make true (phi and psi are injective and keep the
    arrow rule; each series has one simple projective and one injective).
    """
    A, B, L, h = g.a, g.b, g.result, g.h
    glued = glue(B, A, h).result.entries
    if L.entries != glued:
        count = sum(A.entries) + sum(B.entries) - h * (h + 1) // 2
        inv = ("indecomposable count formula" if sum(L.entries) != count
               else "phi and psi not jointly surjective")
        k = next(k for k, d in enumerate(glued) if L.entries[k] != d)
        dis = f"dispatch fails at d_{k + 1} = {L.entries[k]}, glued {glued[k]}"
        return GlueReport(False, inv), GlueReport(False, dis)
    da, db, dl = ar.gldim(A), ar.gldim(B), ar.gldim(L)
    inv = (None if max(da, db) <= dl <= da + db
           else f"gldim bound violated: {da}, {db} vs {dl}")
    return GlueReport(not inv, inv), GlueReport(True)
