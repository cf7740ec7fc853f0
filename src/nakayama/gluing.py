"""Gluing of two Kupisch series along an abutment.

Gluing identifies a height-h left abutment of A with a height-h right
abutment of B.  The result keeps A's entries without the last h, then
B's; the coordinate embedding of B-modules is the identity, that of
A-modules shifts the diagonal index by m_B - h, and the two images
cover the result and overlap exactly in the identified foundations.
"""

from __future__ import annotations

from collections import namedtuple

from . import abutments, ar
from .kupisch import ZERO, KupischSeries


class Glued(namedtuple("Glued", "result h a b")):
    """A glued algebra with its coordinate embeddings."""

    __slots__ = ()
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


def _glued_entries(B: KupischSeries, A: KupischSeries, h: int):
    """The gluing formula: A's entries without the last h, then B's,
    once both abutments are checked."""
    abutments._check_abutment(A, "left", h)
    abutments._check_abutment(B, "right", h)
    return A.entries[:A.m - h] + B.entries


def glue(B: KupischSeries, A: KupischSeries, h: int) -> Glued:
    """Glue B (right abutment of height h) below A (left abutment of
    height h).  The argument order matches the quiver: A's vertices come
    first, B's last, and A's staircase tail of height h merges into B's
    initial segment."""
    return Glued(KupischSeries(_glued_entries(B, A, h)), h, A, B)


class GlueReport(namedtuple("GlueReport", "ok failure", defaults=(None,))):
    """One report of check_glue: whether it passed, and why not."""

    __slots__ = ()
    ok: bool
    failure: str | None

    def __bool__(self):
        return self.ok


def check_glue(g: Glued) -> tuple[GlueReport, GlueReport]:
    """Both reports of a gluing that glue built, (invariants, dispatch);
    any other result is refused at its first entry that differs from
    glue's.  On glue's result the count, the coverage and the dispatch
    all hold, so the dispatch report passes and the invariants report is
    the bound max(gldim A, gldim B) <= gldim L <= gldim A + gldim B."""
    A, B, L = g.a, g.b, g.result
    glued = _glued_entries(B, A, g.h)
    if L.entries != glued:
        # only d_m is 1, so no series is a proper prefix of another
        k = next(k for k, d in enumerate(glued) if L.entries[k] != d)
        raise ValueError(f"not the gluing of its components: "
                         f"d_{k + 1} = {L.entries[k]}, glued {glued[k]}")
    da, db, dl = ar.gldim(A), ar.gldim(B), ar.gldim(L)
    inv = (None if max(da, db) <= dl <= da + db
           else f"gldim bound violated: {da}, {db} vs {dl}")
    return GlueReport(not inv, inv), GlueReport(True)
