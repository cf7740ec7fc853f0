"""Gluing of two Kupisch series along an abutment.

Gluing identifies a height-h left abutment of A with a height-h right
abutment of B.  At the Kupisch level this is concatenation with overlap:
the result keeps the first (len(A) - h) entries of A and all of B.  The
module category of the result decomposes accordingly: the coordinate
embedding of B-modules is the identity, that of A-modules shifts the
diagonal index by len(B) - h, and the two images overlap exactly in the
identified foundations.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import abutments, ar
from .kupisch import ZERO, KupischSeries, coord_to_json


class Glued(NamedTuple):
    """A glued algebra with its coordinate embeddings."""

    result: KupischSeries
    h: int
    a: KupischSeries  # supplies the left abutment, forms the prefix
    b: KupischSeries  # supplies the right abutment, forms the suffix

    def phi(self, x):
        """Embed an A-module coordinate into the result."""
        if x is ZERO:
            return ZERO
        self.a.check_exists(x)
        return (x[0] + self.b.m - self.h, x[1])

    def psi(self, x):
        """Embed a B-module coordinate into the result (identity)."""
        if x is ZERO:
            return ZERO
        self.b.check_exists(x)
        return x

    def overlap(self):
        """Common image: the identified foundation inside the result."""
        return [self.psi(x)
                for x in abutments.foundation(self.b, "right", self.h)]

    def to_json(self) -> dict:
        return {
            "result": self.result.to_json(),
            "height": self.h,
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "phi": [[coord_to_json(x), coord_to_json(self.phi(x))]
                    for x in self.a.all_modules()],
            "psi": [[coord_to_json(x), coord_to_json(self.psi(x))]
                    for x in self.b.all_modules()],
        }


def glue(B: KupischSeries, A: KupischSeries, h: int) -> Glued:
    """Glue B (right abutment of height h) below A (left abutment of
    height h).  The argument order matches the quiver: A's vertices come
    first, B's last, and A's staircase tail of height h merges into B's
    initial segment."""
    if h not in abutments.left_abutment_heights(A):
        raise ValueError(f"A = {A!r} has no left abutment of height {h}")
    if h not in abutments.right_abutment_heights(B):
        raise ValueError(f"B = {B!r} has no right abutment of height {h}")
    entries = A.entries[:A.m - h] + B.entries
    return Glued(KupischSeries(entries), h, A, B)


class GlueReport(NamedTuple):
    ok: bool
    failure: Optional[str] = None

    def __bool__(self):
        return self.ok


def check_glue_invariants(g: Glued) -> GlueReport:
    """Structural invariants of a gluing:

    1. indecomposable count |Ind L| = |Ind A| + |Ind B| - h(h+1)/2,
    2. phi/psi are jointly surjective, overlap exactly on the identified
       foundations, add no arrow and carry tau to tau,
    3. max(gldim A, gldim B) <= gldim L <= gldim A + gldim B.

    Returns the first failed assertion.

    Not checked, since the coordinate encoding makes them true: phi (a
    shift) and psi (the identity) are injective; both foundations are
    {(i, j) : i >= m_B - h + 1, j >= 1, i + j <= m_B + 1}; the arrow rule
    ignores a shift in i, so once every image lies in Ind L each component
    arrow is an arrow of L; and as d_i >= 2 for i < m, every series has one
    simple projective, (1, 1), and one simple injective, (m, 1).
    """
    A, B, L, h = g.a, g.b, g.result, g.h

    mods_a = A.all_modules()
    mods_b = B.all_modules()
    mods_l = L.all_modules()
    if len(mods_l) != len(mods_a) + len(mods_b) - h * (h + 1) // 2:
        return GlueReport(False, "indecomposable count formula")

    # each component module is embedded, and so validated, once
    phi = {x: g.phi(x) for x in mods_a}
    psi = {x: g.psi(x) for x in mods_b}
    img_a, img_b = set(phi.values()), set(psi.values())
    if img_a | img_b != set(mods_l):
        return GlueReport(False, "phi and psi not jointly surjective")
    expected_overlap = {phi[x] for x in abutments.foundation(A, "left", h)}
    if img_a & img_b != expected_overlap:
        return GlueReport(False, "overlap differs from identified foundations")

    ga, gb, gl = ar.ar_quiver(A), ar.ar_quiver(B), ar.ar_quiver(L)
    # arrows of L all come from a component
    lifted = {(phi[x], phi[y]) for (x, y) in ga.arrows}
    lifted |= {(psi[x], psi[y]) for (x, y) in gb.arrows}
    if lifted != set(gl.arrows):
        return GlueReport(False, "extra arrows in the glued quiver")
    for quiv, emb in ((ga, phi), (gb, psi)):
        for x, tx in quiv.translation.items():
            if gl.translation.get(emb[x]) != emb[tx]:
                return GlueReport(False, f"tau not preserved at {x}")

    da, db, dl = ar.gldim(A), ar.gldim(B), ar.gldim(L)
    if not max(da, db) <= dl <= da + db:
        return GlueReport(
            False, f"gldim bound violated: {da}, {db} vs {dl}")
    return GlueReport(True)


def dispatch_check(g: Glued) -> GlueReport:
    """Translations and (co)syzygies computed componentwise agree with
    the glued algebra:

    * tau and syzygy of an A-module outside the overlap, and of any
      B-module, are computed in the component;
    * tau_inv and cosyzygy of a B-module outside the overlap, and of any
      A-module, likewise.

    Each component coordinate and its image are validated once; the
    comparisons then use the trusted steps of the kernel.
    """
    A, B, L = g.a, g.b, g.result
    overlap_a = set(abutments.foundation(A, "left", g.h))
    overlap_b = set(abutments.foundation(B, "right", g.h))
    shift = B.m - g.h

    def lift(z):  # phi on a kernel result, which needs no validation
        return ZERO if z is ZERO else (z[0] + shift, z[1])

    down = (("tau", ar._tau), ("syzygy", ar._syzygy))
    up = (("tau_inv", ar._tau_inv), ("cosyzygy", ar._cosyzygy))
    for x in A.all_modules():
        y = L.check_exists(g.phi(x))
        for name, step in up if x in overlap_a else down + up:
            if step(L, y) != lift(step(A, x)):
                return GlueReport(False, f"{name} dispatch fails at phi{x}")
    for x in B.all_modules():
        y = L.check_exists(g.psi(x))
        for name, step in down if x in overlap_b else down + up:
            if step(L, y) != step(B, x):
                return GlueReport(False, f"{name} dispatch fails at psi{x}")
    return GlueReport(True)
