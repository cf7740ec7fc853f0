"""Gluing of two Kupisch series along an abutment.

Gluing identifies a height-h left abutment of A with a height-h right
abutment of B.  At the Kupisch level this is concatenation with overlap:
the result keeps the first (len(A) - h) entries of A and all of B.  Its
module category decomposes accordingly, as check_glue tests: the
coordinate embedding of B-modules is the identity, that of A-modules
shifts the diagonal index by len(B) - h, and the two images overlap
exactly in the identified foundations.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

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


def check_glue(g: Glued) -> Tuple[GlueReport, GlueReport]:
    """Both reports of a gluing, (invariants, dispatch), each with its
    first failure.  Invariants: |Ind L| = |Ind A| + |Ind B| - h(h+1)/2;
    phi/psi are jointly surjective, overlap exactly on the identified
    foundations, add no arrow and carry tau to tau; max(gldim A, gldim B)
    <= gldim L <= gldim A + gldim B.  Dispatch: computed in the component,
    tau and syzygy agree with L's except on A's overlap, tau_inv and
    cosyzygy except on B's.  One pass validates each image in L and
    compares the kernel steps once; an image outside L raises ValueError
    unless a dispatch failure comes before it.

    Not checked, as the coordinate encoding makes them true: phi (a shift)
    and psi (the identity) are injective and keep the arrow rule; both
    foundations are {(i, j) : i >= m_B - h + 1, i + j <= m_B + 1}; as
    d_i >= 2 for i < m, each series has one simple projective, (1, 1),
    and one simple injective, (m, 1).
    """
    A, B, L, h = g.a, g.b, g.result, g.h
    shift = B.m - h
    over_a = set(abutments.foundation(A, "left", h))
    over_b = set(abutments.foundation(B, "right", h))
    mods_a, mods_b, mods_l = A.all_modules(), B.all_modules(), L.all_modules()
    img_a = {(i + shift, j) for i, j in mods_a}
    img_b, ind_l = set(mods_b), set(mods_l)

    inv = dis = None  # the first failure of each report
    if len(mods_l) != len(mods_a) + len(mods_b) - h * (h + 1) // 2:
        inv = "indecomposable count formula"
    elif img_a | img_b != ind_l:
        inv = "phi and psi not jointly surjective"
    elif img_a & img_b != {(i + shift, j) for i, j in over_a}:
        inv = "overlap differs from identified foundations"
    elif any(q in ind_l and not ({p, q} <= img_a or {p, q} <= img_b)
             for p in mods_l for q in ((p[0], p[1] + 1), (p[0] + 1, p[1] - 1))):
        inv = "extra arrows in the glued quiver"

    def lift(z, s):  # an embedding on a kernel result: no validation
        return ZERO if z is ZERO else (z[0] + s, z[1])

    steps = (("tau", ar._tau), ("syzygy", ar._syzygy),
             ("tau_inv", ar._tau_inv), ("cosyzygy", ar._cosyzygy))
    for K, emb, s, mods, over, kept in (
            (A, "phi", shift, mods_a, over_a, steps[2:]),
            (B, "psi", 0, mods_b, over_b, steps[:2])):
        for x in mods:
            if inv and dis:
                break
            y = L.check_exists((x[0] + s, x[1]))
            ty, tx = ar._tau(L, y), lift(ar._tau(K, x), s)
            if not inv and tx is not ZERO and ty != tx:
                inv = f"tau not preserved at {x}"
            for name, step in () if dis else kept if x in over else steps:
                if (ty != tx if step is ar._tau
                        else step(L, y) != lift(step(K, x), s)):
                    dis = f"{name} dispatch fails at {emb}{x}"
                    break

    if not inv:
        da, db, dl = ar.gldim(A), ar.gldim(B), ar.gldim(L)
        if not max(da, db) <= dl <= da + db:
            inv = f"gldim bound violated: {da}, {db} vs {dl}"
    return GlueReport(not inv, inv), GlueReport(not dis, dis)
