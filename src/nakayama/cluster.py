"""Verification and construction of higher cluster-tilting structure.

The checker implements the four-condition characterization for
representation-directed algebras, relaxed by a fracturing: a candidate
subcategory C must contain the fractured projectives, the higher
translates must restrict to mutually inverse bijections between
C minus fractured projectives and C minus fractured injectives, and the
intermediate (co)syzygies of those modules must not vanish.  The
candidate is generated by closing the fractured projectives under the
inverse higher translate and adjoining the fractured injectives; the
verdict re-validates all four conditions, so it is sound regardless of
the generation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import abutments, ar, tilting
from .gluing import Glued, glue
from .kupisch import ZERO, Coord, KupischSeries, coord_to_json, lambda_mh, \
    linear_quiver_algebra
from .tilting import Fracture, Fracturing


@dataclass(frozen=True)
class Verdict:
    """Outcome of a fractured / cluster-tilting check."""

    ok: bool
    candidate: Tuple[Coord, ...]
    orbit: Tuple[Tuple[Coord, Coord], ...]  # (x, tau_n_inv x) pairs
    failures: Tuple[dict, ...] = ()

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "candidate": [coord_to_json(c) for c in self.candidate],
            "orbit": [[coord_to_json(a), coord_to_json(b)]
                      for a, b in self.orbit],
            "failures": list(self.failures),
        }


def _fail(condition: int, coord, detail: str) -> dict:
    return {"condition": condition,
            "coord": coord_to_json(coord) if coord is not ZERO else None,
            "detail": detail}


def generate_candidate(K: KupischSeries, n: int,
                       F: Fracturing) -> List[Coord]:
    """Close the fractured projectives under the inverse higher translate
    (dropping ZERO) and adjoin the fractured injectives."""
    ar._check_order(n)
    seed = tilting.pL_category(K, F)
    closed = set(seed)
    frontier = list(seed)
    while frontier:
        w = ar._walk(K, ar._cosyzygy, frontier.pop(), n - 1)[0]
        y = ar._tau_inv(K, w)
        if y is not ZERO and y not in closed:
            closed.add(y)
            frontier.append(y)
    closed.update(tilting.iR_category(K, F))
    return sorted(closed)


def check_fractured(K: KupischSeries, n: int, F: Fracturing,
                    candidate=None) -> Verdict:
    """Check whether the candidate is a fractured subcategory for the
    given fracturing.  By default the candidate is generated by
    closure; an explicit candidate may be passed to re-verify an emitted
    one.  Conditions:

    1. fractured projectives are contained in the candidate,
    2. tau_n / tau_n_inv are mutually inverse bijections between the
       candidate minus fractured projectives and minus fractured
       injectives,
    3. syzygies of candidate-minus-fractured-projective modules stay
       nonzero up to order n-1,
    4. cosyzygies dually.
    """
    ar._check_order(n)
    pl = set(tilting.pL_category(K, F))
    ir = set(tilting.iR_category(K, F))
    if candidate is None:
        cand = generate_candidate(K, n, F)
    else:
        cand = sorted(set(K.check_exists(x) for x in candidate))
    cset = set(cand)
    failures: List[dict] = []

    for x in sorted(pl):
        if x not in cset:  # only reachable with an explicit candidate
            failures.append(_fail(1, x, "fractured projective missing"))

    c_minus_p = [x for x in cand if x not in pl]
    c_minus_i = [x for x in cand if x not in ir]

    # One (co)syzygy walk per module gives its higher translate and, if
    # the chain vanishes early, the condition 3 (4) witness.
    vanished: List[dict] = []
    forward: Dict[Coord, Coord] = {}
    for x in c_minus_p:
        w, k = ar._walk(K, ar._syzygy, x, n - 1)
        y = ar._tau(K, w)
        if k < n - 1:
            vanished.append(_fail(
                3, x, f"syzygy^{k + 1}({x}) vanishes before order {n}"))
        if y is ZERO or y not in cset or y in ir:
            failures.append(_fail(
                2, x, f"tau_n({x}) = {y} not in candidate minus "
                      f"fractured injectives"))
        else:
            forward[x] = y
    backward: Dict[Coord, Coord] = {}
    for y in c_minus_i:
        w, k = ar._walk(K, ar._cosyzygy, y, n - 1)
        x = ar._tau_inv(K, w)
        if k < n - 1:
            vanished.append(_fail(
                4, y, f"cosyzygy^{k + 1}({y}) vanishes before order {n}"))
        if x is ZERO or x not in cset or x in pl:
            failures.append(_fail(
                2, y, f"tau_n_inv({y}) = {x} not in candidate minus "
                      f"fractured projectives"))
        else:
            backward[y] = x
    for x, y in forward.items():
        if backward.get(y) != x:
            failures.append(_fail(2, x, f"tau_n not inverted at {x}"))
    for y, x in backward.items():
        if forward.get(x) != y:
            failures.append(_fail(2, y, f"tau_n_inv not inverted at {y}"))
    failures += vanished

    # (x, tau_n_inv x) for x in the candidate minus fractured injectives
    orbit = tuple(sorted(backward.items()))
    return Verdict(not failures, tuple(cand), orbit, tuple(failures))


def check_nct(K: KupischSeries, n: int) -> Verdict:
    """Cluster-tilting check: the fractured check with the projective
    left and injective right fracturing."""
    return check_fractured(K, n,
                           tilting.projective_injective_fracturing(K))


def classify_sides(K: KupischSeries, n: int, F: Fracturing,
                   verdict: Optional[Verdict] = None) -> dict:
    """Which sides of an ok fractured subcategory are honest: left if
    the left fracture is projective, right if the right fracture is
    injective, cluster-tilting if both."""
    if verdict is None:
        verdict = check_fractured(K, n, F)
    if not verdict.ok:
        raise ValueError("verdict not ok; sides are undefined")
    left = set(F.TL.coords) == set(tilting.projective_fracture(K).coords)
    right = set(F.TR.coords) == set(tilting.injective_fracture(K).coords)
    return {"left_nct": left, "right_nct": right, "nct": left and right}


@dataclass(frozen=True)
class CompatReport:
    compatible: bool
    level_ok: bool  # whether the glue height dominates the fracture level

    def __bool__(self):
        return self.compatible


def compatibility_check(a_side: Tuple[KupischSeries, Fracture],
                        b_side: Tuple[KupischSeries, Fracture],
                        h: int) -> CompatReport:
    """Compare both fractures inside the height-h sub-foundations: the
    footed coordinate sets must coincide.  Also reports whether
    h >= level of the left fracture, which the gluing construction
    implicitly uses."""
    KA, TA = a_side
    KB, TB = b_side
    if TA.side != "left" or TB.side != "right":
        raise ValueError("expected a left fracture on A and a right on B")
    if h > TA.height or h > TB.height:
        raise ValueError(f"glue height {h} exceeds a fracture height")
    fnd_a = set(abutments.foundation(KA, "left", h))
    fnd_b = set(abutments.foundation(KB, "right", h))
    set_a = {abutments.footing_to_ka(KA, "left", h, x)
             for x in TA.coords if x in fnd_a}
    set_b = {abutments.footing_to_ka(KB, "right", h, x)
             for x in TB.coords if x in fnd_b}
    return CompatReport(set_a == set_b, h >= TA.level)


def glue_fracturings(g: Glued, FB: Fracturing, FA: Fracturing) -> Fracturing:
    """Fracturing of the glued algebra: the maximal left abutment comes
    from the suffix algebra B (from A only in the trivial gluing where B
    is hereditary of the glue height), the maximal right abutment from
    the prefix algebra A (dually)."""
    L = g.result
    if g.b.m == g.h:  # trivial gluing, result is A
        tl_coords = [g.phi(x) for x in FA.TL.coords]
    else:
        tl_coords = [g.psi(x) for x in FB.TL.coords]
    if g.a.m == g.h:  # trivial gluing, result is B
        tr_coords = [g.psi(x) for x in FB.TR.coords]
    else:
        tr_coords = [g.phi(x) for x in FA.TR.coords]
    return tilting.make_fracturing(L, tl_coords, tr_coords)


def glue_fractured(b_side: Tuple[KupischSeries, Fracturing],
                   a_side: Tuple[KupischSeries, Fracturing],
                   h: int, n: int) -> Tuple[Glued, Fracturing, Verdict]:
    """Glue two fractured algebras along a height-h abutment and re-check
    the glued fracturing from scratch.

    Preconditions: both component checks ok and the fractures compatible
    at height h.  The candidate of the result must coincide with the
    union of the embedded component candidates.
    """
    KB, FB = b_side
    KA, FA = a_side
    va = check_fractured(KA, n, FA)
    if not va.ok:
        raise ValueError(f"A-side fractured check failed: {va.failures[0]}")
    vb = check_fractured(KB, n, FB)
    if not vb.ok:
        raise ValueError(f"B-side fractured check failed: {vb.failures[0]}")
    compat = compatibility_check((KA, FA.TL), (KB, FB.TR), h)
    if not compat.compatible:
        raise ValueError("fractures do not agree on the glued foundation")

    g = glue(KB, KA, h)
    F = glue_fracturings(g, FB, FA)
    verdict = check_fractured(g.result, n, F)
    if verdict.ok:
        union = {g.phi(x) for x in va.candidate} | \
                {g.psi(x) for x in vb.candidate}
        if union != set(verdict.candidate):
            raise RuntimeError(
                "glued candidate differs from the union of the components")
    return g, F, verdict


# -- slice completion ------------------------------------------------------

@dataclass
class CompletionStep:
    kind: str  # "base", "staircase", "glue"
    a: Optional[KupischSeries] = None
    b: Optional[KupischSeries] = None
    height: Optional[int] = None
    result: Optional[KupischSeries] = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"kind": self.kind, "note": self.note}
        if self.a is not None:
            out["a"] = self.a.to_json()
        if self.b is not None:
            out["b"] = self.b.to_json()
        if self.height is not None:
            out["height"] = self.height
        if self.result is not None:
            out["result"] = self.result.to_json()
        return out


def _complete_right_series(h: int, indices: Tuple[int, ...], n: int,
                           trace: List[CompletionStep]) -> KupischSeries:
    """Build an algebra whose maximal left abutment (height h) carries the
    slice and whose right fracturing is injective; verified by the caller.

    Two recursive cases, driven by the next-to-top slice index:

    * index 2: the apex splits off; complete the down-shifted truncation
      at height h-1 and extend its staircase tail by one vertex;
    * index 1: seed the slice into the wide algebra whose inverse higher
      translate pushes it against the injective boundary, read off the
      leftover slice at the boundary, complete it recursively and glue.
    """
    if h == 1:
        K = KupischSeries([1])
        trace.append(CompletionStep("base", result=K, note="single vertex"))
        return K

    if indices[h - 2] == 2:
        sub = _complete_right_series(
            h - 1, tuple(i - 1 for i in indices[:h - 1]), n, trace)
        g = glue(linear_quiver_algebra(h), sub, h - 1)
        trace.append(CompletionStep(
            "staircase", a=sub, b=linear_quiver_algebra(h), height=h - 1,
            result=g.result, note="extend staircase tail by one vertex"))
        return g.result

    # next-to-top index 1: push through the wide algebra
    m = (n * h) // 2 + indices[0] if n % 2 == 0 else ((n + 1) * h) // 2
    base = lambda_mh(m, h)
    images = []
    for k in range(1, h):
        y = ar.tau_n_inv(base, n, (indices[k - 1], k))
        if y is ZERO:
            raise RuntimeError(
                f"slice image vanished at length {k} over {base!r}")
        images.append(y)
    fracture = images + [(m - h + 1, h)]
    by_length = sorted(fracture, key=lambda c: -c[1])
    boundary = None
    for c in by_length:
        if not base.is_injective(c):
            break
        boundary = c
    if boundary is None:
        raise RuntimeError(f"no injective run at the top over {base!r}")
    hh = boundary[1]
    leftover = [c for c in fracture if c[1] <= hh]
    footed = [abutments.footing_to_ka(base, "right", hh, c)
              for c in leftover]
    sub_indices = tilting.slice_indices(hh, footed)
    sub = _complete_right_series(hh, sub_indices, n, trace)
    g = glue(base, sub, hh)
    trace.append(CompletionStep(
        "glue", a=sub, b=base, height=hh, result=g.result,
        note=f"glue completed height-{hh} slice below the wide algebra"))
    return g.result


def complete_slice(h: int, slice_coords, n: int, side: str):
    """Complete a slice of the height-h linear-quiver algebra into an
    algebra with a one-sided cluster-tilting subcategory.

    Right completion returns an algebra whose left fracture is the given
    slice (sitting at the maximal left abutment) and whose subcategory
    is right n-cluster-tilting; left completion is the mirror image.
    The verdict is re-checked from scratch and a failure raises, since
    it would signal a construction bug.

    Returns (series, fracturing, verdict, trace).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be left/right, got {side!r}")
    indices = tilting.slice_indices(h, slice_coords)
    trace: List[CompletionStep] = []

    if side == "right":
        K = _complete_right_series(h, indices, n, trace)
        tl = tilting.is_fracture(K, "left", h,
                                 tilting.slice_from_indices(indices))
        F = Fracturing(tl, tilting.injective_fracture(K))
    else:
        dual = tilting.dual_slice_indices(h, indices)
        Kr = _complete_right_series(h, dual, n, trace)
        K = Kr.opposite()
        trace.append(CompletionStep(
            "base", result=K, note="mirror of the completed dual slice"))
        tr_coords = [abutments.footing_from_ka(K, "right", h, c)
                     for c in tilting.slice_from_indices(indices)]
        tr = tilting.is_fracture(K, "right", h, tr_coords)
        F = Fracturing(tilting.projective_fracture(K), tr)

    if abutments.max_left_height(K) != h and side == "right":
        raise RuntimeError(f"completed algebra has wrong abutment height")
    if abutments.max_right_height(K) != h and side == "left":
        raise RuntimeError(f"completed algebra has wrong abutment height")
    verdict = check_fractured(K, n, F)
    if not verdict.ok:
        raise RuntimeError(
            f"slice completion failed verification: {verdict.failures[0]}")
    sides = classify_sides(K, n, F, verdict)
    if not sides[f"{side}_nct"]:
        raise RuntimeError(f"completed subcategory is not {side} honest")
    return K, F, verdict, trace
