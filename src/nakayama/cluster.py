"""Verification and construction of higher cluster-tilting structure.

The checker implements the four-condition characterization for
representation-directed algebras, relaxed by a fracturing: a candidate
subcategory C must contain the fractured projectives, the higher
translates must restrict to mutually inverse bijections between
C minus fractured projectives and C minus fractured injectives, and the
intermediate (co)syzygies of those modules must not vanish.  The
candidate is generated by closing the fractured projectives under the
inverse higher translate and adjoining the fractured injectives; the
verdict re-validates all four conditions, so it is sound for any
generation.  The closure records only modules outside the fractured
injectives, so its walks are exactly the candidate minus them, each
one kernel call giving the translate and the walk length; a check
sorts its candidate from those and the fractured injectives, and reads
the walks in that order.  The closure also says whether a walk ended at
ZERO, which decides a failing verdict from the closure alone; only
otherwise are the modules walked the other way, up to the first
failure.  The orbit and the failures are built when they are first
read.  A check reads P_L and I_R as the projectives and injectives,
tested by u and v, with the flips of the fracturing swapped in.

The sorted P minus I, I and P ∪ I are memoized on the series (the last
at its first closed-form check_nct).  A projective-injective ends its
orbit at once, so a check with no flips seeds its closure with P minus
I, which one pass over u and v builds.  P itself is built, per call,
only for a check with flips or with an explicit candidate.  Against a
seed of all of P, a rescan of the walks for ZERO and two more sorts of
them, this took the `large` benchmark's job_ms_p90 from 0.670 to
0.540 ms (medians of ten alternating 20 s pairs, 2-vCPU machine,
Python 3.11.7).
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable, Iterator
from operator import attrgetter, itemgetter

from . import abutments, ar, tilting
from .gluing import Glued, glue
from .kupisch import ZERO, Coord, KupischSeries, _check_int, coord_to_json, \
    lambda_mh, linear_quiver_algebra
from .tilting import Fracture, Fracturing


class Verdict:
    """Outcome of a check.  stream() yields the failure records afresh;
    failures collects them on first read.  orbit is the tuple of pairs,
    or a function that builds it on first read, after which it is kept.
    == compares ok, candidate, orbit.  The fields are read-only."""

    __slots__ = ("_ok", "_candidate", "_orbit", "_stream", "_failures")

    def __init__(self, ok: bool, candidate: tuple[Coord, ...],
                 orbit: tuple[tuple[Coord, Coord], ...],  # (x, tau_n_inv x)
                 stream: Callable[[], Iterator[dict]] = tuple):
        self._ok = ok
        self._candidate = candidate
        self._orbit = orbit
        self._stream = stream

    ok = property(attrgetter("_ok"))
    candidate = property(attrgetter("_candidate"))
    stream = property(attrgetter("_stream"))

    @property
    def orbit(self) -> tuple[tuple[Coord, Coord], ...]:
        orbit = self._orbit
        if callable(orbit):
            self._orbit = orbit = orbit()
        return orbit

    @property
    def failures(self) -> tuple[dict, ...]:
        try:
            return self._failures
        except AttributeError:
            self._failures = failures = tuple(self._stream())
            return failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._ok, self._candidate, self.orbit) == \
            (other._ok, other._candidate, other.orbit)

    def __hash__(self):
        return hash((self._ok, self._candidate, self.orbit))

    def __repr__(self):
        return (f"Verdict(ok={self._ok!r}, candidate={self._candidate!r}, "
                f"orbit={self.orbit!r})")

    def __reduce__(self):  # any protocol; failures are read again
        return Verdict, (self._ok, self._candidate, self.orbit, self._stream)

    def __bool__(self):
        return self._ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "candidate": [coord_to_json(c) for c in self.candidate],
            "orbit": [[coord_to_json(a), coord_to_json(b)]
                      for a, b in self.orbit],
            "failures": list(self.failures),
        }


def _fail(condition: int, coord, detail: str) -> dict:
    return {"condition": condition, "coord": coord_to_json(coord),
            "detail": detail}


def _closure(K: KupischSeries, n: int, seed, dr) -> tuple[dict, bool]:
    """Close seed under the inverse higher translate (dropping ZERO); map
    each module x of the closure outside I_R = I Δ dr to (tau_n_inv x,
    its cosyzygy count), and say whether one of those walks ended at
    ZERO.  A module of I_R is not recorded: an injective there ends its
    orbit without a walk, as tau_n_inv sends it to ZERO, and any other
    is walked once, only to follow its orbit on."""
    walks: dict[Coord, tuple] = {}
    passed = set()  # the modules of I_R walked so far
    vanished = False
    v, up = K._v, ar._up
    for x in seed:  # follow the tau_n^- orbit of x until it is known
        while x is not ZERO and x not in walks:
            injective = x[1] == v[x[0]]
            if injective != (x in dr):  # x in I_R
                if injective or x in passed:
                    break
                passed.add(x)
                x = up(K, x, n - 1)[0]
            else:
                walks[x] = w = up(K, x, n - 1)
                x = w[0]
                if x is ZERO:
                    vanished = True
    return walks, vanished


def _merged(rest, ir) -> tuple[Coord, ...]:
    """The union of the disjoint sequences rest and ir, sorted: ir is
    sorted, and timsort finds it as a run."""
    return tuple(sorted([*rest, *ir]))


def _pi(K: KupischSeries) -> list:
    """[P minus I, I, P ∪ I] of the series, sorted, memoized on it at its
    first check; P ∪ I is None until a closed-form check_nct reads it.
    P minus I is read off u and v in one pass: the projective
    (s - u(s), u(s)) on each co-diagonal s, where it is not the
    injective of its diagonal."""
    if K._pi is None:
        v = K._v
        K._pi = [[(s - j, j) for s, j in enumerate(K._u[2:], 2)
                  if j != v[s - j]], K.injectives(), None]
    return K._pi


def _stream(K: KupischSeries, n: int, dl, cand, walks,
            missing) -> Iterator[dict]:
    """The failure records in order 1; 2 forward, backward, inverted; 3; 4.
    walks maps C minus I_R to (tau_n_inv y, k), missing lists the
    fractured projectives outside an explicit candidate.  The stream
    reads walks into up in the order of the sorted cand and fills down:
    x -> (tau_n x, k) for x in C minus P_L, with P_L = P Δ dl."""
    for x in missing:
        yield _fail(1, x, "fractured projective missing")
    up = {y: walks[y] for y in cand if y in walks}
    down, u = {}, K._u
    for x in (x for x in cand if (x[1] == u[x[0] + x[1]]) == (x in dl)):
        down[x] = w = ar._down(K, x, n - 1)
        if (y := w[0]) not in up:
            yield _fail(2, x, f"tau_n({x}) = {y} not in candidate minus "
                              f"fractured injectives")
    yield from (_fail(2, y, f"tau_n_inv({y}) = {x} not in candidate minus "
                            f"fractured projectives")
                for y, (x, _) in up.items() if x not in down)
    yield from (_fail(2, x, f"tau_n not inverted at {x}")
                for x, (y, _) in down.items() if y in up and up[y][0] != x)
    yield from (_fail(2, y, f"tau_n_inv not inverted at {y}")
                for y, (x, _) in up.items() if x in down and down[x][0] != y)
    yield from (_fail(3, x, f"syzygy^{k + 1}({x}) vanishes before order {n}")
                for x, (_, k) in down.items() if k < n - 1)
    yield from (_fail(4, y, f"cosyzygy^{k + 1}({y}) vanishes before order {n}")
                for y, (_, k) in up.items() if k < n - 1)


def _orbit(K, walks, cand, dl) -> tuple[tuple[Coord, Coord], ...]:
    """(y, tau_n_inv y) for y in C minus I_R, in sorted order, with
    tau_n_inv y in C minus P_L."""
    cs, u = set(cand), K._u
    return tuple((y, x) for y in cand if y in walks
                 and (x := walks[y][0]) in cs
                 and (x[1] == u[x[0] + x[1]]) == (x in dl))


def _check(K: KupischSeries, n: int, dl, dr, candidate) -> Verdict:
    """check_fractured for P_L = P Δ dl and I_R = I Δ dr.  I is read
    from the memo of the series, and so is P minus I, which seeds the
    closure of a check with no flips; P itself is built only for a check
    with flips or an explicit candidate.  The walks of C minus I_R
    decide a failing verdict when one ends at ZERO; only otherwise does
    the stream walk C minus P_L, up to its first record."""
    pni, i, _ = _pi(K)
    ir = sorted(dr.symmetric_difference(i)) if dr else i
    if candidate is None and not (dl or dr):
        pl = pni  # P_L minus I_R; the rest of P_L ends its orbit at once
    else:
        pl = K.projectives()
        if dl:
            pl = sorted(dl.symmetric_difference(pl))
    if candidate is None:
        # the closure holds exactly C minus I_R, with its walks; it
        # contains the part of its seed P_L outside I_R, so condition 1
        # cannot fail
        walks, vanished = _closure(K, n, pl, dr)
        cand = _merged(walks, ir)
        missing = ()
    else:
        cset = {K.check_exists(x) for x in candidate}
        cand = tuple(sorted(cset))
        walks, vanished = {}, False
        for y in cand:
            if (y[1] == K._v[y[0]]) == (y in dr):
                walks[y] = w = ar._up(K, y, n - 1)
                vanished = vanished or w[0] is ZERO
        missing = [x for x in pl if x not in cset]
    stream = functools.partial(_stream, K, n, dl, cand, walks, missing)
    # a walk that stops early ends at ZERO, and ZERO is never in C minus
    # P_L, so a ZERO image is a record of condition 4 or 2 (backward)
    ok = not (missing or vanished)
    if ok:
        ok = next(stream(), None) is None  # builds the first record only
    return Verdict(ok, cand, functools.partial(_orbit, K, walks, cand, dl),
                   tuple if ok else stream)


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
    dl, dr = tilting._flips(K, F, "left"), tilting._flips(K, F, "right")
    ar._check_order(n)
    return _check(K, n, dl, dr, candidate)


def _nct_stream(K: KupischSeries, n: int) -> Iterator[dict]:
    """The failure records of check_nct, from the general check."""
    return _check(K, n, frozenset(), frozenset(), None).stream()


def check_nct(K: KupischSeries, n: int) -> Verdict:
    """Cluster-tilting check: the fractured check with no flips, whose
    P_L and I_R are exactly the projectives and the injectives.

    When the series has its global dimension memoized (ar.gldim) and n
    exceeds it, the verdict needs no walk.  gldim is id of the algebra,
    so tau_n_inv sends every projective to ZERO: the candidate is P ∪ I,
    merged from the memoized P minus I and I and kept in the memo,
    the orbit is empty, and a projective that is not injective fails
    condition 2, which only m = 1 escapes.  The failures are read from
    the general check.  check_nct never computes gldim.

    Otherwise the cost is one cosyzygy walk per module of C minus I,
    seeded from the memoized P minus I, and, unless a walk vanished, one
    syzygy walk per module of C minus P up to the first failure; no list
    of P is built."""
    ar._check_order(n)
    g = K._gldim
    if g is not None and n > g:
        pni, i, pi = _pi(K)
        if pi is None:
            K._pi[2] = pi = _merged(pni, i)
        ok = K.m == 1
        return Verdict(ok, pi, (),
                       tuple if ok else functools.partial(_nct_stream, K, n))
    return _check(K, n, frozenset(), frozenset(), None)


def classify_sides(K: KupischSeries, F: Fracturing,
                   verdict: Verdict) -> dict:
    """Which sides of an ok fractured subcategory, the verdict of a check
    of K with the fracturing F, are honest: a side whose flips are empty,
    so that P_L = P (I_R = I), and cluster-tilting if both.  F is placed
    as check_fractured places it."""
    if not verdict.ok:
        raise ValueError("verdict not ok; sides are undefined")
    left = not tilting._flips(K, F, "left")
    right = not tilting._flips(K, F, "right")
    return {"left_nct": left, "right_nct": right, "nct": left and right}


class CompatReport(namedtuple("CompatReport", "compatible level_ok")):
    """compatibility_check's answer: whether the fractures agree, and
    whether the glue height dominates their levels."""

    __slots__ = ()
    compatible: bool
    level_ok: bool  # whether the glue height dominates both fracture levels

    def __bool__(self):
        return self.compatible


def compatibility_check(a_side: tuple[KupischSeries, Fracture],
                        b_side: tuple[KupischSeries, Fracture],
                        h: int) -> CompatReport:
    """Compare both fractures inside the height-h sub-foundations: the
    footed coordinate sets must coincide.  Also reports whether h is at
    least the level of both fractures, A's left and B's right, which
    glue_fractured states as its sufficient hypothesis.  Each fracture
    is placed at its own height as check_fractured places it: every
    summand footed, and as many distinct summands as its height."""
    KA, TA = a_side
    KB, TB = b_side
    if TA.side != "left" or TB.side != "right":
        raise ValueError("expected a left fracture on A and a right on B")
    _check_int("abutment height", h)
    if h > TA.height or h > TB.height:
        raise ValueError(f"glue height {h} exceeds a fracture height")
    abutments._check_abutment(KA, "left", h)
    s = abutments._check_abutment(KB, "right", h)
    # a fracture lies in its foundation: an inequality cuts out height h,
    # and the footing's shift (0 on the left) foots it
    set_a = {x for x in tilting._summands(KA, TA) if x[0] + x[1] <= h + 1}
    set_b = {(i - s, j) for i, j in tilting._summands(KB, TB) if i > s}
    return CompatReport(set_a == set_b, h >= TA.level and h >= TB.level)


def glue_fracturings(g: Glued, FB: Fracturing, FA: Fracturing) -> Fracturing:
    """Fracturing of the glued algebra: the maximal left abutment comes
    from the suffix algebra B (from A only in the trivial gluing where B
    is hereditary of the glue height), the maximal right abutment from
    the prefix algebra A (dually).  Each is its component's fracture
    moved by that component's shift (phi's b.m - h for A, 0 for B), so it
    stays tilting and maximal; the left one always moves by 0 (phi's shift
    is 0 when L is A) and is reused, as is B's right one."""
    TL = FA.TL if g.b.m == g.h else FB.TL  # trivial: L is A
    if g.a.m == g.h:  # trivial: L is B
        return Fracturing(TL, FB.TR)
    s = g._shift
    return Fracturing(TL, Fracture(
        "right", FA.TR.height, tuple((i + s, j) for i, j in FA.TR.coords)))


def glue_fractured(b_side: tuple[KupischSeries, Fracturing],
                   a_side: tuple[KupischSeries, Fracturing],
                   h: int, n: int) -> tuple[Glued, Fracturing, Verdict]:
    """Glue two fractured algebras along a height-h abutment and re-check
    the glued fracturing from scratch.

    Preconditions: both component checks ok and the fractures compatible
    at height h.  The candidate of an ok result must coincide with the
    union of the embedded component candidates.

    Sufficient hypothesis: h is at least the level of A's left fracture
    and of B's right fracture (compatibility_check's level_ok).  Every
    such gluing of fractured algebras on at most 6 vertices, n = 2..4,
    comes out ok.  It is not necessary: some gluings with h below both
    levels are ok too, so the levels are not checked here and the
    re-checked verdict is returned as it comes.
    """
    KB, FB = b_side
    KA, FA = a_side
    va, vb = check_fractured(KA, n, FA), check_fractured(KB, n, FB)
    for side, v in (("A", va), ("B", vb)):
        if not v.ok:
            raise ValueError(f"{side}-side fractured check failed: "
                             f"{next(v.stream())}")
    compat = compatibility_check((KA, FA.TL), (KB, FB.TR), h)
    if not compat.compatible:
        raise ValueError("fractures do not agree on the glued foundation")

    g = glue(KB, KA, h)
    F = glue_fracturings(g, FB, FA)
    verdict = check_fractured(g.result, n, F)
    if verdict.ok:
        s = g._shift
        union = {(i + s, j) for i, j in va.candidate}.union(vb.candidate)
        if union != set(verdict.candidate):
            raise RuntimeError(
                "glued candidate differs from the union of the components")
    return g, F, verdict


# -- slice completion ------------------------------------------------------

#: The tallest slice complete_slice accepts.  Its cost grows as h^2 (a
#: staircase slice builds h series of up to h entries; the CLI takes about
#: 0.5 s and 73 MB at h = 1000 on a 2-vCPU machine), so a taller slice is
#: refused before any work.
MAX_SLICE_HEIGHT = 1000


class CompletionStep(namedtuple("CompletionStep",
                                "kind a b height result note",
                                defaults=(None, None, None, None, ""))):
    """One step of a slice completion's trace."""

    __slots__ = ()
    kind: str  # "base", "staircase", "glue"
    a: KupischSeries | None
    b: KupischSeries | None
    height: int | None
    result: KupischSeries | None
    note: str

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


def _complete_right_series(h: int, indices: tuple[int, ...], n: int,
                           trace: list[CompletionStep]) -> KupischSeries:
    """Build an algebra whose maximal left abutment (height h) carries the
    slice and whose right fracturing is injective.  The caller's final
    check certifies it, so no step re-validates a module or a slice.

    Two cases, driven by the next-to-top slice index, each reduce the
    slice to a lower one:

    * index 2: the apex splits off; complete the down-shifted truncation
      at height h-1 and extend its staircase tail by one vertex;
    * index 1: seed the slice into the wide algebra whose inverse higher
      translate pushes it against the injective boundary, read off the
      leftover slice at the boundary, complete it and glue.

    The reductions run down to height 1, a single vertex, in a loop;
    a second loop then extends and glues back up, so a tall slice needs
    no deep stack.
    """
    pending = []  # (height, wide algebra or None for a staircase step)
    drop = 0  # the slice is (indices[k - 1] - drop, k) for k = 1..h
    while h > 1:
        if indices[h - 2] - drop == 2:
            pending.append((h, None))
            h, drop = h - 1, drop + 1
            continue
        # next-to-top index 1: push through the wide algebra
        m = n * h // 2 + indices[0] - drop if n % 2 == 0 else (n + 1) * h // 2
        base = lambda_mh(m, h)
        fracture = [(m - h + 1, h)]  # the top, then the slice's images
        for k in range(1, h):
            y = ar._up(base, (indices[k - 1] - drop, k), n - 1)[0]
            if y is ZERO:
                raise RuntimeError(
                    f"slice image vanished at length {k} over {base!r}")
            fracture.append(y)
        fracture.sort(key=itemgetter(1))
        boundary = None
        for c in reversed(fracture):
            if c[1] != base._v[c[0]]:  # not injective
                break
            boundary = c
        if boundary is None or boundary[1] == h:  # no lower slice
            raise RuntimeError(
                f"no injective run below the top over {base!r}")
        hh = boundary[1]
        pending.append((hh, base))
        # the images of length up to hh are the lower slice, shifted
        h, drop = hh, m - hh
        indices = tuple(i for i, j in fracture if j <= hh)

    K = KupischSeries([1])
    trace.append(CompletionStep("base", result=K, note="single vertex"))
    for hh, base in reversed(pending):
        sub = K
        if base is None:
            line = linear_quiver_algebra(hh)
            K = glue(line, sub, hh - 1).result
            trace.append(CompletionStep(
                "staircase", a=sub, b=line, height=hh - 1, result=K,
                note="extend staircase tail by one vertex"))
        else:
            K = glue(base, sub, hh).result
            trace.append(CompletionStep(
                "glue", a=sub, b=base, height=hh, result=K,
                note=f"glue completed height-{hh} slice below the wide "
                     f"algebra"))
    return K


def complete_slice(h: int, slice_coords, n: int, side: str):
    """Complete a slice of the height-h linear-quiver algebra into an
    algebra with a one-sided cluster-tilting subcategory.

    Right completion returns an algebra whose left fracture is the given
    slice (sitting at the maximal left abutment) and whose subcategory
    is right n-cluster-tilting; left completion is the mirror image.
    The verdict is re-checked from scratch; a failure there, or a wrong
    abutment height, raises, since it would signal a construction bug.
    A slice taller than MAX_SLICE_HEIGHT is refused before any work.

    Returns (series, fracturing, verdict, trace).
    """
    _check_int("h", h)
    _check_int("n", n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be left/right, got {side!r}")
    if h > MAX_SLICE_HEIGHT:
        raise ValueError(f"slice height {h} is more than MAX_SLICE_HEIGHT "
                         f"= {MAX_SLICE_HEIGHT}")
    indices = tilting.slice_indices(h, slice_coords)
    trace: list[CompletionStep] = []

    # every slice is tilting and slice_indices validated this one, so the
    # completed fracture is built unchecked: the final check_fractured
    # refuses one that is off the maximal abutment
    if side == "right":
        K = _complete_right_series(h, indices, n, trace)
        tl = Fracture("left", h,
                      tuple(sorted(tilting.slice_from_indices(indices))))
        F = Fracturing(tl, tilting.injective_fracture(K))
    else:
        dual = tilting.dual_slice_indices(h, indices)
        Kr = _complete_right_series(h, dual, n, trace)
        K = Kr.opposite()
        trace.append(CompletionStep(
            "base", result=K, note="mirror of the completed dual slice"))
        tr = Fracture("right", h, tuple(sorted(
            (i + K.m - h, j) for i, j in tilting.slice_from_indices(indices))))
        F = Fracturing(tilting.projective_fracture(K), tr)

    # the completed side carries the canonical fracture, maximal and of
    # level 1, so an ok verdict is honest there: classify_sides is not run
    verdict = check_fractured(K, n, F)
    if not verdict.ok:
        raise RuntimeError(
            f"slice completion failed verification: {next(verdict.stream())}")
    return K, F, verdict, trace
