"""Independent oracles for the test suite.

Modules over a bound linear quiver are realized as explicit interval
representations (dimension per vertex, 0/1 arrow matrices) and
everything is recomputed by exact linear algebra over Fractions:
existence by relation annihilation, hom spaces by solving the
commutation constraints, projective covers and injective envelopes by
maximal valid intervals with kernels/cokernels from ranks, irreducible
maps by factoring composites, and the translation by the mesh property.
None of it consults the closed-form coordinate arithmetic under test.
"""

import functools
from fractions import Fraction
from itertools import combinations

from nakayama import abutments, ar
from nakayama.abutments import foundation
from nakayama.cluster import check_nct
from nakayama.gluing import Glued, GlueReport, glue
from nakayama.kupisch import ZERO, KupischSeries, lambda_mh
from nakayama.ndgen import source_injective_pd
from nakayama.tilting import is_tilting, ka_modules

# -- exact linear algebra ---------------------------------------------------


def rank(rows):
    """Rank of a matrix given as a list of rows, over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    r = 0
    cols = len(mat[0])
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def nullspace(rows, nvars):
    """Basis of the solution space of rows . x = 0."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = {}
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots[c] = r
        r += 1
        if r == len(mat):
            break
    basis = []
    free = [c for c in range(nvars) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * nvars
        vec[fc] = Fraction(1)
        for c, row_i in pivots.items():
            vec[c] = -mat[row_i][fc]
        basis.append(vec)
    return basis


# -- interval representations ----------------------------------------------


class IntervalRep:
    """A representation of the linear quiver supported on [lo, hi],
    one-dimensional on its support, identity arrows inside."""

    def __init__(self, m, lo, hi):
        # empty interval allowed (lo > hi): the zero module
        self.m = m
        self.lo = lo
        self.hi = hi

    def dim(self, v):
        return 1 if self.lo <= v <= self.hi else 0

    def arrow(self, v):
        """Matrix of the map at arrow v -> v+1 (target dim x source dim)."""
        if self.dim(v) and self.dim(v + 1):
            return [[1]]
        return [[0] * self.dim(v) for _ in range(self.dim(v + 1))]

    def total_dim(self):
        return max(0, self.hi - self.lo + 1)

    def path_map(self, a, b):
        """Composite matrix along the path a -> b by multiplication."""
        mat = [[1]] if self.dim(a) else []
        for v in range(a, b):
            nxt = self.arrow(v)
            if not mat or not nxt or not mat[0]:
                return [[0] * self.dim(a) for _ in range(self.dim(b))]
            mat = [[sum(nxt[i][k] * mat[k][j] for k in range(len(mat)))
                    for j in range(len(mat[0]))] for i in range(len(nxt))]
        if not self.dim(a) or not self.dim(b):
            return [[0] * self.dim(a) for _ in range(self.dim(b))]
        return mat


def relations(K: KupischSeries):
    """Relation paths (start, end) of the bound quiver, unminimized."""
    return [(i, i + K.entries[i - 1]) for i in range(1, K.m + 1)
            if i + K.entries[i - 1] <= K.m]


def minimal_relations_oracle(K: KupischSeries):
    """Relation paths that contain no other relation path (quadratic)."""
    spans = relations(K)
    return [(a, b) for (a, b) in spans
            if not any((a2, b2) != (a, b) and a <= a2 and b2 <= b
                       for (a2, b2) in spans)]


def is_module(K: KupischSeries, rep: IntervalRep) -> bool:
    """All relation paths act as zero on the representation."""
    return _is_module(K, rep.lo, rep.hi)


@functools.lru_cache(maxsize=None)
def _is_module(K: KupischSeries, lo, hi) -> bool:
    # memoized per (series, interval): the sweeps ask again and again
    rep = IntervalRep(K.m, lo, hi)
    for (a, b) in relations(K):
        mat = rep.path_map(a, b)
        if any(any(x != 0 for x in row) for row in mat):
            return False
    return True


def interval_of(K: KupischSeries, coord) -> IntervalRep:
    i, j = coord
    return IntervalRep(K.m, K.m - i - j + 2, K.m - i + 1)


def coord_of_interval(K: KupischSeries, lo, hi):
    if lo > hi:
        return None
    return (K.m + 1 - hi, hi - lo + 1)


def exists_oracle(K: KupischSeries, coord) -> bool:
    i, j = coord
    lo, hi = K.m - i - j + 2, K.m - i + 1
    if lo < 1 or hi > K.m or j < 1:
        return False
    return is_module(K, IntervalRep(K.m, lo, hi))


def projective_cover_oracle(K: KupischSeries, coord):
    """The maximal valid interval with the same top; returns (lo, hi)."""
    rep = interval_of(K, coord)
    hi = rep.lo
    while hi + 1 <= K.m and is_module(K, IntervalRep(K.m, rep.lo, hi + 1)):
        hi += 1
    return (rep.lo, hi)


def injective_envelope_oracle(K: KupischSeries, coord):
    """The maximal valid interval with the same socle."""
    rep = interval_of(K, coord)
    lo = rep.hi
    while lo - 1 >= 1 and is_module(K, IntervalRep(K.m, lo - 1, rep.hi)):
        lo -= 1
    return (lo, rep.hi)


def classify_oracle(K: KupischSeries, coord) -> dict:
    rep = interval_of(K, coord)
    cover = projective_cover_oracle(K, coord)
    env = injective_envelope_oracle(K, coord)
    return {
        "projective": cover == (rep.lo, rep.hi),
        "injective": env == (rep.lo, rep.hi),
        "top": rep.lo,
        "socle": rep.hi,
        "support": (rep.lo, rep.hi),
        "dim": rep.total_dim(),
    }


def syzygy_oracle(K: KupischSeries, coord):
    """Kernel of the projective cover: the cover surjection is the
    identity on the module support, so the kernel dimension at a vertex
    is the dimension defect."""
    rep = interval_of(K, coord)
    lo, hi = projective_cover_oracle(K, coord)
    cover = IntervalRep(K.m, lo, hi)
    kdims = [v for v in range(1, K.m + 1) if cover.dim(v) > rep.dim(v)]
    if not kdims:
        return None
    assert kdims == list(range(min(kdims), max(kdims) + 1))
    return coord_of_interval(K, min(kdims), max(kdims))


def cosyzygy_oracle(K: KupischSeries, coord):
    rep = interval_of(K, coord)
    lo, hi = injective_envelope_oracle(K, coord)
    env = IntervalRep(K.m, lo, hi)
    cdims = [v for v in range(1, K.m + 1) if env.dim(v) > rep.dim(v)]
    if not cdims:
        return None
    assert cdims == list(range(min(cdims), max(cdims) + 1))
    return coord_of_interval(K, min(cdims), max(cdims))


# -- hom spaces and irreducible maps ----------------------------------------


def hom_basis(m, repM: IntervalRep, repN: IntervalRep):
    """Basis of Hom(M, N): the vertexwise scalars f_v (defined where both
    modules live) subject to f_{v+1} M_a = N_a f_v for every arrow a."""
    verts = [v for v in range(1, m + 1) if repM.dim(v) and repN.dim(v)]
    index = {v: k for k, v in enumerate(verts)}
    rows = []
    for v in range(1, m):
        ma = repM.dim(v) and repM.dim(v + 1)
        na = repN.dim(v) and repN.dim(v + 1)
        row = [Fraction(0)] * len(verts)
        if ma and na:  # both variables exist here
            row[index[v + 1]] = Fraction(1)
            row[index[v]] = Fraction(-1)
        elif ma and v + 1 in index:  # N_a = 0 forces f_{v+1} = 0
            row[index[v + 1]] = Fraction(1)
        elif na and v in index:  # M_a = 0 forces f_v = 0
            row[index[v]] = Fraction(1)
        if any(row):
            rows.append(row)
    return verts, nullspace(rows, len(verts))


def hom_dim_oracle(m, x, y) -> int:
    """dim Hom(M(x), M(y)) over the hereditary linear-quiver algebra."""
    K = _hereditary(m)
    return len(hom_basis(m, interval_of(K, x), interval_of(K, y))[1])


def _hereditary(h):
    return KupischSeries(list(range(h, 0, -1))) if h > 1 \
        else KupischSeries([1])


def ext1_dim_oracle(h, x, y) -> int:
    """dim Ext^1 over the hereditary algebra from the long exact sequence
    of the cover presentation: hom(kernel) - hom(cover) + hom(module)."""
    K = _hereditary(h)
    lo, hi = projective_cover_oracle(K, x)
    ker = syzygy_oracle(K, x)
    h_x = hom_dim_oracle(h, x, y)
    h_p = len(hom_basis(h, IntervalRep(h, lo, hi), interval_of(K, y))[1])
    if ker is None:
        return 0
    h_k = hom_dim_oracle(h, ker, y)
    return h_k - h_p + h_x


def _compose_nonzero(m, fverts, f, gverts, g):
    """Is the pointwise composite of vertexwise-scalar maps nonzero?"""
    fmap = dict(zip(fverts, f))
    gmap = dict(zip(gverts, g))
    return any(fmap.get(v, 0) * gmap.get(v, 0) != 0 for v in range(1, m + 1))


def arrows_oracle(K: KupischSeries):
    """Irreducible maps between indecomposables: nonzero hom spaces whose
    generator does not factor through a third indecomposable."""
    mods = [x for x in K.all_modules()]
    reps = {x: interval_of(K, x) for x in mods}
    homs = {}
    for x in mods:
        for y in mods:
            if x == y:
                continue
            verts, basis = hom_basis(K.m, reps[x], reps[y])
            if basis:
                homs[(x, y)] = (verts, basis[0])
    arrows = set()
    for (x, y), (vxy, fxy) in homs.items():
        factors = False
        for z in mods:
            if z in (x, y):
                continue
            if (x, z) in homs and (z, y) in homs:
                vxz, fxz = homs[(x, z)]
                vzy, fzy = homs[(z, y)]
                if _compose_nonzero(K.m, vxz, fxz, vzy, fzy):
                    factors = True
                    break
        if not factors:
            arrows.add((x, y))
    return arrows


def translation_oracle(K: KupischSeries):
    """Pin the translation by the mesh property: tau(x) is the unique
    noninjective w with successors(w) = predecessors(x) and
    dim w = sum of predecessor dims - dim x."""
    arrows = arrows_oracle(K)
    mods = K.all_modules()
    preds = {x: {a for (a, b) in arrows if b == x} for x in mods}
    succs = {x: {b for (a, b) in arrows if a == x} for x in mods}
    projective = {x for x in mods
                  if classify_oracle(K, x)["projective"]}
    injective = {x for x in mods
                 if classify_oracle(K, x)["injective"]}
    tau = {}
    for x in mods:
        if x in projective:
            continue
        middle = sum(interval_of(K, p).total_dim() for p in preds[x])
        want = middle - interval_of(K, x).total_dim()
        candidates = [w for w in mods
                      if w not in injective and succs[w] == preds[x]
                      and interval_of(K, w).total_dim() == want]
        assert len(candidates) == 1, (x, candidates)
        tau[x] = candidates[0]
    return tau


# -- the AR quiver as a graph -------------------------------------------------


def predecessors(gamma, x):
    return [a for (a, b) in gamma.arrows if b == x]


def successors(gamma, x):
    return [b for (a, b) in gamma.arrows if a == x]


def verify_foundation_shape(gamma, side: str, apex) -> bool:
    """Check on the AR quiver itself that the triangle below ``apex`` is
    complete and sealed: no external in-arrows on the left side, no
    external out-arrows on the right side.  The oracle for the
    closed-form abutment height rules."""
    vset = set(gamma.vertices)
    if apex not in vset:
        raise ValueError(f"apex {apex} not in the quiver")
    ia, ja = apex
    triangle = {(i, j) for j in range(1, ja + 1)
                for i in range(ia, ia + ja - j + 1)}
    if not triangle <= vset:
        return False
    if side == "left":
        return all(a in triangle for (a, b) in gamma.arrows if b in triangle)
    if side == "right":
        return all(b in triangle for (a, b) in gamma.arrows if a in triangle)
    raise ValueError(f"side must be left/right, got {side!r}")


def tau_n_closed_lambda_mh(m: int, h: int, n: int, x, direction: str):
    """Closed form of the higher translate over the algebra (h^(m-h+1),
    h-1, ..., 1), bypassing the stepwise (co)syzygy chain.

    direction 'forward' needs x nonprojective, 'backward' noninjective;
    ZERO is returned when the target coordinate leaves the quiver.
    """
    K = lambda_mh(m, h)
    i, j = K.check_exists(x)
    if direction == "forward":
        if K.is_projective(x):
            raise ValueError(f"{x} is projective over Lambda_({m},{h})")
        if n % 2 == 0:
            target = (i + j - (n // 2) * h - 1, h - j)
        else:
            target = (i - ((n - 1) // 2) * h - 1, j)
    elif direction == "backward":
        if K.is_injective(x):
            raise ValueError(f"{x} is injective over Lambda_({m},{h})")
        if n % 2 == 0:
            target = (i + j + ((n - 2) // 2) * h + 1, h - j)
        else:
            target = (i + ((n - 1) // 2) * h + 1, j)
    else:
        raise ValueError(f"direction must be forward/backward, got {direction!r}")
    return target if K.exists(target) else ZERO


# -- the fractured checker -------------------------------------------------


def _vanishing_order(K: KupischSeries, step, x, n: int):
    """The k < n-1 at which step^(k+1)(x) is the first to vanish, else None."""
    for k in range(n - 1):
        x = step(K, x)
        if x is ZERO:
            return k
    return None


def check_fractured_oracle(K: KupischSeries, n: int, F, candidate=None):
    """The four conditions of cluster.check_fractured as two loops over
    the public kernel, each translate and chain computed on its own: the
    candidate by closing the fractured projectives under tau_n_inv, then
    one loop per direction collecting condition 2 and 3 (4) failures."""
    from nakayama.ar import cosyzygy, syzygy, tau_n, tau_n_inv
    from nakayama.cluster import Verdict
    from nakayama.kupisch import coord_to_json
    from nakayama.tilting import iR_category, pL_category

    def fail(condition, coord, detail):
        return {"condition": condition, "coord": coord_to_json(coord),
                "detail": detail}

    pl = set(pL_category(K, F))
    ir = set(iR_category(K, F))
    if candidate is None:
        cset = set(pl)
        frontier = list(pl)
        while frontier:
            y = tau_n_inv(K, n, frontier.pop())
            if y is not ZERO and y not in cset:
                cset.add(y)
                frontier.append(y)
        cset |= ir
    else:
        cset = {K.check_exists(x) for x in candidate}
    cand = sorted(cset)
    failures = [fail(1, x, "fractured projective missing")
                for x in sorted(pl) if x not in cset]
    vanished = []
    forward = {}
    for x in [x for x in cand if x not in pl]:
        y = tau_n(K, n, x)
        k = _vanishing_order(K, syzygy, x, n)
        if k is not None:
            vanished.append(fail(
                3, x, f"syzygy^{k + 1}({x}) vanishes before order {n}"))
        if y is ZERO or y not in cset or y in ir:
            failures.append(fail(
                2, x, f"tau_n({x}) = {y} not in candidate minus "
                      f"fractured injectives"))
        else:
            forward[x] = y
    backward = {}
    for y in [y for y in cand if y not in ir]:
        x = tau_n_inv(K, n, y)
        k = _vanishing_order(K, cosyzygy, y, n)
        if k is not None:
            vanished.append(fail(
                4, y, f"cosyzygy^{k + 1}({y}) vanishes before order {n}"))
        if x is ZERO or x not in cset or x in pl:
            failures.append(fail(
                2, y, f"tau_n_inv({y}) = {x} not in candidate minus "
                      f"fractured projectives"))
        else:
            backward[y] = x
    for x, y in forward.items():
        if backward.get(y) != x:
            failures.append(fail(2, x, f"tau_n not inverted at {x}"))
    for y, x in backward.items():
        if forward.get(x) != y:
            failures.append(fail(2, y, f"tau_n_inv not inverted at {y}"))
    failures += vanished
    return Verdict(not failures, tuple(cand), tuple(sorted(backward.items())),
                   lambda: iter(failures))


# -- pushout of translation quivers ------------------------------------------


def pushout_matches(glued) -> bool:
    """The AR quiver of the glued algebra is the amalgamated union of the
    component AR quivers along the footing identification."""
    from nakayama import ar
    ga = ar.ar_quiver(glued.a)
    gb = ar.ar_quiver(glued.b)
    gl = ar.ar_quiver(glued.result)
    verts = {glued.phi(x) for x in ga.vertices} | \
            {glued.psi(x) for x in gb.vertices}
    if verts != set(gl.vertices):
        return False
    arrows = {(glued.phi(a), glued.phi(b)) for (a, b) in ga.arrows} | \
             {(glued.psi(a), glued.psi(b)) for (a, b) in gb.arrows}
    if arrows != set(gl.arrows):
        return False
    trans = {(glued.phi(x), glued.phi(t)) for x, t in ga.translation.items()}
    trans |= {(glued.psi(x), glued.psi(t)) for x, t in gb.translation.items()}
    return trans == set(gl.translation.items())


# -- the two gluing checkers that nakayama.gluing.check_glue replaced -------
# Kept as they were in the library: check_glue must return the same pair
# of reports, or raise the same error.


def check_glue_invariants_oracle(g: Glued) -> GlueReport:
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


def dispatch_check_oracle(g: Glued) -> GlueReport:
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


# -- brute-force forms of the linear-time library paths ----------------------


def v_oracle(K: KupischSeries, i: int) -> int:
    """Injective length on diagonal i by scanning down from the
    co-diagonal bound until a module exists (O(m) per diagonal)."""
    j = K.m + 1 - i
    while j > 1 and not K.exists((i, j)):
        j -= 1
    return j


def footing_to_ka_oracle(K: KupischSeries, side: str, h: int, x):
    """The footing by membership in the built foundation."""
    if x not in set(foundation(K, side, h)):
        raise ValueError(f"{x} not in the {side} foundation of height {h}")
    return x if side == "left" else (x[0] - (K.m - h), x[1])


def extend_by_n_oracle(K: KupischSeries, n: int) -> KupischSeries:
    """Glue a radical-square-zero chain below the source injective,
    prepending n entries of 2.  Requires an ok n-cluster-tilting check
    and a source injective of full projective dimension; the result has
    both dimensions increased by exactly n."""
    if not check_nct(K, n).ok:
        raise ValueError(f"{K!r} is not n-cluster-tilting for n = {n}")
    g = ar.gldim(K)
    if source_injective_pd(K) != g:
        raise ValueError(
            f"source injective of {K!r} does not attain gldim {g}")
    glued = glue(K, lambda_mh(n + 1, 2), 1)
    result = glued.result
    if ar.gldim(result) != g + n or source_injective_pd(result) != g + n:
        raise RuntimeError(f"extension of {K!r} did not add {n} to gldim")
    return result




def enumerate_tilting_oracle(h: int):
    """Every h-subset of the indecomposables that is tilting, in the
    order of itertools.combinations."""
    return [cand for cand in combinations(ka_modules(h), h)
            if is_tilting(h, cand)]


# -- series ------------------------------------------------------------------


def all_series(m):
    """Every valid Kupisch series of length exactly m."""
    out = [[1]]
    for i in range(m - 1, 0, -1):
        nxt = []
        for tail in out:
            for d in range(2, min(tail[0] + 1, m - i + 1) + 1):
                nxt.append([d] + tail)
        out = nxt
    return [KupischSeries(s) for s in out]




def random_series(rng, max_m, min_m=1) -> KupischSeries:
    """Uniformly-ish random valid Kupisch series, built back to front."""
    m = rng.randint(min_m, max_m)
    entries = [1]
    for i in range(m - 1, 0, -1):
        hi = min(entries[0] + 1, m - i + 1)
        entries.insert(0, rng.randint(2, hi) if hi >= 2 else 2)
    return KupischSeries(entries)
