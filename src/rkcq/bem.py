"""2D Galerkin boundary elements for the operator -Delta + s^2.

Piecewise-constant densities on closed polygonal curves.  The module
assembles the single-layer matrix V(s), the averaged double-layer boundary
matrix Kd(s), and wraps the two frequency-domain solution operators

    InverseSingleLayer:  s -> V(s)^{-1} M
    ExteriorDtN:         s -> V(s)^{-1} (-1/2 M + Kd(s))

as matrix-valued transfer functions for the convolution-quadrature engine
(M is the panel-length mass matrix; inputs are panel-midpoint samples).

Quadrature: a closed-form treatment of the log singularity on the
diagonal, and one tensor-product block routine (_pair_block) for every
other pair: Gauss-Legendre on each panel for well-separated pairs, and the
tensor square of a rule graded geometrically toward the shared vertex for
panels that touch.  One order rule (_gl_orders) sets both from the
oscillation of e^{-s r} along a panel or a graded cell.  Pairs whose kernel
is below e^-60 everywhere are skipped.  Congruent panel pairs have equal
entries, so a per-mesh pair plan groups the pairs into congruence classes
and every frequency evaluates one representative per class; the unit
circle has n//2 + 1 classes and exactly symmetric circulant matrices.  The
discrete Fourier modes diagonalize every operator there, and
BemTransfer.symbol returns the transfer operator's eigenvalues on the
real-FFT lanes.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bessel import bessel_k0, k0k1
from .engine import TransferFunction
from .kernels import snake_name

__all__ = [
    "BoundaryMesh",
    "ScatteringProblem",
    "make_mesh",
    "mesh_to_json",
    "mesh_from_json",
    "assemble_V",
    "assemble_pair",
    "mass_matrix",
    "BemTransfer",
    "make_transfer",
    "make_mode_transfer",
    "error_metric",
]

_EULER_GAMMA = 0.5772156649015328606

_LSHAPE_CORNERS = np.array(
    [[1.0, 0.1], [0.1, 0.1], [0.1, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
)

@lru_cache(maxsize=None)
def _rule01(n):
    """n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


_X16, _W16 = _rule01(16)


def _gl_orders(s, length):
    """Gauss-Legendre orders resolving the e^{-s r} phase along lengths.

    The phase varies by up to |s| length along an interval, i.e.
    w = |s| length / 2 in the Gauss variable, and an n-point rule drives
    the e^{iwt} error into its super-exponential regime once
    n >= 0.625 w + 8; at n = w/2 the decay has not yet engaged and errors
    plateau near 1e-8.  Entry errors must stay tiny relative to the
    smallest singular value of V (itself ~ 1/|s|), since V^{-1} and the
    lambda^{-n} unscaling of the weight transform both amplify them.
    """
    w = np.abs(s) * np.asarray(length) / 2.0
    return np.clip(np.ceil(0.625 * w).astype(int) + 8, 8, 48)


_GRADE_Q = 0.15
_GRADE_LEVELS = 6
# cell edges of the graded rule, innermost first; the number of levels sets
# the floor left by the unresolved log corner, area (q^levels)^2
_GRADE_EDGES = [0.0] + [_GRADE_Q ** k for k in range(_GRADE_LEVELS - 1, -1, -1)]
_GRADE_SPANS = np.diff(_GRADE_EDGES)


@lru_cache(maxsize=None)
def _graded_rule(orders):
    """Gauss-Legendre rule on [0, 1] graded geometrically toward 0.

    orders gives the order on each cell, innermost first; the phase load
    of a cell scales with its width, so outer cells need the high orders
    and the cells at 0 stay cheap.
    """
    cells = list(zip(_GRADE_EDGES[:-1], _GRADE_EDGES[1:], orders))
    x = np.concatenate([a + (b - a) * _rule01(n)[0] for a, b, n in cells])
    w = np.concatenate([(b - a) * _rule01(n)[1] for a, b, n in cells])
    return x, w


@dataclass(eq=False)
class BoundaryMesh:
    """Closed positively oriented polygonal curve, one dof per panel."""

    kind: str
    vertices: np.ndarray
    panels: np.ndarray
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    mid: np.ndarray = field(init=False)
    length: np.ndarray = field(init=False)
    normal: np.ndarray = field(init=False)

    def __post_init__(self):
        self.a = self.vertices[self.panels[:, 0]]
        self.b = self.vertices[self.panels[:, 1]]
        self.mid = (self.a + self.b) / 2.0
        d = self.b - self.a
        self.length = np.linalg.norm(d, axis=1)
        if np.any(self.length <= 0):
            raise ValueError("degenerate panel of zero length")
        t = d / self.length[:, None]
        self.normal = np.column_stack([t[:, 1], -t[:, 0]])
        self._gl = {}
        self._v1 = None
        self._plan = None

    @property
    def n(self):
        return len(self.panels)

    @property
    def circulant(self):
        """True when the mesh is rotation-invariant, so that V, Kd and M
        are symmetric circulant (the unit circle): the predicate of the
        per-Fourier-mode route."""
        return self.kind == "unit_circle"

    def gl_points(self, order=8):
        """order-point Gauss-Legendre nodes and weights on every panel."""
        got = self._gl.get(order)
        if got is None:
            xg, wg = _rule01(order)
            P = self.a[:, None, :] + xg[None, :, None] * (self.b - self.a)[:, None, :]
            W = wg[None, :] * self.length[:, None]
            got = self._gl[order] = (P, W)
        return got

    def v_one(self):
        """Cached V(1), the norm-equivalence Gram matrix."""
        if self._v1 is None:
            self._v1 = assemble_V(1.0, self)
        return self._v1

    def pair_plan(self):
        """Cached s-independent pair plan (_PairPlan over the congruence
        classes of _congruence_maps); every frequency reuses it."""
        if self._plan is None:
            self._plan = _PairPlan(self, *_congruence_maps(self))
        return self._plan


def _norm_name(name):
    s = snake_name(name)
    return {"circle": "unit_circle", "lshape": "l_shape"}.get(s, s)


def _largest_remainder(weights, n):
    raw = n * weights / weights.sum()
    base = np.floor(raw).astype(int)
    rem = raw - base
    short = n - base.sum()
    # deterministic: ties broken by index order
    order = np.argsort(-rem, kind="stable")
    base[order[:short]] += 1
    return base


def make_mesh(geometry, n):
    """Mesh the unit circle (n equal chords) or the L-shaped hexagon
    (panels allocated to sides proportionally to side length)."""
    g = _norm_name(geometry)
    if n < 8:
        raise ValueError("need at least 8 panels, got %d" % n)
    if g == "unit_circle":
        th = 2.0 * np.pi * np.arange(n) / n
        verts = np.column_stack([np.cos(th), np.sin(th)])
    elif g == "l_shape":
        corners = _LSHAPE_CORNERS
        sides = np.roll(corners, -1, axis=0) - corners
        alloc = _largest_remainder(np.linalg.norm(sides, axis=1), n)
        if np.any(alloc < 1):
            raise ValueError("panel count %d leaves a side without panels" % n)
        parts = []
        for k in range(len(corners)):
            t = np.arange(alloc[k])[:, None] / alloc[k]
            parts.append(corners[k] + t * sides[k])
        verts = np.vstack(parts)
    else:
        raise ValueError("unknown geometry %r" % geometry)
    idx = np.arange(len(verts))
    pan = np.column_stack([idx, (idx + 1) % len(verts)])
    return BoundaryMesh(kind=g, vertices=verts, panels=pan)


def mesh_to_json(mesh):
    return json.dumps(
        {"kind": mesh.kind, "vertices": mesh.vertices.tolist(), "panels": mesh.panels.tolist()}
    )


def mesh_from_json(text):
    d = json.loads(text)
    return BoundaryMesh(
        kind=d.get("kind", "custom"),
        vertices=np.asarray(d["vertices"], dtype=float),
        panels=np.asarray(d["panels"], dtype=int),
    )


def _self_weighted_k0_integral(s, ell, kmax=30):
    """int_0^ell (ell - r) K0(s r) dr, exact log-part handling.

    The ascending series K0(sr) = -(log r) I0(sr) - (log(s/2)+g) I0(sr) + S(sr)
    is integrated term by term against (ell - r); powers and power-log
    moments have closed forms.  When |s| ell > 5 the series covers only
    [0, 5/|s|] and the smooth remainder is done by composite Gauss-Legendre
    with panel count tied to |s| (resolves the e^{-sr} oscillation).
    """
    s = complex(s)
    X = min(ell, 5.0 / abs(s))
    lg = np.log(s / 2.0) + _EULER_GAMMA
    logX = np.log(X)
    q = s * s / 4.0
    a = 1.0 + 0.0j
    hk = 0.0
    core = 0.0 + 0.0j
    for k in range(kmax + 1):
        if k > 0:
            a = a * q / (k * k)
            hk += 1.0 / k
        tw = 2 * k + 1
        tv = 2 * k + 2
        Jk = ell * X ** tw / tw - X ** tv / tv
        Jlog = logX * Jk - (ell * X ** tw / tw ** 2 - X ** tv / tv ** 2)
        core = core + a * (-Jlog - lg * Jk + hk * Jk)
    if X >= ell:
        return core
    npan = int(np.ceil(abs(s) * (ell - X) / 4.0)) + 2
    edges = np.linspace(X, ell, npan + 1)
    r = edges[:-1, None] + np.diff(edges)[:, None] * _X16[None, :]
    w = np.diff(edges)[:, None] * _W16[None, :]
    vals = bessel_k0(s * r.ravel()).reshape(r.shape)
    return core + np.sum(w * (ell - r) * vals)


def _frame_coordinates(mesh, j):
    """Coordinates of every panel's endpoints in the frames of panels j.

    The frame of panel j has origin a_j and axes t_j and n_j.  Returns the
    x arrays (xa, xb, l_j - xa, l_j - xb) and the y arrays (ya, yb), each
    (n, len(j)) with [i, k] for panel i in frame j[k].  The reflection
    x -> l_j - x reverses panel j and keeps its normal; it maps panel i onto
    the panel from (l_j - xb, yb) to (l_j - xa, ya), which carries the
    reflected normal, so both forms of a pair give the same V and Kd.
    """
    t = (mesh.b[j] - mesh.a[j]) / mesh.length[j][:, None]
    nj = mesh.normal[j]
    ox = np.einsum("kd,kd->k", mesh.a[j], t)
    oy = np.einsum("kd,kd->k", mesh.a[j], nj)
    xa, xb = mesh.a @ t.T - ox, mesh.b @ t.T - ox
    ell = mesh.length[j]
    return (xa, xb, ell - xa, ell - xb), (mesh.a @ nj.T - oy, mesh.b @ nj.T - oy)


def _singleton_maps(n):
    """Class maps (see _congruence_maps) with every unordered pair its own
    class."""
    iu, ju = np.triu_indices(n)
    vmap = np.empty((n, n), dtype=np.int32)
    vmap[iu, ju] = vmap[ju, iu] = np.arange(iu.size)
    return vmap, 2 * vmap + np.tri(n, k=-1, dtype=np.int32)


# frames per block of the class build: its coordinate arrays stay (n, 32),
# so building a plan adds no n^2-sized float arrays to the peak memory
_FRAME_BLOCK = 32


def _congruence_maps(mesh):
    """Congruence classes of the unordered panel pairs, as two (n, n) maps.

    The key of an ordered pair (i, j) is the smaller form of panel i's
    endpoints in panel j's frame (_frame_coordinates), and the class of
    {i, j} is keyed by (key_ij, key_ji), sorted.  The coordinates carry
    roundoff of about 1e-16 / l_j (4e-14 on the 512-panel circle), so they
    are compared as clusters: the cells of width 1e-10 that hold a
    coordinate, adjacent cells merged (rounding to 12 digits gave the
    256-panel circle 140 classes in place of 129).  Equal coordinates
    share a cluster wherever distinct ones lie further apart than 2e-10.
    The frames are visited in blocks, once to find the clusters and once
    to key the pairs.

    vmap[i, j] is the class of {i, j}, whose representative is its first
    member in row-major order of the upper triangle; kmap[i, j] is
    2 vmap[i, j] when Kd_ij equals the representative (r, q)'s Kd_rq and
    2 vmap[i, j] + 1 when it equals its Kd_qr.  A pair congruent to its own
    transpose (key_ij = key_ji) takes Kd_rq both ways.
    """
    n = mesh.n
    tol = 1e-10 * np.abs(mesh.vertices).max()
    blocks = [np.arange(k, min(k + _FRAME_BLOCK, n)) for k in range(0, n, _FRAME_BLOCK)]
    found = ([], [])
    for j in blocks:
        for cells, coords in zip(found, _frame_coordinates(mesh, j)):
            cells.extend(np.unique(np.floor(v / tol)) for v in coords)
    cx, cy = (np.unique(np.concatenate(cells)) for cells in found)
    ix, iy = (np.cumsum(np.diff(c, prepend=c[0] - 2.0) > 1.0) - 1 for c in (cx, cy))
    ny = int(iy[-1]) + 1
    npts = (int(ix[-1]) + 1) * ny
    if npts >= 3e9:
        # too many distinct coordinates to key a pair in 63 bits; such a
        # mesh has next to no congruent pairs
        return _singleton_maps(n)

    def point(x, y):
        rx = ix[np.searchsorted(cx, np.floor(x / tol))]
        return rx * ny + iy[np.searchsorted(cy, np.floor(y / tol))]

    key = np.empty((n, n), dtype=np.int64)
    for j in blocks:
        (xa, xb, rxa, rxb), (ya, yb) = _frame_coordinates(mesh, j)
        key[:, j] = np.minimum(point(xa, ya) * npts + point(xb, yb),
                               point(rxb, yb) * npts + point(rxa, ya))
    iu, ju = np.triu_indices(n)
    kij, kji = key[iu, ju], key[ju, iu]
    swap = kji < kij
    pair = np.stack([np.minimum(kij, kji), np.maximum(kij, kji)], axis=1)
    _, first, cls = np.unique(pair, axis=0, return_index=True, return_inverse=True)
    cls = cls.reshape(-1)
    flip = swap ^ swap[first][cls]
    sym = kij == kji
    vmap = np.empty((n, n), dtype=np.int32)
    vmap[iu, ju] = vmap[ju, iu] = cls
    kmap = np.empty_like(vmap)
    kmap[iu, ju] = 2 * cls + flip
    kmap[ju, iu] = 2 * cls + (~flip & ~sym)
    return vmap, kmap


def _touching_geometry(mesh, i, j):
    """Shared vertex v, far ends fi and fj, normals ni and nj and the
    lengths of the touching pairs (i, j)."""
    fwd = np.all(np.abs(mesh.b[i] - mesh.a[j]) <= 1e-13, axis=1)
    bwd = np.all(np.abs(mesh.a[i] - mesh.b[j]) <= 1e-13, axis=1)
    if not np.all(fwd | bwd):
        k = np.argmin(fwd | bwd)
        raise ValueError("panels %d,%d do not share a vertex" % (i[k], j[k]))
    f = fwd[:, None]
    v = np.where(f, mesh.b[i], mesh.a[i])
    fi = np.where(f, mesh.a[i], mesh.b[i])
    fj = np.where(f, mesh.b[j], mesh.a[j])
    return v, fi, fj, mesh.normal[i], mesh.normal[j], mesh.length[i], mesh.length[j]


def _point_segment_distance(p, a, d, dd):
    t = np.clip(np.einsum("kd,kd->k", p - a, d) / dd, 0.0, 1.0)
    return np.linalg.norm(a + t[:, None] * d - p, axis=1)


def _pair_r_bounds(mesh, iu, ju):
    """Min and max of |x - y| over each panel pair's product domain.

    Panels of a simple closed polygon never cross, so the minimum over two
    disjoint segments is attained at an endpoint of one against the other:
    four clamped point-segment distances cover it.  The maximum is always
    at a corner pair.
    """
    a1, b1 = mesh.a[iu], mesh.b[iu]
    a2, b2 = mesh.a[ju], mesh.b[ju]
    d1, d2 = b1 - a1, b2 - a2
    dd1 = np.einsum("kd,kd->k", d1, d1)
    dd2 = np.einsum("kd,kd->k", d2, d2)
    corner = np.stack(
        [
            np.linalg.norm(a1 - a2, axis=1),
            np.linalg.norm(a1 - b2, axis=1),
            np.linalg.norm(b1 - a2, axis=1),
            np.linalg.norm(b1 - b2, axis=1),
        ]
    )
    rmax = corner.max(axis=0)
    rmin = np.minimum(
        np.minimum(
            _point_segment_distance(a1, a2, d2, dd2),
            _point_segment_distance(b1, a2, d2, dd2),
        ),
        np.minimum(
            _point_segment_distance(a2, a1, d1, dd1),
            _point_segment_distance(b2, a1, d1, dd1),
        ),
    )
    return rmin, rmax


class _PairPlan:
    """The s-independent part of a mesh's assembly.

    Built from the class maps of _congruence_maps: each class's values are
    computed once per frequency, on its representative (r, q), as V_rq,
    Kd_rq and Kd_qr, and every matrix entry is gathered from them through
    vmap and kmap.  The classes split by kind into the diagonal (panel
    lengths), touching pairs (_touching_geometry) and far pairs (r-bounds
    and the effective length that sets the quadrature order).
    """

    def __init__(self, mesh, vmap, kmap):
        n = mesh.n
        iu, ju = np.triu_indices(n)
        _, first = np.unique(vmap[iu, ju], return_index=True)
        ri, rj = iu[first], ju[first]
        self.vmap, self.kmap, self.size = vmap, kmap, first.size
        diag = ri == rj
        touch = (rj - ri == 1) | ((ri == 0) & (rj == n - 1))
        far = ~(diag | touch)
        self.diag = np.flatnonzero(diag)
        self.diag_length = mesh.length[ri[diag]]
        self.touch = np.flatnonzero(touch)
        self.touch_geometry = _touching_geometry(mesh, ri[touch], rj[touch])
        self.far = np.flatnonzero(far)
        self.far_i, self.far_j = ri[far], rj[far]
        rmin, rmax = _pair_r_bounds(mesh, self.far_i, self.far_j)
        lmax = np.maximum(mesh.length[self.far_i], mesh.length[self.far_j])
        self.rmin = rmin
        # the kernel phase along one panel varies with r, whose total
        # variation at fixed y is bounded both by the panel length and by
        # twice the pair's radial spread, so pairs that face each other
        # broadside resolve with far fewer points than end-on ones
        self.leff = np.minimum(lmax, 2.0 * (rmax - rmin))


def _pair_block(s, Pi, Wi, Pj, Wj, ni, nj, with_kd):
    """V and (with_kd) the (Kd_ij, Kd_ji) values of a block of panel pairs.

    Each pair (i, j) is integrated by a tensor product rule: Pi and Wi are
    the (p, g, 2) points and (p, g) weights of its factor on panel i, Pj
    and Wj (p, h, 2) and (p, h) on panel j, and ni, nj the (p, 2) panel
    normals.  R is symmetric, so one K0/K1 evaluation serves V and both Kd
    orientations (they differ just in which panel's normal enters the dot
    factor and in the sign of the difference vector).  Returns the (p,)
    values of V and the (p, 2) values of Kd, None without with_kd.
    """
    dv = Pj[:, None, :, :] - Pi[:, :, None, :]
    R = np.linalg.norm(dv, axis=3)
    if not with_kd:
        return np.einsum("pg,ph,pgh->p", Wi, Wj, bessel_k0(s * R)) / (2.0 * np.pi), None
    k0v, k1v = k0k1(s * R)
    dotu = np.einsum("pghd,pd->pgh", dv, nj) / R
    dotl = -np.einsum("pghd,pd->pgh", dv, ni) / R
    kd = np.stack([np.einsum("pg,ph,pgh->p", Wi, Wj, k1v * dotu),
                   np.einsum("pg,ph,pgh->p", Wi, Wj, k1v * dotl)], axis=1)
    return np.einsum("pg,ph,pgh->p", Wi, Wj, k0v) / (2.0 * np.pi), -s / (2.0 * np.pi) * kd


# e^{-Re(s) r} bound on K0/K1 below which a pair contributes nothing: at 60
# the kernel is ~1e-27, vanishing next to the near-diagonal entries even
# after the CQ contour's lambda^{-N} roundoff amplification
_DEAD_EXPONENT = 60.0


def _pair_blocks(s, mesh, plan):
    """The off-diagonal classes as _pair_block arguments, one block at a
    time: (classes, Pi, Wi, Pj, Wj, ni, nj).

    The touching classes come first, in one block.  Their rule is the
    tensor square of the graded rule toward the shared vertex vx:
    x = vx + t (fi - vx) on panel i and y = vx + t (fj - vx) on panel j,
    with weights w li and w lj, every graded cell taking its order from its
    width on the longest touching panel (not rounded: the graded rule is
    not converged at its lowest orders, and 9 -> 10 moves touching Kd
    entries by up to 1.2e-7 relative).  The far classes follow in chunks
    of pairs that share a Gauss-Legendre order, rounded up to even to halve
    the mesh's cache of panel points; pairs beyond the dead exponent are
    left out and keep their zeros.
    """
    vx, fi, fj, ni, nj, li, lj = plan.touch_geometry
    lmax = max(li.max(), lj.max())
    t, w = _graded_rule(tuple(_gl_orders(s, _GRADE_SPANS * lmax).tolist()))
    yield (plan.touch,
           vx[:, None, :] + t[None, :, None] * (fi - vx)[:, None, :], w * li[:, None],
           vx[:, None, :] + t[None, :, None] * (fj - vx)[:, None, :], w * lj[:, None], ni, nj)
    orders = (_gl_orders(s, plan.leff) + 1) & ~1
    live = s.real * plan.rmin <= _DEAD_EXPONENT
    cls, iu, ju, orders = plan.far[live], plan.far_i[live], plan.far_j[live], orders[live]
    for o in np.unique(orders):
        sel = orders == o
        co, io, jo = cls[sel], iu[sel], ju[sel]
        P, W = mesh.gl_points(int(o))
        chunk = max(32, 500_000 // int(o * o))
        for p0 in range(0, io.size, chunk):
            c, ic, jc = co[p0 : p0 + chunk], io[p0 : p0 + chunk], jo[p0 : p0 + chunk]
            yield c, P[ic], W[ic], P[jc], W[jc], mesh.normal[ic], mesh.normal[jc]


def _assemble(s, mesh, plan, with_kd=True):
    """Per-class values v of V and kd of Kd (None without with_kd).

    Each class is evaluated on its representative (r, q) only: the closed
    form on the diagonal (where Kd vanishes) and _pair_block on every other
    pair.  V is v[plan.vmap] and Kd is kd.ravel()[plan.kmap], kd[c] holding
    (Kd_rq, Kd_qr).
    """
    v = np.zeros(plan.size, dtype=complex)
    kd = np.zeros((plan.size, 2), dtype=complex) if with_kd else None
    for c, ell in zip(plan.diag, plan.diag_length):
        v[c] = 2.0 * _self_weighted_k0_integral(s, float(ell)) / (2.0 * np.pi)
    for c, *block in _pair_blocks(s, mesh, plan):
        v[c], kc = _pair_block(s, *block, with_kd)
        if with_kd:
            kd[c] = kc
    return v, kd


def _frequency(s):
    s = complex(s)
    if s.real <= 0:
        raise ValueError("assembly requires Re s > 0")
    return s


def assemble_pair(s, mesh):
    """Assemble (V(s), Kd(s)) in one pass over the mesh's pair plan."""
    plan = mesh.pair_plan()
    v, kd = _assemble(_frequency(s), mesh, plan)
    return v[plan.vmap], kd.ravel()[plan.kmap]


def assemble_V(s, mesh):
    """Galerkin single-layer matrix V_ij = (1/2pi) int_i int_j K0(s|x-y|).

    Only K0 is evaluated; the result equals assemble_pair(s, mesh)[0] bit
    for bit.
    """
    plan = mesh.pair_plan()
    return _assemble(_frequency(s), mesh, plan, with_kd=False)[0][plan.vmap]


def mass_matrix(mesh):
    return np.diag(mesh.length)


@dataclass(frozen=True)
class ScatteringProblem:
    """Geometry, operator and data selection for one time-domain run."""

    geometry: str
    operator: str
    datum: str
    T: float
    n_panels: int
    N_t: int


class BemTransfer:
    """Picklable frequency-domain solution operator: frequencies of shape S
    -> n x n matrices of shape S + (n, n).

    operator 'inverse_single_layer' maps midpoint boundary data to the
    density solving V phi = data (weak form); 'exterior_dtn' maps Dirichlet
    data to the outward normal derivative of the exterior solution.  Each
    frequency takes one assembly and one dense solve, on every mesh.
    """

    def __init__(self, mesh, operator):
        op = _norm_name(operator)
        if op not in ("inverse_single_layer", "exterior_dtn"):
            raise ValueError("unknown operator %r" % operator)
        self.mesh = mesh
        self.operator = op

    def __getstate__(self):
        return {"mesh": mesh_to_json(self.mesh), "operator": self.operator}

    def __setstate__(self, state):
        self.mesh = mesh_from_json(state["mesh"])
        self.operator = state["operator"]

    def symbol(self, s):
        """Eigenvalues of the operator on the real-FFT lanes k = 0..n//2.

        Circulant meshes only.  Lane k multiplies Fourier modes k and n - k
        of panel data g (the operator is symmetric), so for real s it acts
        as irfft(symbol(s) * rfft(g), n).  From the first rows v, kd of
        V(s) and Kd(s) (panel length ell, M = ell I):

            inverse_single_layer:  ell / fft(v)
            exterior_dtn:          (-ell/2 + fft(kd)) / fft(v)

        The single layer assembles V alone (K0 only).  s may be an array;
        the result has shape np.shape(s) + (n//2 + 1,).
        """
        mesh = self.mesh
        if not mesh.circulant:
            raise ValueError("symbol needs a circulant mesh, got %r" % mesh.kind)
        lanes = mesh.n // 2 + 1
        ell = mesh.length[0]
        isl = self.operator == "inverse_single_layer"
        plan = mesh.pair_plan()
        sv = np.asarray(s, dtype=complex)
        out = np.empty(sv.shape + (lanes,), dtype=complex)
        for idx in np.ndindex(sv.shape):
            vals, kds = _assemble(_frequency(sv[idx]), mesh, plan, with_kd=not isl)
            num = ell if isl else -0.5 * ell + np.fft.fft(kds.ravel()[plan.kmap[0]])[:lanes]
            out[idx] = num / np.fft.fft(vals[plan.vmap[0]])[:lanes]
        return out

    def __call__(self, s):
        n = self.mesh.n
        sv = np.asarray(s, dtype=complex)
        out = np.empty(sv.shape + (n, n), dtype=complex)
        M = mass_matrix(self.mesh)
        for idx in np.ndindex(sv.shape):
            V, Kd = assemble_pair(sv[idx], self.mesh)
            rhs = M if self.operator == "inverse_single_layer" else -0.5 * M + Kd
            out[idx] = np.linalg.solve(V, rhs)
        return out


def make_transfer(problem, mesh=None):
    """TransferFunction for the problem's frequency-domain operator: s -> the
    dense n x n matrix on any mesh, for an array of frequencies at once."""
    if mesh is None:
        mesh = make_mesh(problem.geometry, problem.n_panels)
    fn = BemTransfer(mesh, problem.operator)
    return TransferFunction(
        fn=fn,
        dim=mesh.n,
        sigma0=0.1,
        key="bem_%s_%s_%d" % (mesh.kind, fn.operator, mesh.n),
        conj_symmetric=True,
    )


def make_mode_transfer(problem, mesh):
    """Diagonal TransferFunction of the problem's operator on a circulant
    mesh: s -> BemTransfer.symbol(s), one lane per real-FFT mode.

    Its weights are (N+1, m, m, n//2 + 1); apply them to rfft'd stage data
    and irfft the traces (see rkcq.engine).
    """
    if not mesh.circulant:
        raise ValueError("mode transfer needs a circulant mesh, got %r" % mesh.kind)
    fn = BemTransfer(mesh, problem.operator)
    return TransferFunction(
        fn=fn.symbol,
        dim=1,
        sigma0=0.1,
        key="bem_modes_%s_%s_%d" % (mesh.kind, fn.operator, mesh.n),
        conj_symmetric=True,
        lanes=mesh.n // 2 + 1,
    )


def error_metric(traces, reference, h, mesh):
    """Time-integrated energy-norm distance (h * sum_j ||d_j||^2)^(1/2).

    traces and reference are (N+1, n) arrays on the same time grid.
    """
    traces = np.asarray(traces)
    reference = np.asarray(reference)
    if traces.shape != reference.shape:
        raise ValueError("trace grids differ: %s vs %s" % (traces.shape, reference.shape))
    d = traces - reference
    V1 = mesh.v_one()
    sq = np.real(np.einsum("jn,nk,jk->j", np.conj(d), V1, d))
    return float(np.sqrt(h * np.sum(np.maximum(sq, 0.0))))
