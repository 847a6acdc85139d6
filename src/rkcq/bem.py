"""2D Galerkin boundary elements for the operator -Delta + s^2.

Piecewise-constant densities on closed polygonal curves.  The module
assembles the single-layer matrix V(s), the averaged double-layer boundary
matrix Kd(s), and wraps the two frequency-domain solution operators

    InverseSingleLayer:  s -> V(s)^{-1} M
    ExteriorDtN:         s -> V(s)^{-1} (-1/2 M + Kd(s))

as matrix-valued transfer functions for the convolution-quadrature engine
(M is the panel-length mass matrix; inputs are panel-midpoint samples).

Quadrature: a closed-form treatment of the log singularity on the
diagonal, and for every other pair the tensor product of one 1-D rule on
[0, 1] laid along both panels (Sauter & Schwab, Boundary Element Methods,
2011, ch. 5): Gauss-Legendre from a to b for well-separated pairs, a rule
graded geometrically toward the shared vertex for panels that touch.  One
order rule (_gl_orders) sets both from the oscillation of e^{-s r} along a
panel or a graded cell.  Pairs whose kernel is below e^-60 everywhere are
skipped.  Congruent panel pairs have equal entries, so a per-mesh pair
plan groups the pairs into congruence classes and every frequency
evaluates one representative per class.  A regular polygon, make_mesh's
circle among them, has n//2 + 1 classes and exactly symmetric circulant
matrices, which the plan reads off its class maps (BoundaryMesh.circulant).
The discrete Fourier modes diagonalize every operator there, and
BemTransfer.symbol returns the transfer operator's eigenvalues on the
real-FFT lanes.

Assembly takes an array of frequencies in one pass over the pair plan.
A planner (_quadrature_plan) groups the pairs of both kinds by the rule
each frequency needs; each rule's s-independent geometry (distances,
weight products and the double layer's normal factors, _tensor_rule) is
built once and serves every frequency that needs it.  For each frequency,
rkcq.bessel.sr_kernels groups a rule's pairs by the K0/K1 kernel that
serves each pair's distances whole: pairs in the series or the asymptotic
regime take a kernel of the real R with s factored out, and the other
pairs' arguments s R go to K0/K1 in one call, which splits them by band;
far pairs are stored nearest first, so a block of them spans a short range
of |s| r.  One batched real matmul per group contracts the values with the
weights.
"""

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .bessel import bessel_k0, k0k1, sr_kernels
from .engine import _BLOCK, TransferFunction
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
    """Closed positively oriented polygonal curve, one dof per panel.

    Construction checks that panel k ends where panel k + 1 starts (the
    last where the first starts) and that the signed area is positive.
    """

    kind: str
    vertices: np.ndarray
    panels: np.ndarray
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    mid: np.ndarray = field(init=False)
    length: np.ndarray = field(init=False)
    normal: np.ndarray = field(init=False)

    def __post_init__(self):
        gap = np.flatnonzero(self.panels[:, 1] != np.roll(self.panels[:, 0], -1))
        if gap.size:
            raise ValueError("panels must form one closed ring, panel k ending where panel "
                             "k + 1 starts; panel %d does not" % gap[0])
        self.a = self.vertices[self.panels[:, 0]]
        self.b = self.vertices[self.panels[:, 1]]
        self.mid = (self.a + self.b) / 2.0
        d = self.b - self.a
        self.length = np.linalg.norm(d, axis=1)
        if np.any(self.length <= 0):
            raise ValueError("degenerate panel of zero length")
        area = 0.5 * np.sum(self.a[:, 0] * self.b[:, 1] - self.b[:, 0] * self.a[:, 1])
        if not area > 0:
            raise ValueError("the curve must be positively oriented (counterclockwise), "
                             "got signed area %g" % area)
        t = d / self.length[:, None]
        self.normal = np.column_stack([t[:, 1], -t[:, 0]])
        self._v1 = None
        self._plan = None

    @property
    def n(self):
        return len(self.panels)

    @property
    def circulant(self):
        """True when V, Kd and M are symmetric circulant, the predicate of
        the per-Fourier-mode route.  The pair plan reads it off its class
        maps, whatever the kind: vmap[i, j] == vmap[0, (j - i) % n], the
        same for kmap, and kmap[0, d] == kmap[0, -d % n].  Every regular
        polygon passes, up to the plan's 1e-10 clustering of coordinates."""
        return self.pair_plan().circulant

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
    return {"circle": "unit_circle", "lshape": "l_shape", "exterior_dt_n": "exterior_dtn"}.get(s, s)


# the names make_mesh and BemTransfer accept, after _norm_name
_GEOMETRIES = ("unit_circle", "l_shape")
_OPERATORS = ("inverse_single_layer", "exterior_dtn")


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
    if g not in _GEOMETRIES:
        raise ValueError("unknown geometry %r" % geometry)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError("the panel count must be an integer, got %r" % (n,))
    if n < 8:
        raise ValueError("need at least 8 panels, got %d" % n)
    if g == "unit_circle":
        th = 2.0 * np.pi * np.arange(n) / n
        verts = np.column_stack([np.cos(th), np.sin(th)])
    else:
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
    idx = np.arange(len(verts))
    panels = np.column_stack([idx, (idx + 1) % idx.size])
    return BoundaryMesh(kind=g, vertices=verts, panels=panels)


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


# where a 1-D rule (t, w) on [0, 1] lies along one side of a pair: points
# o + t d and weights w l on a panel of length l and normal n
_SIDE = np.dtype([("o", float, 2), ("d", float, 2), ("l", float), ("n", float, 2)])


def _sides(mesh, i, j, touching):
    """The (p, 2) _SIDE array of the pairs (i, j), i < j, over the sides i
    and j.  A far pair's rules run from a to b.  A touching pair's run from
    the shared vertex to each far end: on the mesh's ring, panel j starts
    where panel i ends, or (i, j) = (0, n - 1) and panel i starts where
    panel j ends."""
    sides = np.empty((i.size, 2), dtype=_SIDE)
    f = j == i + 1
    for side, p, rev in zip(sides.T, (i, j), (f & touching, ~f & touching)):
        side["o"] = np.where(rev[:, None], mesh.b[p], mesh.a[p])
        side["d"] = np.where(rev[:, None], mesh.a[p], mesh.b[p]) - side["o"]
        side["l"], side["n"] = mesh.length[p], mesh.normal[p]
    return sides


def _point_segment_distance(p, a, b):
    d = b - a
    t = np.clip(np.einsum("kd,kd->k", p - a, d) / np.einsum("kd,kd->k", d, d), 0.0, 1.0)
    return np.linalg.norm(a + t[:, None] * d - p, axis=1)


def _pair_r_bounds(mesh, iu, ju):
    """Min and max of |x - y| over each panel pair's product domain.

    Panels of a simple closed polygon never cross, so the minimum over two
    disjoint segments is attained at an endpoint of one against the other:
    four clamped point-segment distances cover it.  The maximum is always
    at a corner pair.
    """
    i, j = (mesh.a[iu], mesh.b[iu]), (mesh.a[ju], mesh.b[ju])
    rmax = np.max([np.linalg.norm(p - q, axis=1) for p in i for q in j], axis=0)
    rmin = np.min([_point_segment_distance(p, *seg) for seg, ends in ((j, i), (i, j))
                   for p in ends], axis=0)
    return rmin, rmax


class _PairPlan:
    """The s-independent part of a mesh's assembly.

    Built from the class maps of _congruence_maps: each class's values are
    computed once per frequency, on its representative (r, q), as V_rq,
    Kd_rq and Kd_qr, and every matrix entry is gathered from them through
    vmap and kmap.  The classes split by kind into the diagonal (panel
    lengths), touching pairs (_sides) and far pairs (_sides, minimum
    distance and the effective length that sets the quadrature order),
    stored nearest first.  circulant is BoundaryMesh.circulant.
    """

    def __init__(self, mesh, vmap, kmap):
        n = mesh.n
        iu, ju = np.triu_indices(n)
        _, first = np.unique(vmap[iu, ju], return_index=True)
        ri, rj = iu[first], ju[first]
        self.vmap, self.kmap, self.size = vmap, kmap, first.size
        offset = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        self.circulant = bool(np.array_equal(vmap, vmap[0][offset])
                              and np.array_equal(kmap, kmap[0][offset])
                              and np.array_equal(kmap[0], kmap[0][-np.arange(n) % n]))
        diag = ri == rj
        touch = (rj - ri == 1) | ((ri == 0) & (rj == n - 1))
        far = np.flatnonzero(~(diag | touch))
        self.diag = np.flatnonzero(diag)
        self.diag_length = mesh.length[ri[diag]]
        self.touch = np.flatnonzero(touch)
        self.touch_sides = _sides(mesh, ri[touch], rj[touch], True)
        rmin, rmax = _pair_r_bounds(mesh, ri[far], rj[far])
        # nearest first: a chunk of far pairs then spans a short range of
        # |s| r at every frequency, so K0/K1 blocks mostly lie in one band
        order = np.argsort(rmin, kind="stable")
        self.far, self.rmin, rmax = far[order], rmin[order], rmax[order]
        self.far_sides = _sides(mesh, ri[self.far], rj[self.far], False)
        lmax = self.far_sides["l"].max(axis=1)
        # the kernel phase along one panel varies with r, whose total
        # variation at fixed y is bounded both by the panel length and by
        # twice the pair's radial spread, so pairs that face each other
        # broadside resolve with far fewer points than end-on ones
        self.leff = np.minimum(lmax, 2.0 * (rmax - self.rmin))


class _TensorRule(NamedTuple):
    """The s-independent part of a block of tensor-product pair rules, one
    row per pair over its g h point pairs (x, y).

    R is |y - x| (p, g h), rmin and rmax its least and largest value per
    pair (p,); A holds the weights w_x w_y (p, 1, g h); D the weights of
    Kd_ij and Kd_ji (p, 2, g h), A n_j.(y - x)/R and -A n_i.(y - x)/R, or
    None when Kd is not needed.
    """

    R: np.ndarray
    rmin: np.ndarray
    rmax: np.ndarray
    A: np.ndarray
    D: Optional[np.ndarray]


def _tensor_rule(sides, t, w, with_kd):
    """_TensorRule of the pairs whose (p, 2) _sides carry the 1-D rule
    (t, w) on [0, 1]: points x = o + t d with weights w l on panel i, y on
    panel j the same way, and the tensor product of the two over the pair.
    R is symmetric, so one K0/K1 evaluation serves V and both Kd
    orientations (they differ just in which panel's normal enters the dot
    factor and in the sign of the difference vector).
    """
    P = sides["o"][:, :, None, :] + t[:, None] * sides["d"][:, :, None, :]
    W = w * sides["l"][:, :, None]
    (Pi, Pj), (Wi, Wj), (ni, nj) = (a.swapaxes(0, 1) for a in (P, W, sides["n"]))
    dx = Pj[:, None, :, 0] - Pi[:, :, None, 0]
    dy = Pj[:, None, :, 1] - Pi[:, :, None, 1]
    R = np.sqrt(dx * dx + dy * dy)
    A = Wi[:, :, None] * Wj[:, None, :]
    p = len(R)
    D = None
    if with_kd:
        D = np.empty((p, 2) + R.shape[1:])
        for k, nrm in enumerate((nj, -ni)):
            D[:, k] = (dx * nrm[:, 0, None, None] + dy * nrm[:, 1, None, None]) * A / R
        D = D.reshape(p, 2, -1)
    R = R.reshape(p, -1)
    return _TensorRule(R, R.min(axis=1), R.max(axis=1), A.reshape(p, 1, -1), D)


def _rule_values(s, rule, sel, with_kd):
    """V and (with_kd) (Kd_ij, Kd_ji) of the rule's pairs sel at frequency s.

    rkcq.bessel.sr_kernels groups the pairs by the K0/K1 kernel that serves
    each pair's distances whole: pairs in the series or the asymptotic
    regime take a kernel of the real R with s factored out, the others one
    k0k1 (or bessel_k0) call of s R, which splits them by band.  One
    batched real matmul per group and output contracts the values, viewed
    as float pairs, with the rule's weights.  Returns the (q,) values of V
    and the (q, 2) values of Kd, None without with_kd.
    """
    idx = np.arange(len(rule.R))[sel]
    v = np.empty(idx.size, dtype=complex)
    kd = np.empty((idx.size, 2), dtype=complex) if with_kd else None

    def contract(W, val):
        q, G = val.shape
        return (W @ val.view(float).reshape(q, G, 2)).view(complex)[..., 0]

    for part, kernel in sr_kernels(s, rule.rmin[idx], rule.rmax[idx]):
        rows = idx[part]
        R = rule.R[rows]
        if kernel is not None:
            vals = kernel(R, 1 + with_kd)
        else:
            vals = k0k1(s * R) if with_kd else (bessel_k0(s * R),)
        v[part] = contract(rule.A[rows], vals[0])[:, 0] / (2.0 * np.pi)
        if with_kd:
            kd[part] = -s / (2.0 * np.pi) * contract(rule.D[rows], vals[1])
    return v, kd


# e^{-Re(s) r} bound on K0/K1 below which a pair contributes nothing: at 60
# the kernel is ~1e-27, vanishing next to the near-diagonal entries even
# after the CQ contour's lambda^{-N} roundoff amplification
_DEAD_EXPONENT = 60.0


def _quadrature_plan(s, plan):
    """The off-diagonal classes' rules for the flat frequency array s,
    without their geometry: entries (kind, pairs, (t, w), uses), kind
    "touch" or "far", pairs positions in plan.touch or plan.far and (t, w)
    the 1-D rule on [0, 1] laid along both sides of each pair (_sides).
    uses is a list of (f, sel): frequency s[f] takes the pairs pairs[sel]
    (sel a slice or an index array).

    Each frequency gives every pair a key, and each key one rule.  A
    touching pair's key is the frequency's graded-order tuple, every graded
    cell taking its order from its width on the longest touching panel
    (not rounded: the graded rule is not converged at its lowest orders,
    and 9 -> 10 moves touching Kd entries by up to 1.2e-7 relative).  A
    far pair's key is its Gauss-Legendre order, rounded up to even so that
    fewer distinct rules serve a frequency array, or 0 beyond the dead
    exponent, where the pair keeps its zeros.  Per key, the pairs that
    any frequency needs at it, in chunks of about 500k rule points.
    """
    graded = _gl_orders(s[:, None], _GRADE_SPANS * plan.touch_sides["l"].max())
    tuples, touch = np.unique(graded, axis=0, return_inverse=True)
    far = (_gl_orders(s[:, None], plan.leff) + 1) & ~1
    far[s.real[:, None] * plan.rmin > _DEAD_EXPONENT] = 0
    for kind, keys, rule in (
        ("touch", np.repeat(touch.reshape(-1, 1) + 1, plan.touch.size, axis=1),
         lambda key: _graded_rule(tuple(tuples[key - 1].tolist()))),
        ("far", far, _rule01),
    ):
        for key in np.unique(keys[keys > 0]).tolist():
            need = keys == key
            pairs = np.flatnonzero(need.any(axis=0))
            t, w = rule(key)
            chunk = max(32, 500_000 // t.size ** 2)
            for pc in np.split(pairs, np.arange(chunk, pairs.size, chunk)):
                yield kind, pc, (t, w), [(f, slice(None) if m.all() else np.flatnonzero(m))
                                         for f, m in enumerate(need[:, pc]) if m.any()]


def _assemble(s, plan, with_kd=True):
    """Per-class values v of V and kd of Kd (None without with_kd) at the
    frequencies s, of shapes np.shape(s) + (plan.size,) and
    np.shape(s) + (plan.size, 2).

    Each class is evaluated on its representative (r, q) only: the closed
    form on the diagonal (where Kd vanishes) and a tensor rule on every
    other pair, built from each _quadrature_plan entry as it comes, once
    for all the frequencies that use it.  V is v[..., plan.vmap] and Kd is
    kd[..., c, :] gathered through plan.kmap, kd[..., c, :] holding
    (Kd_rq, Kd_qr).  A
    frequency's values come from the same operations whatever the other
    frequencies of s, however they split its pairs into chunks: each
    K0/K1 value depends on its argument alone and on the kernel that
    rkcq.bessel.sr_kernels picks from s and the pair's own rmin and rmax,
    and each pair's values are contracted on their own.
    """
    sv = np.asarray(s, dtype=complex)
    flat = sv.reshape(-1)
    v = np.zeros((flat.size, plan.size), dtype=complex)
    kd = np.zeros((flat.size, plan.size, 2), dtype=complex) if with_kd else None
    for f, sf in enumerate(flat):
        for c, ell in zip(plan.diag, plan.diag_length):
            v[f, c] = 2.0 * _self_weighted_k0_integral(sf, float(ell)) / (2.0 * np.pi)
    kinds = {"touch": (plan.touch, plan.touch_sides), "far": (plan.far, plan.far_sides)}
    for kind, pairs, (t, w), uses in _quadrature_plan(flat, plan):
        classes, sides = kinds[kind]
        rule = _tensor_rule(sides[pairs], t, w, with_kd)
        for f, sel in uses:
            c = classes[pairs[sel]]
            v[f, c], kc = _rule_values(flat[f], rule, sel, with_kd)
            if with_kd:
                kd[f, c] = kc
    v = v.reshape(sv.shape + (plan.size,))
    return v, None if kd is None else kd.reshape(sv.shape + (plan.size, 2))


def _frequency(s):
    s = np.asarray(s, dtype=complex)
    if not (s.real > 0).all() or np.isnan(s.imag).any():
        raise ValueError("assembly requires Re s > 0 and no NaN")
    return s


def assemble_pair(s, mesh):
    """Assemble (V(s), Kd(s)) in one pass over the mesh's pair plan.

    s may be an array of frequencies; both results then have shape
    np.shape(s) + (n, n), and each frequency's matrices are those of
    assembling it alone (see _assemble).
    """
    plan = mesh.pair_plan()
    v, kd = _assemble(_frequency(s), plan)
    return v[..., plan.vmap], kd.reshape(v.shape[:-1] + (-1,))[..., plan.kmap]


def assemble_V(s, mesh):
    """Galerkin single-layer matrix V_ij = (1/2pi) int_i int_j K0(s|x-y|).

    Only K0 is evaluated; s may be an array, as in assemble_pair, and the
    result equals assemble_pair(s, mesh)[0] bit for bit.
    """
    plan = mesh.pair_plan()
    return _assemble(_frequency(s), plan, with_kd=False)[0][..., plan.vmap]


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
    """Frequency-domain solution operator: frequencies of shape S -> n x n
    matrices of shape S + (n, n).

    operator 'inverse_single_layer' maps midpoint boundary data to the
    density solving V phi = data (weak form); 'exterior_dtn' maps Dirichlet
    data to the outward normal derivative of the exterior solution.  The
    frequencies are assembled in slices of at most max(1, 2^18 // n^2), one
    assemble_V or assemble_pair call each, and every frequency takes one
    dense solve.
    """

    def __init__(self, mesh, operator):
        op = _norm_name(operator)
        if op not in _OPERATORS:
            raise ValueError("unknown operator %r" % operator)
        self.mesh = mesh
        self.operator = op

    def symbol(self, s):
        """Eigenvalues of the operator on the real-FFT lanes k = 0..n//2.

        Circulant meshes only.  Lane k multiplies Fourier modes k and n - k
        of panel data g (the operator is symmetric), so for real s it acts
        as irfft(symbol(s) * rfft(g), n).  From the first rows v, kd of
        V(s) and Kd(s) (panel length ell, M = ell I):

            inverse_single_layer:  ell / fft(v)
            exterior_dtn:          (-ell/2 + fft(kd)) / fft(v)

        The single layer assembles V alone (K0 only).  s may be an array,
        assembled in one pass and transformed in one batched FFT; the
        result has shape np.shape(s) + (n//2 + 1,).
        """
        mesh = self.mesh
        if not mesh.circulant:
            raise ValueError("symbol needs a circulant mesh (BoundaryMesh.circulant)")
        lanes = mesh.n // 2 + 1
        ell = mesh.length[0]
        isl = self.operator == "inverse_single_layer"
        plan = mesh.pair_plan()
        sv = _frequency(s)
        vals, kds = _assemble(sv.reshape(-1), plan, with_kd=not isl)
        num = ell if isl else -0.5 * ell + np.fft.fft(kds.reshape(sv.size, -1)[:, plan.kmap[0]])
        out = num / np.fft.fft(vals[:, plan.vmap[0]])
        return out[:, :lanes].reshape(sv.shape + (lanes,))

    def __call__(self, s):
        mesh = self.mesh
        n = mesh.n
        sv = np.asarray(s, dtype=complex)
        flat = sv.reshape(-1)
        out = np.empty((flat.size, n, n), dtype=complex)
        M = mass_matrix(mesh)
        # frequencies per assembly: the slice's matrices stay as small as
        # one block of the engine's weight transform
        step = max(1, _BLOCK // (n * n))
        for a in range(0, flat.size, step):
            sl = flat[a : a + step]
            if self.operator == "inverse_single_layer":
                out[a : a + step] = np.linalg.solve(assemble_V(sl, mesh), M)
            else:
                V, Kd = assemble_pair(sl, mesh)
                out[a : a + step] = np.linalg.solve(V, -0.5 * M + Kd)
        return out.reshape(sv.shape + (n, n))


def _transfer_key(prefix, mesh, operator):
    """Key of a mesh's TransferFunction: the kind, operator and panel count
    name it, and a digest of the vertices and panels tells apart two meshes
    that share all three (custom 33-gons of radius 1 and 2.5, say)."""
    h = hashlib.sha256(np.ascontiguousarray(mesh.vertices, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(mesh.panels, dtype=np.int64).tobytes())
    return "%s_%s_%s_%d_%s" % (prefix, mesh.kind, operator, mesh.n, h.hexdigest()[:12])


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
        key=_transfer_key("bem", mesh, fn.operator),
        conj_symmetric=True,
    )


def make_mode_transfer(problem, mesh):
    """Diagonal TransferFunction of the problem's operator on a circulant
    mesh (BoundaryMesh.circulant: any regular polygon, whatever its kind):
    s -> BemTransfer.symbol(s), one lane per real-FFT mode.

    Its weights are (N+1, m, m, n//2 + 1); apply them to rfft'd stage data
    and irfft the traces (see rkcq.engine).
    """
    if not mesh.circulant:
        raise ValueError("mode transfer needs a circulant mesh (BoundaryMesh.circulant)")
    fn = BemTransfer(mesh, problem.operator)
    return TransferFunction(
        fn=fn.symbol,
        dim=1,
        sigma0=0.1,
        key=_transfer_key("bem_modes", mesh, fn.operator),
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
