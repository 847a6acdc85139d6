"""2D Galerkin boundary elements for the operator -Delta + s^2.

Piecewise-constant densities on closed polygonal curves.  The module
assembles the single-layer matrix V(s), the averaged double-layer boundary
matrix Kd(s), and wraps the two frequency-domain solution operators

    InverseSingleLayer:  s -> V(s)^{-1} M
    ExteriorDtN:         s -> V(s)^{-1} (-1/2 M + Kd(s))

as matrix-valued transfer functions for the convolution-quadrature engine
(M is the panel-length mass matrix; inputs are panel-midpoint samples).

Quadrature: 8x8 tensorized Gauss-Legendre for well-separated panel pairs,
a 4-level geometrically graded subdivision toward the shared vertex for
panels that touch, and a closed-form treatment of the log singularity on
the diagonal.  The unit-circle mesh is rotation-invariant, so its matrices
are symmetric circulant and only the first row is assembled; the discrete
Fourier modes diagonalize every operator there, and BemTransfer.symbol
returns the transfer operator's eigenvalues on the real-FFT lanes.
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
    "assemble_Kd",
    "assemble_pair",
    "mass_matrix",
    "BemTransfer",
    "make_transfer",
    "make_mode_transfer",
    "hminus_half_norm",
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


_X8, _W8 = _rule01(8)
_X16, _W16 = _rule01(16)


def _far_order(s, lmax):
    """Tensor-rule order resolving the e^{-s r} phase across one panel.

    The phase varies by up to |s| lmax along a panel, i.e. w = |s| lmax / 2
    in the Gauss variable, and an n-point rule drives the e^{iwt} error
    into its super-exponential regime once n >= 0.625 w + 8; at n = w/2
    the decay has not yet engaged and errors plateau near 1e-8.  Entry
    errors must stay tiny relative to the smallest singular value of V
    (itself ~ 1/|s|), since V^{-1} and the lambda^{-n} unscaling of the
    weight transform both amplify them.
    """
    w = abs(s) * lmax / 2.0
    return min(48, max(8, int(np.ceil(0.625 * w)) + 8))


_GRADE_Q = 0.15
_GRADE_LEVELS = 6
# per-axis cell widths of the graded rule, innermost first; the number of
# levels sets the floor left by the unresolved log corner, area (q^levels)^2
_GRADE_SPANS = tuple(
    np.diff([0.0] + [_GRADE_Q ** k for k in range(_GRADE_LEVELS - 1, -1, -1)])
)


@lru_cache(maxsize=None)
def _graded_square(orders, q=_GRADE_Q):
    """Tensor rule on [0,1]^2 graded geometrically toward the corner (0,0).

    orders gives the GL order on each per-axis cell, innermost first; the
    phase load of a cell scales with its width, so outer cells need the
    high orders and the corner cells stay cheap.
    """
    b = [0.0] + [q ** k for k in range(len(orders) - 1, -1, -1)]
    xs, ws = [], []
    for (a1, b1), n in zip(zip(b[:-1], b[1:]), orders):
        xg, wg = _rule01(n)
        xs.append(a1 + (b1 - a1) * xg)
        ws.append((b1 - a1) * wg)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    return np.repeat(x, x.size), np.tile(x, x.size), np.outer(w, w).ravel()


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
        self._mirror_done = False
        self._mirror = None
        self._adjacent = {}

    @property
    def n(self):
        return len(self.panels)

    @property
    def circulant(self):
        """True when the mesh is rotation-invariant, so that V, Kd and M
        are symmetric circulant (the unit circle)."""
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

    def adjacent_plan(self, rows):
        """Cached s-independent geometry of the touching pairs of rows
        (see _adjacent_geometry); every frequency reuses it."""
        key = tuple(int(i) for i in rows)
        got = self._adjacent.get(key)
        if got is None:
            got = self._adjacent[key] = _adjacent_geometry(self, key)
        return got

    def mirror_permutation(self):
        """Panel permutation of a reflection symmetry of the mesh, or None.

        Tries reflections through the midpoint centroid across the four
        standard axis directions (0, 45, 90, 135 degrees) and returns the
        first involutive panel bijection that preserves midpoints and
        lengths.  Both benchmark geometries have one; a mesh without it
        just skips the symmetry shortcut in the dense assembly.
        """
        if self._mirror_done:
            return self._mirror
        self._mirror_done = True
        ctr = self.mid.mean(axis=0)
        tol = 1e-9 * self.length.max()
        for phi in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4):
            Q = np.array(
                [
                    [np.cos(2 * phi), np.sin(2 * phi)],
                    [np.sin(2 * phi), -np.cos(2 * phi)],
                ]
            )
            mm = ctr + (self.mid - ctr) @ Q.T
            d = np.linalg.norm(mm[:, None, :] - self.mid[None, :, :], axis=2)
            sig = d.argmin(axis=1)
            if d[np.arange(self.n), sig].max() > tol:
                continue
            if not np.array_equal(np.sort(sig), np.arange(self.n)):
                continue
            if np.any(sig[sig] != np.arange(self.n)):
                continue
            if not np.allclose(self.length[sig], self.length, rtol=0, atol=tol):
                continue
            self._mirror = sig
            break
        return self._mirror


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


def _diag_values(s, mesh):
    """V_ii for every panel; equal-length panels share one evaluation."""
    out = np.empty(mesh.n, dtype=complex)
    done = {}
    for i, ell in enumerate(mesh.length):
        key = round(float(ell), 14)
        if key not in done:
            done[key] = 2.0 * _self_weighted_k0_integral(s, float(ell)) / (2.0 * np.pi)
        out[i] = done[key]
    return out


def _adjacent_geometry(mesh, rows):
    """s-independent geometry of the touching pairs (i, i+1), (i, i-1), i in rows.

    Returns the shared vertex v, the far ends fi, fj of the test and trial
    panels, the trial normal nj and both lengths for one representative
    per congruence class, and back, the class of every pair in order.
    """
    n = mesh.n
    rows = np.asarray(rows, dtype=int)
    i = np.repeat(rows, 2)
    j = np.stack([(rows + 1) % n, (rows - 1) % n], axis=1).ravel()
    fwd = np.all(np.abs(mesh.b[i] - mesh.a[j]) <= 1e-13, axis=1)
    bwd = np.all(np.abs(mesh.a[i] - mesh.b[j]) <= 1e-13, axis=1)
    if not np.all(fwd | bwd):
        k = np.argmin(fwd | bwd)
        raise ValueError("panels %d,%d do not share a vertex" % (i[k], j[k]))
    f = fwd[:, None]
    v = np.where(f, mesh.b[i], mesh.a[i])
    fi = np.where(f, mesh.a[i], mesh.b[i])
    fj = np.where(f, mesh.b[j], mesh.a[j])
    nj = mesh.normal[j]
    # Congruent pairs (same local geometry up to a rigid motion) give the
    # same integrals, so evaluate one representative per congruence class.
    # With a = fi - v, b = fj - v the class is fixed by the lengths and the
    # relative orientations of b and nj with respect to a.
    aa = fi - v
    bb = fj - v
    inv = np.stack(
        [
            np.einsum("kd,kd->k", aa, aa),
            np.einsum("kd,kd->k", bb, bb),
            np.einsum("kd,kd->k", aa, bb),
            aa[:, 0] * bb[:, 1] - aa[:, 1] * bb[:, 0],
            np.einsum("kd,kd->k", aa, nj),
            aa[:, 0] * nj[:, 1] - aa[:, 1] * nj[:, 0],
        ],
        axis=1,
    )
    classes = {}
    rep = []
    back = np.empty(i.size, dtype=int)
    for k, row in enumerate(np.round(inv, 12)):
        key = tuple(row)
        if key not in classes:
            classes[key] = len(rep)
            rep.append(k)
        back[k] = classes[key]
    rep = np.asarray(rep, dtype=int)
    return v[rep], fi[rep], fj[rep], nj[rep], mesh.length[i[rep]], mesh.length[j[rep]], back


def _adjacent_entries(s, mesh, rows, with_kd=True):
    """Graded-quadrature V and Kd entries for the touching pairs (i, i+1)
    and (i, i-1) of every i in rows, in that order (Kd None without
    with_kd).

    x runs over panel i (test), y over the neighbour j (trial); the kernel
    normal is that of panel j.
    """
    v, fi, fj, nj, li, lj, back = mesh.adjacent_plan(rows)
    lmax = max(li.max(), lj.max())
    orders = tuple(_far_order(s, sp * lmax) for sp in _GRADE_SPANS)
    xi, eta, wq = _graded_square(orders)
    X = v[:, None, :] + xi[None, :, None] * (fi - v)[:, None, :]
    Y = v[:, None, :] + eta[None, :, None] * (fj - v)[:, None, :]
    dv = Y - X
    R = np.linalg.norm(dv, axis=2)
    scale = li * lj / (2.0 * np.pi)
    if not with_kd:
        k0v = bessel_k0(s * R.ravel()).reshape(R.shape)
        return (scale * np.einsum("p,ap->a", wq, k0v))[back], None
    k0v, k1v = k0k1(s * R.ravel())
    k0v = k0v.reshape(R.shape)
    k1v = k1v.reshape(R.shape)
    dot = np.einsum("apd,ad->ap", dv, nj) / R
    vvals = scale * np.einsum("p,ap->a", wq, k0v)
    kvals = -s * scale * np.einsum("p,ap->a", wq, k1v * dot)
    return vvals[back], kvals[back]


# e^{-Re(s) r} bound on K0/K1 below which a pair contributes nothing: at 60
# the kernel is ~1e-27, vanishing next to the near-diagonal entries even
# after the CQ contour's lambda^{-N} roundoff amplification
_DEAD_EXPONENT = 60.0


def _masked_kernels(s, R, with_kd):
    # evaluate K0 (and K1 with_kd) on the live lanes only; dead lanes stay
    # zero, and k1v is None without with_kd
    live = s.real * R <= _DEAD_EXPONENT
    k0v = np.zeros(R.shape, dtype=complex)
    k1v = np.zeros(R.shape, dtype=complex) if with_kd else None
    if np.any(live):
        if with_kd:
            k0v[live], k1v[live] = k0k1(s * R[live])
        else:
            k0v[live] = bessel_k0(s * R[live])
    return k0v, k1v


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


def _pair_orders(s, mesh, iu, ju):
    """Per-pair tensor order from the radial spread of |x - y|.

    The kernel phase along one panel varies with r, whose total variation
    at fixed y is bounded both by the panel length and by twice the global
    radial spread of the pair, so pairs that face each other broadside
    resolve with far fewer points than end-on ones.  Orders are rounded up
    to even to keep the quadrature cache small.
    """
    rmin, rmax = _pair_r_bounds(mesh, iu, ju)
    leff = np.minimum(np.maximum(mesh.length[iu], mesh.length[ju]), 2.0 * (rmax - rmin))
    w = np.abs(s) * leff / 2.0
    orders = np.clip(np.ceil(0.625 * w).astype(int) + 8, 8, 48)
    return (orders + 1) & ~1, rmin


def _far_field_pairs(s, mesh, iu, ju, V, Kd):
    """Smooth-kernel V and Kd entries for the given non-touching ordered
    pairs, scattered into V[iu, ju] and Kd[iu, ju] (one orientation); Kd
    None assembles V alone."""
    orders, rmin = _pair_orders(s, mesh, iu, ju)
    live = s.real * rmin <= _DEAD_EXPONENT
    iu, ju, orders = iu[live], ju[live], orders[live]
    for o in np.unique(orders):
        sel = orders == o
        ic, jc = iu[sel], ju[sel]
        P, W = mesh.gl_points(int(o))
        chunk = max(32, 4_000_000 // int(o * o))
        for p0 in range(0, ic.size, chunk):
            i0, j0 = ic[p0 : p0 + chunk], jc[p0 : p0 + chunk]
            dv = P[j0][:, None, :, :] - P[i0][:, :, None, :]
            R = np.linalg.norm(dv, axis=3)
            k0v, k1v = _masked_kernels(s, R, Kd is not None)
            Wi, Wj = W[i0], W[j0]
            V[i0, j0] = np.einsum("pg,ph,pgh->p", Wi, Wj, k0v) / (2.0 * np.pi)
            if Kd is None:
                continue
            dot = np.einsum("pghd,pd->pgh", dv, mesh.normal[j0]) / R
            Kd[i0, j0] = -s / (2.0 * np.pi) * np.einsum(
                "pg,ph,pgh->p", Wi, Wj, k1v * dot
            )


def _near_entries(s, mesh, rows, V, Kd):
    """Write the touching-pair and diagonal entries of rows into V and Kd
    (V alone when Kd is None)."""
    n = mesh.n
    vadj, kadj = _adjacent_entries(s, mesh, rows, with_kd=Kd is not None)
    nxt, prv = (rows + 1) % n, (rows - 1) % n
    V[rows, nxt], V[rows, prv] = vadj[0::2], vadj[1::2]
    V[rows, rows] = _diag_values(s, mesh)[rows]
    if Kd is not None:
        Kd[rows, nxt], Kd[rows, prv] = kadj[0::2], kadj[1::2]
        Kd[rows, rows] = 0.0


def _circulant_row(s, mesh, with_kd=True):
    """First rows of V and Kd on a circulant mesh (Kd None without with_kd).

    The reflection through panel 0's midpoint maps panel d onto panel
    n - d and keeps |x - y| and the normal-derivative factor, so entry
    n - d of each row equals entry d: the far field is integrated for
    2 <= d <= n/2 only.
    """
    n = mesh.n
    V = np.zeros((1, n), dtype=complex)
    Kd = np.zeros((1, n), dtype=complex) if with_kd else None
    ju = np.arange(2, n // 2 + 1)
    _far_field_pairs(s, mesh, np.zeros_like(ju), ju, V, Kd)
    for M in (V, Kd):
        if M is not None:
            M[0, n - ju] = M[0, ju]
    _near_entries(s, mesh, np.array([0]), V, Kd)
    return V[0], None if Kd is None else Kd[0]


def _assemble_full(s, mesh, with_kd=True):
    """Dense V and Kd over all panel pairs (Kd None without with_kd).

    The smooth far-field work runs on the unordered pair triangle only: R is
    symmetric, so one K0/K1 evaluation serves V_ij = V_ji and both Kd
    orientations (they differ just in which panel's normal enters the dot
    factor and in the sign of the difference vector).
    """
    n = mesh.n
    iu, ju = np.triu_indices(n)
    near = (iu == ju) | (ju - iu == 1) | ((iu == 0) & (ju == n - 1))
    iu, ju = iu[~near], ju[~near]
    V = np.zeros((n, n), dtype=complex)
    Kd = np.zeros((n, n), dtype=complex) if with_kd else None
    # a reflection symmetry of the mesh makes mirrored pairs redundant:
    # |x - y| and (y - x) . n_y are reflection invariants, so only orbit
    # representatives need quadrature
    sig = mesh.mirror_permutation()
    mi = mj = None
    if sig is not None:
        p = np.minimum(sig[iu], sig[ju])
        q = np.maximum(sig[iu], sig[ju])
        rep = (iu < p) | ((iu == p) & (ju <= q))
        mi, mj = iu[rep], ju[rep]
        iu, ju = mi, mj
    orders, rmin = _pair_orders(s, mesh, iu, ju)
    live = s.real * rmin <= _DEAD_EXPONENT
    iu, ju, orders = iu[live], ju[live], orders[live]
    for o in np.unique(orders):
        sel = orders == o
        io, jo = iu[sel], ju[sel]
        P, W = mesh.gl_points(int(o))
        chunk = max(32, 4_000_000 // int(o * o))
        for p0 in range(0, io.size, chunk):
            ic, jc = io[p0 : p0 + chunk], jo[p0 : p0 + chunk]
            dv = P[jc][:, None, :, :] - P[ic][:, :, None, :]
            R = np.linalg.norm(dv, axis=3)
            k0v, k1v = _masked_kernels(s, R, with_kd)
            Wi, Wj = W[ic], W[jc]
            vp = np.einsum("pg,ph,pgh->p", Wi, Wj, k0v) / (2.0 * np.pi)
            V[ic, jc] = vp
            V[jc, ic] = vp
            if not with_kd:
                continue
            dotu = np.einsum("pghd,pd->pgh", dv, mesh.normal[jc]) / R
            dotl = -np.einsum("pghd,pd->pgh", dv, mesh.normal[ic]) / R
            ku = -s / (2.0 * np.pi) * np.einsum("pg,ph,pgh->p", Wi, Wj, k1v * dotu)
            kl = -s / (2.0 * np.pi) * np.einsum("pg,ph,pgh->p", Wi, Wj, k1v * dotl)
            Kd[ic, jc] = ku
            Kd[jc, ic] = kl
    if sig is not None:
        si, sj = sig[mi], sig[mj]
        V[si, sj] = V[mi, mj]
        V[sj, si] = V[mi, mj]
        if with_kd:
            Kd[si, sj] = Kd[mi, mj]
            Kd[sj, si] = Kd[mj, mi]
    _near_entries(s, mesh, np.arange(n), V, Kd)
    return V, Kd


def _frequency(s):
    s = complex(s)
    if s.real <= 0:
        raise ValueError("assembly requires Re s > 0")
    return s


def _circulant(row):
    """The circulant matrix C_ij = row[(j - i) mod n]."""
    n = row.size
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def assemble_pair(s, mesh):
    """Assemble (V(s), Kd(s)) in one pass; circulant fast path on the circle."""
    s = _frequency(s)
    if mesh.circulant:
        rowV, rowK = _circulant_row(s, mesh)
        return _circulant(rowV), _circulant(rowK)
    return _assemble_full(s, mesh)


def assemble_V(s, mesh):
    """Galerkin single-layer matrix V_ij = (1/2pi) int_i int_j K0(s|x-y|).

    Only K0 is evaluated; the result equals assemble_pair(s, mesh)[0] bit
    for bit.
    """
    s = _frequency(s)
    if mesh.circulant:
        return _circulant(_circulant_row(s, mesh, with_kd=False)[0])
    return _assemble_full(s, mesh, with_kd=False)[0]


def assemble_Kd(s, mesh):
    """Galerkin averaged double-layer matrix, kernel d/dn_y (1/2pi)K0(s|x-y|)."""
    return assemble_pair(s, mesh)[1]


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
    """Picklable frequency-domain solution operator s -> n x n matrix.

    operator 'inverse_single_layer' maps midpoint boundary data to the
    density solving V phi = data (weak form); 'exterior_dtn' maps Dirichlet
    data to the outward normal derivative of the exterior solution.  On a
    circulant mesh the matrix is built from symbol(s), without a dense
    solve.
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
        sv = np.asarray(s, dtype=complex)
        out = np.empty(sv.shape + (lanes,), dtype=complex)
        for idx in np.ndindex(sv.shape):
            si = _frequency(sv[idx])
            if self.operator == "inverse_single_layer":
                rowV, _ = _circulant_row(si, mesh, with_kd=False)
                out[idx] = ell / np.fft.fft(rowV)[:lanes]
            else:
                rowV, rowK = _circulant_row(si, mesh)
                out[idx] = (-0.5 * ell + np.fft.fft(rowK)[:lanes]) / np.fft.fft(rowV)[:lanes]
        return out

    def __call__(self, s):
        if self.mesh.circulant:
            lam = self.symbol(s)
            full = np.concatenate([lam, lam[1 : (self.mesh.n + 1) // 2][::-1]])
            return _circulant(np.fft.ifft(full))
        V, Kd = assemble_pair(s, self.mesh)
        M = mass_matrix(self.mesh)
        if self.operator == "inverse_single_layer":
            return np.linalg.solve(V, M.astype(complex))
        return np.linalg.solve(V, -0.5 * M + Kd)


def make_transfer(problem, mesh=None):
    """TransferFunction for the problem's frequency-domain operator: s -> the
    dense n x n matrix on any mesh."""
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


def hminus_half_norm(phi, mesh):
    """Energy norm sqrt(Re <V(1) phi, phi>) of a density dof vector."""
    phi = np.asarray(phi)
    val = np.real(np.conj(phi) @ (mesh.v_one() @ phi))
    return float(np.sqrt(max(val, 0.0)))


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
