"""Compact quantum metric spaces assembled from group actions.

A :class:`Cqms` couples a Hermitian matrix space (an order-unit space
whose unit is the identity matrix) with a :class:`UnitaryAction`; the
action supplies the translation seminorm, evaluated everywhere through
one real operator per space that maps traceless-slice coefficients to
the stack ``(U_x S_k U_x* - S_k) / l(x)`` over the seminorm kernel (only
its diagonals when every difference is diagonal).

Screening.  Every difference X = (U_x a U_x* - a) / l(x) is traceless, so
``|X| <= sqrt((d-1)/d) |X|_HS`` (``numerics.traceless_scale``), and the HS
norm is one dot product where ``|X|`` is an eigensolve.  A sup over a dense
kernel never eigensolves an element whose bound is below the largest
operator norm already solved in its row, so the value is exact.  (The net
distances of ``numerics`` use the lower bound ``|X|_HS / sqrt(d) <= |X|``
the same way.)

On top of the seminorm this module computes the defining balls
``D_r = {a : L(a) <= 1, |a| <= r}``, their greedy epsilon-nets with
statistical covering certificates, the radius (the best constant comparing
the quotient norm with the seminorm), and the dual metric on states.

The optimization workhorse is a support-function solver, maximizing a
linear functional over {L <= 1}.  When every kernel difference is
diagonal, L is polyhedral and the support value is one linear program.  On
a full diagonal space (functions on d points) L is moreover the Lipschitz
constant of a weighted graph, so the Dirac-state metric is its
shortest-path metric, and the radius and state-space diameter are exact.

On dense spaces the support problem is recast as convex minimization of L
on an affine slice, solved by damped Newton steps on a log-sum-exp
smoothing of the seminorm with a decreasing temperature schedule; the
exact Hessian comes from the Daleckii-Krein formula for the second
derivative of a spectral function.  The smoothing runs on a working
kernel: the ``WORKING_SEED`` elements largest at the starting point (the
whole kernel when it is no larger).  After each solve every kernel element
is evaluated at the result; those whose norm is at least ``WORKING_ADD``
times the full-kernel max join the working kernel, and the solve is
repeated, warm-started, until none join.  Values returned are
honest lower bounds (the final iterate, or the LP's solution, is rescaled
by its true full-kernel, not smoothed, seminorm).  Off full diagonal
spaces the radius alternates this solver with extreme witnesses of the
quotient norm; both quantities carry the quadrature mean of the length
function as an exact upper bracket.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from . import group_action as ga
from . import numerics as nm

# support solves smooth over a working kernel seeded with this many elements
# (all of a kernel with no more), and admit the elements outside it whose
# norm at the solve's result is at least WORKING_ADD times the kernel max
WORKING_SEED = 48
WORKING_ADD = 0.98

# a ladder stage takes at most NEWTON_STEPS damped Newton steps; it has
# converged once half its squared Newton decrement (the predicted decrease)
# is at most NEWTON_TOL times the smoothed value
NEWTON_STEPS = 30
NEWTON_TOL = 1e-12


class NonLipError(Exception):
    """The seminorm vanishes off the scalars: not a Lip-norm (ergodicity or
    multiplicity failure upstream)."""


@dataclass
class HermitianSpace:
    """Real span of Hermitian matrices containing the identity.

    The stored orthonormal basis (Hilbert-Schmidt) starts with the
    normalized identity; the remaining vectors span the traceless-
    within-the-space slice.  Orthonormalization is SVD-based, so heavily
    redundant spanning sets are fine.
    """

    basis: np.ndarray              # (n, d, d) Hermitian spanning set
    ortho: np.ndarray = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        d = b.shape[-1]
        for m in b:
            nm.check_hermitian(m)
        unit = np.eye(d, dtype=complex) / np.sqrt(d)
        coeffs = np.einsum("ab,kab->k", unit.conj(), b).real
        resid = b - coeffs[:, None, None] * unit
        rows = nm.realify(resid)
        u, s, vt = np.linalg.svd(rows, full_matrices=False)
        keep = s > 1e-10 * max(1.0, s[0] if s.size else 1.0)
        flat = vt[keep]
        k = flat.shape[1] // 2
        rest = (flat[:, :k] + 1j * flat[:, k:]).reshape(-1, d, d)
        rest = (rest + np.swapaxes(rest.conj(), 1, 2)) / 2.0
        rest = np.array([m / nm.hs_norm(m) for m in rest]) if len(rest) else rest.reshape(0, d, d)
        self.ortho = np.concatenate([unit[None], rest])

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def real_dim(self) -> int:
        return self.ortho.shape[0]

    @property
    def is_full(self) -> bool:
        return self.real_dim == self.dim ** 2

    def unit(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def coeffs(self, a: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("kab,ab->k", self.ortho.conj(), np.asarray(a, dtype=complex)))

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("k,kab->ab", np.asarray(coeffs, dtype=float), self.ortho)

    def elements(self, coeff_rows: np.ndarray) -> np.ndarray:
        return np.einsum("nk,kab->nab", np.asarray(coeff_rows, dtype=float), self.ortho)

    def projection_residual(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=complex)
        return nm.hs_norm(a - self.element(self.coeffs(a)))

    def contains(self, a: np.ndarray, tol: float = 1e-8) -> bool:
        return self.projection_residual(a) <= tol * (1.0 + nm.hs_norm(a))

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return self.element(scale * rng.standard_normal(self.real_dim))

    def complex_basis(self) -> np.ndarray:
        """The orthonormal Hermitian basis, reused as a basis of the complex span."""
        return self.ortho


def full_matrix_space(d: int) -> HermitianSpace:
    """The Hermitian part of all d x d matrices."""
    mats = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            x = np.zeros((d, d), dtype=complex)
            x[i, j] = x[j, i] = 1.0
            mats.append(x)
            y = np.zeros((d, d), dtype=complex)
            y[i, j] = -1j
            y[j, i] = 1j
            mats.append(y)
    return HermitianSpace(basis=np.array(mats))


def diagonal_space(d: int) -> HermitianSpace:
    """Diagonal Hermitian matrices: the function algebra on d points."""
    mats = np.zeros((d, d, d), dtype=complex)
    mats[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    return HermitianSpace(basis=mats)


@dataclass(frozen=True)
class StateFunctional:
    """State mu(a) = tr(density a), given by a density matrix."""

    density: np.ndarray
    label: str = ""

    def validate(self, tol: float = 1e-9) -> None:
        rho = nm.check_hermitian(self.density)
        w = np.linalg.eigvalsh(rho)
        if w[0] < -1e-10:
            raise ValueError(f"state {self.label!r}: density has eigenvalue {w[0]:.2e}")
        if abs(float(np.trace(rho).real) - 1.0) > tol:
            raise ValueError(f"state {self.label!r}: trace is not 1")

    def pair(self, a: np.ndarray) -> float:
        return float(np.real(np.einsum("ab,ba->", self.density, np.asarray(a, dtype=complex))))


def vector_state(v: np.ndarray, label: str = "") -> StateFunctional:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return StateFunctional(density=np.outer(v, v.conj()), label=label)


def dirac_state(d: int, i: int) -> StateFunctional:
    v = np.zeros(d)
    v[i] = 1.0
    return vector_state(v, label=f"delta_{i}")


@dataclass
class BallNet:
    """Finite net of D_r with a probe-sampled covering certificate."""

    r: float
    epsilon: float
    points: np.ndarray             # (N, d, d)
    covering_certificate: float
    complete: bool
    probe_seed: int
    probe_count: int

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class Cqms:
    """Order-unit space + ergodic action + derived metric structure.

    Immutable in spirit after construction; ``net_cache``, the radius
    cache, the Dirac metric and the seminorm operator are write-once
    memoizations (all numeric operations stay pure, so concurrent readers
    are safe).  ``unconverged_stages`` counts the Newton stages of this
    space's support solves that ended without converging.
    """

    space: HermitianSpace
    action: ga.UnitaryAction
    name: str = ""
    basis_labels: dict = field(default_factory=dict)   # label -> matrix, optional
    net_cache: dict = field(default_factory=dict)
    _radius: tuple | None = field(default=None, repr=False)
    _op: tuple | None = field(default=None, repr=False)
    _dirac: np.ndarray | None = field(default=None, init=False, repr=False)
    unconverged_stages: int = field(default=0, init=False, repr=False)

    # elements per matrix product in ``seminorms``: caps the product at
    # 32 kernel stacks, plus at most one more for the screened survivors
    _BLOCK = 32

    # -- basic functionals ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    def seminorm(self, a: np.ndarray) -> float:
        """L(a) = sup over the seminorm kernel of |alpha_x(a) - a| / l(x), for
        ``a`` in the space (a component outside the space is not seen)."""
        return float(self.seminorms(np.asarray(a)[None])[0])

    def seminorms(self, stack: np.ndarray) -> np.ndarray:
        """L over a stack (n, d, d) of elements of the space."""
        rows = nm.realify(stack) @ nm.realify(self.space.ortho[1:]).T
        return self._coeff_seminorms(rows)

    def norm(self, a: np.ndarray) -> float:
        return nm.op_norm(a)

    def unit(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    # -- the seminorm operator -------------------------------------------------

    def _operator(self) -> tuple[np.ndarray, bool]:
        """(op, diagonal): the seminorm as one real matrix with a row per
        traceless slice element S_k, built on first use.

        Row k is (U_x S_k U_x* - S_k) / l(x) over the seminorm kernel, as
        the real view of the complex (kernel, d, d) stack, so ``c @ op``
        viewed as complex is the stack of scaled differences of
        a = sum c_k S_k.  When every difference is diagonal only the real
        diagonals (kernel, d) are kept, and ``diagonal`` is True.
        """
        if self._op is None:
            slice_ortho = self.space.ortho[1:]
            others, lens = self.action.seminorm_kernel()
            u = self.action.implementers[others]
            uh = np.swapaxes(u.conj(), 1, 2)
            ns, k, d = len(slice_ortho), len(others), self.dim
            stack = np.empty((ns, k, d, d), dtype=complex)
            # one slice element at a time keeps the build's temporaries at
            # one (kernel, d, d) stack
            for row, s in zip(stack, slice_ortho):
                np.matmul(u @ s, uh, out=row)
                row -= s
                row /= lens[:, None, None]
            if nm.is_diagonal(stack):
                diag = np.diagonal(stack, axis1=-2, axis2=-1).real
                self._op = (diag.reshape(ns, k * d).copy(), True)
            else:
                self._op = (stack.view(float).reshape(ns, 2 * k * d * d), False)
        return self._op

    def _coeff_seminorms(self, coeff_rows: np.ndarray) -> np.ndarray:
        """L of sum_k c_k S_k for each row c of slice coefficients (n, ns).

        Dense kernels are screened with ``|X| <= sqrt((d-1)/d) |X|_HS``, which
        holds because every kernel difference X is traceless: per row, the
        element with the largest HS norm is eigensolved first, and then only
        the elements with ``|X|_HS * sqrt((d-1)/d) * (1 + 1e-9) > best`` can
        exceed that norm; the rest cannot change the max, so it is exact.
        Rows whose best norm is below 1e-150, where squared entries may
        underflow and the HS norm is not a bound, are solved whole.
        """
        op, diagonal = self._operator()
        d = self.dim
        scale = nm.traceless_scale(d) * (1.0 + 1e-9)
        out = np.empty(len(coeff_rows))
        for lo in range(0, len(coeff_rows), self._BLOCK):
            flat = coeff_rows[lo:lo + self._BLOCK] @ op
            n = len(flat)
            if diagonal:
                out[lo:lo + n] = np.max(np.abs(flat), axis=1)
                continue
            parts = flat.reshape(n, -1, 2 * d * d)
            mats = flat.view(complex).reshape(n, -1, d, d)
            hs = np.sqrt(np.einsum("rki,rki->rk", parts, parts))
            top = (np.arange(n), np.argmax(hs, axis=1))
            best = np.max(np.abs(np.linalg.eigvalsh(mats[top])), axis=1)
            hs[top] = 0.0                      # solved already
            rows, cols = np.nonzero((hs * scale > best[:, None])
                                    | (best < 1e-150)[:, None])
            if rows.size:
                np.maximum.at(best, rows,
                              np.max(np.abs(np.linalg.eigvalsh(mats[rows, cols])), axis=1))
            out[lo:lo + n] = best
        return out

    # -- ball geometry ---------------------------------------------------------

    def ball_membership(self, a: np.ndarray, r: float, tol: float = nm.NUMERIC_TOL) -> bool:
        if not self.space.contains(a, tol=max(tol, 1e-8)):
            raise ValueError("element lies outside the spanned subspace")
        return self.seminorm(a) <= 1.0 + tol and self.norm(a) <= r + tol

    def gauge(self, a: np.ndarray, r: float) -> float:
        """Minkowski gauge of D_r: max(L(a), |a|/r)."""
        if r <= 0:
            raise ValueError("gauge needs r > 0")
        return max(self.seminorm(a), self.norm(a) / r)

    def boundary_scale(self, direction: np.ndarray, r: float = None,
                       rel_tol: float = 1e-6) -> float:
        """Largest t >= 0 with t*direction inside D_r, by bisection.

        The gauge value seeds the bracket; convexity of the ball and
        0 in D_r make membership monotone along the ray.
        """
        if r is None:
            r = self.radius()
        d = np.asarray(direction, dtype=complex)
        if nm.hs_norm(d) <= 0:
            raise ValueError("direction must be nonzero")
        g = self.gauge(d, r)
        if g <= 0:
            raise ValueError("direction has zero gauge (unbounded ray)")
        lo, hi = 0.9 / g, 1.1 / g
        while self.ball_membership(hi * d, r, tol=0.0):
            lo = hi
            hi *= 2.0
        while not self.ball_membership(lo * d, r, tol=0.0):
            hi = lo
            lo /= 2.0
            if lo < 1e-300:
                return 0.0
        while hi - lo > rel_tol * hi:
            mid = (lo + hi) / 2.0
            if self.ball_membership(mid * d, r, tol=0.0):
                lo = mid
            else:
                hi = mid
        return lo

    def _gauges(self, stack: np.ndarray, r: float) -> np.ndarray:
        return np.maximum(self.seminorms(stack), nm.op_norms(stack) / r)

    def _random_points(self, rng: np.random.Generator, count: int, r: float) -> np.ndarray:
        """``count`` seeded points of D_r: uniform coefficient directions, each
        scaled to u**(1/n) of its boundary point (u uniform on [0, 1))."""
        c = rng.standard_normal((count, self.space.real_dim))
        dirs = self.space.elements(c / np.linalg.norm(c, axis=1)[:, None])
        radial = rng.random(count) ** (1.0 / self.space.real_dim)
        return dirs * (radial / self._gauges(dirs, r))[:, None, None]

    def ball_net(self, r: float, epsilon: float, budget: int = 64,
                 seed: int = 0, max_points: int = 220) -> BallNet:
        """Greedy farthest-point net of D_r.

        Candidates are boundary points of coordinate and seeded random
        rays, their radial scalings k/m, and a seeded batch of interior
        points; greedy insertion continues while some candidate is
        >= epsilon/2 from the net, so pairwise separations stay
        >= epsilon/2.  The covering certificate is the max distance of
        ``budget`` fresh probe points of D_r to the net (statistical,
        not geometric; the probe seed and law are recorded).  The net
        stops at ``max_points`` points.
        """
        key = (round(float(r), 12), round(float(epsilon), 12), budget, seed, max_points)
        if key in self.net_cache:
            return self.net_cache[key]
        zero = np.zeros((1, self.dim, self.dim), dtype=complex)
        if r <= 1e-12:
            net = BallNet(r, epsilon, zero, 0.0, True, seed, 0)
            self.net_cache.setdefault(key, net)
            return net

        n = self.space.real_dim
        rng = np.random.default_rng(seed)
        random_dirs = min(max(4 * n, 48), 256)
        coeff_dirs = np.concatenate([np.eye(n), -np.eye(n),
                                     rng.standard_normal((random_dirs, n))])
        coeff_dirs = coeff_dirs / np.linalg.norm(coeff_dirs, axis=1)[:, None]
        dirs = self.space.elements(coeff_dirs)
        gauges = self._gauges(dirs, r)
        boundary = dirs / gauges[:, None, None]
        fracs = np.arange(1, 5) / 4.0          # four radial steps per ray
        cands = (boundary[None, :] * fracs[:, None, None, None]).reshape(-1, self.dim, self.dim)
        cands = np.concatenate([cands, self._random_points(rng, min(max(2 * n * n, 96), 640), r)])

        chosen = nm.farthest_first(cands, nm.op_dists(cands, zero)[:, 0], max_points - 1,
                                   lambda far: far < epsilon / 2.0)
        pts = np.concatenate([zero, cands[chosen]])

        probes = self._random_points(np.random.default_rng(seed + 1), budget, r)
        cert = nm.covering_radius(pts, probes)
        net = BallNet(r, epsilon, pts, cert, cert <= epsilon, seed + 1, budget)
        self.net_cache.setdefault(key, net)
        return net

    # -- support-function solver ----------------------------------------------

    def _smoothed_seminorm(self, c: np.ndarray, tau: float, op: np.ndarray):
        """(L_tau, dL_tau/dc, d2L_tau/dc2) for a = sum c_k S_k over the
        traceless slice: L_tau = tau log S with S = sum 2 cosh(lambda / tau)
        over the signed eigenvalues lambda of every scaled difference of
        ``op``, a column slice of ``_operator()`` (a working kernel).

        Derivatives come from the Daleckii-Krein formula in each difference's
        eigenbasis V, where B_k = V* D_k V for the slice directions D_k:
        dS/dc_k = sum_i F'(lambda_i) B_k,ii and d2S/dc_k dc_l =
        sum_ij Gamma_ij Re(B_k,ij conj(B_l,ij)), with Gamma the divided
        differences of F'(x) = 2 sinh(x / tau) / tau (taken through
        sinh(delta) / delta when two eigenvalues lie within tau of each
        other); then d2L_tau = tau (S'' / S - S' S'^T / S^2).  Every
        exponential is shifted by the largest |lambda|, so none overflows.
        Dense operators only: diagonal ones are solved by ``_support_max``'s LP.
        """
        d = self.dim
        diffs = (c @ op).view(complex).reshape(-1, d, d)
        vals, v = np.linalg.eigh(diffs)
        zmax = float(np.max(np.abs(vals)))
        up, down = np.exp((vals - zmax) / tau), np.exp((-vals - zmax) / tau)
        total = float(np.sum(up) + np.sum(down))
        val = zmax + tau * np.log(total)
        coef = (up - down) / total               # tau F'(lambda) / S
        ns, k = len(op), len(vals)
        # B_k = V* D_k V for every element and slice direction, laid out as
        # (element, i, k, j) so that each product is one matrix per element
        dv = op.view(complex).reshape(ns, k, d, d).transpose(1, 0, 2, 3).reshape(k, ns * d, d)
        dv = (dv @ v).reshape(k, ns, d, d).transpose(0, 2, 1, 3).reshape(k, d, ns * d)
        bmat = (np.swapaxes(v.conj(), 1, 2) @ dv).reshape(k, d, ns, d)
        grad = np.einsum("xiki,xi->k", bmat, coef).real
        # tau S''/S: the divided differences of coef for pairs at least tau
        # apart; closer pairs take (up + down) at their midpoint times
        # sinh(delta) / (delta tau), delta = gap / (2 tau), which has no 0/0
        gap = vals[:, :, None] - vals[:, None, :]
        near = np.abs(gap) < tau
        delta = np.where(near & (gap != 0.0), gap / (2.0 * tau), 1.0)
        sinhc = np.where(gap == 0.0, 1.0, np.sinh(delta) / delta)
        mid = (vals[:, :, None] + vals[:, None, :]) / 2.0
        cosh = np.exp((mid - zmax) / tau) + np.exp((-mid - zmax) / tau)
        gamma = np.where(near, cosh * sinhc / (total * tau),
                         (coef[:, :, None] - coef[:, None, :]) / np.where(near, 1.0, gap))
        # sum_x,ij Gamma_ij Re(B_k,ij conj(B_l,ij)) is the Gram matrix of
        # the real views of sqrt(Gamma) B_k
        rows = (bmat * np.sqrt(np.maximum(gamma, 0.0))[:, :, None, :]).view(float)
        rows = rows.transpose(2, 0, 1, 3).reshape(ns, -1)
        hess = rows @ rows.T - np.outer(grad, grad) / tau
        return val, grad, hess

    def _kernel_norms(self, c: np.ndarray) -> np.ndarray:
        """|alpha_x(a) - a| / l(x) for every kernel element x, a = sum c_k S_k
        (dense operators only)."""
        d = self.dim
        flat = c @ self._operator()[0]
        return np.max(np.abs(np.linalg.eigvalsh(flat.view(complex).reshape(-1, d, d))), axis=1)

    # temperature factors, each relative to the seminorm at its stage's start
    _LADDERS = {
        "fine": (0.3, 0.1, 0.03, 0.01, 0.003, 0.001),
        "coarse": (0.3, 0.08, 0.02, 0.005),
    }

    def _support_max(self, g: np.ndarray, effort: str = "fine") -> tuple[float, np.ndarray]:
        """max {<g, a> : L(a) <= 1} over the traceless slice, as (value, argmax).

        When every kernel difference is diagonal, L(a) = max |c @ op| is
        polyhedral in the slice coefficients c, and the support value is one
        HiGHS linear program: maximize <g, a> subject to -1 <= c @ op <= 1.
        A solve that does not end optimal raises (an unbounded one as
        ``NonLipError``), so no failed solve is returned.

        Otherwise, convex reformulation: minimize L on the affine set
        <g, a> = 1, smoothed by log-sum-exp with a temperature ladder
        rescaled to the current seminorm at each stage, one damped Newton
        stage per temperature (``_ladder``).  The ladder sees only
        a working kernel W: the ``WORKING_SEED`` elements largest at the
        starting point, or the whole kernel when it has no more elements.
        After a ladder every kernel element is evaluated at the result, the
        elements outside W at least ``WORKING_ADD`` times the max join W, and
        the ladder is run again from the result until none join.  Stages
        that end unconverged are counted in ``unconverged_stages``.

        Either way the result is rescaled by its exact full-kernel seminorm,
        so the returned value is a guaranteed lower bound of the support
        function (and equals it, up to the LP's tolerance, on diagonal
        spaces).
        """
        slice_ortho = self.space.ortho[1:]
        ns = slice_ortho.shape[0]
        if ns == 0:
            return 0.0, np.zeros((self.dim, self.dim), dtype=complex)
        gs = np.real(np.einsum("kab,ab->k", slice_ortho.conj(), np.asarray(g, dtype=complex)))
        gn = np.linalg.norm(gs)
        if gn < 1e-13:
            return 0.0, np.zeros((self.dim, self.dim), dtype=complex)
        op, diagonal = self._operator()
        if diagonal:
            res = linprog(-gs, A_ub=np.concatenate([op.T, -op.T]),
                          b_ub=np.ones(2 * op.shape[1]), bounds=(None, None), method="highs")
            if res.status == 3:
                raise NonLipError("seminorm vanishes along the functional: not a Lip-norm")
            if res.status != 0:
                raise RuntimeError(f"support LP did not solve: {res.message}")
            return self._rescaled(res.x, float(gs @ res.x))
        c0 = gs / gn ** 2
        nmat = null_space(gs[None, :])          # (ns, ns-1)
        kernel = len(self.action.seminorm_kernel()[0])
        work = None                              # None: the whole kernel
        if kernel > WORKING_SEED:
            work = np.sort(np.argsort(self._kernel_norms(c0))[-WORKING_SEED:])

        u = np.zeros(nmat.shape[1])
        while nmat.shape[1] > 0:
            sub = op if work is None else op.reshape(ns, kernel, -1)[:, work].reshape(ns, -1)
            u = self._ladder(c0, nmat, u, self._LADDERS[effort], sub)
            if work is None:
                break
            norms = self._kernel_norms(c0 + nmat @ u)
            new = np.setdiff1d(np.flatnonzero(norms >= WORKING_ADD * np.max(norms)), work)
            if new.size == 0:
                break
            work = np.union1d(work, new)
        return self._rescaled(c0 + nmat @ u, 1.0)    # the ladder keeps <g, a> = 1

    def _ladder(self, c0: np.ndarray, nmat: np.ndarray, u: np.ndarray, factors,
                op: np.ndarray) -> np.ndarray:
        """Minimize L over the slice points c0 + nmat @ u, starting from u: one
        damped Newton stage on the smoothing over ``op`` per temperature
        factor, the factor times the exact seminorm at the stage's start.

        Each step solves the Newton system of the smoothed value restricted
        to the slice and halves its length until it achieves a quarter of
        the decrease the slope predicts (Armijo), at most 40 times.  A stage
        converges when half its squared Newton decrement is at most
        ``NEWTON_TOL`` times the smoothed value; one that reaches
        ``NEWTON_STEPS`` steps, or whose backtrack cannot lower the smoothed
        value, ends there and is counted in ``unconverged_stages``.
        """
        for factor in factors:
            tau = factor * max(self._coeff_seminorms((c0 + nmat @ u)[None])[0], 1e-9)

            def smoothed(u):
                val, grad, hess = self._smoothed_seminorm(c0 + nmat @ u, tau, op)
                return val, nmat.T @ grad, nmat.T @ hess @ nmat

            u, converged = _newton_stage(smoothed, u)
            if not converged:
                self.unconverged_stages += 1
        return u

    def _rescaled(self, c: np.ndarray, value: float) -> tuple[float, np.ndarray]:
        """(value / L, a / L) for a = sum c_k S_k with <g, a> = value: a
        support solve's result on the exact unit sphere of the seminorm."""
        a = np.einsum("k,kab->ab", c, self.space.ortho[1:])
        lv = self._coeff_seminorms(c[None])[0]
        if lv < 1e-12:
            raise NonLipError(
                "seminorm vanishes off the scalars; the action is not ergodic "
                "or has infinite-multiplicity directions")
        return value / lv, a / lv

    # -- radius and the state metric --------------------------------------------

    def _witness(self, v: np.ndarray, i: int, j: int) -> np.ndarray:
        return (np.outer(v[:, i], v[:, i].conj())
                - np.outer(v[:, j], v[:, j].conj())) / 2.0

    def _alternate_witness(self, a: np.ndarray, val: float, rounds: int,
                           effort: str, scale: float = 1.0) -> float:
        """Witness alternation from a current support optimizer: jump to the
        extreme (and, as escape moves, second-extreme) spectral pair of the
        iterate and re-solve; monotone, stops at a fixed point."""
        d = self.dim
        for _ in range(rounds):
            w, v = np.linalg.eigh(a)
            pairs = [(d - 1, 0)]
            if d > 2:
                pairs += [(d - 1, 1), (d - 2, 0)]
            improved = False
            for (i, j) in pairs:
                g = scale * self._witness(v, i, j)
                g = self.space.element(self.space.coeffs(g))
                new_val, new_a = self._support_max(g, effort=effort)
                if new_val > val + 1e-9 * (1.0 + val):
                    a, val = new_a, new_val
                    improved = True
                    break
            if not improved:
                break
        return val

    def _dirac_metric(self) -> np.ndarray | None:
        """rho_L(delta_i, delta_j) for every pair of points of a full diagonal
        space (the operator is diagonal and the space holds every diagonal
        matrix), built on first use; None for any other space.

        There every kernel implementer is monomial, U_x e_i ~ e_sigma_x(i), so
        L(a) = max |a_i - a_sigma_x(i)| / l(x): the Lipschitz constant of a
        for the graph with an edge i -- sigma_x(i) of length l(x).  Its dual
        metric on Dirac states is the graph's shortest-path metric (the
        distance to delta_j attains the sup), found by Floyd-Warshall.
        """
        if self._dirac is None and self._operator()[1] and self.space.real_dim == self.dim:
            others, lens = self.action.seminorm_kernel()
            d = self.dim
            # sigma[x, i]: the row holding column i of U_x
            sigma = np.argmax(np.abs(self.action.implementers[others]), axis=1)
            dist = np.full((d, d), np.inf)
            np.fill_diagonal(dist, 0.0)
            src = np.broadcast_to(np.arange(d), sigma.shape)
            wts = np.broadcast_to(lens[:, None], sigma.shape)
            np.minimum.at(dist, (src, sigma), wts)
            np.minimum.at(dist, (sigma, src), wts)
            for k in range(d):
                np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
            if not np.all(np.isfinite(dist)):
                raise NonLipError("the kernel's graph is disconnected; not a Lip-norm")
            self._dirac = dist
        return self._dirac

    def radius(self) -> float:
        """sup |a~| / L(a), the minimal constant comparing the quotient norm
        with the seminorm.

        On a full diagonal space it is exact (tag "exact"): |a~| is half the
        spread of the diagonal, so the radius is half the largest Dirac
        distance of ``_dirac_metric``.

        Elsewhere it is an ascent estimate (tag "ascent"), which
        alternates between extreme spectral witnesses of the quotient norm
        at the current point and a support-function solve for the witness;
        multi-started from coordinate and seeded random directions, with
        second-extreme witness pairs tried as escape moves when the
        alternation reaches a fixed point.  A lower bound by construction;
        callers check it against the quadrature mean of the length function.
        Four coordinate and two seeded random starts, four alternation
        rounds each; the value is cached.
        """
        if self._radius is not None:
            return self._radius[0]
        slice_ortho = self.space.ortho[1:]
        ns = slice_ortho.shape[0]
        if ns == 0:
            self._radius = (0.0, "exact")
            return 0.0
        dirac = self._dirac_metric()
        if dirac is not None:
            self._radius = (float(np.max(dirac)) / 2.0, "exact")
            return self._radius[0]
        rng = np.random.default_rng(0)
        start_coeffs = list(np.eye(ns)[:: max(1, ns // 4)][:4])
        start_coeffs += list(rng.standard_normal((2, ns)))
        best = 0.0
        for c in start_coeffs:
            c = c / np.linalg.norm(c)
            a = np.einsum("k,kab->ab", c, slice_ortho)
            lv = self._coeff_seminorms(c[None])[0]
            if lv < 1e-12:
                if nm.quotient_norm(a) > 1e-9:
                    raise NonLipError(
                        "seminorm vanishes off the scalars; not a Lip-norm")
                continue
            val = nm.quotient_norm(a) / lv
            val = self._alternate_witness(a, val, 4, "coarse", scale=1.0)
            best = max(best, val)
        self._radius = (best, "ascent")
        return best

    def radius_method(self) -> str:
        self.radius()
        return self._radius[1]

    def state_metric(self, mu: StateFunctional, nu: StateFunctional,
                     R: float = None, effort: str = "fine") -> float:
        """Dual metric rho_L(mu, nu) = sup {mu(a) - nu(a) : L(a) <= 1}.

        The supremum saturates on D_R for any R at least the radius (the
        ball plus scalar shifts exhausts the seminorm unit ball), so R
        below the radius estimate is rejected.  One support-function
        solve along the functional's in-space Riesz direction.
        """
        rad = self.radius()
        if R is not None and R < rad - 1e-9:
            raise ValueError(f"R={R} is below the radius estimate {rad}")
        g = mu.density - nu.density
        gm = self.space.element(self.space.coeffs(g))
        if nm.hs_norm(gm) <= 1e-13:
            return 0.0
        value, _ = self._support_max(gm, effort=effort)
        return float(max(value, 0.0))

    def state_diameter(self, R: float = None, sample: int = 24, seed: int = 0,
                       polish_rounds: int = 3) -> float:
        """The state-space diameter: exact on a full diagonal space, a lower
        estimate over pure-state pairs elsewhere.

        rho_L is jointly convex, so its max over pairs of states is attained
        at extreme states of the space; on a full diagonal space those are
        the Dirac states, and the diameter is the largest Dirac distance of
        ``_dirac_metric`` (``sample``, ``seed`` and ``polish_rounds`` are then
        unused).

        Elsewhere the pool is the extreme eigenprojections of seeded random
        elements of the space.  Every pool pair gets a one-evaluation proxy (the
        metric's value along the pair's Riesz direction, itself a valid
        lower bound); the most promising ``sample`` pairs are solved in
        full and then polished by witness alternation: the optimizer's own
        extreme eigenprojections form the next pure pair, which can only
        increase the value.  Each reported number is a genuine metric
        value of a genuine pure-state pair.
        """
        rad = self.radius()
        if R is not None and R < rad - 1e-9:
            raise ValueError(f"R={R} is below the radius estimate {rad}")
        rng = np.random.default_rng(seed)
        n_pool = max(6, sample // 2)
        slice_ortho = self.space.ortho[1:]
        if slice_ortho.shape[0] == 0:
            return 0.0
        dirac = self._dirac_metric()
        if dirac is not None:
            return float(np.max(dirac))
        vecs = []
        for _ in range(n_pool):
            a = self.space.random_element(rng)
            w, v = np.linalg.eigh(a)
            vecs.append(v[:, -1])
            vecs.append(v[:, 0])
        states = [vector_state(v) for v in vecs]
        pairs = [(i, j) for i in range(len(states)) for j in range(i + 1, len(states))]
        gmats = np.array([
            self.space.element(self.space.coeffs(states[i].density - states[j].density))
            for i, j in pairs])
        norms = self.seminorms(gmats)
        riesz = np.einsum("nab,nab->n", gmats.conj(), gmats).real
        with np.errstate(divide="ignore", invalid="ignore"):
            proxies = np.where(norms > 1e-12, riesz / norms, 0.0)
        best = float(np.max(proxies))
        order = np.argsort(proxies)[::-1][:sample]
        for k in order:
            value, argmax = self._support_max(gmats[k], effort="coarse")
            best = max(best, self._alternate_witness(argmax, value, polish_rounds,
                                                     "coarse", scale=2.0))
        return best


def _newton_stage(smoothed, u: np.ndarray) -> tuple[np.ndarray, bool]:
    """Damped Newton on ``smoothed(u) -> (value, gradient, hessian)`` from u:
    (final u, whether the Newton decrement met ``NEWTON_TOL``)."""
    val, grad, hess = smoothed(u)
    for steps in range(NEWTON_STEPS + 1):
        # the Hessian is positive semidefinite; directions of curvature below
        # 1e-12 of the largest (flat ones, such as any direction at a minimum
        # with gradient 0) are left out of the step
        w, v = np.linalg.eigh(hess)
        keep = w > 1e-12 * w[-1]
        step = -v[:, keep] @ ((grad @ v[:, keep]) / w[keep])
        slope = float(grad @ step)               # minus the squared decrement
        if -slope <= 2.0 * NEWTON_TOL * val:
            return u, True
        if steps == NEWTON_STEPS:
            break
        for halvings in range(40):
            t = 0.5 ** halvings
            trial = smoothed(u + t * step)
            if trial[0] <= val + 0.25 * t * slope:
                break
        else:
            return u, False                      # no step lowers the value
        u = u + t * step
        val, grad, hess = trial
    return u, False
