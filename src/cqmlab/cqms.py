"""Compact quantum metric spaces assembled from group actions.

A :class:`Cqms` couples a Hermitian matrix space (an order-unit space
whose unit is the identity matrix) with a :class:`UnitaryAction`; the
action supplies the translation seminorm, evaluated everywhere through
one real operator per space that maps traceless-slice coefficients to
the stack ``(U_x S_k U_x* - S_k) / l(x)`` over the seminorm kernel (only
its diagonals when every difference is diagonal).

Screening.  Every difference X = (U_x a U_x* - a) / l(x) is traceless, so
``|X| <= sqrt((d-1)/d) |X|_HS`` (``numerics.traceless_scale``), and the HS
norm is one dot product where ``|X|`` is an eigensolve.  One rule
(``_kernel_norms``) serves every seminorm value and the support solver's
working-kernel selections: the most promising elements, those with the
largest bound, are eigensolved first, and then only the elements whose bound
reaches a fraction of the smallest norm found; the rest cannot be a max, or
among the ``WORKING_SEED`` largest, so every value and selection is exact.

On top of the seminorm this module computes the defining balls
``D_r = {a : L(a) <= 1, |a| <= r}``, their greedy epsilon-nets with
statistical covering certificates, the radius (the best constant comparing
the quotient norm with the seminorm), and the dual metric on states.

The optimization workhorse is a support-function solver, maximizing a
linear functional over {L <= 1}, recast as the minimum of L on an affine
slice.  It and ``distoq``'s glue norm both minimize a weighted sum of
operator norms over an affine family of Hermitian matrices, and one
function, ``minimize_norms``, solves every such problem.  When every
matrix is diagonal the sum is polyhedral and its minimum is one linear
program.  On a full diagonal space (functions on d points) L is moreover
the Lipschitz constant of a weighted graph, so the Dirac-state metric is
its shortest-path metric, and the radius and state-space diameter are
exact.

Otherwise the norms are smoothed by log-sum-exp and minimized by damped
Newton steps at the decreasing temperatures of one ladder, ``LADDER``; the
exact Hessian comes from the Daleckii-Krein formula for the second
derivative of a spectral function.  Two routines give that smoothing for
any affine family of matrices: ``spectral_lse_value`` its value, from one
``eigh``, and ``spectral_lse_derivatives`` the gradient, Hessian and the
gradient's derivative in the temperature, from that stored decomposition.
A Newton stage judges each trial point on its value alone, differentiates
only the points it accepts, and takes the temperature derivative only at
convergence.  One loop, ``anneal``, runs every temperature stage, each
started on the tangent of the minimizer path that the previous stage
returns (a Newton step in tau), so a stage mostly polishes instead of
travelling.  The support solve runs on a working kernel: the
``WORKING_SEED`` elements largest at the starting point (the whole kernel
when it is no larger).  After each solve every kernel element is evaluated
at the result; those whose norm is at least ``WORKING_ADD`` times the
full-kernel max join the working kernel, and the solve is repeated,
warm-started, until none join.  Values returned are honest lower bounds
(the result is rescaled by its true full-kernel, not smoothed, seminorm).

The radius is half the diameter of the state space under the dual metric:
for Hermitian a, |a~| = (lambda_max - lambda_min) / 2 is half the largest
mu(a) - nu(a) over states.  Off full diagonal spaces one ascent over
pure-state pairs serves both numbers (``Cqms._alternate_witness``): it
alternates this solver with the extreme eigenvector pairs of its iterate,
from the radius's starts and, for a diameter, from a pool of pure-state
pairs, and keeps its best on the space, so a diameter is twice the radius
by construction.  Both carry the quadrature mean of the length function as
an exact upper bracket.

Importing the package loads numpy alone: scipy's HiGHS ``linprog`` is
imported inside ``minimize_norms``'s linear program, the one place in the
package that calls it, so a run that solves no LP never loads scipy.
"""

from dataclasses import dataclass, field

import numpy as np

from . import group_action as ga
from . import numerics as nm

# support solves smooth over a working kernel seeded with this many elements
# (all of a kernel with no more), and admit the elements outside it whose
# norm at the solve's result is at least WORKING_ADD times the kernel max
WORKING_SEED = 48
WORKING_ADD = 0.98

# an annealing stage takes at most NEWTON_STEPS damped Newton steps; it has
# converged once half its squared Newton decrement (the predicted decrease)
# is at most NEWTON_TOL times the smoothed value
NEWTON_STEPS = 30
NEWTON_TOL = 1e-12

# the one temperature ladder of every annealed solve: each stage's factor,
# relative to the exact objective at the stage's start
LADDER = (0.2, 0.05, 0.01, 0.002)


class NonLipError(Exception):
    """The seminorm vanishes off the scalars: not a Lip-norm (ergodicity or
    multiplicity failure upstream)."""


@dataclass
class HermitianSpace:
    """Real span of Hermitian matrices containing the identity.

    The stored orthonormal basis (Hilbert-Schmidt) starts with the
    normalized identity; the remaining vectors span the traceless-
    within-the-space slice.  Orthonormalization is SVD-based, so heavily
    redundant spanning sets are fine, and an off-diagonal entry that is zero
    in every spanning matrix is exactly zero in the basis.  ``coeffs`` and
    ``element`` map (..., d, d) stacks to (..., n) coordinates on it and back.
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
        # no spanning row holds these entries: exact zeros, not the SVD's round-off
        flat[:, ~rows.any(axis=0)] = 0.0
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

    def coeffs(self, a: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("kab,...ab->...k", self.ortho.conj(),
                                 np.asarray(a, dtype=complex)))

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return nm.combine(coeffs, self.ortho)

    def projection_residual(self, a: np.ndarray) -> float:
        a = np.asarray(a, dtype=complex)
        return nm.hs_norm(a - self.element(self.coeffs(a)))

    def contains(self, a: np.ndarray, tol: float) -> bool:
        return self.projection_residual(a) <= tol * (1.0 + nm.hs_norm(a))

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return self.element(rng.standard_normal(self.real_dim))


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


def vector_state(v: np.ndarray) -> np.ndarray:
    """Density matrix of the pure state of ``v``: the state
    mu(a) = tr(density a)."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def dirac_state(d: int, i: int) -> np.ndarray:
    v = np.zeros(d)
    v[i] = 1.0
    return vector_state(v)


@dataclass
class BallNet:
    """Finite net of D_r with a probe-sampled covering certificate: the
    largest distance to the net of ``budget`` probes drawn from ``seed + 1``
    (``Cqms.ball_net``'s arguments).  ``complete``: the certificate is at
    most the net's epsilon.  ``capped``: greedy insertion stopped at the
    point cap, not at the separation rule."""

    points: np.ndarray             # (N, d, d)
    covering_certificate: float
    complete: bool
    capped: bool

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class Cqms:
    """Order-unit space + ergodic action + derived metric structure.

    Immutable in spirit after construction; ``net_cache``, ``upper_cache``
    (the glue upper bounds of ``distoq.dist_oq_upper`` with this space as
    source, keyed by everything they read), the ball-net sample
    (``_ball_sample``), the Dirac metric and the seminorm operator are
    write-once memoizations.  The radius cache ``_radius`` (None until
    the first radius ascent; then the best pure-state pair's value in radius
    units and its element, or None for an exact radius) only rises: a
    ``state_diameter`` call continues its ascent.  ``unconverged_stages``
    counts the Newton stages of this space's support solves that ended
    without converging.
    """

    space: HermitianSpace
    action: ga.UnitaryAction
    name: str = ""
    basis_labels: dict = field(default_factory=dict)   # torus frequency w -> unitary u_w
    net_cache: dict = field(default_factory=dict, init=False)
    upper_cache: dict = field(default_factory=dict, init=False, repr=False)
    _radius: tuple | None = field(default=None, init=False, repr=False)
    _op: tuple | None = field(default=None, init=False, repr=False)
    _dirac: np.ndarray | None = field(default=None, init=False, repr=False)
    _samples: dict = field(default_factory=dict, init=False, repr=False)
    unconverged_stages: int = field(default=0, init=False, repr=False)

    # rows per matrix product in ``_coeff_seminorms``: caps the product, and
    # the screened survivors copied from it, at 32 kernel stacks each
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
        """L over a stack (n, d, d) of elements of the space; ValueError when
        the elements are not d x d."""
        stack = np.asarray(stack)
        if stack.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"{self.name or 'the space'} holds {self.dim} x {self.dim} "
                             f"matrices, not {stack.shape[-2]} x {stack.shape[-1]}")
        rows = nm.realify(stack) @ nm.realify(self.space.ortho[1:]).T
        return self._coeff_seminorms(rows)

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
        """L of sum_k c_k S_k for each row c of slice coefficients (n, ns): the
        row max of ``_kernel_norms``, ``_BLOCK`` rows at a time."""
        out = np.empty(len(coeff_rows))
        for lo in range(0, len(coeff_rows), self._BLOCK):
            out[lo:lo + self._BLOCK] = np.max(self._kernel_norms(coeff_rows[lo:lo + self._BLOCK]),
                                              axis=1)
        return out

    def _kernel_norms(self, coeff_rows: np.ndarray, factor: float = 1.0,
                      rank: int = 1) -> np.ndarray:
        """|alpha_x(a) - a| / l(x) for every kernel element x (columns) and
        each row c of slice coefficients, a = sum c_k S_k; on a dense kernel,
        -inf for an element provably below the row's reach.

        A diagonal operator gives every norm exactly, as max |diagonal|.  On a
        dense one every difference X is traceless, so ``|X| <= sqrt((d-1)/d)
        |X|_HS``.  Per row, the ``rank`` elements with the largest such bound
        are eigensolved first; the reach is ``factor`` times the smallest of
        their norms.  Then only the elements whose bound, with a 1e-9 relative
        and a 1e-150 absolute margin (squares that underflow), reaches it are
        eigensolved.  So every element with a norm at or above the reach is
        exact: with factor 1 that covers the ``rank`` largest norms.
        """
        op, diagonal = self._operator()
        d = self.dim
        flat = coeff_rows @ op
        n = len(flat)
        if diagonal:
            return np.max(np.abs(flat.reshape(n, -1, d)), axis=2)
        parts = flat.reshape(n, -1, 2 * d * d)
        mats = flat.view(complex).reshape(n, -1, d, d)
        bound = (np.sqrt(np.einsum("rki,rki->rk", parts, parts))
                 * (nm.traceless_scale(d) * (1.0 + 1e-9)) + 1e-150)
        rows = np.arange(n)[:, None]
        top = np.argpartition(bound, -rank, axis=1)[:, -rank:]
        norms = np.full(bound.shape, -np.inf)
        norms[rows, top] = np.max(np.abs(np.linalg.eigvalsh(mats[rows, top])), axis=-1)
        reach = factor * np.min(norms[rows, top], axis=1)
        rest = np.nonzero((bound >= reach[:, None]) & (norms == -np.inf))
        norms[rest] = np.max(np.abs(np.linalg.eigvalsh(mats[rest])), axis=-1)
        return norms

    # -- ball geometry ---------------------------------------------------------

    def ball_membership(self, a: np.ndarray, r: float, tol: float = nm.NUMERIC_TOL) -> bool:
        if not self.space.contains(a, tol=max(tol, 1e-8)):
            raise ValueError("element lies outside the spanned subspace")
        return self.seminorm(a) <= 1.0 + tol and nm.op_norm(a) <= r + tol

    def _ball_sample(self, seed: int, budget: int = None) -> tuple:
        """The seeded, radius-free sample of ``ball_net``, built once per key:
        for ``seed`` alone the (rays, interior) pair, for ``(seed, budget)``
        the probes.  Each part is (dirs, L, N, radial): elements of the space
        along uniform coefficient directions, their exact seminorms and
        operator norms, and the radial draws u**(1/n) (u uniform on [0, 1))
        of the interior points and probes (None for rays).

        Rays are the coordinate directions, both signs, then seeded random
        ones; the interior points draw their directions and then their
        radii from the same generator; the probes draw theirs, in that
        order, from one seeded with ``seed + 1``.
        """
        key = seed if budget is None else (seed, budget)
        if key not in self._samples:
            n = self.space.real_dim

            def measured(c, radial=None):
                dirs = self.space.element(c / np.linalg.norm(c, axis=1)[:, None])
                return dirs, self.seminorms(dirs), nm.op_norms(dirs), radial

            def drawn(rng, count):
                c = rng.standard_normal((count, n))
                return measured(c, rng.random(count) ** (1.0 / n))

            if budget is None:
                rng = np.random.default_rng(seed)
                rays = np.concatenate([np.eye(n), -np.eye(n),
                                       rng.standard_normal((min(max(4 * n, 48), 256), n))])
                self._samples[key] = (measured(rays), drawn(rng, min(max(2 * n * n, 96), 640)))
            else:
                self._samples[key] = drawn(np.random.default_rng(seed + 1), budget)
        return self._samples[key]

    def ball_net(self, r: float, epsilon: float, budget: int, seed: int,
                 max_points: int = 220) -> BallNet:
        """Greedy farthest-point net of D_r.

        Candidates are boundary points of coordinate and seeded random
        rays, their radial scalings k/m, and a seeded batch of interior
        points; greedy insertion continues while some candidate is
        >= epsilon/2 from the net, so pairwise separations stay
        >= epsilon/2.  The covering certificate is the max distance of
        ``budget`` fresh probe points of D_r to the net (statistical,
        not geometric): they are drawn from ``seed + 1``, so a report's
        seed and budget reproduce them, and a budget below 1 is a
        ValueError.  The net stops at ``max_points`` points, and is flagged
        ``capped`` when some candidate is still >= epsilon/2 from it.

        The directions and their seminorms do not depend on r or epsilon:
        they come from ``_ball_sample``, evaluated once per seed (and per
        budget for the probes), so every net of a space and seed shares
        them.  A net only scales each direction by its gauge on D_r,
        max(L, N / r), and runs the greedy insertion and the certificate.
        """
        if budget < 1:
            raise ValueError(f"a covering certificate needs at least one probe, got "
                             f"budget={budget}")
        key = (round(float(r), 12), round(float(epsilon), 12), budget, seed, max_points)
        if key in self.net_cache:
            return self.net_cache[key]
        zero = np.zeros((1, self.dim, self.dim), dtype=complex)
        if r <= 1e-12:
            net = BallNet(zero, 0.0, True, False)
            self.net_cache.setdefault(key, net)
            return net

        def points(part):
            dirs, ls, ns, radial = part
            gauges = np.maximum(ls, ns / r)
            if radial is None:
                return dirs / gauges[:, None, None]
            return dirs * (radial / gauges)[:, None, None]

        rays, interior = self._ball_sample(seed)
        fracs = np.arange(1, 5) / 4.0          # four radial steps per ray
        cands = (points(rays)[None, :] * fracs[:, None, None, None]).reshape(
            -1, self.dim, self.dim)
        cands = np.concatenate([cands, points(interior)])

        chosen, capped = nm.farthest_first(cands, max_points - 1, epsilon / 2.0)
        pts = np.concatenate([zero, cands[chosen]])

        cert = nm.covering_radius(pts, points(self._ball_sample(seed, budget)))
        net = BallNet(pts, cert, cert <= epsilon, capped)
        self.net_cache.setdefault(key, net)
        return net

    # -- support-function solver ----------------------------------------------

    def _support_max(self, g: np.ndarray) -> tuple[float, np.ndarray]:
        """max {<g, a> : L(a) <= 1} over the traceless slice, as (value, argmax).

        By homogeneity this is 1 / min {L(a) : <g, a> = 1}: the minimum of
        one group of kernel norms over the slice's coordinates u, solved by
        ``minimize_norms``.  When every kernel difference is diagonal, L is
        polyhedral on the slice and the minimum is one HiGHS linear program.
        Otherwise the seminorm is smoothed by log-sum-exp at the temperatures
        of the one ladder, ``LADDER``, rescaled to the current seminorm at
        each stage, one damped Newton stage per temperature (``anneal``), and
        stages that end unconverged are counted in ``unconverged_stages``.

        The solve sees only a working kernel W: the ``WORKING_SEED`` elements
        largest at the starting point (the lowest index first among equal
        norms), or the whole kernel when it has no more elements.  After a
        solve every kernel element is evaluated at the result, the elements
        outside W at least ``WORKING_ADD`` times the max join W, and the solve
        is run again from the result until none join.

        That admission check eigensolves every element at or above its reach,
        the max among them, so it holds the exact full-kernel L at the result:
        the next solve's first temperature and the final rescaling reuse it.
        The result is rescaled by its exact full-kernel seminorm, so the
        returned value is a guaranteed lower bound of the support function
        (and equals it, up to the LP's tolerance, on diagonal spaces).  A
        functional along which L vanishes off the scalars reaches L = 0 on
        the slice, and the rescaling raises ``NonLipError``.
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
        # one group of kernel differences, as minimize_norms lays them out
        layout = (1, -1, self.dim) if diagonal else (1, -1, self.dim, 2 * self.dim)
        c0 = gs / gn ** 2
        nmat = nm.complement_basis(gs)          # (ns, ns-1)
        kernel = len(self.action.seminorm_kernel()[0])
        work = None                              # None: the whole kernel
        if kernel > WORKING_SEED:
            norms = self._kernel_norms(c0[None], 1.0, WORKING_SEED)[0]
            work = np.sort(np.argsort(-norms, kind="stable")[:WORKING_SEED])

        u = np.zeros(nmat.shape[1])
        lv = None                                # the full-kernel L at u, once known
        while nmat.shape[1] > 0:
            sub = op if work is None else op.reshape(ns, kernel, -1)[:, work].reshape(ns, -1)

            def exact(v, start=u, known=lv):
                # the anneal's first call is at u, where the admission check
                # below may already hold L
                if known is not None and v is start:
                    return known
                return self._coeff_seminorms((c0 + nmat @ v)[None])[0]

            u, unconverged = minimize_norms((c0 @ sub).reshape(layout), nmat.T @ sub, np.ones(1),
                                            exact, u)
            self.unconverged_stages += unconverged
            if work is None:
                break
            norms = self._kernel_norms((c0 + nmat @ u)[None], WORKING_ADD)[0]
            lv = np.max(norms)
            new = np.setdiff1d(np.flatnonzero(norms >= WORKING_ADD * lv), work)
            if new.size == 0:
                break
            work = np.union1d(work, new)
        return self._rescaled(c0 + nmat @ u, lv)    # the slice keeps <g, a> = 1

    def _rescaled(self, c: np.ndarray, lv: float | None = None) -> tuple[float, np.ndarray]:
        """(1 / L, a / L) for a = sum c_k S_k: a on the exact unit sphere of
        the seminorm, and 1 / L a support solve's value when <g, a> = 1.  L is
        ``lv`` when the caller already holds it exactly, else computed."""
        a = nm.combine(c, self.space.ortho[1:])
        if lv is None:
            lv = self._coeff_seminorms(c[None])[0]
        if lv < 1e-12:
            raise NonLipError(
                "seminorm vanishes off the scalars; the action is not ergodic "
                "or has infinite-multiplicity directions")
        return 1.0 / lv, a / lv

    # -- radius and the state metric --------------------------------------------

    def _alternate_witness(self, starts, rounds: int) -> None:
        """Continue the ascent whose best the radius cache holds from each
        (value, a) start.  Every value is (mu(a) - nu(a)) / (2 L(a)) for pure
        states mu, nu: at most |a~| / L(a), so a lower bound of the radius,
        and half a lower bound of rho_L(mu, nu).

        A round takes the extreme (then, as escape moves, the second-extreme)
        eigenvector pair (mu, nu) of the iterate, solves the support problem
        (on ``LADDER``, as every support solve) for the witness (P_mu -
        P_nu) / 2, and moves to the first solve that improves the value; at
        most ``rounds`` rounds, stopping at a fixed point.  A start then
        records the quotient its element witnesses, |a~| / L(a), where that
        is higher: a lower bound of the radius by definition.  The cache
        keeps the best (value, a) and never falls.
        """
        d = self.dim
        pairs = [(d - 1, 0)] + ([(d - 1, 1), (d - 2, 0)] if d > 2 else [])
        best = self._radius
        for val, a in starts:
            for _ in range(rounds):
                _, v = np.linalg.eigh(a)
                for i, j in pairs:
                    g = (np.outer(v[:, i], v[:, i].conj())
                         - np.outer(v[:, j], v[:, j].conj())) / 2.0
                    new_val, new_a = self._support_max(g)
                    if new_val > val + 1e-9 * (1.0 + val):
                        val, a = new_val, new_a
                        break
                else:
                    break
            val = max(val, nm.quotient_norm(a) / self.seminorm(a))
            if best is None or val > best[0]:
                best = (val, a)
        self._radius = best

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
        with the seminorm.  For Hermitian a, |a~| = (lambda_max - lambda_min)
        / 2 is half the largest mu(a) - nu(a) over states, so the radius is
        half the diameter of the state space under rho_L.

        On a full diagonal space it is exact (tag "exact"): half the largest
        Dirac distance of ``_dirac_metric``.

        Elsewhere it is an ascent estimate (tag "ascent"), a lower bound by
        construction: ``_alternate_witness`` from four coordinate and two
        seeded random starts, four rounds each.  The value is cached; a later
        ``state_diameter`` continues the same ascent over more pure-state
        pairs, so it can raise the radius but never lower it.  Callers check
        it against the quadrature mean of the length function.
        """
        if self._radius is not None:
            return self._radius[0]
        ns = self.space.real_dim - 1
        if ns == 0:
            self._radius = (0.0, None)
        elif self._dirac_metric() is not None:
            self._radius = (float(np.max(self._dirac_metric())) / 2.0, None)
        else:
            rng = np.random.default_rng(0)
            starts = []
            for c in list(np.eye(ns)[:: max(1, ns // 4)][:4]) + list(rng.standard_normal((2, ns))):
                _, a = self._rescaled(c)
                starts.append((nm.quotient_norm(a), a))
            self._alternate_witness(starts, 4)
        return self._radius[0]

    def radius_method(self) -> str:
        self.radius()
        return "exact" if self._radius[1] is None else "ascent"

    def state_metric(self, mu: np.ndarray, nu: np.ndarray) -> float:
        """Dual metric rho_L(mu, nu) = sup {mu(a) - nu(a) : L(a) <= 1}, for
        states given by their density matrices.

        The supremum saturates on D_R for any R at least the radius (the
        ball plus scalar shifts exhausts the seminorm unit ball), so it is at
        most twice the radius.  One support-function solve along the
        functional's in-space Riesz direction.
        """
        value, _ = self._support_max(mu - nu)
        return float(max(value, 0.0))

    def state_diameter(self, sample: int, seed: int) -> float:
        """The diameter of the state space under rho_L: twice the radius,
        after the radius ascent has also run over a pool of pure-state pairs.

        Exact on a full diagonal space (the largest Dirac distance; ``sample``
        and ``seed`` are then unused).  Elsewhere rho_L is jointly convex, so
        its max over pairs of states is attained at pure states.  The pool
        is the extreme eigenvectors of ``max(6, sample // 2)`` random elements
        of the space drawn from ``seed``.  Every pool pair gets a
        one-evaluation proxy: the metric's value along the pair's Riesz
        direction, itself a valid lower bound.  The best proxy, then the
        ``sample`` most promising pairs solved in full (on ``LADDER``) and
        polished by three rounds, enter ``_alternate_witness``, each value
        halved.  So afterwards ``state_diameter(sample, seed) == 2 * radius()`` exactly,
        and neither number drops on a later call.
        """
        if self.radius_method() == "exact":
            return 2.0 * self.radius()
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(max(6, sample // 2)):
            _, v = np.linalg.eigh(self.space.random_element(rng))
            states += [vector_state(v[:, -1]), vector_state(v[:, 0])]
        states = np.array(states)
        first, second = np.triu_indices(len(states), 1)
        gmats = self.space.element(self.space.coeffs(states[first] - states[second]))
        norms = self.seminorms(gmats)
        riesz = np.einsum("nab,nab->n", gmats.conj(), gmats).real
        with np.errstate(divide="ignore", invalid="ignore"):
            proxies = np.where(norms > 1e-12, riesz / norms, 0.0)
        order = np.argsort(proxies)[::-1]
        top = order[0]
        self._alternate_witness([(proxies[top] / 2.0, gmats[top] / norms[top])], 0)
        solved = [self._support_max(gmats[k]) for k in order[:sample]]
        self._alternate_witness([(value / 2.0, a) for value, a in solved], 3)
        return 2.0 * self.radius()


def spectral_lse_value(mats: np.ndarray, tau: float):
    """(value, spectrum): f = tau log S, S = sum 2 cosh(lambda / tau) over the
    eigenvalues lambda of every matrix in a group, for each of g groups of
    Hermitian matrices ``mats`` (g, m, d, d), from one ``eigh`` of the stack;
    ``spectrum`` holds that decomposition and its exponentials for
    ``spectral_lse_derivatives``.  Every exponential is shifted by its
    group's largest |lambda|, z, so none overflows: up = e^((lambda - z) /
    tau), down = e^((-lambda - z) / tau), and f = z + tau log(sum up + down).
    """
    vals, v = np.linalg.eigh(mats)
    # (array methods rather than np.max / np.sum: these tiny reductions are
    # evaluated thousands of times per solve, and the wrappers cost more)
    zmax = np.abs(vals).max(axis=(1, 2))
    shift = zmax[:, None, None]
    up, down = np.exp((vals - shift) / tau), np.exp((-vals - shift) / tau)
    total = up.sum(axis=(1, 2)) + down.sum(axis=(1, 2))
    return zmax + tau * np.log(total), (vals, v, shift, up, down, total)


def spectral_lse_derivatives(spectrum, dirs: np.ndarray, tau: float):
    """(gradient, Hessian, d_tau) of ``spectral_lse_value``'s f at the
    ``spectrum`` it returned, for each of g groups of an affine family of
    Hermitian matrices M_x + sum_k c_k D_k,x, at c = 0: the spectrum is that
    of the M_x and ``dirs`` (g, m, n, d, d) holds the D_k,x.  The gradient
    and Hessian have shapes (g, n) and (g, n, n); ``d_tau()`` gives the
    gradient's tau-derivative, (g, n), from the same eigenbasis products.

    Derivatives come from the Daleckii-Krein formula in each matrix's
    eigenbasis V, where B_k = V* D_k V: dS/dc_k = sum_i F'(lambda_i) B_k,ii and
    d2S/dc_k dc_l = sum_ij Gamma_ij Re(B_k,ij conj(B_l,ij)), with Gamma the
    divided differences of F'(x) = 2 sinh(x / tau) / tau (taken through
    sinh(delta) / delta when two eigenvalues lie within tau of each other);
    then d2f = tau (S'' / S - S' S'^T / S^2).  The gradient is sum_i coef_i
    B_k,ii with coef = (up - down) / total over the shifted terms;
    differentiating those in tau (d up = -up (lambda - z) / tau^2, d down =
    down (lambda + z) / tau^2) gives d grad / d tau, the input of ``anneal``'s
    stage predictor.
    """
    vals, v, shift, up, down, total = spectrum
    g, m, n, d = dirs.shape[:4]
    coef = (up - down) / total[:, None, None]   # tau F'(lambda) / S
    # B_k = V* D_k V for every matrix and direction, laid out as
    # (matrix, i, k, j) so that one product per matrix covers every k
    dv = dirs.reshape(g * m, n * d, d) @ v.reshape(g * m, d, d)
    dv = dv.reshape(g * m, n, d, d).transpose(0, 2, 1, 3).reshape(g * m, d, n * d)
    bmat = (v.conj().swapaxes(-1, -2).reshape(g * m, d, d) @ dv).reshape(g, m, d, n, d)
    grad = np.einsum("gxiki,gxi->gk", bmat, coef).real
    # tau S''/S: the divided differences of coef for pairs at least tau
    # apart; closer pairs take (up + down) at their midpoint times
    # sinh(delta) / (delta tau), delta = gap / (2 tau), which has no 0/0
    gap = vals[..., :, None] - vals[..., None, :]
    near = np.abs(gap) < tau
    delta = np.where(near & (gap != 0.0), gap / (2.0 * tau), 1.0)
    sinhc = np.where(gap == 0.0, 1.0, np.sinh(delta) / delta)
    mid = (vals[..., :, None] + vals[..., None, :]) / 2.0
    cosh = np.exp((mid - shift[..., None]) / tau) + np.exp((-mid - shift[..., None]) / tau)
    gamma = np.where(near, cosh * sinhc / (total[:, None, None, None] * tau),
                     (coef[..., :, None] - coef[..., None, :]) / np.where(near, 1.0, gap))
    # sum_x,ij Gamma_ij Re(B_k,ij conj(B_l,ij)) is the Gram matrix of the
    # real views of sqrt(Gamma) B_k
    rows = (bmat * np.sqrt(np.maximum(gamma, 0.0))[:, :, :, None, :]).view(float)
    rows = rows.transpose(0, 3, 1, 2, 4).reshape(g, n, -1)
    hess = rows @ rows.swapaxes(1, 2) - grad[:, :, None] * grad[:, None, :] / tau

    def d_tau():
        d_up, d_down = -up * (vals - shift) / tau ** 2, down * (vals + shift) / tau ** 2
        d_total = d_up.sum(axis=(1, 2)) + d_down.sum(axis=(1, 2))
        d_coef = (d_up - d_down - coef * d_total[:, None, None]) / total[:, None, None]
        return np.einsum("gxiki,gxi->gk", bmat, d_coef).real

    return grad, hess, d_tau


def minimize_norms(start: np.ndarray, lin: np.ndarray, weights: np.ndarray, exact,
                   u: np.ndarray) -> tuple[np.ndarray, int]:
    """(minimizer, unconverged stages) of f(u) = sum_g weights_g max_x |M_gx(u)|
    over an affine family M(u) = start + u @ lin of d x d Hermitian matrices
    in g groups of m: the one norm minimizer of the support solves and the
    glue descent.

    The layout of ``start`` (the family at u = 0) decides the method, and
    ``lin`` (n, start.size) holds the family's derivative along u in the
    same layout.  Diagonals, (g, m, d), make f polyhedral: its minimum is
    one HiGHS linear program in (u, t), minimizing weights @ t subject to
    -t_g <= every diagonal entry of group g <= t_g, and a solve that does not
    end optimal raises (``exact`` and the start u are then unused).  Real
    views of the complex matrices, (g, m, d, 2d), are annealed from u
    (``anneal``, its temperatures scaled by ``exact(u)``) on the weighted sum
    of each group's ``spectral_lse_value``, differentiated by
    ``spectral_lse_derivatives`` only where ``_newton_stage`` asks.
    """
    g, n = len(start), len(lin)
    if start.ndim == 3:
        from scipy.optimize import linprog
        rows = lin.T
        epi = np.repeat(-np.eye(g), len(rows) // g, axis=0)
        res = linprog(np.concatenate([np.zeros(n), weights]),
                      A_ub=np.block([[rows, epi], [-rows, epi]]),
                      b_ub=np.concatenate([-start.ravel(), start.ravel()]),
                      bounds=(None, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"norm LP did not solve: {res.message}")
        return res.x[:n], 0
    d = start.shape[2]
    dirs = np.ascontiguousarray(lin.view(complex).reshape(n, g, -1, d, d).transpose(1, 2, 0, 3, 4))

    def smoothed(v, tau):
        mats = (start + (v @ lin).reshape(start.shape)).view(complex)
        val, spectrum = spectral_lse_value(mats, tau)

        def derivatives():
            grad, hess, d_tau = spectral_lse_derivatives(spectrum, dirs, tau)
            return (weights @ grad, (weights @ hess.reshape(g, -1)).reshape(n, n),
                    lambda: weights @ d_tau())

        return weights @ val, derivatives

    return anneal(smoothed, exact, u)


def anneal(smoothed, exact, u: np.ndarray) -> tuple[np.ndarray, int]:
    """(final u, unconverged stages): one ``_newton_stage`` on ``smoothed(u,
    tau) -> (value, derivatives)`` per factor of ``LADDER``, tau the factor
    times ``exact(u)``, floored at 1e-9, at the previous stage's minimizer
    u.  The minimizer path u(tau) moves O(tau' - tau) between stages, so a
    stage starts on its tangent, at u + (tau' - tau) du/dtau, when the
    previous stage converged and returned one, and at u otherwise.  The one
    stage loop, run by ``minimize_norms`` for every dense norm solve."""
    unconverged, tau, tangent = 0, None, None
    for factor in LADDER:
        new_tau = factor * max(exact(u), 1e-9)
        start = u if tangent is None else u + (new_tau - tau) * tangent
        u, tangent = _newton_stage(lambda v: smoothed(v, new_tau), start)
        tau = new_tau
        unconverged += tangent is None
    return u, unconverged


def _newton_stage(smoothed, u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Damped Newton on ``smoothed(u) -> (value, derivatives)`` from u:
    (final u, its tangent du/dtau), the tangent None when the Newton
    decrement did not meet ``NEWTON_TOL``.  ``derivatives() -> (gradient,
    hessian, d_tau)`` differentiates at u from the decomposition that gave
    the value, and ``d_tau()`` is d gradient / d tau there.  Each step is
    halved until it achieves a quarter of the decrease its slope predicts
    (Armijo), at most 40 times; a stage whose backtrack fails, or that
    reaches ``NEWTON_STEPS`` steps, ends unconverged.  A trial point is
    judged on its value alone: the gradient and Hessian are formed once per
    accepted point, and d gradient / d tau once, at a converged stage's end.

    At a minimizer the gradient vanishes for every tau, so H du/dtau + d
    gradient / d tau = 0: the tangent is -H+ (d gradient / d tau), H+ the
    pseudo-inverse over the eigenpairs that the final convergence check kept.
    """
    val, derivatives = smoothed(u)
    for steps in range(NEWTON_STEPS + 1):
        grad, hess, d_tau = derivatives()
        # the Hessian is positive semidefinite; directions of curvature below
        # 1e-12 of the largest (flat ones, such as any direction at a minimum
        # with gradient 0) are left out of the step
        w, v = np.linalg.eigh(hess)
        keep = w > 1e-12 * w[-1]
        w, v = w[keep], v[:, keep]
        step = -v @ ((grad @ v) / w)
        slope = float(grad @ step)               # minus the squared decrement
        if -slope <= 2.0 * NEWTON_TOL * val:
            return u, -v @ ((d_tau() @ v) / w)
        if steps == NEWTON_STEPS:
            break
        for halvings in range(40):
            t = 0.5 ** halvings
            trial, trial_derivatives = smoothed(u + t * step)
            if trial <= val + 0.25 * t * slope:
                break
        else:
            return u, None                       # no step lowers the value
        u = u + t * step
        val, derivatives = trial, trial_derivatives
    return u, None
