import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import minimize

from cqmlab import cqms as cq
from cqmlab import examples as ex
from cqmlab import numerics as nm

from conftest import cycle_arc_matrix, kantorovich_lp, relengthed_cycle


@pytest.fixture(scope="module")
def torus2():
    return ex.fuzzy_torus(2, 1)


@pytest.fixture(scope="module")
def cycle12():
    return ex.commutative_cycle(12)


@pytest.mark.parametrize("d", [3, 6, 8, 12, 16, 24])
def test_diagonal_space_basis_is_exactly_diagonal(d):
    # the SVD leaves round-off in entries that no spanning matrix holds; the
    # basis keeps those zeros, so its off-diagonal entries are all exactly 0
    ortho = cq.diagonal_space(d).ortho
    off = ortho.copy()
    off[:, np.arange(d), np.arange(d)] = 0.0
    assert not off.any()
    assert nm.is_diagonal(ortho)


def test_space_projection_roundtrip(torus2, rng):
    a = torus2.space.random_element(rng)
    assert torus2.space.projection_residual(a) < 1e-10
    assert torus2.space.contains(a, 1e-8)
    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    with pytest.raises(nm.NumericsError):
        cq.HermitianSpace(basis=off[None])


def test_space_ortho_unit_first(cycle12):
    unit = cycle12.space.ortho[0]
    assert np.allclose(unit, np.eye(12) / np.sqrt(12))


def test_ball_membership_basics(torus2):
    zero = np.zeros((2, 2), dtype=complex)
    for r in (0.0, 0.5, 3.0):
        assert torus2.ball_membership(zero, r)
    # a norm-violating element: (r+1) * unit-norm traceless direction
    d = np.diag([1.0, -1.0]).astype(complex)
    d = d / nm.op_norm(d)
    assert not torus2.ball_membership(2.0 * d, 1.0)
    with pytest.raises(ValueError):
        torus2.ball_membership(np.diag([1.0, 2.0, 3.0]).astype(complex), 1.0)


def test_gauge_identity(torus2, cycle12, rng):
    # the ray through d leaves D_r at t = 1/max(L(d), |d|/r): both L and the
    # norm are positively homogeneous, so the gauge of t d is exactly 1
    for cqms_obj, r in ((torus2, 1.0), (cycle12, 0.7)):
        for _ in range(5):
            d = cqms_obj.space.random_element(rng)
            t = 1.0 / max(cqms_obj.seminorm(d), nm.op_norm(d) / r)
            gauge = max(cqms_obj.seminorm(t * d), nm.op_norm(t * d) / r)
            assert gauge == pytest.approx(1.0, rel=2e-6)


def test_boundary_scale_unit_direction(torus2):
    # L(e) = 0, so the boundary along the unit is the norm constraint alone
    e = np.eye(2, dtype=complex)
    assert torus2.seminorm(e) == pytest.approx(0.0, abs=1e-12)
    assert torus2.ball_membership(0.8 * e, 0.8)
    assert not torus2.ball_membership(0.81 * e, 0.8, tol=0.0)


def test_boundary_ray_membership(torus2, rng):
    d = torus2.space.random_element(rng)
    t = 1.0 / max(torus2.seminorm(d), nm.op_norm(d) / 1.0)
    assert torus2.ball_membership(t * d, 1.0)
    assert not torus2.ball_membership(1.01 * t * d, 1.0, tol=0.0)


def test_ball_net_scalar_space_interval():
    scal = ex.scalar_cqms(ex.fuzzy_torus(2, 1))
    r, eps = 1.0, 0.2
    net = scal.ball_net(r, eps, budget=64, seed=0)
    assert net.complete
    # covers the segment {lambda e : |lambda| <= r} with step <= 2 eps
    lams = np.sort([np.trace(p).real / 2.0 for p in net.points])
    assert lams[0] <= -r + 2 * eps and lams[-1] >= r - 2 * eps
    assert np.max(np.diff(lams)) <= 2 * eps + 1e-9


def test_ball_net_degenerate_radius(torus2):
    net = torus2.ball_net(0.0, 0.3, budget=64, seed=0)
    assert net.size == 1 and nm.op_norm(net.points[0]) == 0.0


def test_ball_net_needs_a_probe(torus2):
    # with no probe there is no covering certificate: a budget of 0 would
    # report slack 0 and a complete net
    for r in (0.0, 1.0):
        with pytest.raises(ValueError, match="at least one probe, got budget=0"):
            torus2.ball_net(r, 0.5, budget=0, seed=0)


def test_ball_net_cap_flag(torus2):
    # a net that stops at max_points is flagged, and is the prefix of the
    # uncapped greedy net
    full = torus2.ball_net(1.0, 0.8, budget=8, seed=0)
    assert not full.capped and 6 < full.size < 220
    small = torus2.ball_net(1.0, 0.8, budget=8, seed=0, max_points=6)
    assert small.capped and small.size == 6
    assert np.array_equal(small.points, full.points[:6])
    # a cap at the size where the separation rule stops anyway is no cap
    exact = torus2.ball_net(1.0, 0.8, budget=8, seed=0, max_points=full.size)
    assert not exact.capped and np.array_equal(exact.points, full.points)
    assert not torus2.ball_net(0.0, 0.3, budget=64, seed=0).capped


def test_ball_net_validity_and_separation(torus2):
    r, eps = 1.0, 0.45
    net = torus2.ball_net(r, eps, budget=48, seed=0)
    for p in net.points:
        assert torus2.ball_membership(p, r)
    for i, j in itertools.combinations(range(net.size), 2):
        assert nm.op_norm(net.points[i] - net.points[j]) >= eps / 2.0 - 1e-9


def test_ball_net_grid_oracle_dimension4(torus2):
    # exhaustive coefficient-grid oracle over the 4-dimensional space: the
    # probe certificate is statistical, so the oracle's true covering radius
    # may exceed it by a modest factor (measured 1.25 here, pinned at 1.3)
    r, eps = 1.0, 0.55
    net = torus2.ball_net(r, eps, budget=96, seed=0)
    assert net.covering_certificate <= eps and net.complete
    axes = [np.linspace(-r, r, 9)] * 4
    worst = 0.0
    for coeffs in itertools.product(*axes):
        a = torus2.space.element(np.array(coeffs))
        if torus2.seminorm(a) <= 1.0 and nm.op_norm(a) <= r:
            dist = min(nm.op_norm(a - p) for p in net.points)
            worst = max(worst, dist)
    assert worst <= 1.3 * max(eps, net.covering_certificate)


def test_nested_nets(torus2):
    small = torus2.ball_net(0.5, 0.4, budget=64, seed=0)
    for p in small.points:
        assert torus2.ball_membership(p, 1.0)


def test_lemma_R_r_hausdorff(torus2):
    # dist_H(D_R, D_r) <= R - r, witnessed through the nets up to certificates
    big_r, small_r, eps = 1.0, 0.5, 0.5
    net_r = torus2.ball_net(big_r, eps, budget=48, seed=0)
    net_s = torus2.ball_net(small_r, eps, budget=48, seed=0)
    d = np.array([[nm.op_norm(p - q) for q in net_s.points] for p in net_r.points])
    h = max(d.min(axis=1).max(), d.min(axis=0).max())
    slack = net_r.covering_certificate + net_s.covering_certificate
    assert h <= (big_r - small_r) + 2 * slack + 1e-9


def test_nets_share_one_sample(monkeypatch):
    # nets of one space and seed share their rays, interior points and
    # probes: each net equals the same net on a fresh space, in either call
    # order, and only a new probe budget evaluates seminorms again
    specs = [(1.0, 0.5, 48, 220), (0.5, 0.5, 48, 220), (1.0, 0.25, 48, 220),
             (1.0, 0.5, 48, 12), (0.5, 0.5, 20, 220)]
    fresh = {spec: ex.fuzzy_sphere(2).ball_net(spec[0], spec[1], budget=spec[2], seed=3,
                                               max_points=spec[3])
             for spec in specs}
    rows = []
    kernel_norms = cq.Cqms._kernel_norms

    def counted(self, coeff_rows, *args):
        rows.append(len(coeff_rows))
        return kernel_norms(self, coeff_rows, *args)

    monkeypatch.setattr(cq.Cqms, "_kernel_norms", counted)
    for order in (specs, specs[::-1]):
        shared = ex.fuzzy_sphere(2)
        rows.clear()
        # a zero radius returns before any sample is built
        assert shared.ball_net(0.0, 0.5, budget=64, seed=3).size == 1 and not rows
        for k, (r, eps, budget, cap) in enumerate(order):
            rows.clear()
            net = shared.ball_net(r, eps, budget=budget, seed=3, max_points=cap)
            ref = fresh[(r, eps, budget, cap)]
            assert np.array_equal(net.points, ref.points)
            assert (net.covering_certificate, net.complete, net.capped) == (
                ref.covering_certificate, ref.complete, ref.capped)
            if k == 0:
                rays, interior = shared._ball_sample(3)
                assert sum(rows) == len(rays[0]) + len(interior[0]) + budget
            else:
                seen = {spec[2] for spec in order[:k]}
                assert sum(rows) == (0 if budget in seen else budget)
        assert any(net.capped for net in shared.net_cache.values())


def test_ball_net_scans_candidates_once(monkeypatch):
    # one is_diagonal scan of the candidates (inside farthest_first), then
    # one of the net and one of the probes for the certificate; a dense
    # net stops the certificate's scans at the net
    scans = []
    is_diagonal = nm.is_diagonal

    def counting(stack):
        scans.append(len(stack))
        return is_diagonal(stack)

    for space, diagonal in ((ex.commutative_cycle(8), True), (ex.fuzzy_torus(2, 1), False)):
        space.ball_net(1.0, 0.5, budget=16, seed=0)          # builds the shared sample
        space.net_cache.clear()
        rays, interior = space._ball_sample(0)
        monkeypatch.setattr(nm, "is_diagonal", counting)
        net = space.ball_net(1.0, 0.5, budget=16, seed=0)
        monkeypatch.undo()
        assert scans == [4 * len(rays[0]) + len(interior[0]), net.size] + [16] * diagonal
        scans.clear()


def test_radius_scalar_space():
    scal = ex.scalar_cqms(ex.fuzzy_torus(2, 1))
    assert scal.radius() == 0.0
    assert scal.radius_method() == "exact"


def test_radius_cycle_exact_value(cycle12):
    # exact value: half the diameter of the m-point circle, cross-checked
    # against the LP oracle over all Dirac pairs
    arcs = cycle_arc_matrix(12)
    lp_diam = 0.0
    for i in range(12):
        c = np.zeros(12)
        c[0], c[i] = 1.0, -1.0
        lp_diam = max(lp_diam, kantorovich_lp(arcs, c))
    assert lp_diam == pytest.approx(np.pi, abs=1e-9)
    assert cycle12.radius() == pytest.approx(lp_diam / 2.0, rel=0.01)


def test_radius_below_length_mean(cycle12, torus2):
    for obj in (cycle12, torus2, ex.fuzzy_torus(3, 1)):
        assert obj.radius() <= obj.action.group.haar_mean_length() + 1e-6


def test_radius_non_lip_signals():
    import cqmlab.group_action as ga
    group = ga.torus_group(4, 1)
    impl = np.array([np.eye(3, dtype=complex)] * 4)
    trivial = cq.Cqms(space=cq.full_matrix_space(3),
                      action=ga.UnitaryAction(group=group, implementers=impl))
    with pytest.raises(cq.NonLipError):
        trivial.radius()
    # a diagonal space whose action only swaps two of four points: the
    # seminorm reaches 0 on the functional's slice, and the points' graph is
    # disconnected
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    split = cq.Cqms(space=cq.diagonal_space(4),
                    action=ga.UnitaryAction(group=ga.torus_group(2, 1),
                                            implementers=np.array([np.eye(4), swap])))
    with pytest.raises(cq.NonLipError):
        split._support_max(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    with pytest.raises(cq.NonLipError):
        split.radius()


def test_state_metric_zero_and_symmetry(cycle12):
    mu = cq.dirac_state(12, 3)
    assert cycle12.state_metric(mu, mu) == 0.0
    nu = cq.dirac_state(12, 7)
    assert cycle12.state_metric(mu, nu) == pytest.approx(
        cycle12.state_metric(nu, mu), rel=1e-6)


def test_state_metric_lp_oracle(cycle12):
    arcs = cycle_arc_matrix(12)
    for i, j in ((0, 1), (0, 3), (2, 8), (0, 6)):
        c = np.zeros(12)
        c[i], c[j] = 1.0, -1.0
        oracle = kantorovich_lp(arcs, c)
        got = cycle12.state_metric(cq.dirac_state(12, i), cq.dirac_state(12, j))
        assert got == pytest.approx(oracle, rel=0.02)


def test_state_metric_r_validation(cycle12):
    # the sup saturates on D_{r_A}: the support solve's maximizer has
    # L = 1 and quotient norm at most the (exact) radius
    mu, nu = cq.dirac_state(12, 0), cq.dirac_state(12, 1)
    value, argmax = cycle12._support_max(mu - nu)
    assert cycle12.seminorm(argmax) == pytest.approx(1.0, rel=1e-9)
    assert nm.quotient_norm(argmax) <= cycle12.radius() + 1e-9
    assert cycle12.state_metric(mu, nu) == pytest.approx(value, rel=1e-9)


def test_state_metric_radius_only_for_r():
    # a state metric is one support solve: a fresh space computes no radius
    obj = ex.fuzzy_torus(3, 1)
    mu, nu = cq.dirac_state(3, 0), cq.dirac_state(3, 1)
    assert obj.state_metric(mu, nu) > 0.0
    assert obj._radius is None


def test_state_metric_bounded_by_2r(cycle12):
    big_r = cycle12.action.group.haar_mean_length()
    mu, nu = cq.dirac_state(12, 0), cq.dirac_state(12, 6)
    assert cycle12.state_metric(mu, nu) <= 2 * big_r + 1e-9


def test_state_diameter_scalar():
    scal = ex.scalar_cqms(ex.fuzzy_torus(2, 1))
    assert scal.state_diameter(sample=4, seed=0) == 0.0


def test_state_diameter_cycle(cycle12):
    diam = cycle12.state_diameter(sample=12, seed=3)
    assert diam == pytest.approx(np.pi, rel=0.05)
    r = cycle12.radius()
    assert abs(diam / 2.0 - r) <= 0.1 * r


@pytest.mark.parametrize("build, radius, floor", [
    (lambda: ex.fuzzy_torus(3, 1), 1.6801983363120239, 1.7080715384292215),
    (lambda: ex.fuzzy_torus(5, 1), 2.005099767889147, 2.005411065471815),
    (lambda: ex.fuzzy_sphere(1), 0.5097421934694651, 0.5090495209479443),
    (lambda: ex.fuzzy_sphere(2), 0.5088864047356051, 0.5081119199512445),
], ids=["torus3", "torus5", "sphere1", "sphere2"])
def test_radius_is_half_the_diameter(build, radius, floor):
    # r = diam S(A) / 2, and one ascent over pure-state pairs serves both: a
    # fresh radius is the six-start ascent's witnessed value, to the bit
    # (recorded with tangent-predicted stages on the one ladder and Z_q^n
    # generator kernels); a diameter continues that ascent, so afterwards
    # r = diam / 2 exactly and neither drops.  The floors are max(r,
    # diam / 2) from when the two numbers came from separate ascents
    # (torus3, torus5 and sphere2 had r < diam / 2)
    obj = build()
    assert obj.radius() == radius
    diam = obj.state_diameter(8, 1)
    assert diam == 2.0 * obj.radius()
    assert obj.radius() >= floor - 1e-12
    assert obj.state_diameter(1, 2) >= diam
    # the cached value is witnessed: |a~| / L(a) of the cached element
    value, a = obj._radius
    assert nm.quotient_norm(a) / obj.seminorm(a) >= value * (1.0 - 1e-9)


@pytest.mark.parametrize("name", ["torus3", "sphere1"])
def test_smoothed_seminorm_gradient(name, monkeypatch):
    # analytic gradient and Hessian of the smoothed seminorm in the null-space
    # coordinates of a slice against central differences of its value and
    # gradient, over the whole kernel at a wide, a mild and a sharp
    # temperature (diagonal operators are solved by LP and never smoothed)
    obj = {"torus3": lambda: ex.fuzzy_torus(3, 1),
           "sphere1": lambda: ex.fuzzy_sphere(1)}[name]()
    op, diagonal = obj._operator()
    assert not diagonal
    rng = np.random.default_rng(11)
    c0, nmat = _slice(obj, obj.space.random_element(rng))
    smoothed = _smoothed(obj, c0, nmat, op, monkeypatch)
    n = nmat.shape[1]
    u = rng.standard_normal(n)
    exact = obj._coeff_seminorms((c0 + nmat @ u)[None])[0]
    # (at tau = exact most eigenvalue pairs take the near-pair formula)
    for tau in (exact, 0.1 * exact, 0.001 * exact):
        val, grad, hess, _ = smoothed(u, tau)
        # log-sum-exp sits between the max and the max plus tau log(#terms)
        terms = 2 * len(obj.action.seminorm_kernel()[0]) * obj.dim
        assert exact - 1e-12 <= val <= exact + tau * np.log(terms) + 1e-12
        h = 1e-6
        steps = [(smoothed(u + h * e, tau), smoothed(u - h * e, tau)) for e in np.eye(n)]
        fd = np.array([(plus[0] - minus[0]) / (2 * h) for plus, minus in steps])
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-7)
        fd_hess = np.array([(plus[1] - minus[1]) / (2 * h) for plus, minus in steps])
        assert np.array_equal(hess, hess.T)
        assert np.allclose(hess, fd_hess, rtol=1e-6, atol=1e-7)


def test_spectral_lse_derivatives():
    # value, gradient and Hessian of the shared log-sum-exp routine against
    # central differences of an affine family with an offset (the glue's
    # shape), taken at the offset: two groups of two 4 x 4 matrices, the
    # second zero-padded from 3 x 3, and an eigenvalue pair 1e-3 tau apart
    # in the first offset, so that both Gamma branches are taken; and the
    # gradient's tau-derivative against central differences in tau, at the
    # glue's temperature scale too
    rng = np.random.default_rng(4)
    n, d, tau = 3, 4, 0.2
    mats = np.array([[nm.random_hermitian(rng, d) for _ in range(2)] for _ in range(2)])
    dirs = np.array([[[nm.random_hermitian(rng, d) for _ in range(n)] for _ in range(2)]
                     for _ in range(2)])
    w, v = np.linalg.eigh(mats[0, 0])
    w[1] = w[2] - 1e-3 * tau
    mats[0, 0] = (v * w) @ v.conj().T
    mats[1, :, 3, :] = mats[1, :, :, 3] = 0.0
    dirs[1, :, :, 3, :] = dirs[1, :, :, :, 3] = 0.0

    def at(c):
        return cq.spectral_lse(mats + np.einsum("k,gmkab->gmab", c, dirs), dirs, tau)

    val, grad, hess, dgrad = at(np.zeros(n))
    for t in (tau, 5.0 * tau):
        ht = 1e-5 * t
        fd_tau = (cq.spectral_lse(mats, dirs, t + ht)[1]
                  - cq.spectral_lse(mats, dirs, t - ht)[1]) / (2 * ht)
        assert np.allclose(cq.spectral_lse(mats, dirs, t)[3], fd_tau, rtol=1e-7, atol=1e-8)
    h = 1e-5
    steps = [(at(h * e), at(-h * e)) for e in np.eye(n)]
    fd = np.array([(plus[0] - minus[0]) / (2 * h) for plus, minus in steps]).T
    fd_hess = np.array([(plus[1] - minus[1]) / (2 * h) for plus, minus in steps])
    assert np.allclose(grad, fd, rtol=1e-7, atol=1e-8)
    assert np.allclose(hess, fd_hess.transpose(1, 0, 2), rtol=1e-6, atol=1e-7)
    assert all(np.allclose(hs, hs.T, rtol=0, atol=1e-13) for hs in hess)


def _slice(obj, g):
    """(c0, nmat): the slice <g, a> = 1 of a support solve as c0 + nmat @ u."""
    gs = np.real(np.einsum("kab,ab->k", obj.space.ortho[1:].conj(), g))
    return gs / np.linalg.norm(gs) ** 2, null_space(gs[None, :])


def _family(obj, c0, nmat, op):
    """(start, lin): the kernel columns ``op`` of a dense operator over the
    slice c0 + nmat @ u, laid out for ``minimize_norms`` as ``_support_max``
    lays them out."""
    return (c0 @ op).reshape(1, -1, obj.dim, 2 * obj.dim), nmat.T @ op


def _smoothed(obj, c0, nmat, op, monkeypatch):
    """The smoothed seminorm (u, tau) -> (value, gradient, Hessian, d
    gradient / d tau) that ``minimize_norms`` anneals over ``_family``."""
    seen = []

    def capture(smoothed, exact, u):
        seen.append(smoothed)
        return u, 0

    with monkeypatch.context() as mp:
        mp.setattr(cq, "anneal", capture)
        cq.minimize_norms(*_family(obj, c0, nmat, op), np.ones(1), None, np.zeros(nmat.shape[1]))
    return seen[0]


def _full_kernel_support(obj, g):
    """The support solve by an L-BFGS ladder with every stage smoothed over
    the whole seminorm kernel: an independent reference for the working
    kernel and the Newton stages, with its own log-sum-exp value and
    gradient (sum_x Re tr(W_x D_x,k), W_x the softmax-weighted eigenvectors)."""
    c0, nmat = _slice(obj, g)
    op, d = obj._operator()[0], obj.dim

    def objective(u, tau):
        vals, v = np.linalg.eigh(((c0 + nmat @ u) @ op).view(complex).reshape(-1, d, d))
        z = np.concatenate([vals, -vals])
        wts = np.exp((z - z.max()) / tau)
        val = z.max() + tau * np.log(wts.sum())
        wts /= wts.sum()
        coef = wts[:len(vals)] - wts[len(vals):]
        wmat = (v * coef[:, None, :]) @ np.swapaxes(v.conj(), 1, 2)
        return val, nmat.T @ (op @ wmat.reshape(-1).view(float))

    u = np.zeros(nmat.shape[1])
    for factor in cq.LADDER:
        tau = factor * max(obj._coeff_seminorms((c0 + nmat @ u)[None])[0], 1e-9)
        u = minimize(objective, u, args=(tau,), jac=True, method="L-BFGS-B",
                     options={"maxiter": 120, "ftol": 1e-15, "gtol": 1e-13}).x
    c = c0 + nmat @ u
    lv = obj._coeff_seminorms(c[None])[0]
    return 1.0 / lv, np.einsum("k,kab->ab", c, obj.space.ortho[1:]) / lv


def _orthogonal_pure_pairs(obj, count, seed):
    """Riesz directions in the space of seeded pairs of orthogonal pure states."""
    rng = np.random.default_rng(seed)
    d = obj.dim
    out = []
    for _ in range(count):
        v, w = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
        g = cq.vector_state(v) - cq.vector_state(w)
        out.append(obj.space.element(obj.space.coeffs(g)))
    return out


@pytest.mark.parametrize("name", ["sphere2", "sphere3"])
def test_working_kernel_support(name, monkeypatch):
    # on the SU(2) kernel the ladder smooths over a small working kernel,
    # grown in a few rounds, and its value stays that of the full-kernel
    # ladder; the argmax is on the exact unit sphere of the full-kernel
    # seminorm and attains the value
    obj = {"sphere2": lambda: ex.fuzzy_sphere(2),
           "sphere3": lambda: ex.fuzzy_sphere(3)}[name]()
    lse, anneal = cq.spectral_lse, cq.anneal
    widths = []

    def recording(mats, dirs, tau):
        # every evaluation reads one contiguous direction stack, laid out
        # once per working kernel
        widths.append(dirs.shape[1])
        assert dirs.flags["C_CONTIGUOUS"]
        return lse(mats, dirs, tau)

    def checked(smoothed, exact, u):
        # and the smoothed seminorm differentiates in u directly
        def shaped(v, tau):
            val, grad, hess, dgrad = smoothed(v, tau)
            assert grad.shape == dgrad.shape == v.shape and hess.shape == (len(v), len(v))
            return val, grad, hess, dgrad
        return anneal(shaped, exact, u)

    for g in _orthogonal_pure_pairs(obj, 3, seed=5):
        ref, _ = _full_kernel_support(obj, g)
        widths.clear()
        with monkeypatch.context() as mp:
            mp.setattr(cq, "spectral_lse", recording)
            mp.setattr(cq, "anneal", checked)
            val, a = obj._support_max(g)
        assert abs(val - ref) <= 1e-4 * ref
        assert obj.seminorm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.real(np.trace(g @ a)) == pytest.approx(val, rel=1e-12)
        # one ladder per working kernel, each larger than the last
        assert min(widths) == cq.WORKING_SEED
        assert len(set(widths)) <= 4 and max(widths) < 2 * cq.WORKING_SEED


@pytest.mark.parametrize("name", ["sphere2", "sphere3"])
def test_kernel_norms_screen_is_exact(name, monkeypatch):
    # the traceless-HS bound skips eigensolves, but every solved norm is
    # exact, every skipped one is below factor times the rank-th largest,
    # and every working-kernel seed and growth set is the one selected from
    # the norms of the whole kernel, also when the seed cut ties
    obj = {"sphere2": lambda: ex.fuzzy_sphere(2),
           "sphere3": lambda: ex.fuzzy_sphere(3)}[name]()
    kernel = len(obj.action.seminorm_kernel()[0])
    screened, minimize_norms = cq.Cqms._kernel_norms, cq.minimize_norms
    eigvalsh = np.linalg.eigvalsh
    solved, calls, ties, seeds, ladders = [], [], [], [], []

    def counting(a):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a)

    def checked(self, rows, factor=1.0, rank=1):
        before = len(solved)
        got = screened(self, rows, factor, rank)
        if rank == cq.WORKING_SEED or factor == cq.WORKING_ADD:
            calls.append(sum(solved[before:]))
        mats = (rows @ self._operator()[0]).view(complex).reshape(len(rows), kernel,
                                                                    obj.dim, obj.dim)
        norms = np.max(np.abs(eigvalsh(mats)), axis=-1)
        assert got.shape == norms.shape
        for row, want in zip(got, norms):
            skipped = row == -np.inf
            assert np.array_equal(row[~skipped], want[~skipped])
            top = np.sort(want)
            assert np.all(want[skipped] < factor * top[-rank])
            if rank == cq.WORKING_SEED:
                ties.append(top[-rank] == top[-rank - 1])
                pick = np.argsort(-want, kind="stable")[:rank]
                assert np.array_equal(np.argsort(-row, kind="stable")[:rank], pick)
                seeds.append(np.sort(pick))
            if factor == cq.WORKING_ADD:
                assert np.array_equal(np.flatnonzero(row >= factor * np.max(row)),
                                      np.flatnonzero(want >= factor * np.max(want)))
        return got

    def recording(start, lin, weights, exact, u):
        # one family, and one ladder, per working kernel
        ladders.append(start)
        return minimize_norms(start, lin, weights, exact, u)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(cq.Cqms, "_kernel_norms", checked)
    monkeypatch.setattr(cq, "minimize_norms", recording)
    op = obj._operator()[0]
    pairs = _orthogonal_pure_pairs(obj, 2, seed=11)
    if name == "sphere2":
        pairs += _orthogonal_pure_pairs(obj, 1, seed=4)     # its 48th and 49th norms tie
    for g in pairs:
        ladders.clear()
        obj._support_max(g)
        # the first ladder runs on the lowest-index 48 of the largest norms
        seed = op.reshape(len(op), kernel, -1)[:, seeds[-1]].reshape(len(op), -1)
        assert np.array_equal(ladders[0].ravel(), _slice(obj, g)[0] @ seed)
    assert len(calls) > 2 * len(pairs)
    assert sum(calls) < 0.3 * kernel * len(calls)
    assert any(ties) or name != "sphere2"
    # entries so small that their squares underflow: every norm is solved
    # (the 1e-150 margin), and exact
    rows = 1e-160 * np.random.default_rng(2).standard_normal((2, obj.space.real_dim - 1))
    assert np.all(checked(obj, rows) > 0.0)


def test_kernel_norms_diagonal_layout(cycle12):
    # a diagonal operator gives every element's max |diagonal| exactly, in
    # kernel order, and it is the norm of alpha_x(a) - a over l(x)
    op, diagonal = cycle12._operator()
    assert diagonal
    others, lens = cycle12.action.seminorm_kernel()
    rows = np.random.default_rng(4).standard_normal((5, cycle12.space.real_dim - 1))
    got = cycle12._kernel_norms(rows)
    d = cycle12.dim
    flat = rows @ op
    want = np.array([[np.max(np.abs(row[x * d:(x + 1) * d])) for x in range(len(others))]
                     for row in flat])
    assert np.array_equal(got, want)
    u = cycle12.action.implementers[others]
    for row, norms in zip(rows, got):
        a = np.einsum("k,kab->ab", row, cycle12.space.ortho[1:])
        diffs = (u @ a @ np.swapaxes(u.conj(), 1, 2) - a) / lens[:, None, None]
        assert np.allclose(norms, nm.op_norms(diffs), rtol=1e-12, atol=1e-14)
    assert np.array_equal(cycle12._coeff_seminorms(rows), np.max(got, axis=1))


@pytest.mark.parametrize("name", ["torus51"])
def test_working_kernel_is_whole_small_kernel(name):
    # a kernel of at most WORKING_SEED elements is the working kernel itself:
    # one ladder, the same Newton stages as over the whole kernel
    obj = {"torus51": lambda: ex.fuzzy_torus(5, 1)}[name]()
    assert len(obj.action.seminorm_kernel()[0]) <= cq.WORKING_SEED
    rng = np.random.default_rng(9)
    for _ in range(3):
        g = obj.space.random_element(rng)
        c0, nmat = _slice(obj, g)
        u, unconverged = cq.minimize_norms(
            *_family(obj, c0, nmat, obj._operator()[0]), np.ones(1),
            lambda u: obj._coeff_seminorms((c0 + nmat @ u)[None])[0], np.zeros(nmat.shape[1]))
        assert unconverged == 0
        ref, ref_a = obj._rescaled(c0 + nmat @ u)
        val, a = obj._support_max(g)
        assert val == pytest.approx(ref, rel=1e-12)
        assert np.allclose(a, ref_a, rtol=0.0, atol=1e-12 * nm.hs_norm(ref_a))
        # and the L-BFGS reference agrees within the working-kernel tolerance
        assert abs(val - _full_kernel_support(obj, g)[0]) <= 1e-4 * val


@pytest.mark.parametrize("m", [3, 5, 8, 12, 16], ids=lambda m: f"cycle{m}")
def test_diagonal_space_is_exact(m):
    # on the circle the seminorm is the Lipschitz constant of the arc-length
    # graph: the Dirac metric is the arc metric, support values are the
    # Kantorovich LP oracle's, and radius and diameter are exact
    obj = ex.commutative_cycle(m)
    arcs = cycle_arc_matrix(m)
    assert np.max(np.abs(obj._dirac_metric() - arcs)) <= 1e-12
    rng = np.random.default_rng(m)
    for _ in range(3):
        g = rng.standard_normal(m)
        g -= g.mean()
        gmat = np.diag(g).astype(complex)
        val, a = obj._support_max(gmat)
        assert abs(val - kantorovich_lp(arcs, g)) <= 1e-9
        assert obj.seminorm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.real(np.trace(gmat @ a)) == pytest.approx(val, rel=1e-12)
    assert obj.radius() == pytest.approx(np.max(arcs) / 2.0, abs=1e-12)
    assert obj.radius_method() == "exact"
    assert obj.state_diameter(24, 0) == 2.0 * obj.radius()


@pytest.mark.parametrize("m", [6, 12, 16], ids=lambda m: f"cycle{m}")
def test_dirac_state_metrics_match_lp_oracle(m):
    # the diagonal support LP minimizes L on the functional's slice: every
    # Dirac-pair state metric is the Kantorovich LP oracle's within 1e-9
    # relative
    obj = ex.commutative_cycle(m)
    arcs = cycle_arc_matrix(m)
    for i, j in itertools.combinations(range(m), 2):
        c = np.zeros(m)
        c[i], c[j] = 1.0, -1.0
        want = kantorovich_lp(arcs, c)
        assert abs(obj.state_metric(cq.dirac_state(m, i), cq.dirac_state(m, j)) - want) \
            <= 1e-9 * want


@pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 0.3]], ids=["one", "three"])
def test_minimize_norms_layouts_agree(weights):
    # one family of diagonal matrices in both layouts: as diagonals it is one
    # LP, as real views of the dense matrices it is annealed.  The LP is
    # optimal, so at most the annealed value, and the annealed value is
    # within the last stage's log-sum-exp bias, tau log(2 m d) per unit of
    # weight, of the LP's
    rng = np.random.default_rng(len(weights))
    weights = np.array(weights)
    g, m, d, n = len(weights), 4, 3, 5
    start = rng.standard_normal((g, m, d))
    lin = rng.standard_normal((n, g * m * d))
    objective = lambda u: weights @ np.max(np.abs(start + (u @ lin).reshape(g, m, d)),
                                           axis=(1, 2))
    lp_u, unconverged = cq.minimize_norms(start, lin, weights, None, None)
    assert unconverged == 0
    dense = np.zeros((g, m, d, d), dtype=complex)
    dense[..., np.arange(d), np.arange(d)] = start
    dirs = np.zeros((n, g, m, d, d), dtype=complex)
    dirs[..., np.arange(d), np.arange(d)] = lin.reshape(n, g, m, d)
    starts = []

    def exact(u):
        starts.append(objective(u))
        return starts[-1]

    u, _ = cq.minimize_norms(dense.view(float), dirs.view(float).reshape(n, -1), weights, exact,
                             np.zeros(n))
    lp, annealed = objective(lp_u), objective(u)
    tau = cq.LADDER[-1] * max(starts[-1], 1e-9)
    assert lp <= annealed + 1e-9
    assert annealed <= lp + tau * np.sum(weights) * np.log(2 * m * d) + 1e-9


def test_dirac_metric_is_shortest_path():
    # squared arc lengths break the triangle inequality, so the Dirac metric
    # is the shortest-path metric over several shifts, not the direct length;
    # the LP oracle over the direct lengths computes the same sup
    obj = relengthed_cycle(8, np.square)
    direct = cycle_arc_matrix(8) ** 2
    dirac = obj._dirac_metric()
    assert np.all(dirac <= direct + 1e-12) and np.max(direct - dirac) > 1.0
    for i, j in itertools.combinations(range(8), 2):
        c = np.zeros(8)
        c[i], c[j] = 1.0, -1.0
        assert dirac[i, j] == pytest.approx(kantorovich_lp(direct, c), abs=1e-9)
        val, _ = obj._support_max(np.diag(c).astype(complex))
        assert val == pytest.approx(dirac[i, j], abs=1e-9)
    assert obj.radius() == pytest.approx(np.max(dirac) / 2.0, abs=1e-12)


def test_diagonal_spaces_skip_smoothing(monkeypatch):
    # cycle radii, diameters and state metrics never evaluate the smoothed
    # seminorm; a fuzzy torus still does
    calls = []
    lse = cq.spectral_lse

    def counting(*args):
        calls.append(1)
        return lse(*args)

    monkeypatch.setattr(cq, "spectral_lse", counting)
    for m in (8, 16):
        obj = ex.commutative_cycle(m)
        obj.radius()
        obj.state_diameter(sample=8, seed=1)
        obj.state_metric(cq.dirac_state(m, 0), cq.dirac_state(m, m // 2))
        obj.state_metric(cq.vector_state(np.ones(m)), cq.dirac_state(m, 1))
    assert not calls
    ex.fuzzy_torus(3, 1).radius()
    assert calls


def test_unconverged_stages_counted(monkeypatch):
    # every Newton stage of fuzzy_torus(5,1)'s radius converges (the L-BFGS
    # ladder left 29 of 96 at its iteration cap); with a one-step cap every
    # stage run ends unconverged and is counted on the space
    obj = ex.fuzzy_torus(5, 1)
    assert obj.unconverged_stages == 0
    obj.radius()
    assert obj.unconverged_stages == 0

    stages = []
    newton_stage = cq._newton_stage

    def counting(*args):
        stages.append(1)
        return newton_stage(*args)

    monkeypatch.setattr(cq, "_newton_stage", counting)
    monkeypatch.setattr(cq, "NEWTON_STEPS", 1)
    capped = ex.fuzzy_torus(5, 1)
    capped.radius()
    assert stages and capped.unconverged_stages == len(stages)


def test_newton_stage_outcomes():
    # a quadratic with a tau-dependent linear term, 0.5 u A u - (b + tau c) u,
    # converges to its minimizer A^-1 (b + tau c) with tangent A^-1 c; a
    # function whose value rises along every step ends unconverged where it
    # started, with no tangent
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b, c = np.array([1.0, -1.0]), np.array([0.5, 2.0])
    quadratic = lambda u: (0.5 * u @ a @ u - b @ u + 10.0, a @ u - b, a, -c)
    u, tangent = cq._newton_stage(quadratic, np.zeros(2))
    assert np.allclose(u, np.linalg.solve(a, b), rtol=0, atol=1e-12)
    assert np.allclose(tangent, np.linalg.solve(a, c), rtol=0, atol=1e-12)
    rising = lambda u: (1.0 + u @ u, np.ones(2), np.eye(2), np.zeros(2))
    u, tangent = cq._newton_stage(rising, np.zeros(2))
    assert tangent is None and np.array_equal(u, np.zeros(2))


@pytest.mark.parametrize("name", ["torus3", "sphere1"])
def test_stage_tangent_is_the_minimizer_path(name, monkeypatch):
    # a converged stage's tangent du/dtau is the central difference of the
    # minimizers of two converged stages at tau (1 +- 1e-3), each started at
    # the stage's own minimizer, over a solve's slice at the last two of the
    # ladder's temperatures, reached through its first two (a smaller step
    # moves less than the stopping rule resolves)
    obj = {"torus3": lambda: ex.fuzzy_torus(3, 1), "sphere1": lambda: ex.fuzzy_sphere(1)}[name]()
    c0, nmat = _slice(obj, obj.space.random_element(np.random.default_rng(11)))
    smoothed = _smoothed(obj, c0, nmat, obj._operator()[0], monkeypatch)
    exact = lambda u: obj._coeff_seminorms((c0 + nmat @ u)[None])[0]
    u = np.zeros(nmat.shape[1])
    for factor in cq.LADDER[:2]:
        tau = factor * exact(u)
        u, tangent = cq._newton_stage(lambda v: smoothed(v, tau), u)
        assert tangent is not None
    h = 1e-3
    for factor in cq.LADDER[2:]:
        tau = factor * exact(u)
        u, tangent = cq._newton_stage(lambda v: smoothed(v, tau), u)
        ends = [cq._newton_stage(lambda v: smoothed(v, t), u)
                for t in (tau * (1.0 + h), tau * (1.0 - h))]
        assert tangent is not None and all(end[1] is not None for end in ends)
        fd = (ends[0][0] - ends[1][0]) / (2.0 * h * tau)
        assert np.linalg.norm(fd - tangent) <= 1e-4 * np.linalg.norm(tangent)


def test_torus_radius_evaluation_count(monkeypatch):
    # each annealing stage starts on the previous stage's tangent, and the
    # generator kernel keeps the smoothing small: fuzzy_torus(5,1)'s radius
    # takes at most 500 smoothed evaluations (448 at this writing), and
    # every stage converges; each evaluation is one ``spectral_lse`` call
    calls = []
    lse = cq.spectral_lse

    def counting(*args):
        calls.append(1)
        return lse(*args)

    monkeypatch.setattr(cq, "spectral_lse", counting)
    obj = ex.fuzzy_torus(5, 1)
    obj.radius()
    assert 0 < len(calls) <= 500
    assert obj.unconverged_stages == 0


def _kernel_sups(obj, stack):
    """max |eigvalsh| over the whole seminorm kernel, row by row, from the
    same block products as ``Cqms.seminorms``: the unscreened sup."""
    op, diagonal = obj._operator()
    assert not diagonal
    rows = nm.realify(stack) @ nm.realify(obj.space.ortho[1:]).T
    out = []
    for lo in range(0, len(rows), obj._BLOCK):
        flat = rows[lo:lo + obj._BLOCK] @ op
        mats = flat.view(complex).reshape(len(flat), -1, obj.dim, obj.dim)
        out.append(np.max(np.abs(np.linalg.eigvalsh(mats)), axis=(1, 2)))
    return np.concatenate(out)


@pytest.mark.parametrize("name", ["sphere2", "torus31"])
def test_seminorm_screen_is_exact(name, monkeypatch):
    # the HS screen skips only eigensolves that cannot reach the sup, so the
    # values are bitwise those of the whole kernel, over several blocks
    obj = {"sphere2": lambda: ex.fuzzy_sphere(2),
           "torus31": lambda: ex.fuzzy_torus(3, 1)}[name]()
    rng = np.random.default_rng(7)
    n = 2 * obj._BLOCK + 5
    stack = np.array([obj.space.random_element(rng) for _ in range(n)])
    stack[:3] *= 1e-6
    brute = _kernel_sups(obj, stack)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert np.array_equal(obj.seminorms(stack), brute)
    if name == "sphere2":
        assert sum(solved) < n * len(obj.action.seminorm_kernel()[0])


def test_seminorm_screen_memory():
    obj = ex.fuzzy_sphere(3)
    rng = np.random.default_rng(3)
    stack = obj.space.element(np.concatenate(
        [np.zeros((200, 1)), rng.standard_normal((200, obj.space.real_dim - 1))], axis=1))
    obj.seminorm(stack[0])                     # builds the operator
    tracemalloc.start()
    try:
        obj.seminorms(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("build", [lambda: ex.fuzzy_sphere(2), lambda: ex.fuzzy_torus(5, 1)],
                         ids=["sphere2", "torus5"])
def test_complement_basis_matches_null_space(build, monkeypatch):
    # every slice basis of a radius run is scipy's null space of the
    # functional, to the bit
    seen = []
    basis = nm.complement_basis

    def spy(v):
        out = basis(v)
        seen.append((v, out))
        return out

    monkeypatch.setattr(nm, "complement_basis", spy)
    build().radius()
    assert seen
    for v, out in seen:
        assert out.flags.c_contiguous
        assert np.array_equal(out, null_space(v[None, :]))
