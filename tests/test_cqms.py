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


def test_space_projection_roundtrip(torus2, rng):
    a = torus2.space.random_element(rng)
    assert torus2.space.projection_residual(a) < 1e-10
    assert torus2.space.contains(a)
    off = np.zeros((2, 2), dtype=complex)
    off[0, 1] = 1.0
    with pytest.raises(nm.NumericsError):
        cq.HermitianSpace(basis=off[None])


def test_space_ortho_unit_first(cycle12):
    unit = cycle12.space.ortho[0]
    assert np.allclose(unit, np.eye(12) / np.sqrt(12))


def test_state_functional_validation():
    good = cq.dirac_state(3, 1)
    good.validate()
    bad = cq.StateFunctional(density=np.diag([0.7, 0.7, -0.4]).astype(complex))
    with pytest.raises(ValueError):
        bad.validate()


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
    # boundary_scale equals 1/max(L, |.|/r) (exact consequence of the ball shape)
    for cqms_obj, r in ((torus2, 1.0), (cycle12, 0.7)):
        for _ in range(5):
            d = cqms_obj.space.random_element(rng)
            gauge = max(cqms_obj.seminorm(d), cqms_obj.norm(d) / r)
            assert cqms_obj.boundary_scale(d, r=r) == pytest.approx(1.0 / gauge, rel=2e-6)


def test_boundary_scale_unit_direction(torus2):
    # L(e) = 0, so the boundary along the unit is the norm constraint alone
    assert torus2.boundary_scale(np.eye(2, dtype=complex), r=0.8) == pytest.approx(0.8, rel=1e-5)


def test_boundary_ray_membership(torus2, rng):
    d = torus2.space.random_element(rng)
    t = torus2.boundary_scale(d, r=1.0)
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
    net = torus2.ball_net(0.0, 0.3, seed=0)
    assert net.size == 1 and nm.op_norm(net.points[0]) == 0.0


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
    small = torus2.ball_net(0.5, 0.4, seed=0)
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
    group = ga.cyclic_group(4)
    impl = np.array([np.eye(3, dtype=complex)] * 4)
    trivial = cq.Cqms(space=cq.full_matrix_space(3),
                      action=ga.UnitaryAction(group=group, implementers=impl))
    with pytest.raises(cq.NonLipError):
        trivial.radius()
    # a diagonal space whose action only swaps two of four points: the LP is
    # unbounded along the split, and the points' graph is disconnected
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    split = cq.Cqms(space=cq.diagonal_space(4),
                    action=ga.UnitaryAction(group=ga.cyclic_group(2),
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
    mu, nu = cq.dirac_state(12, 0), cq.dirac_state(12, 1)
    with pytest.raises(ValueError):
        cycle12.state_metric(mu, nu, R=0.1)
    big = cycle12.state_metric(mu, nu, R=cycle12.radius() + 1.0)
    base = cycle12.state_metric(mu, nu)
    assert big == pytest.approx(base, rel=1e-9)   # sup saturates on D_{r_A}


def test_state_metric_bounded_by_2r(cycle12):
    big_r = cycle12.action.group.haar_mean_length()
    mu, nu = cq.dirac_state(12, 0), cq.dirac_state(12, 6)
    assert cycle12.state_metric(mu, nu, R=big_r) <= 2 * big_r + 1e-9


def test_state_diameter_scalar():
    scal = ex.scalar_cqms(ex.fuzzy_torus(2, 1))
    assert scal.state_diameter(sample=4, seed=0) == 0.0


def test_state_diameter_cycle(cycle12):
    diam = cycle12.state_diameter(sample=12, seed=3)
    assert diam == pytest.approx(np.pi, rel=0.05)
    r = cycle12.radius()
    assert abs(diam / 2.0 - r) <= 0.1 * r


@pytest.mark.parametrize("name", ["torus3", "sphere1"])
def test_smoothed_seminorm_gradient(name):
    # analytic gradient and Hessian of the smoothed seminorm against central
    # differences of its value and gradient, over the whole kernel at a wide,
    # a mild and a sharp temperature (diagonal operators are solved by LP and
    # never smoothed)
    obj = {"torus3": lambda: ex.fuzzy_torus(3, 1),
           "sphere1": lambda: ex.fuzzy_sphere(1)}[name]()
    op, diagonal = obj._operator()
    assert not diagonal
    rng = np.random.default_rng(11)
    ns = obj.space.real_dim - 1
    c = rng.standard_normal(ns)
    exact = obj.seminorm(obj.space.element(np.concatenate([[0.0], c])))
    # (at tau = exact most eigenvalue pairs take the near-pair formula)
    for tau in (exact, 0.1 * exact, 0.001 * exact):
        val, grad, hess = obj._smoothed_seminorm(c, tau, op)
        # log-sum-exp sits between the max and the max plus tau log(#terms)
        terms = 2 * len(obj.action.seminorm_kernel()[0]) * obj.dim
        assert exact - 1e-12 <= val <= exact + tau * np.log(terms) + 1e-12
        h = 1e-6
        steps = [(obj._smoothed_seminorm(c + h * e, tau, op),
                  obj._smoothed_seminorm(c - h * e, tau, op)) for e in np.eye(ns)]
        fd = np.array([(plus[0] - minus[0]) / (2 * h) for plus, minus in steps])
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-7)
        fd_hess = np.array([(plus[1] - minus[1]) / (2 * h) for plus, minus in steps])
        assert np.array_equal(hess, hess.T)
        assert np.allclose(hess, fd_hess, rtol=1e-6, atol=1e-7)


def _full_kernel_support(obj, g, effort):
    """The support solve by an L-BFGS ladder with every stage smoothed over
    the whole seminorm kernel: an independent reference for the working
    kernel and the Newton stages, with its own log-sum-exp value and
    gradient (sum_x Re tr(W_x D_x,k), W_x the softmax-weighted eigenvectors)."""
    slice_ortho = obj.space.ortho[1:]
    gs = np.real(np.einsum("kab,ab->k", slice_ortho.conj(), g))
    c0 = gs / np.linalg.norm(gs) ** 2
    nmat = null_space(gs[None, :])
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

    max_stage_iter = {"fine": 120, "coarse": 80}[effort]
    u = np.zeros(nmat.shape[1])
    for factor in obj._LADDERS[effort]:
        tau = factor * max(obj._coeff_seminorms((c0 + nmat @ u)[None])[0], 1e-9)
        u = minimize(objective, u, args=(tau,), jac=True, method="L-BFGS-B",
                     options={"maxiter": max_stage_iter, "ftol": 1e-15, "gtol": 1e-13}).x
    c = c0 + nmat @ u
    lv = obj._coeff_seminorms(c[None])[0]
    return 1.0 / lv, np.einsum("k,kab->ab", c, slice_ortho) / lv


def _orthogonal_pure_pairs(obj, count, seed):
    """Riesz directions in the space of seeded pairs of orthogonal pure states."""
    rng = np.random.default_rng(seed)
    d = obj.dim
    out = []
    for _ in range(count):
        v, w = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
        g = cq.vector_state(v).density - cq.vector_state(w).density
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
    per_element = 2 * obj.dim ** 2
    smoothed = cq.Cqms._smoothed_seminorm
    widths = []

    def recording(self, c, tau, sub):
        widths.append(sub.shape[1] // per_element)
        val, grad, hess = smoothed(self, c, tau, sub)
        assert grad.shape == c.shape and hess.shape == (len(c), len(c))
        return val, grad, hess

    for g in _orthogonal_pure_pairs(obj, 3, seed=5):
        ref, _ = _full_kernel_support(obj, g, "coarse")
        widths.clear()
        with monkeypatch.context() as mp:
            mp.setattr(cq.Cqms, "_smoothed_seminorm", recording)
            val, a = obj._support_max(g, effort="coarse")
        assert abs(val - ref) <= 1e-4 * ref
        assert obj.seminorm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.real(np.trace(g @ a)) == pytest.approx(val, rel=1e-12)
        # one ladder per working kernel, each larger than the last
        assert min(widths) == cq.WORKING_SEED
        assert len(set(widths)) <= 4 and max(widths) < 2 * cq.WORKING_SEED


@pytest.mark.parametrize("name", ["torus51"])
def test_working_kernel_is_whole_small_kernel(name):
    # a kernel of at most WORKING_SEED elements is the working kernel itself:
    # one ladder, the same Newton stages as over the whole kernel
    obj = {"torus51": lambda: ex.fuzzy_torus(5, 1)}[name]()
    assert len(obj.action.seminorm_kernel()[0]) <= cq.WORKING_SEED
    slice_ortho = obj.space.ortho[1:]
    rng = np.random.default_rng(9)
    for _ in range(3):
        g = obj.space.random_element(rng)
        gs = np.real(np.einsum("kab,ab->k", slice_ortho.conj(), g))
        c0 = gs / np.linalg.norm(gs) ** 2
        nmat = null_space(gs[None, :])
        u = obj._ladder(c0, nmat, np.zeros(nmat.shape[1]), obj._LADDERS["coarse"],
                        obj._operator()[0])
        ref, ref_a = obj._rescaled(c0 + nmat @ u, 1.0)
        val, a = obj._support_max(g, effort="coarse")
        assert val == pytest.approx(ref, rel=1e-12)
        assert np.allclose(a, ref_a, rtol=0.0, atol=1e-12 * nm.hs_norm(ref_a))
        # and the L-BFGS reference agrees within the working-kernel tolerance
        assert abs(val - _full_kernel_support(obj, g, "coarse")[0]) <= 1e-4 * val


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
    assert obj.state_diameter() == 2.0 * obj.radius()


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
    smoothed = cq.Cqms._smoothed_seminorm

    def counting(self, *args):
        calls.append(1)
        return smoothed(self, *args)

    monkeypatch.setattr(cq.Cqms, "_smoothed_seminorm", counting)
    for m in (8, 16):
        obj = ex.commutative_cycle(m)
        obj.radius()
        obj.state_diameter(sample=8, seed=1)
        obj.state_metric(cq.dirac_state(m, 0), cq.dirac_state(m, m // 2))
        obj.state_metric(cq.vector_state(np.ones(m)), cq.dirac_state(m, 1), effort="coarse")
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
    # a quadratic converges to its minimizer; a function whose value rises
    # along every step ends unconverged where it started
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    quadratic = lambda u: (0.5 * u @ a @ u - b @ u + 10.0, a @ u - b, a)
    u, converged = cq._newton_stage(quadratic, np.zeros(2))
    assert converged and np.allclose(u, np.linalg.solve(a, b), rtol=0, atol=1e-12)
    rising = lambda u: (1.0 + u @ u, np.ones(2), np.eye(2))
    u, converged = cq._newton_stage(rising, np.zeros(2))
    assert not converged and np.array_equal(u, np.zeros(2))


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
    stack = obj.space.elements(np.concatenate(
        [np.zeros((200, 1)), rng.standard_normal((200, obj.space.real_dim - 1))], axis=1))
    obj.seminorm(stack[0])                     # builds the operator
    tracemalloc.start()
    try:
        obj.seminorms(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
