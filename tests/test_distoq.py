import itertools

import numpy as np
import pytest

from cqmlab import cqms as cq
from cqmlab import distoq as dq
from cqmlab import examples as ex
from cqmlab import numerics as nm

from conftest import relengthed_cycle


@pytest.fixture(scope="module")
def cycle8():
    return ex.commutative_cycle(8)


@pytest.fixture(scope="module")
def cycle16():
    return ex.commutative_cycle(16)


@pytest.fixture(scope="module")
def torus_pair():
    return ex.fuzzy_torus(2, 1), ex.fuzzy_torus(3, 1)


# ---------------------------------------------------------------------------
# comparison maps


def test_identity_map_distortion(cycle8):
    phi = dq.identity_map(cycle8)
    eps, unit = phi.measure()
    assert eps < 1e-12
    assert unit == pytest.approx(0.0, abs=1e-12)


def test_cycle_refinement_isometric(cycle8, cycle16):
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    eps, unit = phi.measure()
    assert eps < 1e-10            # step extension preserves the sup norm
    assert unit == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        dq.cycle_refinement_map(cycle8, ex.commutative_cycle(12))


def test_torus_frequency_map_unit(torus_pair):
    a, b = torus_pair
    phi = dq.torus_frequency_map(a, b)
    _, unit = phi.measure()
    assert unit == pytest.approx(0.0, abs=1e-10)
    assert phi.k == a.space.real_dim     # every source frequency is shared


# ---------------------------------------------------------------------------
# sum norms


def test_eps_amalgam_values(rng):
    norm = dq.eps_amalgam_norm(0.25)
    a = nm.random_hermitian(rng, 3)
    zero = np.zeros((3, 3), dtype=complex)
    assert norm.value(a, -a) == pytest.approx(0.25 * nm.op_norm(a))
    assert norm.value(a, zero) == pytest.approx(nm.op_norm(a))
    assert norm.value(zero, zero) == 0.0
    with pytest.raises(ValueError):
        dq.eps_amalgam_norm(0.0)
    with pytest.raises(ValueError):
        dq.eps_amalgam_norm(1.5)


def test_eps_amalgam_norm_axioms(rng):
    norm = dq.eps_amalgam_norm(0.5)
    for _ in range(50):
        a1, b1 = nm.random_hermitian(rng, 3), nm.random_hermitian(rng, 3)
        a2, b2 = nm.random_hermitian(rng, 3), nm.random_hermitian(rng, 3)
        lam = float(rng.normal())
        assert norm.value(a1 + a2, b1 + b2) <= norm.value(a1, b1) + norm.value(a2, b2) + 1e-9
        assert norm.value(lam * a1, lam * b1) == pytest.approx(
            abs(lam) * norm.value(a1, b1), rel=1e-9, abs=1e-12)


def test_almost_amal_glue_bound():
    m4 = ex.commutative_cycle(4)
    phi = dq.identity_map(m4)
    phi.measure()
    norm = dq.almost_amal_norm(phi, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = m4.space.random_element(rng)
        # |(x, -phi(x))| <= eps |x|
        assert norm.value(x, -phi.apply(x)) <= 0.1 * nm.op_norm(x) + 1e-9


def test_almost_amal_dense_grid_oracle():
    # coordinate descent against a dense coefficient grid at dimension 4
    m4 = ex.commutative_cycle(4)
    phi = dq.identity_map(m4)
    phi.measure()
    eps = 0.2
    norm = dq.almost_amal_norm(phi, eps)
    rng = np.random.default_rng(7)
    a = m4.space.random_element(rng)
    b = m4.space.random_element(rng)

    def objective(c):
        x = phi.x_element(c)
        return (nm.op_norm(a - x) + nm.op_norm(-b + phi.apply_coeffs(c))
                + eps * nm.op_norm(x))

    axes = [np.linspace(-2.5, 2.5, 11)] * 4
    grid_min = min(objective(np.array(c)) for c in itertools.product(*axes))
    got = norm.value(a, -b, descend=True)
    assert got <= grid_min + 1e-9           # descent at least matches the grid
    assert got >= 0.0


def test_almost_amal_admissibility(cycle8):
    # the restriction to each factor reproduces that factor's norm: 100 probes
    phi = dq.identity_map(cycle8)
    phi.measure()
    norm = dq.almost_amal_norm(phi, 1e-6)
    rng = np.random.default_rng(3)
    probes = [cycle8.space.random_element(rng) for _ in range(50)]
    defect = norm.admissibility_defects(probes, probes)
    assert defect <= 1e-6


def test_almost_amal_rejects_small_eps(torus_pair):
    a, b = torus_pair
    phi = dq.torus_frequency_map(a, b)
    phi.measure()
    with pytest.raises(ValueError):
        dq.almost_amal_norm(phi, phi.distortion / 2.0)


def test_almost_amal_norm_axioms(cycle8):
    phi = dq.identity_map(cycle8)
    phi.measure()
    norm = dq.almost_amal_norm(phi, 0.05)
    rng = np.random.default_rng(5)
    for _ in range(15):
        a1, b1 = cycle8.space.random_element(rng), cycle8.space.random_element(rng)
        a2, b2 = cycle8.space.random_element(rng), cycle8.space.random_element(rng)
        lam = float(rng.normal())
        v12 = norm.value(a1 + a2, b1 + b2, descend=True)
        assert v12 <= (norm.value(a1, b1, descend=True)
                       + norm.value(a2, b2, descend=True) + 1e-6)
        assert norm.value(lam * a1, lam * b1, descend=True) <= (
            abs(lam) * norm.value(a1, b1, descend=True) + 1e-6)


def test_bridge_norm_cases(cycle8):
    phi = dq.identity_map(cycle8)
    phi.measure()
    bridge = dq.bridge_norm(2.0, 0.5, phi)
    e = np.eye(8, dtype=complex)
    # N(e_A, e_B) = 0 when the unit defect vanishes
    assert bridge.bridge_seminorm(e, e) == pytest.approx(0.0, abs=1e-8)
    # N(e_A, 0) > 0 (the bridge separates the units)
    assert bridge.bridge_seminorm(e, np.zeros_like(e)) >= 1.0 / 0.5 - 1e-6
    rng = np.random.default_rng(1)
    a = cycle8.space.random_element(rng)
    v = bridge.value(a, phi.apply(a))
    assert v <= max(nm.op_norm(a) / 2.0, nm.op_norm(phi.apply(a)) / 2.0) + 1e-9
    with pytest.raises(ValueError):
        dq.bridge_norm(0.0, 1.0, phi)


# ---------------------------------------------------------------------------
# distance bounds


def test_dist_upper_identical(cycle8):
    phi = dq.identity_map(cycle8)
    up = dq.dist_oq_upper(cycle8, cycle8, phi, eps_net=0.3, budget=32, seed=0)
    assert up.value <= 2 * 0.3
    assert up.unit_term <= 1e-8


def test_dist_bounds_cycle_refinement(cycle8, cycle16):
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    up = dq.dist_oq_upper(cycle8, cycle16, phi, eps_net=0.35, budget=32, seed=0)
    lo = dq.dist_oq_lower(cycle8, cycle16, eps_net=0.35, budget=32, seed=0)
    assert np.isfinite(up.value)
    assert lo.value <= up.certified_upper + 1e-9
    r_sum = cycle8.radius() + cycle16.radius()
    assert up.value <= r_sum + up.slack + 1e-9


def test_dist_lower_scalar_vs_full():
    t = ex.fuzzy_torus(2, 1)
    scal = ex.scalar_cqms(t)
    lo = dq.dist_oq_lower(scal, t, eps_net=0.4, budget=24, seed=0)
    assert lo.value >= t.radius() - 1e-6    # pure radius gap


def test_dist_lower_exact_radii_noise(monkeypatch):
    # c6 and c12 both have exact radius pi/2, summed over three and six arcs:
    # their float difference is rounding, and the lower bound reads 0; were
    # one radius an ascent estimate, the gap would stand
    a, b = ex.commutative_cycle(6), ex.commutative_cycle(12)
    assert a.radius() != b.radius()
    lo = dq.dist_oq_lower(a, b, eps_net=0.35, budget=32, seed=11)
    assert lo.radius_gap == 0.0 and lo.value == 0.0
    monkeypatch.setattr(b, "radius_method", lambda: "ascent")
    lo = dq.dist_oq_lower(a, b, eps_net=0.35, budget=32, seed=11)
    assert lo.radius_gap == abs(a.radius() - b.radius())


def test_dist_lower_exact_radii_gap():
    # different exact radii keep their whole gap, down to 1e-10 relative
    b = ex.commutative_cycle(8)
    for relength in (np.square, lambda lens: lens * (1.0 + 1e-10)):
        a = relengthed_cycle(8, relength)
        assert a.radius_method() == b.radius_method() == "exact"
        lo = dq.dist_oq_lower(a, b, eps_net=0.35, budget=32, seed=0)
        assert lo.radius_gap == abs(a.radius() - b.radius()) > 1e-10
        assert lo.value >= lo.radius_gap


def test_dist_upper_seed_stability(torus_pair):
    a, b = ex.fuzzy_torus(5, 1), ex.fuzzy_torus(7, 1)
    phi = dq.torus_frequency_map(a, b)
    values = []
    for seed in (0, 1):
        up = dq.dist_oq_upper(a, b, phi, eps_net=0.6, budget=24, seed=seed)
        values.append(up.value)
    assert abs(values[0] - values[1]) <= 0.05 * max(values)


def test_pseudo_triangle_cycles():
    a, b, c = (ex.commutative_cycle(m) for m in (6, 12, 24))
    pab = dq.cycle_refinement_map(a, b)
    pbc = dq.cycle_refinement_map(b, c)
    up_ab = dq.dist_oq_upper(a, b, pab, eps_net=0.35, budget=32, seed=0)
    up_bc = dq.dist_oq_upper(b, c, pbc, eps_net=0.35, budget=32, seed=0)
    lo_ac = dq.dist_oq_lower(a, c, eps_net=0.35, budget=32, seed=0)
    total_slack = up_ab.slack + up_bc.slack
    assert lo_ac.value <= up_ab.value + up_bc.value + total_slack + 1e-9


def test_lemma_R_r_corollary(cycle8, cycle16):
    # |upper at R - upper at r| <= (R - r) + slacks
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    big_r = max(cycle8.radius(), cycle16.radius())
    up_big = dq.dist_oq_upper(cycle8, cycle16, phi, big_r + 0.5, 0.35, 32, 0)
    up_small = dq.dist_oq_upper(cycle8, cycle16, phi, big_r, 0.35, 32, 0)
    gap = abs(up_big.value - up_small.value)
    assert gap <= 0.5 + up_big.slack + up_small.slack + 1e-9


def test_cycle_refinement_bound_decreases():
    # discretization convergence: the m vs 2m upper bound shrinks as m grows
    a6, a12, a24 = (ex.commutative_cycle(m) for m in (6, 12, 24))
    up_coarse = dq.dist_oq_upper(a6, a12, dq.cycle_refinement_map(a6, a12),
                                 eps_net=0.35, budget=32, seed=0)
    up_fine = dq.dist_oq_upper(a12, a24, dq.cycle_refinement_map(a12, a24),
                               eps_net=0.35, budget=32, seed=0)
    assert up_fine.value < up_coarse.value


def test_audit_identical(cycle8):
    phi = dq.identity_map(cycle8)
    reports, record = dq.audit_pair(cycle8, cycle8, phi, eps_net=0.3,
                                    budget=24, seed=0)
    assert record.all_passed
    assert reports["oq_lower"].value == pytest.approx(0.0, abs=1e-9)


def test_audit_cycle_pair(cycle8, cycle16):
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    _, record = dq.audit_pair(cycle8, cycle16, phi, eps_net=0.35, budget=24, seed=0)
    assert record.all_passed


def test_audit_reuses_upper_at_larger_radius(cycle8, monkeypatch):
    # when r_B is the larger radius, the R = r_B upper report is the R =
    # max(r_A, r_B) one, computed once; otherwise it is a third call
    squared = relengthed_cycle(8, np.square)
    assert squared.radius() < cycle8.radius()
    phi = dq.identity_map(cycle8)
    calls = []
    upper = dq.dist_oq_upper

    def counting(*args):
        calls.append(args[3])
        return upper(*args)

    monkeypatch.setattr(dq, "dist_oq_upper", counting)
    reports, _ = dq.audit_pair(squared, cycle8, phi, eps_net=0.5, budget=8, seed=0)
    assert len(calls) == 2 and set(calls) == {cycle8.radius(), None}
    assert reports["oq_rB_upper"] is reports["oqR_upper"]
    calls.clear()
    reports, _ = dq.audit_pair(cycle8, squared, phi, eps_net=0.5, budget=8, seed=0)
    assert len(calls) == 3 and set(calls) == {cycle8.radius(), None, squared.radius()}
    assert reports["oq_rB_upper"].big_r == squared.radius()


def test_audit_detects_corruption(cycle8, cycle16):
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    reports, record = dq.audit_pair(cycle8, cycle16, phi, eps_net=0.35,
                                    budget=24, seed=0)
    assert record.all_passed
    # fault injection: pretend the lower estimator returned a huge value
    import dataclasses
    bad = dataclasses.replace(reports["oq_lower"],
                              value=100.0 + reports["oq_upper"].certified_upper)
    corrupted = dict(reports)
    corrupted["oq_lower"] = bad
    record2 = dq.audit_chain(cycle8, cycle16, corrupted)
    assert not record2.all_passed
