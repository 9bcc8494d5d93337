import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cqmlab import cli
from cqmlab import cqms as cq
from cqmlab import distoq as dq
from cqmlab import examples as ex
from cqmlab import numerics as nm

from conftest import glue_dual_lp, relengthed_cycle


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


def _no_points(phi):
    """An empty stack of elements of A: ``measure`` then probes the basis
    and seeded directions alone."""
    return np.empty((0, phi.dim_a, phi.dim_a), dtype=complex)


def test_identity_map_distortion(cycle8):
    phi = dq.identity_map(cycle8)
    eps, unit = phi.measure(_no_points(phi))
    assert eps < 1e-12
    assert unit == pytest.approx(0.0, abs=1e-12)


def test_cycle_refinement_isometric(cycle8, cycle16):
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    eps, unit = phi.measure(cycle8.ball_net(cycle8.radius(), 0.35, budget=8, seed=0).points)
    assert eps < 1e-10            # step extension preserves the sup norm
    assert unit == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        dq.cycle_refinement_map(cycle8, ex.commutative_cycle(12))


def test_projection_residual_norms_are_eigvalsh(torus_pair):
    # the residual of projecting a ball net of torus(2,1) onto the span of
    # the frequency map to torus(3,1) is round-off in every entry: a dense
    # stack, whose norms are eigvalsh's, not those of its diagonal alone
    a, b = torus_pair
    phi = dq.torus_frequency_map(a, b)
    pa = a.ball_net(a.radius(), 0.6, budget=8, seed=0).points
    res = pa - phi.x_element(phi.x_coeffs(pa))
    assert np.abs(res).max() < 1e-14
    want = np.max(np.abs(np.linalg.eigvalsh(res)), axis=-1)
    assert nm.op_norms(res).tobytes() == want.tobytes()


def test_torus_frequency_map_unit(torus_pair):
    a, b = torus_pair
    phi = dq.torus_frequency_map(a, b)
    _, unit = phi.measure(_no_points(phi))
    assert unit == pytest.approx(0.0, abs=1e-10)
    assert phi.k == a.space.real_dim     # every source frequency is shared


def test_berezin_transport_reads_the_spheres(monkeypatch):
    # the map reads each sphere's own implementers and weights: no spin
    # implementers are rebuilt, and spaces on two samples are refused
    a, b = ex.fuzzy_sphere(1), ex.fuzzy_sphere(2)
    calls = []
    implementers = ex.su2_implementers

    def counting(*args):
        calls.append(args)
        return implementers(*args)

    monkeypatch.setattr(ex, "su2_implementers", counting)
    phi = dq.berezin_transport_map(a, b)
    assert calls == [] and phi.k == a.space.real_dim
    ex.fuzzy_sphere(1)
    assert len(calls) == 1                   # the wrapper does count
    with pytest.raises(ValueError, match=r"different SU\(2\) grids"):
        dq.berezin_transport_map(a, ex.fuzzy_sphere(2, grid_dims=(6, 6, 6)))


def test_torus_frequency_map_into_coarser_lattice():
    # mapping torus(5,1) into torus(3,1) skips the source frequencies the
    # target lattice lacks: the centred frequencies in {-1, 0, 1}^2 are kept,
    # and they span all of B
    a, b = ex.fuzzy_torus(5, 1), ex.fuzzy_torus(3, 1)
    phi = dq.torus_frequency_map(a, b)
    assert phi.k == 9 == b.space.real_dim
    _, unit = phi.measure(_no_points(phi))
    assert unit == pytest.approx(0.0, abs=1e-10)
    basis = b.space.ortho
    coeffs = np.einsum("kab,jab->jk", basis.conj(), phi.images)
    assert np.abs(phi.images - np.einsum("jk,kab->jab", coeffs, basis)).max() < 1e-12
    up = dq.dist_oq_upper(a, b, phi, None, eps_net=0.6, budget=8, seed=0)
    assert np.isfinite(up.value) and np.isfinite(up.certified_upper)


@pytest.mark.parametrize("qa, qb, k", [(5, 4, 9), (3, 2, 1), (4, 4, 16), (3, 4, 9)],
                         ids=["5to4", "3to2", "4to4", "3to4"])
def test_torus_frequency_map_is_injective(qa, qb, k):
    # the target's Nyquist frequency q_B / 2 is its own negative, the
    # source's -q_B / 2 another frequency when q_A > q_B: those source
    # frequencies are left out, so X -> B is injective (image rank k) and the
    # distortion is below 1, where it read 1.0 with k = 23 against image
    # rank 16 (5 -> 4) and k = 7 against 4 (3 -> 2).  Equal even levels keep
    # their Nyquist frequencies, and a map into a higher level keeps all
    phi = dq.torus_frequency_map(ex.fuzzy_torus(qa, 1), ex.fuzzy_torus(qb, 1))
    assert phi.k == k
    assert np.linalg.matrix_rank(nm.realify(phi.images), tol=1e-9) == k
    assert phi.measure(_no_points(phi))[0] < 1.0


def _bundled_bases():
    """(label, basis) for ``ortho`` and ``ortho[1:]`` of every example of the
    bundled scenarios, and ``x_ortho`` and ``images`` of the comparison map
    of every dist and audit job in them (identity, cycle_refine, torus_freq
    and berezin)."""
    built, maps = {}, {}
    for path in sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        names = {example["name"]: ex.ExampleDescriptor.make(
            **{k: v for k, v in example.items() if k != "name"}) for example in doc["examples"]}
        for desc in names.values():
            built.setdefault(desc, (desc, desc.build()))
        for job in doc["jobs"]:
            if "phi" in job:
                a, b = built[names[job["a"]]][1], built[names[job["b"]]][1]
                maps.setdefault((job["phi"], a.name, b.name), cli._PHI[job["phi"]](a, b))
    for _, space in built.values():
        yield space.name, space.space.ortho
        yield space.name + "[1:]", space.space.ortho[1:]
    assert {rule for rule, _, _ in maps} == {"identity", "cycle_refine", "torus_freq", "berezin"}
    for phi in maps.values():
        yield phi.label + ".x_ortho", phi.x_ortho
        yield phi.label + ".images", phi.images


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


def test_combine_matches_einsum(rng):
    # combine(c, B) is np.einsum("...k,kab->...ab", c, B) bit for bit, signed
    # zeros included, on 1-D, 1-row and 640-row coefficients with zeros of
    # both signs among them, on every bundled basis: a diagonal basis is
    # exactly diagonal, so summing its diagonals alone drops nothing
    seen_diagonal = seen_dense = 0
    for label, basis in _bundled_bases():
        k = basis.shape[0]
        diagonal = nm.is_diagonal(basis)
        seen_diagonal += diagonal
        seen_dense += not diagonal
        for shape in ((k,), (1, k), (640, k)):
            c = rng.standard_normal(shape)
            c[..., ::3] = 0.0
            c[..., 1::5] *= -0.0
            got = nm.combine(c, basis)
            assert _bits(got) == _bits(np.einsum("...k,kab->...ab", c, basis)), (label, shape)
    assert seen_diagonal and seen_dense
    # an empty basis sums to zero
    for shape in ((0,), (1, 0), (640, 0)):
        got = nm.combine(np.zeros(shape), np.zeros((0, 3, 3), dtype=complex))
        assert _bits(got) == _bits(np.zeros(shape[:-1] + (3, 3), dtype=complex))


# ---------------------------------------------------------------------------
# the glue norm


def test_almost_amal_glue_bound():
    m4 = ex.commutative_cycle(4)
    phi = dq.identity_map(m4)
    norm = dq.SumNorm(phi, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = m4.space.random_element(rng)
        # |(x, -phi(x))| <= eps |x|
        assert norm.value(x, -phi.apply(x)) <= 0.1 * nm.op_norm(x) + 1e-9


def test_almost_amal_dense_grid_oracle():
    # coordinate descent against a dense coefficient grid at dimension 4
    m4 = ex.commutative_cycle(4)
    phi = dq.identity_map(m4)
    eps = 0.2
    norm = dq.SumNorm(phi, eps)
    rng = np.random.default_rng(7)
    a = m4.space.random_element(rng)
    b = m4.space.random_element(rng)

    def objective(c):
        x = phi.x_element(c)
        return (nm.op_norm(a - x) + nm.op_norm(-b + phi.apply_coeffs(c))
                + eps * nm.op_norm(x))

    axes = [np.linspace(-2.5, 2.5, 11)] * 4
    grid_min = min(objective(np.array(c)) for c in itertools.product(*axes))
    got = norm.value(a, -b)
    assert got <= grid_min + 1e-9           # descent at least matches the grid
    assert got >= 0.0


def _glue_starts(norm, a, b):
    """The glue at x = 0 and at x = the projection of a onto X: the two
    starting points of every descent."""
    x = norm.phi.x_element(norm.phi.x_coeffs(a))
    return (nm.op_norm(a) + nm.op_norm(b),
            nm.op_norm(a - x) + nm.op_norm(b + norm.phi.apply(a)) + norm.eps * nm.op_norm(x))


def test_diagonal_glue_lp_oracle(cycle8, cycle16, monkeypatch):
    # on diagonal pairs the descended glue is the LP optimum: within 1e-9 of
    # the dual LP, with no smoothing, for random pairs and for pairs near
    # the map's graph (as in the distance bounds).  Each norm scans its glue
    # terms (k, 3, 1, d, d) for diagonality once, not on every descent
    monkeypatch.setattr(cq, "spectral_lse_value", None)
    scans = []
    is_diagonal = nm.is_diagonal

    def counting(stack):
        scans.append(np.ndim(stack) == 5)
        return is_diagonal(stack)

    monkeypatch.setattr(nm, "is_diagonal", counting)
    rng = np.random.default_rng(9)
    for phi, target in ((dq.cycle_refinement_map(cycle8, cycle16), cycle16),
                        (dq.identity_map(cycle8), cycle8)):
        x_diag = np.diagonal(phi.x_ortho, axis1=1, axis2=2).real.T
        y_diag = np.diagonal(phi.images, axis1=1, axis2=2).real.T
        for eps in (1e-6, 0.05, 0.4):
            norm = dq.SumNorm(phi, eps)
            for _ in range(4):
                a = cycle8.space.random_element(rng)
                b = target.space.random_element(rng)
                for bb in (b, 0.1 * b - phi.apply(a)):
                    got = norm.value(a, bb)
                    oracle = glue_dual_lp(x_diag, y_diag, eps, np.diagonal(a).real,
                                          np.diagonal(bb).real)
                    assert abs(got - oracle) <= 1e-9 * max(1.0, oracle)
                    assert got <= min(_glue_starts(norm, a, bb))
    assert sum(scans) == 2 * 3


def test_dense_glue_grid_oracle(torus_pair):
    # on a dense pair the Newton descent at least matches a coefficient grid,
    # never exceeds either starting point, and every stage converges
    a_space, b_space = torus_pair
    phi = dq.torus_frequency_map(a_space, b_space)
    norm = dq.SumNorm(phi, max(phi.measure(_no_points(phi))[0], 0.05))
    axes = np.linspace(-2.5, 2.5, 11)
    grid = np.array(list(itertools.product(*[axes] * phi.k)))
    xs = np.einsum("nk,kab->nab", grid, phi.x_ortho)
    ys = np.einsum("nk,kab->nab", grid, phi.images)
    rng = np.random.default_rng(8)
    for _ in range(3):
        a = a_space.space.random_element(rng)
        b = b_space.space.random_element(rng)
        for bb in (b, 0.1 * b - phi.apply(a)):
            got = norm.value(a, bb)
            grid_min = np.min(nm.op_norms(a - xs) + nm.op_norms(bb + ys)
                              + norm.eps * nm.op_norms(xs))
            assert got <= grid_min + 1e-9
            assert got <= min(_glue_starts(norm, a, bb))
    assert norm.unconverged_stages == 0


def test_glue_unconverged_stages_counted(torus_pair, monkeypatch):
    # every glue Newton stage of a torus upper bound converges; with no Newton
    # step allowed every stage run ends unconverged, and the report counts it
    a, b = torus_pair
    phi = dq.torus_frequency_map(a, b)
    up = dq.dist_oq_upper(a, b, phi, None, eps_net=0.6, budget=8, seed=0)
    assert up.components["glue_unconverged_stages"] == 0

    stages = []
    newton_stage = cq._newton_stage

    def counting(*args):
        stages.append(1)
        return newton_stage(*args)

    monkeypatch.setattr(cq, "_newton_stage", counting)
    monkeypatch.setattr(cq, "NEWTON_STEPS", 0)
    a.upper_cache.clear()       # the patched solver answers the same question anew
    capped = dq.dist_oq_upper(a, b, phi, None, eps_net=0.6, budget=8, seed=0)
    assert stages and capped.components["glue_unconverged_stages"] == len(stages)


def test_almost_amal_admissibility(cycle8, cycle16):
    # the restriction to each factor reproduces that factor's norm,
    # N(a, 0) = |a| and N(0, b) = |b| on 50 probe pairs: for the identity map
    # on cycle8 at eps = 1e-6, and for the c8 -> c16 refinement (an
    # l-infinity isometry) at the eps that dist_oq_upper glues with
    refine = dq.cycle_refinement_map(cycle8, cycle16)
    up = dq.dist_oq_upper(cycle8, cycle16, refine, None, eps_net=0.35, budget=32, seed=0)
    rng = np.random.default_rng(3)
    for phi, target, eps in ((dq.identity_map(cycle8), cycle8, 1e-6),
                             (refine, cycle16, up.components["glue_eps"])):
        norm = dq.SumNorm(phi, eps)
        zero_a = np.zeros((phi.dim_a, phi.dim_a), dtype=complex)
        zero_b = np.zeros((phi.dim_b, phi.dim_b), dtype=complex)
        for _ in range(50):
            a, b = cycle8.space.random_element(rng), target.space.random_element(rng)
            for got, want in ((norm.value(a, zero_b), nm.op_norm(a)),
                              (norm.value(zero_a, b), nm.op_norm(b))):
                assert abs(got - want) <= 1e-6 * (1.0 + want)


def test_glue_eps_is_measured_once():
    # the upper report's distortion is measure's value on the first 32 points
    # of A's net, its glue eps follows the margin rule, and measuring again
    # returns the same pair: nothing is stored between the two
    a, b = ex.fuzzy_torus(3, 1), ex.fuzzy_torus(5, 1)
    phi = dq.torus_frequency_map(a, b)
    up = dq.dist_oq_upper(a, b, phi, None, eps_net=0.6, budget=8, seed=0)
    points = a.ball_net(a.radius(), 0.6, budget=8, seed=0).points[:32]
    first = phi.measure(points)
    assert up.components["phi_distortion"] == first[0]
    assert up.components["phi_unit_defect"] == first[1]
    assert up.components["glue_eps"] == max(first[0] * dq.EPS_MARGIN, first[0] + 1e-9, 1e-9)
    assert phi.measure(points) == first


def test_almost_amal_norm_axioms(cycle8):
    phi = dq.identity_map(cycle8)
    norm = dq.SumNorm(phi, 0.05)
    rng = np.random.default_rng(5)
    for _ in range(15):
        a1, b1 = cycle8.space.random_element(rng), cycle8.space.random_element(rng)
        a2, b2 = cycle8.space.random_element(rng), cycle8.space.random_element(rng)
        lam = float(rng.normal())
        v12 = norm.value(a1 + a2, b1 + b2)
        assert v12 <= norm.value(a1, b1) + norm.value(a2, b2) + 1e-6
        assert norm.value(lam * a1, lam * b1) <= abs(lam) * norm.value(a1, b1) + 1e-6


# ---------------------------------------------------------------------------
# distance bounds


def test_dist_upper_identical(cycle8):
    phi = dq.identity_map(cycle8)
    up = dq.dist_oq_upper(cycle8, cycle8, phi, None, eps_net=0.3, budget=32, seed=0)
    assert up.value <= 2 * 0.3
    assert up.unit_term <= 1e-8


def test_dist_bounds_cycle_refinement(cycle8, cycle16):
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    up = dq.dist_oq_upper(cycle8, cycle16, phi, None, eps_net=0.35, budget=32, seed=0)
    lo = dq.dist_oq_lower(cycle8, cycle16)
    assert np.isfinite(up.value)
    assert lo.value <= up.certified_upper + 1e-9
    r_sum = cycle8.radius() + cycle16.radius()
    assert up.value <= r_sum + up.slack + 1e-9


def test_reports_flag_capped_nets(cycle8, cycle16, monkeypatch):
    # the upper bound reports whether each net stopped at its point cap
    phi = dq.cycle_refinement_map(cycle8, cycle16)
    ball_net = cq.Cqms.ball_net
    for cap, flag in ((220, False), (4, True)):
        with monkeypatch.context() as mp:
            mp.setattr(cq.Cqms, "ball_net",
                       lambda self, *args, **kw: ball_net(self, *args, **kw, max_points=cap))
            cycle8.upper_cache.clear()      # the patched cap is not part of the question
            up = dq.dist_oq_upper(cycle8, cycle16, phi, None, eps_net=0.8, budget=16, seed=0)
        assert up.components["net_a_capped"] is flag
        assert up.components["net_b_capped"] is flag
        assert up.as_dict()["components"]["net_b_capped"] is flag


def test_dist_lower_scalar_vs_full():
    t = ex.fuzzy_torus(2, 1)
    scal = ex.scalar_cqms(t)
    lo = dq.dist_oq_lower(scal, t)
    assert lo.value >= t.radius() - 1e-6    # pure radius gap


def test_dist_lower_is_the_radius_gap():
    # the lower bound builds no ball net: on a dense pair, whose radii are
    # ascent estimates, it is their plain gap
    a, b = ex.fuzzy_torus(2, 1), ex.fuzzy_torus(3, 1)
    lo = dq.dist_oq_lower(a, b)
    assert a.net_cache == {} and b.net_cache == {}
    assert lo.value == lo.radius_gap == abs(a.radius() - b.radius())
    assert lo.slack == 0.0 and set(lo.as_dict()) == {"pair", "value", "radius_gap",
                                                     "components"}


def test_dist_lower_exact_radii_noise(monkeypatch):
    # c6 and c12 both have exact radius pi/2, summed over three and six arcs:
    # their float difference is rounding, and the lower bound reads 0; were
    # one radius an ascent estimate, the gap would stand
    a, b = ex.commutative_cycle(6), ex.commutative_cycle(12)
    assert a.radius() != b.radius()
    lo = dq.dist_oq_lower(a, b)
    assert lo.radius_gap == 0.0 and lo.value == 0.0
    monkeypatch.setattr(b, "radius_method", lambda: "ascent")
    lo = dq.dist_oq_lower(a, b)
    assert lo.radius_gap == abs(a.radius() - b.radius())


def test_dist_lower_exact_radii_gap():
    # different exact radii keep their whole gap, down to 1e-10 relative
    b = ex.commutative_cycle(8)
    for relength in (np.square, lambda lens: lens * (1.0 + 1e-10)):
        a = relengthed_cycle(8, relength)
        assert a.radius_method() == b.radius_method() == "exact"
        lo = dq.dist_oq_lower(a, b)
        assert lo.radius_gap == abs(a.radius() - b.radius()) > 1e-10
        assert lo.value >= lo.radius_gap


def test_dist_upper_seed_stability(torus_pair):
    a, b = ex.fuzzy_torus(5, 1), ex.fuzzy_torus(7, 1)
    phi = dq.torus_frequency_map(a, b)
    values = []
    for seed in (0, 1):
        up = dq.dist_oq_upper(a, b, phi, None, eps_net=0.6, budget=24, seed=seed)
        values.append(up.value)
    assert abs(values[0] - values[1]) <= 0.05 * max(values)


def test_pseudo_triangle_cycles():
    a, b, c = (ex.commutative_cycle(m) for m in (6, 12, 24))
    pab = dq.cycle_refinement_map(a, b)
    pbc = dq.cycle_refinement_map(b, c)
    up_ab = dq.dist_oq_upper(a, b, pab, None, eps_net=0.35, budget=32, seed=0)
    up_bc = dq.dist_oq_upper(b, c, pbc, None, eps_net=0.35, budget=32, seed=0)
    lo_ac = dq.dist_oq_lower(a, c)
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
                                 None, eps_net=0.35, budget=32, seed=0)
    up_fine = dq.dist_oq_upper(a12, a24, dq.cycle_refinement_map(a12, a24),
                               None, eps_net=0.35, budget=32, seed=0)
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


def _computations(monkeypatch):
    """The ``big_r`` of every ``dist_oq_upper`` call that computed its bound
    rather than reading it from the memo, and the label of the map each
    computation measured: a computation measures phi once."""
    computed, measured = [], []
    upper, measure = dq.dist_oq_upper, dq.ComparisonMap.measure

    def counting_measure(self, extra):
        measured.append(self.label)
        return measure(self, extra)

    def counting_upper(*args):
        before = len(measured)
        report = upper(*args)
        if len(measured) > before:
            computed.append(args[3])
        return report

    monkeypatch.setattr(dq.ComparisonMap, "measure", counting_measure)
    monkeypatch.setattr(dq, "dist_oq_upper", counting_upper)
    return computed, measured


def test_audit_reuses_upper_at_larger_radius(cycle8, monkeypatch):
    # when r_B is the larger radius, the R = r_B upper report asks the R =
    # max(r_A, r_B) question, computed once; otherwise it is a third computation
    squared = relengthed_cycle(8, np.square)
    assert squared.radius() < cycle8.radius()
    phi = dq.identity_map(cycle8)
    computed, _ = _computations(monkeypatch)
    reports, _ = dq.audit_pair(squared, cycle8, phi, eps_net=0.5, budget=8, seed=0)
    assert len(computed) == 2 and set(computed) == {cycle8.radius(), None}
    assert reports["oq_rB_upper"].as_dict() == reports["oqR_upper"].as_dict()
    computed.clear()
    reports, _ = dq.audit_pair(cycle8, squared, phi, eps_net=0.5, budget=8, seed=0)
    assert len(computed) == 3 and set(computed) == {cycle8.radius(), None, squared.radius()}
    assert reports["oq_rB_upper"].big_r == squared.radius()


def test_upper_memo_answers_only_its_question(monkeypatch):
    # the glue bound is memoized on its source space, keyed by everything it
    # reads: asked again it is read, with any one part changed it is computed
    a, b = ex.fuzzy_torus(2, 1), ex.fuzzy_torus(3, 1)
    phi = dq.torus_frequency_map(a, b)
    computed, _ = _computations(monkeypatch)
    first = dq.dist_oq_upper(a, b, phi, 2.5, 0.6, 8, 0)
    again = dq.dist_oq_upper(a, b, dq.torus_frequency_map(a, b), 2.5, 0.6, 8, 0)
    assert len(computed) == 1
    assert again is not first and again.as_dict() == first.as_dict()
    again.components["glue_eps"] = -1.0          # a caller's edit stays its own
    assert dq.dist_oq_upper(a, b, phi, 2.5, 0.6, 8, 0).as_dict() == first.as_dict()
    halved = dq.ComparisonMap(phi.x_ortho, phi.images / 2.0, label=phi.label)
    changed = [(ex.fuzzy_torus(3, 1), phi, 2.5, 0.6, 8, 0),     # an equal, other target
               (b, halved, 2.5, 0.6, 8, 0),                      # same label, other images
               (b, phi, 2.5, 0.5, 8, 0), (b, phi, 2.5, 0.6, 9, 0),
               (b, phi, 2.5, 0.6, 8, 1), (b, phi, 2.75, 0.6, 8, 0)]
    for count, (target, m, big_r, eps_net, budget, seed) in enumerate(changed, start=2):
        dq.dist_oq_upper(a, target, m, big_r, eps_net, budget, seed)
        assert len(computed) == count
    # a state_diameter call raises the dense target's radius: the balls stay
    # at R, but the report's r_B is read anew
    rb = b.radius()
    b.state_diameter(sample=8, seed=0)
    assert b.radius() > rb
    raised = dq.dist_oq_upper(a, b, phi, 2.5, 0.6, 8, 0)
    assert len(computed) == len(changed) + 2
    assert raised.components["radius_b"] == b.radius() != first.components["radius_b"]


def test_plain_and_R_variant_share_one_computation(monkeypatch):
    # even cycles have radius pi/2 to the bit, so the plain bound and its
    # R-variant at R = r_A = r_B ask one question: computed once, reported
    # twice, alike but for kind and R
    a, b = ex.commutative_cycle(8), ex.commutative_cycle(16)
    assert a.radius() == b.radius()
    phi = dq.cycle_refinement_map(a, b)
    computed, _ = _computations(monkeypatch)
    plain = dq.dist_oq_upper(a, b, phi, None, 0.35, 32, 7)
    at_r = dq.dist_oq_upper(a, b, phi, b.radius(), 0.35, 32, 7)
    assert computed == [None]
    assert (plain.kind, plain.big_r, at_r.kind, at_r.big_r) == ("oq", None, "oq_R", b.radius())
    assert {**plain.as_dict(), "kind": "", "R": 0} == {**at_r.as_dict(), "kind": "", "R": 0}


def test_bundled_runs_compute_each_bound_once(monkeypatch):
    # regression asks one c8|c16 question three times (its dist job, then the
    # audit's plain and R-variants); cycle-refinement asks c12|c24's plain
    # bound twice (its dist job and the audit) beside the audit's R-variant;
    # the torus audit computes its two questions
    _, measured = _computations(monkeypatch)
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    for name, label, want in (("regression", "cycle(m=8)->cycle(m=16)", 1),
                              ("cycle-refinement", "cycle(m=12)->cycle(m=24)", 2)):
        measured.clear()
        _, code = cli.run_scenario(json.loads((scenarios / f"{name}.json").read_text()))
        assert code == 0
        assert measured.count(f"cycle-refinement({label})") == want
    measured.clear()
    a, b = ex.fuzzy_torus(3, 1), ex.fuzzy_torus(5, 1)
    dq.audit_pair(a, b, dq.torus_frequency_map(a, b), eps_net=0.5, budget=24, seed=1)
    assert len(measured) == 2


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


def test_annealed_values_pinned():
    # the support solves and the glue descent share one annealing loop; these
    # values were recorded with its stages, one per factor of the one ladder,
    # started on the tangent of the minimizer path and with Z_q^n generator
    # kernels, and every stage converges
    t5, s2 = ex.fuzzy_torus(5, 1), ex.fuzzy_sphere(2)
    for obj, radius, diameter in ((t5, 2.005099767889, 4.015626102737),
                                  (s2, 0.5088864047356, 1.017772809471)):
        assert obj.radius() == pytest.approx(radius, rel=1e-9)
        assert obj.state_diameter(sample=8, seed=1) == pytest.approx(diameter, rel=1e-9)
        assert obj.unconverged_stages == 0
    a, b = ex.fuzzy_torus(3, 1), ex.fuzzy_torus(5, 1)
    reports, _ = dq.audit_pair(a, b, dq.torus_frequency_map(a, b), eps_net=0.5, budget=24,
                               seed=1)
    for key, want in (("oq_upper", 1.274303761584), ("oqR_upper", 1.418355630662),
                      ("oq_lower", 0.3249014315771)):
        assert reports[key].value == pytest.approx(want, rel=1e-9)
    assert a.unconverged_stages == b.unconverged_stages == 0
    assert reports["oq_upper"].components["glue_unconverged_stages"] == 0
    assert reports["oqR_upper"].components["glue_unconverged_stages"] == 0


def test_every_anneal_runs_the_ladder(monkeypatch):
    # one temperature ladder serves every annealed solve: each ``anneal``
    # call of a dense state metric, a radius ascent and a dense glue descent
    # runs exactly one Newton stage per factor of ``cqms.LADDER``
    stages = []
    anneal, newton_stage = cq.anneal, cq._newton_stage

    def counting_anneal(*args):
        stages.append(0)
        return anneal(*args)

    def counting_stage(*args):
        stages[-1] += 1
        return newton_stage(*args)

    monkeypatch.setattr(cq, "anneal", counting_anneal)
    monkeypatch.setattr(cq, "_newton_stage", counting_stage)
    rng = np.random.default_rng(3)
    s2, t3, t5 = ex.fuzzy_sphere(2), ex.fuzzy_torus(3, 1), ex.fuzzy_torus(5, 1)
    v, w = rng.standard_normal((2, s2.dim)) + 1j * rng.standard_normal((2, s2.dim))
    solves = (lambda: s2.state_metric(cq.vector_state(v), cq.vector_state(w)),
              t5.radius,
              lambda: dq.SumNorm(dq.torus_frequency_map(t3, t5), 0.5).value(
                  t3.space.random_element(rng), t5.space.random_element(rng)))
    for solve in solves:
        stages.clear()
        solve()
        assert stages and all(count == len(cq.LADDER) for count in stages)
