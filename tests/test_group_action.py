import numpy as np
import pytest

from cqmlab import examples as ex
from cqmlab.cqms import full_matrix_space
from cqmlab import group_action as ga
from cqmlab import numerics as nm

from conftest import (check_action, check_group, conjugate, isotypic_oracle, isotypic_weight,
                      kernel_oracle)


@pytest.fixture(scope="module")
def torus3():
    return ex.fuzzy_torus(3, 1)


@pytest.fixture(scope="module")
def cycle12():
    return ex.commutative_cycle(12)


def test_group_invariants(torus3, cycle12):
    for cq in (torus3, cycle12):
        g = cq.action.group
        check_group(g)
        assert abs(g.weights.sum() - 1.0) < 1e-12
        assert g.lengths[g.identity_index] == 0.0
        assert np.all(g.lengths[np.arange(g.size) != g.identity_index] > 0)
        assert np.allclose(g.lengths[g.inverse], g.lengths)


@pytest.mark.parametrize("m", [3, 8, 16])
def test_cycle_is_the_one_torus(m):
    # the cycle's group is Z_m^1: 1-tuple elements, the arc length of the
    # circle, the inverse -k and uniform weights; its characters are
    # labelled (k,) and take exp(2 pi i k x / m) at x
    g = ex.commutative_cycle(m).action.group
    k = np.arange(m)
    assert g.elements == tuple((int(x),) for x in k)
    assert np.array_equal(g.lengths, 2 * np.pi * np.minimum(k, m - k) / m)
    assert np.array_equal(g.inverse, (-k) % m)
    assert np.array_equal(g.weights, np.full(m, 1 / m))
    chars = ga.torus_characters(m, 1)
    assert [ch.label for ch in chars] == [(int(w),) for w in k]
    for w, ch in zip(k, chars):
        assert np.max(np.abs(ch.values - np.exp(2j * np.pi * (w * k) / m))) < 1e-15


def test_action_validate(torus3):
    check_action(torus3.action)


def test_apply_identity_and_unit(torus3):
    a = torus3.space.random_element(np.random.default_rng(0))
    same = conjugate(torus3.action, torus3.action.group.identity_index, a)
    assert np.allclose(same, a)
    eye = np.eye(3, dtype=complex)
    for x in range(torus3.action.group.size):
        assert np.allclose(conjugate(torus3.action, x, eye), eye)


def test_apply_preserves_norm(torus3, rng):
    a = torus3.space.random_element(rng)
    for x in (1, 4, 7):
        assert conjugate(torus3.action, x, a).shape == (3, 3)
        assert nm.op_norm(conjugate(torus3.action, x, a)) == pytest.approx(
            nm.op_norm(a), abs=1e-9)


def test_apply_dimension_mismatch(torus3):
    # the seminorm, where the action meets elements, rejects a 4 x 4 element
    # of a 3 x 3 space, naming the space and both sizes
    with pytest.raises(ValueError, match=r"torus\(q=3,p=1\) holds 3 x 3 matrices, not 4 x 4"):
        torus3.seminorm(np.eye(4, dtype=complex))


def test_apply_character_scaling():
    t = ex.fuzzy_torus(3, 1)
    u10 = t.basis_labels[(1, 0)]
    for idx, x in enumerate(t.action.group.elements):
        moved = conjugate(t.action, idx, u10)
        phase = np.exp(2j * np.pi * x[0] / 3)
        assert np.max(np.abs(moved - phase * u10)) < 1e-10


def test_seminorm_scalars(torus3):
    assert torus3.seminorm(np.eye(3, dtype=complex)) < 1e-12
    a = torus3.space.random_element(np.random.default_rng(1))
    assert torus3.seminorm(a + 5.0 * np.eye(3)) == pytest.approx(torus3.seminorm(a), abs=1e-9)


def test_seminorm_discrete_lipschitz_oracle(cycle12):
    # brute force over all pairs: L(f) = max |f(i) - f(j)| / arc(i - j)
    rng = np.random.default_rng(5)
    arcs = 2 * np.pi * np.minimum(np.arange(12), 12 - np.arange(12)) / 12
    for _ in range(20):
        f = rng.standard_normal(12)
        oracle = 0.0
        for i in range(12):
            for k in range(1, 12):
                oracle = max(oracle, abs(f[(i + k) % 12] - f[i]) / arcs[k])
        got = cycle12.seminorm(np.diag(f).astype(complex))
        assert got == pytest.approx(oracle, rel=1e-10)


def test_seminorm_axioms(torus3, rng):
    # subadditive, absolutely homogeneous, zero only on the scalars
    for _ in range(200):
        a = torus3.space.random_element(rng)
        b = torus3.space.random_element(rng)
        lam = float(rng.normal())
        la, lb = torus3.seminorm(a), torus3.seminorm(b)
        assert torus3.seminorm(a + b) <= la + lb + 1e-9
        assert torus3.seminorm(lam * a) == pytest.approx(abs(lam) * la, rel=1e-9, abs=1e-12)
        if nm.quotient_norm(a) > 1e-8:
            assert la > 1e-10


def test_lip_seminorms_batch(torus3, rng):
    # more rows than one matrix product of the batched path takes
    n = torus3._BLOCK + 7
    stack = np.array([torus3.space.random_element(rng) for _ in range(n)])
    batch = torus3.seminorms(stack)
    singles = [torus3.seminorm(m) for m in stack]
    assert batch.shape == (n,)
    assert np.allclose(batch, singles, rtol=1e-12, atol=0.0)


def test_isotypic_trivial_projection(torus3, rng):
    chars = ga.torus_characters(3, 2)
    trivial = [c for c in chars if c.label == (0, 0)]
    a = torus3.space.random_element(rng)
    proj = isotypic_oracle(torus3.action, trivial, a)
    scalar = np.trace(a).real / 3.0
    assert np.max(np.abs(proj - scalar * np.eye(3))) < 1e-10


def test_isotypic_idempotent(torus3, rng):
    chars = ga.torus_characters(3, 2)
    pair = [c for c in chars if c.label in ((1, 0), (2, 0))]
    a = torus3.space.random_element(rng)
    once = isotypic_oracle(torus3.action, pair, a)
    twice = isotypic_oracle(torus3.action, pair, once)
    assert np.max(np.abs(once - twice)) < 1e-8


def test_isotypic_returns_component(torus3):
    chars = ga.torus_characters(3, 2)
    pair = [c for c in chars if c.label in ((1, 0), (2, 0))]
    u = torus3.basis_labels[(1, 0)]
    a = u + u.conj().T
    proj = isotypic_oracle(torus3.action, pair, a)
    assert np.max(np.abs(proj - a)) < 1e-10


def test_isotypic_rejects_non_self_conjugate(torus3, rng):
    chars = ga.torus_characters(3, 2)
    single = [c for c in chars if c.label == (1, 0)]
    with pytest.raises(ValueError):
        isotypic_oracle(torus3.action, single, torus3.space.random_element(rng))


def test_projection_seminorm_bound(torus3, rng):
    # L(alpha_phi(a)) <= |phi|_1 L(a)
    chars = ga.torus_characters(3, 2)
    pair = [c for c in chars if c.label in ((1, 0), (2, 0), (0, 0))]
    bound = float(np.dot(torus3.action.group.weights, np.abs(isotypic_weight(pair))))
    for _ in range(25):
        a = torus3.space.random_element(rng)
        proj = isotypic_oracle(torus3.action, pair, a)
        assert torus3.seminorm(proj) <= bound * torus3.seminorm(a) + 1e-9


def test_isotypic_projection_rank_crosscheck(torus3):
    # multiplicity uses the trace/character formula; the projector rank is
    # kept as an independent cross-check: rank over the complexified space
    # equals sum over the label set of mul(gamma) * dim(gamma)^2
    chars = ga.torus_characters(3, 2)
    pair = [c for c in chars if c.label in ((1, 0), (2, 0))]
    basis = torus3.space.ortho
    images = np.array([isotypic_oracle(torus3.action, pair, e) for e in basis])
    sv = np.linalg.svd(images.reshape(len(basis), -1), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    expected = sum(ga.multiplicity(torus3.action, c, basis) * c.dimension ** 2 for c in pair)
    assert rank == expected == 2


def test_isotypic_component_empirical_boundedness(torus3, rng):
    # no certified constant exists for L <= C |.| on an isotypic component
    # (the abstract constant is nonconstructive); we only report that the
    # empirical ratio over samples is bounded, never a certificate
    chars = ga.torus_characters(3, 2)
    pair = [c for c in chars if c.label in ((1, 2), (2, 1))]
    ratios = []
    for _ in range(50):
        a = isotypic_oracle(torus3.action, pair, torus3.space.random_element(rng))
        norm = nm.op_norm(a)
        if norm > 1e-9:
            ratios.append(torus3.seminorm(a) / norm)
    assert ratios and max(ratios) < 1e3
    assert max(ratios) / min(ratios) < 10.0   # component ratio is tame, empirically


def test_multiplicity_trivial_is_one(torus3):
    chars = ga.torus_characters(3, 2)
    trivial = next(c for c in chars if c.label == (0, 0))
    assert ga.multiplicity(torus3.action, trivial, torus3.space.ortho) == 1


def test_multiplicity_torus_all_one():
    for q, p in ((3, 1), (4, 1), (5, 2)):
        t = ex.fuzzy_torus(q, p)
        traces = ga.action_traces(t.action, t.space.ortho)
        for ch in ga.torus_characters(q, 2):
            raw = complex(np.dot(t.action.group.weights, ch.values.conj() * traces))
            assert abs(raw - 1) < 1e-9
            assert ga.multiplicity(t.action, ch, t.space.ortho) == 1


def test_multiplicity_sphere_clebsch_gordan():
    for two_j in (1, 2, 3):
        s = ex.fuzzy_sphere(two_j)
        for two_l in range(0, 2 * two_j + 4, 2):
            ch = ga.su2_characters(ex.su2_grid(), [two_l])[0]
            expected = 1 if two_l <= 2 * two_j else 0
            assert ga.multiplicity(s.action, ch, s.space.ortho) == expected


def test_multiplicity_cycle_regular_representation():
    c = ex.commutative_cycle(6)
    for ch in ga.torus_characters(6, 1):
        assert ga.multiplicity(c.action, ch, c.space.ortho) == 1


def test_multiplicity_dimension_sum(torus3):
    # sum over gamma of mul * dim^2 = dim_C of the space, for complete lists
    total = sum(ga.multiplicity(torus3.action, ch, torus3.space.ortho) * ch.dimension ** 2
                for ch in ga.torus_characters(3, 2))
    assert total == 9


def test_multiplicity_coarse_grid_diagnostic():
    grid = ga.su2_euler_grid(2, 2, 2)
    s = ex.fuzzy_sphere(4, grid_dims=(2, 2, 2))
    chars = ga.su2_characters(grid, [8])
    with pytest.raises(ga.QuadratureError) as err:
        ga.multiplicity(s.action, chars[0], s.space.ortho)
    assert err.value.raw is not None


def test_ergodicity_examples(torus3, cycle12):
    assert ga.ergodicity_check(torus3.action, torus3.space.ortho)
    assert ga.ergodicity_check(cycle12.action, cycle12.space.ortho)


def test_ergodicity_trivial_action_false():
    group = ga.torus_group(4, 1)
    impl = np.array([np.eye(3, dtype=complex)] * 4)
    action = ga.UnitaryAction(group=group, implementers=impl)
    assert not ga.ergodicity_check(action, full_matrix_space(3).ortho)


def test_ergodicity_block_sum_false():
    t = ex.fuzzy_torus(2, 1)
    impl = t.action.implementers
    big = np.zeros((impl.shape[0], 4, 4), dtype=complex)
    big[:, :2, :2] = impl
    big[:, 2:, 2:] = impl
    action = ga.UnitaryAction(group=t.action.group, implementers=big)
    assert not ga.ergodicity_check(action, full_matrix_space(4).ortho)


def test_ergodicity_subgroup_false(torus3):
    # torus(3,1) under Z_3 x {0} fixes the frequencies (0, w2): the trivial
    # character's raw multiplicity is 3, the rank of its isotypic projection
    sub = [torus3.action.group.elements.index((k, 0)) for k in range(3)]
    action = ga.UnitaryAction(group=ga.torus_group(3, 1),
                              implementers=torus3.action.implementers[sub])
    basis = torus3.space.ortho
    trivial = ga.torus_characters(3, 1)[0]
    (raw, m), = ga.multiplicities(action, [trivial], basis)
    assert m == 3 and abs(raw - 3) < 1e-9
    images = np.array([isotypic_oracle(action, [trivial], e) for e in basis])
    sv = np.linalg.svd(images.reshape(len(basis), -1), compute_uv=False)
    assert int(np.sum(sv > 1e-8 * sv[0])) == 3
    assert not ga.ergodicity_check(action, basis)


def test_ergodicity_coarse_grid_raises():
    # a grid too coarse to integrate the trivial character has no verdict
    for two_j, n in ((3, 3), (4, 4)):
        s = ex.fuzzy_sphere(two_j, grid_dims=(n, n, n))
        with pytest.raises(ga.QuadratureError) as err:
            ga.ergodicity_check(s.action, s.space.ortho)
        assert abs(err.value.raw - 1) > ga.DEFAULT_INTEGER_TOL


def test_su2_grid_structure():
    grid = ga.su2_euler_grid(4, 4, 4)
    g = grid.group
    check_group(g)
    assert abs(g.weights.sum() - 1.0) < 1e-12
    # inverse pairing is exact daggers
    u = ex.su2_implementers(1, grid)
    for i in (1, 5, 20):
        j = g.inverse[i]
        assert np.allclose(u[j], u[i].conj().T)
    # haar quadrature integrates characters to ~0 (orthogonality with trivial)
    chars = ga.su2_characters(grid, [2, 4])
    for ch in chars:
        val = np.dot(g.weights, ch.values)
        assert abs(val) < 1e-6


def test_seminorm_kernel_preserves_sup(rng):
    # the sup over the declared kernel equals the raw definition over the
    # whole sample, on the general operator (tori, sphere) and the diagonal
    # one (cycles): on Z_q^n the kernel is the n generators alone
    spaces = ([ex.fuzzy_torus(q, p) for q, p in [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1),
                                                  (7, 1), (7, 2)]]
              + [ex.commutative_cycle(m) for m in (3, 8, 12, 16)] + [ex.fuzzy_sphere(1)])
    for space in spaces:
        group = space.action.group
        u = space.action.implementers
        for _ in range(10):
            a = space.space.random_element(rng)
            raw = 0.0
            for x in np.flatnonzero(np.arange(group.size) != group.identity_index):
                diff = u[x] @ a @ u[x].conj().T - a
                raw = max(raw, nm.op_norm(diff) / group.lengths[x])
            assert space.seminorm(a) == pytest.approx(raw, rel=1e-12)


# spheres on the default grid are named by their level alone
_KERNEL_CASES = (
    [(f"sphere{two_j}" + ("" if dims == ex.DEFAULT_SU2_GRID else "-" + "x".join(map(str, dims))),
      lambda two_j=two_j, dims=dims: ex.fuzzy_sphere(two_j, grid_dims=dims))
     for dims in [(14, 12, 14), (6, 6, 6), (5, 5, 5), (7, 6, 5), (4, 3, 2)]
     for two_j in range(1, 5)]
    + [(f"torus{q}{p}", lambda q=q, p=p: ex.fuzzy_torus(q, p))
       for q, p in [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (7, 2)]]
    + [(f"cycle{m}", lambda m=m: ex.commutative_cycle(m)) for m in (3, 8, 12, 16)])


@pytest.mark.parametrize("make", [make for _, make in _KERNEL_CASES],
                         ids=[name for name, _ in _KERNEL_CASES])
def test_seminorm_kernel_matches_oracle(make):
    # on SU(2) the kernel the group declares is the one that merging its
    # elements by their implementers finds: values and dtypes.  On Z_q^n it
    # is the n generators, found from the element labels, a subset of the
    # oracle's classes
    action = make().action
    group = action.group
    got, want = action.seminorm_kernel(), kernel_oracle(action)
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    if not group.is_exact:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        return
    n = len(group.elements[0])
    gens = sorted(group.elements.index(tuple(int(i == j) for j in range(n))) for i in range(n))
    assert np.array_equal(got[0], gens)
    assert np.array_equal(got[1], want[1][np.isin(want[0], gens)])


def test_su2_characters_match_scipy_chebyu():
    # the characters' recurrence gives scipy's U_n to the bit on the default
    # grid, for every 2l up to 40
    from scipy.special import eval_chebyu
    grid = ex.su2_grid()
    chars = ga.su2_characters(grid, range(41))
    for two_l, ch in enumerate(chars):
        assert np.array_equal(ch.values, eval_chebyu(two_l, grid.cos_angles).astype(complex))
