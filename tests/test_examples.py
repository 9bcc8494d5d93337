import numpy as np
import pytest

from cqmlab import examples as ex
from cqmlab.cqms import full_matrix_space
from cqmlab import group_action as ga
from cqmlab import numerics as nm

from conftest import conjugate, isotypic_oracle


def test_clock_shift_commutation():
    # the defining relation of the level-q pair with deformation step p
    for q, p in ((2, 1), (3, 1), (5, 2), (7, 3)):
        clock, shift = ex.clock_and_shift(q, p)
        lhs = clock @ shift
        rhs = np.exp(2j * np.pi * p / q) * shift @ clock
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_frequency_basis_cocycle():
    # u_w u_w' = exp(i pi theta (w1 w2' - w2 w1')) u_{w+w'} with theta = p/q;
    # the q x q pair's interchange constant e^{2 pi i p/q} is the square of
    # the half phase (the factor-2 bookkeeping lives here)
    q, p = 5, 2
    freq = ex.torus_frequency_basis(q, p)
    theta = p / q
    for w in ((1, 0), (0, 1), (1, 1), (2, 3)):
        for wp in ((0, 1), (1, 2), (3, 1)):
            s = ((w[0] + wp[0]), (w[1] + wp[1]))
            if s[0] >= q or s[1] >= q:
                continue   # wrapping changes the representative phase
            lhs = freq[w] @ freq[wp]
            phase = np.exp(1j * np.pi * theta * (w[0] * wp[1] - w[1] * wp[0]))
            assert np.max(np.abs(lhs - phase * freq[s])) < 1e-12


def test_frequency_basis_unitary():
    freq = ex.torus_frequency_basis(3, 1)
    for u in freq.values():
        assert nm.is_unitary(u, tol=1e-10)
    assert np.allclose(freq[(0, 0)], np.eye(3))


def test_torus_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ex.fuzzy_torus(1, 1)
    with pytest.raises(ValueError):
        ex.fuzzy_torus(4, 2)      # gcd(p, q) != 1 degenerates the basis


def test_torus_action_is_character_diagonal():
    t = ex.fuzzy_torus(4, 1)
    for w, u in t.basis_labels.items():
        for idx, x in enumerate(t.action.group.elements):
            moved = conjugate(t.action, idx, u)
            phase = np.exp(2j * np.pi * (w[0] * x[0] + w[1] * x[1]) / 4)
            assert np.max(np.abs(moved - phase * u)) < 1e-10


def test_torus_q2_shape():
    t = ex.fuzzy_torus(2, 1)
    assert t.space.real_dim == 4
    assert ga.ergodicity_check(t.action, t.space.ortho)


def test_torus_frequency_seminorm_closed_form():
    # the closed form max_x |<w, x> - 1| / l(x) is exact for the complex
    # frequency element (it is unitary); the Hermitian combination obeys it
    # as an upper bound, with equality degraded by the spectral phase spread
    for q in (2, 3, 5):
        t = ex.fuzzy_torus(q, 1)
        g = t.action.group
        u = t.basis_labels[(1, 0)]
        others = np.flatnonzero(np.arange(g.size) != g.identity_index)
        closed = 0.0
        for idx in others:
            x = g.elements[idx]
            closed = max(closed, abs(np.exp(2j * np.pi * x[0] / q) - 1.0) / g.lengths[idx])
        # complex element: |alpha_x(u) - u| = |<w,x> - 1| exactly
        complex_l = 0.0
        for idx in others:
            diff = conjugate(t.action, idx, u) - u
            complex_l = max(complex_l,
                            float(np.linalg.svd(diff, compute_uv=False)[0]) / g.lengths[idx])
        assert complex_l == pytest.approx(closed, rel=1e-10)
        herm = t.seminorm(u + u.conj().T)
        assert herm <= 2 * closed + 1e-9
        if q == 2:
            assert herm == pytest.approx(2 * closed, rel=1e-10)


def test_torus_seminorm_orbit_symmetry():
    # L(u_w + u_w*) is constant over frequency orbits of the length symmetry
    t = ex.fuzzy_torus(5, 1)

    def herm_l(w):
        u = t.basis_labels[w]
        return t.seminorm(u + u.conj().T)

    # the flat word length is symmetric under coordinate swap and negation
    assert herm_l((1, 0)) == pytest.approx(herm_l((0, 1)), rel=1e-9)
    assert herm_l((1, 2)) == pytest.approx(herm_l((2, 1)), rel=1e-9)
    assert herm_l((1, 0)) == pytest.approx(herm_l((4, 0)), rel=1e-9)


def test_spin_matrices_algebra():
    for two_j in (1, 2, 3, 5):
        jx, jy, jz = ex.spin_matrices(two_j)
        assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
        j = two_j / 2.0
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(two_j + 1), atol=1e-12)


def test_spherical_basis_isotypic():
    # J_z spans T_{1,0}, in the spin-1 isotypic component: projecting onto
    # l = 1 leaves it unchanged
    s = ex.fuzzy_sphere(2)
    chars = ga.su2_characters(ex.su2_grid(), [2])   # l = 1
    jz = ex.spin_matrices(2)[2]
    proj = isotypic_oracle(s.action, chars, jz)
    assert np.max(np.abs(proj - jz)) < 1e-6


def test_sphere_shapes_and_ergodicity():
    for two_j in (1, 2):
        s = ex.fuzzy_sphere(two_j)
        assert s.dim == two_j + 1
        assert s.space.real_dim == s.dim ** 2
        assert ga.ergodicity_check(s.action, s.space.ortho)


def test_sphere_radius_below_grid_mean():
    s = ex.fuzzy_sphere(1)
    assert s.radius() <= s.action.group.haar_mean_length() + 1e-6


def test_cycle_basics():
    c = ex.commutative_cycle(3)
    assert c.seminorm(np.eye(3, dtype=complex)) < 1e-12
    from cqmlab.cqms import dirac_state
    got = c.state_metric(dirac_state(3, 0), dirac_state(3, 1))
    assert got == pytest.approx(2 * np.pi / 3, rel=0.02)
    with pytest.raises(ValueError):
        ex.commutative_cycle(2)


def test_cycle_diameter_even():
    c = ex.commutative_cycle(8)
    assert c.state_diameter(sample=12, seed=1) == pytest.approx(np.pi, rel=0.05)


def test_berezin_symbol_normalization():
    s = ex.fuzzy_sphere(2)
    maps = ex.berezin_maps(s)
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = 1.0                      # the highest-weight projector
    # sigma_P at the group identity is tr(P P) = 1
    assert maps.symbol(p)[s.action.group.identity_index].real == pytest.approx(1.0)
    # sigma of the identity matrix is the constant function tr(P) = 1
    sym = maps.symbol(np.eye(3, dtype=complex))
    assert np.max(np.abs(sym - 1.0)) < 1e-12


def test_berezin_checks():
    rng = np.random.default_rng(0)
    for two_j in (1, 2, 3, 4):
        s = ex.fuzzy_sphere(two_j)
        maps = ex.berezin_maps(s)
        d, size = two_j + 1, s.action.group.size
        # quadrature defect only
        assert nm.op_norm(maps.cosymbol(np.ones(size)) - np.eye(d)) < 5e-3
        # exactly positive: nonnegative functions go to positive matrices
        for _ in range(6):
            assert np.linalg.eigvalsh(maps.cosymbol(rng.random(size)))[0] > -1e-12
        # symbol injective
        symbols = np.array([maps.symbol(e) for e in full_matrix_space(d).ortho])
        sv = np.linalg.svd(symbols, compute_uv=False)
        assert int(np.sum(sv > 1e-9 * sv[0])) == d * d


def test_berezin_equivariance_defect():
    s = ex.fuzzy_sphere(2)
    maps = ex.berezin_maps(s)
    rng = np.random.default_rng(0)
    a = s.space.random_element(rng)
    defect = maps.equivariance_defect(s.action.implementers, a, [1, 7, 100])
    assert defect < 1e-10     # the transform commutes with conjugation exactly


def test_descriptor_validation():
    # parameters are checked against the family's field table, which fills
    # in the defaults; a value out of range or of the wrong type, or an
    # unknown family, is a ValueError
    assert ex.ExampleDescriptor.make("torus", q=3, p=1).checked() == {"q": 3, "p": 1}
    assert ex.ExampleDescriptor.make("torus", q=3).checked() == {"q": 3, "p": 1}
    assert (ex.ExampleDescriptor.make("sphere", two_j=1, grid="6x6x6").checked()
            == {"two_j": 1, "grid": (6, 6, 6)})
    for family, params in (("torus", {"q": 20}), ("sphere", {"two_j": 10}),
                           ("cycle", {"m": 100}), ("segment", {}), ("torus", {"q": 3.9}),
                           ("cycle", {"m": "6"}), ("cycle", {"m": True}),
                           ("sphere", {"two_j": 1, "grid": [6, 6.5, 6]})):
        with pytest.raises(ValueError):
            ex.ExampleDescriptor.make(family, **params).checked()


def test_descriptor_characters_on_its_sample():
    # every family's character table has one value per element of the group
    # sample its example is built on, a sphere's also off the default grid
    descs = [ex.ExampleDescriptor.make(name, **{k: bounds[0] for k, (_, default, bounds)
                                                in fam.fields.items() if default is ...})
             for name, fam in ex.FAMILIES.items()]
    descs.append(ex.ExampleDescriptor.make("sphere", two_j=1, grid="6x6x6"))
    for desc in descs:
        cq = desc.build()
        chars = desc.characters()
        assert chars
        assert all(len(ch.values) == cq.action.group.size for ch in chars), desc


def test_descriptor_build_roundtrip():
    desc = ex.ExampleDescriptor.make("cycle", m=6)
    cq = desc.build()
    assert cq.dim == 6
    assert desc.as_dict()["family"] == "cycle"


def test_scalar_cqms():
    scal = ex.scalar_cqms(ex.fuzzy_torus(2, 1))
    assert scal.space.real_dim == 1
    assert scal.radius() == 0.0
