import numpy as np
import pytest

from cqmlab import finmetric as fm

from conftest import (gh_bruteforce, gh_raw_correspondences, random_metric_space)


def test_space_validation():
    with pytest.raises(ValueError):
        fm.FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        fm.FiniteMetricSpace(np.array([[0.0, 5.0, 1.0],
                                       [5.0, 0.0, 1.0],
                                       [1.0, 1.0, 0.0]]))  # triangle fails


def _cover_size(x, eps):
    """Size of the open eps-ball cover of the whole space that
    ``universal_embed``'s covering trees use."""
    return len(fm._cover_subset(x, np.arange(x.n), eps))


def test_covering_trivial_cases(rng):
    x = random_metric_space(rng, 8)
    assert _cover_size(x, x.diam() + 1.0) == 1
    four = fm.FiniteMetricSpace(np.ones((4, 4)) - np.eye(4))
    assert _cover_size(four, 0.5) == 4
    assert fm.packing_number(four, 0.5) == 4


def test_covering_monotone(rng):
    x = random_metric_space(rng, 9)
    values = [_cover_size(x, eps) for eps in (0.1, 0.3, 0.6, 1.2)]
    assert values == sorted(values, reverse=True)


def test_packing_le_covering_half(rng):
    # P(X, eps) <= Cov(X, eps/2), 500 random instances
    for _ in range(500):
        n = int(rng.integers(2, 9))
        x = random_metric_space(rng, n)
        eps = float(rng.uniform(0.05, 1.2))
        assert fm.packing_number(x, eps) <= _cover_size(x, eps / 2.0)


def test_gh_identical_and_point(rng):
    x = random_metric_space(rng, 6)
    assert fm.gh_exact_small(x, x) == pytest.approx(0.0, abs=1e-12)
    point = fm.FiniteMetricSpace(np.zeros((1, 1)))
    assert fm.gh_exact_small(x, point) == pytest.approx(x.diam() / 2.0)


def test_gh_uniform_scaling(rng):
    for _ in range(5):
        x = random_metric_space(rng, 4)
        s = 1.7
        y = fm.FiniteMetricSpace(s * x.dist)
        got = fm.gh_exact_small(x, y)
        oracle = gh_bruteforce(x.dist, y.dist)
        assert got == pytest.approx(oracle, abs=1e-10)


def test_gh_bruteforce_oracle(rng):
    for _ in range(40):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        x, y = random_metric_space(rng, n), random_metric_space(rng, m)
        assert fm.gh_exact_small(x, y) == pytest.approx(
            gh_bruteforce(x.dist, y.dist), abs=1e-10)


def test_gh_function_pair_reduction_meta_oracle(rng):
    # raw subset enumeration validates the union-graph reduction itself
    for _ in range(6):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        x, y = random_metric_space(rng, n), random_metric_space(rng, m)
        assert gh_bruteforce(x.dist, y.dist) == pytest.approx(
            gh_raw_correspondences(x.dist, y.dist), abs=1e-10)


def test_gh_symmetry_and_triangle(rng):
    spaces = [random_metric_space(rng, int(rng.integers(2, 6))) for _ in range(6)]
    for x in spaces[:3]:
        for y in spaces[3:]:
            assert fm.gh_exact_small(x, y) == pytest.approx(
                fm.gh_exact_small(y, x), abs=1e-12)
    for x, y, z in [(spaces[0], spaces[1], spaces[2])]:
        assert fm.gh_exact_small(x, z) <= (fm.gh_exact_small(x, y)
                                           + fm.gh_exact_small(y, z) + 1e-9)


def test_gh_cap():
    big = fm.circle_space(9)
    with pytest.raises(ValueError):
        fm.gh_exact_small(big, big)


def test_ball_cover_trivial(rng):
    x = random_metric_space(rng, 8)
    assert fm.ball_cover_test(x, list(range(8)), 1e-6)
    assert fm.ball_cover_test(x, [3], x.diam() + 1.0)


def test_gh_to_ball_lemma(rng):
    # dist_GH(X, Y) < eps / (4 P(X, eps/2)) forces the eps-balls around Y
    # to cover X; 500 trials over random spaces and subsets
    hits = 0
    trials = 0
    while hits < 500 and trials < 5000:
        trials += 1
        n = int(rng.integers(3, 7))
        x = random_metric_space(rng, n)
        k = int(rng.integers(2, n + 1))
        ys = np.sort(rng.choice(n, size=k, replace=False))
        y = x.subspace(ys)
        eps = float(rng.uniform(0.2, 1.5)) * max(x.diam(), 0.1)
        gh = fm.gh_exact_small(x, y)
        if gh < eps / (4.0 * fm.packing_number(x, eps / 2.0)):
            hits += 1
            assert fm.ball_cover_test(x, ys, eps)
    assert hits == 500


def test_packing_lemma(rng):
    # dist_GH < eps/4 implies P(X, eps) <= P(Y, eps/2); 500 trials
    hits = 0
    trials = 0
    while hits < 500 and trials < 8000:
        trials += 1
        n = int(rng.integers(2, 6))
        x = random_metric_space(rng, n)
        y = fm.FiniteMetricSpace(np.round(
            x.dist * (1.0 + rng.uniform(-0.02, 0.02)), 12))
        eps = float(rng.uniform(0.1, 1.2)) * max(x.diam(), 0.1)
        if fm.gh_exact_small(x, y) < eps / 4.0:
            hits += 1
            assert fm.packing_number(x, eps) <= fm.packing_number(y, eps / 2.0)
    assert hits == 500


# ---------------------------------------------------------------------------
# universal embedding


def test_embed_constant_function():
    space = fm.circle_space(12)
    fns = [np.full(12, 0.4)]
    rep = fm.universal_embed([space], 1.0, 4, [fns])
    assert rep.z_ok
    assert rep.max_distortion == 0.0
    assert all(rep.per_space[0].net_ok)


def test_embed_circle_depth6(rng):
    space = fm.circle_space(30)
    fns = [fm.random_lipschitz_function(space, rng, 1.0) for _ in range(20)]
    rep = fm.universal_embed([space], 1.0, 6, [fns])
    assert rep.z_ok
    assert all(rep.per_space[0].net_ok)
    assert rep.per_space[0].edges_ok
    assert rep.max_distortion <= 2.0 ** (-5) * 2.0   # 2^{-depth+1} * (2 R)


def test_embed_nontrivial_support(rng):
    # shallow tree on a coarse space: the support is a proper subset, the
    # distortion is positive but still under the bound
    # 40 points on a circle of circumference 8, and minima of five cones
    steps = np.abs(np.arange(40)[:, None] - np.arange(40)[None, :])
    space = fm.FiniteMetricSpace(np.minimum(steps, 40 - steps) * (8.0 / 40))
    fns = []
    for _ in range(12):
        idx, vals = rng.integers(0, 40, size=5), rng.uniform(-1.0, 1.0, size=5)
        fns.append(np.clip(np.min(vals[None, :] + space.dist[:, idx], axis=1), -1.0, 1.0))
    rep = fm.universal_embed([space], 1.0, 2, [fns])
    support = rep.per_space[0].support()
    assert len(support) < 40
    assert rep.max_distortion <= rep.distortion_bound + 1e-12
    assert rep.z_ok


def test_embed_family_shared_tree(rng):
    family = [fm.circle_space(18), fm.circle_space(24)]
    fns = [[fm.random_lipschitz_function(s, rng, 1.0) for _ in range(4)]
           for s in family]
    rep = fm.universal_embed(family, 1.0, 4, fns)
    assert rep.z_ok
    assert len(rep.cover_sizes) == 4


def test_embed_rejects_bad_functions(rng):
    space = fm.circle_space(10)
    steep = np.zeros(10)
    steep[0] = 10.0
    with pytest.raises(ValueError):
        fm.universal_embed([space], 1.0, 3, [[steep]])
    big = np.full(10, 7.0)
    with pytest.raises(ValueError):
        fm.universal_embed([space], 1.0, 3, [[big]])

