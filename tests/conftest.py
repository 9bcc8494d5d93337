"""Shared oracles and fixtures.

The oracles here are deliberately independent of the production code
paths they check: linear programming for the dual state metric, brute
force enumeration for Gromov-Hausdorff, power iteration for operator
norms, dense parameter grids for infima.
"""

import itertools
import os
from pathlib import Path

import pytest

# the support solves eigensolve thousands of tiny matrices per call, where an
# idle BLAS thread pool only costs time: cap the pools at one thread, before
# numpy is imported and sizes them (an explicit setting still wins)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def children_import_src():
    """CLI tests start Python subprocesses: they import cqmlab from src/, as
    the ``pythonpath`` setting in pyproject.toml does for this process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


def kantorovich_lp(dist: np.ndarray, c: np.ndarray) -> float:
    """Exact sup { c . f : |f_i - f_j| <= dist[i, j] } by linear programming
    (c must annihilate constants)."""
    n = dist.shape[0]
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(n)
            row[i], row[j] = 1.0, -1.0
            rows.append(row)
            rhs.append(dist[i, j])
    a_eq = np.zeros((1, n))
    a_eq[0, 0] = 1.0
    res = linprog(-np.asarray(c, dtype=float), A_ub=np.array(rows), b_ub=np.array(rhs),
                  A_eq=a_eq, b_eq=[0.0], bounds=[(None, None)] * n, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def cycle_arc_matrix(m: int) -> np.ndarray:
    k = np.arange(m)
    diff = np.abs(k[:, None] - k[None, :])
    return 2.0 * np.pi * np.minimum(diff, m - diff) / m


def relengthed_cycle(m: int, relength):
    """The m-cycle with its arc lengths mapped through ``relength``;
    squared lengths break the triangle inequality, so the Dirac metric is
    a shortest path over several shifts."""
    import dataclasses
    from cqmlab import cqms as cq
    from cqmlab import examples as ex
    from cqmlab import group_action as ga
    base = ex.commutative_cycle(m)
    group = dataclasses.replace(base.action.group, lengths=relength(base.action.group.lengths))
    return cq.Cqms(space=base.space,
                   action=ga.UnitaryAction(group=group, implementers=base.action.implementers))


def power_iteration_opnorm(a: np.ndarray, iters: int = 2000, seed: int = 0) -> float:
    """Operator norm of Hermitian a through power iteration on a^2."""
    rng = np.random.default_rng(seed)
    sq = a @ a
    v = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = sq @ v
        lam = float(np.linalg.norm(w))
        if lam == 0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def gh_bruteforce(dx: np.ndarray, dy: np.ndarray) -> float:
    """Brute force over all pairs of maps f: X->Y, g: Y->X, minimizing the
    distortion of the union-graph correspondence.  Independent of the
    production search (no candidate-value bisection, no backtracking)."""
    n, m = dx.shape[0], dy.shape[0]
    fs = np.array(list(itertools.product(range(m), repeat=n)), dtype=int)
    gs = np.array(list(itertools.product(range(n), repeat=m)), dtype=int)
    dis_f = np.array([np.max(np.abs(dx - dy[np.ix_(f, f)])) for f in fs])
    dis_g = np.array([np.max(np.abs(dy - dx[np.ix_(g, g)])) for g in gs])
    best = np.inf
    order = np.argsort(dis_f)
    g_keep = gs
    for fi in order:
        df = dis_f[fi]
        if df >= best:
            break
        f = fs[fi]
        # co-distortion against every g at once: |dx[x, g[y]] - dy[f[x], y]|
        cross = np.abs(dx[:, g_keep] - dy[f][:, None, :])   # (n, n_g, m)
        co = cross.max(axis=(0, 2))
        total = np.maximum(df, np.maximum(dis_g, co))
        best = min(best, float(total.min()))
    return best / 2.0


def gh_raw_correspondences(dx: np.ndarray, dy: np.ndarray) -> float:
    """Meta-oracle: enumerate every correspondence as a subset of X x Y that
    is total on both sides (only feasible for very small spaces)."""
    n, m = dx.shape[0], dy.shape[0]
    cells = [(i, j) for i in range(n) for j in range(m)]
    best = np.inf
    for mask in range(1, 1 << (n * m)):
        rel = [cells[k] for k in range(n * m) if mask >> k & 1]
        if len({i for i, _ in rel}) < n or len({j for _, j in rel}) < m:
            continue
        dis = max(abs(dx[i1, i2] - dy[j1, j2])
                  for (i1, j1) in rel for (i2, j2) in rel)
        best = min(best, dis)
    return best / 2.0


def random_metric_space(rng: np.random.Generator, n: int, dim: int = 3):
    from cqmlab.finmetric import FiniteMetricSpace
    pts = rng.random((n, dim))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    return FiniteMetricSpace(d)
