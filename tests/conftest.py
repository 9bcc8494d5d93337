"""Shared oracles and fixtures.

The oracles here are deliberately independent of the production code
paths they check: linear programming for the dual state metric and (in
its dual form) for the diagonal glue norm, brute force enumeration for
Gromov-Hausdorff, power iteration for operator norms, dense parameter
grids for infima, the Haar-averaged isotypic projector for
multiplicities, implementers merged by a phase-free hash for the
declared seminorm kernels, and the group laws of the exact samples
recomputed from their element labels.
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


def glue_dual_lp(x_diag: np.ndarray, y_diag: np.ndarray, eps: float,
                 a: np.ndarray, b: np.ndarray) -> float:
    """Exact inf_c |a - X c|_inf + |b + Y c|_inf + eps |X c|_inf for real
    vectors a, b and matrices X (d_A, k), Y (d_B, k), through its dual LP:
    max <p, a> + <q, b> over |p|_1 <= 1, |q|_1 <= 1, |r|_1 <= eps with
    X^T (r - p) + Y^T q = 0, each vector split into its positive and
    negative parts."""
    da, db = len(a), len(b)
    sizes = (da, db, da)                       # p, q, r, each as (plus, minus)
    ends = np.cumsum((0,) + tuple(2 * n for n in sizes))
    lin = [-x_diag.T, y_diag.T, x_diag.T]
    a_eq = np.concatenate([np.concatenate([m, -m], axis=1) for m in lin], axis=1)
    a_ub = np.zeros((3, ends[-1]))
    for row, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        a_ub[row, lo:hi] = 1.0
    gain = np.concatenate([a, -a, b, -b, np.zeros(2 * da)])
    res = linprog(-gain, A_ub=a_ub, b_ub=[1.0, 1.0, eps], A_eq=a_eq,
                  b_eq=np.zeros(x_diag.shape[1]), bounds=(0, None), method="highs")
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


def kernel_oracle(action) -> tuple:
    """The reference for the kernel a group declares, found from the
    implementers alone: over the seminorm support (one element per inverse
    pair), each implementer, divided by its phase against a fixed probe (its
    largest entry when the probe nearly annihilates it), is rounded to 1e-6
    and keyed by its bytes, so elements that act as one automorphism share a
    class; a class keeps its first element of minimal length.  Returns
    (indices, lengths) in ascending index order, as ``seminorm_kernel``."""
    support = action.group.seminorm_support()
    classes: dict = {}
    d = action.dim
    probe_rng = np.random.default_rng(12345)
    probe = probe_rng.standard_normal(d * d) + 1j * probe_rng.standard_normal(d * d)
    for i in support:
        flat = action.implementers[i].ravel()
        s = complex(probe @ flat)
        if abs(s) < 1e-9:
            s = flat[int(np.argmax(np.abs(flat)))]
        key = np.round(flat / (s / abs(s)), 6).tobytes()
        length = float(action.group.lengths[i])
        if key not in classes or length < classes[key][1]:
            classes[key] = (int(i), length)
    reps = sorted(classes.values())
    return (np.array([r[0] for r in reps], dtype=int), np.array([r[1] for r in reps]))


def exact_product(group) -> np.ndarray:
    """Index table of an exact group's product, from its element labels: the
    cyclic and torus samples are Z_q^n, labelled by integers or n-tuples that
    add componentwise mod q.  A KeyError means the sample does not close."""
    labels = [tuple(np.atleast_1d(x).tolist()) for x in group.elements]
    q = round(group.size ** (1.0 / len(labels[0])))
    index = {x: i for i, x in enumerate(labels)}
    return np.array([[index[tuple((s + t) % q for s, t in zip(x, y))] for y in labels]
                     for x in labels])


def check_group(group) -> None:
    """The laws of a group sample: Haar weights nonnegative and summing to 1,
    a length zero at the identity only and even under the inverse pairing, an
    involutive inverse, and on an exact group a product that closes."""
    tol = 1e-9
    w, l = group.weights, group.lengths
    off = np.arange(group.size) != group.identity_index
    assert abs(float(np.sum(w)) - 1.0) <= tol, "weights do not sum to 1"
    assert np.all(w >= -tol), "negative quadrature weight"
    assert abs(l[group.identity_index]) <= tol, "length at the identity is nonzero"
    assert np.all(l[off] > 0), "length vanishes off the identity"
    assert np.max(np.abs(l[group.inverse] - l)) <= tol, "length not even under inversion"
    assert np.array_equal(group.inverse[group.inverse], np.arange(group.size)), \
        "inverse is not an involution"
    if group.is_exact:
        exact_product(group)


def check_action(action) -> None:
    """``check_group``, then: the identity is implemented by the identity
    matrix, every implementer is unitary within 1e-8, and on an exact group 64
    seeded pairs respect ``exact_product`` up to a global phase."""
    tol = 1e-8
    g, u = action.group, action.implementers
    check_group(g)
    assert np.max(np.abs(u[g.identity_index] - np.eye(action.dim))) <= 1e-10, \
        "implementer at the identity is not the identity matrix"
    prods = u @ np.swapaxes(u.conj(), -1, -2)
    assert float(np.max(np.abs(prods - np.eye(action.dim)))) <= tol, "an implementer is not unitary"
    if g.is_exact:
        product = exact_product(g)
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, g.size, size=(min(64, g.size ** 2), 2)):
            lhs, rhs = u[i] @ u[j], u[product[i, j]]
            tr = np.trace(rhs.conj().T @ lhs)
            phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
            assert np.max(np.abs(lhs - phase * rhs)) <= tol, "product and implementers disagree"


def conjugate(action, x: int, a: np.ndarray) -> np.ndarray:
    """alpha_x(a) = U_x a U_x^dagger for the implementer of sample index x."""
    u = action.implementers[x]
    return u @ np.asarray(a, dtype=complex) @ u.conj().T


def isotypic_weight(chars) -> np.ndarray:
    """phi_J(x) = sum_gamma dim(gamma) conj(chi_gamma(x)) for a label set J;
    J must be self-conjugate, or phi_J is not real (a ValueError)."""
    phi = sum(c.dimension * c.values.conj() for c in chars)
    if float(np.max(np.abs(phi.imag))) > 1e-9 * (1.0 + float(np.max(np.abs(phi)))):
        raise ValueError("label set is not self-conjugate: its weight is not real")
    return phi.real


def isotypic_oracle(action, chars, a: np.ndarray) -> np.ndarray:
    """Projection of a onto the isotypic components of a label set: the Haar
    quadrature of alpha_x(a) against ``isotypic_weight``.  A second route to
    multiplicities, independent of ``action_traces``; idempotent when the
    group sample is exact."""
    u = action.implementers
    moved = np.einsum("xab,bc,xdc->xad", u, np.asarray(a, dtype=complex), u.conj(),
                      optimize=True)
    out = np.einsum("x,xab->ab", action.group.weights * isotypic_weight(chars), moved,
                    optimize=True)
    return (out + out.conj().T) / 2.0


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
