"""Finite metric spaces: open-ball covers and packing numbers, the exact
Gromov-Hausdorff distance of tiny spaces, and the hierarchical universal
embedding.

Conventions: balls are open; boundary ties break by strict inequality
with a 1e-12 slack.  Gromov-Hausdorff is computed through the
correspondence-distortion characterization (equivalent to the
admissible-metric definition), searched exactly with pruning for
spaces of at most seven points.
"""

import itertools
from dataclasses import dataclass

import numpy as np

GH_EXACT_CAP = 7
EXACT_COMBINATORICS_CAP = 12
_TIE = 1e-12


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Symmetric nonnegative distance matrix with zero diagonal and the
    triangle inequality (validated on construction within 1e-9)."""

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        n = d.shape[0]
        if d.shape != (n, n):
            raise ValueError("distance matrix must be square")
        if np.max(np.abs(d - d.T)) > 1e-9:
            raise ValueError("distance matrix is not symmetric")
        if np.max(np.abs(np.diag(d))) > 1e-9:
            raise ValueError("nonzero diagonal")
        if np.min(d) < -1e-12:
            raise ValueError("negative distance")
        tri = d[:, :, None] + d[None, :, :] - d[:, None, :]
        if float(np.min(tri)) < -1e-9:
            raise ValueError("triangle inequality fails")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diam(self) -> float:
        return float(np.max(self.dist))

    def subspace(self, idx) -> "FiniteMetricSpace":
        idx = np.asarray(idx, dtype=int)
        return FiniteMetricSpace(self.dist[np.ix_(idx, idx)])


def circle_space(n: int) -> FiniteMetricSpace:
    """n equally spaced points on the unit circle with the arc metric."""
    k = np.arange(n)
    diff = np.abs(k[:, None] - k[None, :])
    steps = np.minimum(diff, n - diff)
    return FiniteMetricSpace(steps * (2.0 * np.pi / n))


# ---------------------------------------------------------------------------
# covering, packing


def _greedy_cover(masks: np.ndarray) -> list[int]:
    n = masks.shape[0]
    uncovered = np.ones(n, dtype=bool)
    centers = []
    while uncovered.any():
        gains = (masks & uncovered).sum(axis=1)
        c = int(np.argmax(gains))
        if gains[c] == 0:
            raise AssertionError("open ball does not cover its own center")
        centers.append(c)
        uncovered &= ~masks[c]
    return centers


def _exact_cover(masks: np.ndarray, upper: int) -> list[int]:
    """Smallest set of ball centers covering everything; exhaustive over
    combinations of ascending size, feasible for n <= 12."""
    n = masks.shape[0]
    bits = [int("".join("1" if b else "0" for b in reversed(masks[c])), 2) for c in range(n)]
    full = (1 << n) - 1
    for k in range(1, upper + 1):
        for combo in itertools.combinations(range(n), k):
            acc = 0
            for c in combo:
                acc |= bits[c]
            if acc == full:
                return list(combo)
    raise AssertionError("unreachable: the full set always covers")


def _cover_subset(space: FiniteMetricSpace, subset: np.ndarray, eps: float) -> list[int]:
    """Open eps-ball cover of a subset with centers inside the subset."""
    sub = space.dist[np.ix_(subset, subset)]
    masks = sub < eps - _TIE
    centers = _greedy_cover(masks)
    if len(subset) <= EXACT_COMBINATORICS_CAP and len(centers) > 1:
        centers = _exact_cover(masks, upper=len(centers))
    return [int(subset[c]) for c in centers]


def _greedy_packing(space: FiniteMetricSpace, eps: float) -> list[int]:
    chosen = []
    for x in range(space.n):
        if all(space.dist[x, c] > eps + _TIE for c in chosen):
            chosen.append(x)
    return chosen


def packing_number(space: FiniteMetricSpace, eps: float) -> int:
    """Maximal size of an eps-separated subset (pairwise distance > eps);
    exact (branch and bound over the conflict graph) for n <= 12, greedy
    lower bound otherwise."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    greedy = len(_greedy_packing(space, eps))
    if space.n > EXACT_COMBINATORICS_CAP:
        return greedy
    n = space.n
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and space.dist[i, j] <= eps + _TIE:
                conflict[i] |= 1 << j
    best = greedy

    def grow(candidates: int, size: int):
        nonlocal best
        if candidates == 0:
            best = max(best, size)
            return
        if size + int.bit_count(candidates) <= best:
            return
        v = (candidates & -candidates).bit_length() - 1
        grow((candidates & ~(1 << v)) & ~conflict[v], size + 1)
        grow(candidates & ~(1 << v), size)

    grow((1 << n) - 1, 0)
    return best


def ball_cover_test(space: FiniteMetricSpace, ys, eps: float) -> bool:
    """True iff the open eps-balls centered at the subset cover the space."""
    ys = np.asarray(ys, dtype=int)
    if ys.size == 0:
        raise ValueError("need a nonempty center set")
    return bool(np.all(np.min(space.dist[:, ys], axis=1) < eps - _TIE))


# ---------------------------------------------------------------------------
# Gromov-Hausdorff


def _distortion_values(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    vals = np.abs(dx.ravel()[:, None] - dy.ravel()[None, :]).ravel()
    return np.unique(vals)


def _feasible_maps(dx: np.ndarray, dy: np.ndarray, delta: float) -> bool:
    """Is there a pair f: X->Y, g: Y->X whose union-graph correspondence
    has distortion <= delta?  Backtracking with forward pruning."""
    n, m = dx.shape[0], dy.shape[0]
    slack = delta + 1e-12

    f = [-1] * n

    def extend_f(i: int) -> bool:
        if i == n:
            return extend_g_root()
        for v in range(m):
            ok = True
            for k in range(i):
                if abs(dx[i, k] - dy[v, f[k]]) > slack:
                    ok = False
                    break
            if ok:
                f[i] = v
                if extend_f(i + 1):
                    return True
        f[i] = -1
        return False

    def extend_g_root() -> bool:
        # allowed values for each g_y given f: the cross (co-distortion)
        # constraint binds g_y against every x at once
        allowed = []
        for y in range(m):
            vals = [u for u in range(n)
                    if all(abs(dx[x, u] - dy[f[x], y]) <= slack for x in range(n))]
            if not vals:
                return False
            allowed.append(vals)
        g = [-1] * m

        def extend_g(y: int) -> bool:
            if y == m:
                return True
            for u in allowed[y]:
                if all(abs(dy[y, t] - dx[u, g[t]]) <= slack for t in range(y)):
                    g[y] = u
                    if extend_g(y + 1):
                        return True
            g[y] = -1
            return False

        return extend_g(0)

    return extend_f(0)


def gh_exact_small(x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """Exact Gromov-Hausdorff distance for spaces of at most 7 points:
    half the minimal correspondence distortion, found by binary search
    over the achievable distortion values with an exact feasibility
    search at each candidate."""
    if x.n > GH_EXACT_CAP or y.n > GH_EXACT_CAP:
        raise ValueError(f"gh_exact_small handles at most {GH_EXACT_CAP} points")
    dx, dy = x.dist, y.dist
    values = _distortion_values(dx, dy)
    lo, hi = 0, len(values) - 1
    if _feasible_maps(dx, dy, values[0]):
        return float(values[0]) / 2.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible_maps(dx, dy, values[mid]):
            hi = mid
        else:
            lo = mid
    return float(values[hi]) / 2.0


# ---------------------------------------------------------------------------
# hierarchical universal embedding


def lipschitz_constant(space: FiniteMetricSpace, f: np.ndarray) -> float:
    f = np.asarray(f, dtype=float)
    num = np.abs(f[:, None] - f[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(space.dist > 0, num / space.dist, 0.0)
    return float(np.max(ratios))


def random_lipschitz_function(space: FiniteMetricSpace, rng: np.random.Generator,
                              bound: float = 1.0) -> np.ndarray:
    """A random 1-Lipschitz function with sup-norm <= bound: a minimum of
    three cones v_k + d(., a_k), clipped (both operations preserve
    1-Lipschitz)."""
    idx = rng.integers(0, space.n, size=3)
    vals = rng.uniform(-bound, bound, size=3)
    f = np.min(vals[None, :] + space.dist[:, idx], axis=1)
    return np.clip(f, -bound, bound)


@dataclass
class SpaceEmbedding:
    images: list                    # per level: index array of tree-node points
    edges: list                     # per level j >= 2: (child_idx, parent_idx) pairs
    net_ok: list                    # property (a) per level
    edges_ok: bool                  # property (b)

    def support(self) -> np.ndarray:
        return np.unique(np.concatenate(self.images))


@dataclass
class EmbeddingReport:
    cover_sizes: list               # K_j actually used
    per_space: list                 # SpaceEmbedding per family member
    distortion_bound: float
    z_ok: bool
    max_distortion: float


def universal_embed(family: list, bound_r: float, depth: int,
                    functions: list) -> EmbeddingReport:
    """Hierarchical covering trees shared across a family of spaces.

    Builds, per space, level maps whose images are 2^{-j}-nets (level j)
    with each level-(j+1) point inside the open 2^{-j}-ball of its
    parent; embeds each sampled function by pulling back along the tree.
    The report verifies the net and parent-child properties, the
    constraint-set membership of every embedded function (values bounded
    by ``bound_r`` at the root level, increments bounded by 2^{-(j-1)}
    along edges), and the pairwise sup-distance distortion, which is at
    most 2^{-depth+1} per unit of Lipschitz bound.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    eps = [2.0 ** (-j) for j in range(1, depth + 1)]

    for space, fns in zip(family, functions):
        for f in fns:
            if lipschitz_constant(space, f) > 1.0 + 1e-9:
                raise ValueError("a sampled function is not 1-Lipschitz")
            if np.max(np.abs(f)) > bound_r + 1e-9:
                raise ValueError(f"a sampled function exceeds the bound {bound_r}")

    embeddings = []
    sizes = [0] * depth
    for space in family:
        level_pts = []
        level_edges = []
        c1 = _cover_subset(space, np.arange(space.n), eps[0])
        level_pts.append(np.array(c1, dtype=int))
        sizes[0] = max(sizes[0], len(c1))
        for j in range(1, depth):
            pts = []
            edges = []
            width = 0
            for parent in level_pts[-1]:
                ball = np.flatnonzero(space.dist[parent] < eps[j - 1] - _TIE)
                centers = _cover_subset(space, ball, eps[j])
                width = max(width, len(centers))
                for c in centers:
                    pts.append(c)
                    edges.append((c, int(parent)))
            level_pts.append(np.array(sorted(set(pts)), dtype=int))
            level_edges.append(sorted(set(edges)))
            sizes[j] = max(sizes[j], width)
        net_ok = [bool(np.all(np.min(space.dist[:, pts], axis=1) < eps[j] - _TIE))
                  for j, pts in enumerate(level_pts)]
        edges_ok = all(space.dist[c, p] < eps[j] - _TIE
                       for j, ed in enumerate(level_edges) for (c, p) in ed)
        embeddings.append(SpaceEmbedding(images=level_pts, edges=level_edges,
                                         net_ok=net_ok, edges_ok=edges_ok))

    z_ok = True
    max_dist = 0.0
    for space, emb, fns in zip(family, embeddings, functions):
        for f in fns:
            if np.max(np.abs(np.asarray(f)[emb.images[0]])) > bound_r + 1e-12:
                z_ok = False
            for j, ed in enumerate(emb.edges):
                for (c, p) in ed:
                    if abs(f[c] - f[p]) > eps[j] + 1e-12:
                        z_ok = False
        supp = emb.support()
        for i, l in itertools.combinations(range(len(fns)), 2):
            diff = np.abs(np.asarray(fns[i]) - np.asarray(fns[l]))
            max_dist = max(max_dist, abs(float(np.max(diff)) - float(np.max(diff[supp]))))

    return EmbeddingReport(cover_sizes=sizes, per_space=embeddings,
                           distortion_bound=2.0 ** (-depth + 1),
                           z_ok=z_ok, max_distortion=max_dist)
