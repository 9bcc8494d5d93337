"""Certified estimates of the order-unit quantum Gromov-Hausdorff distance.

The distance is an infimum over admissible norms on the direct sum of
two spaces of the max of (i) the Hausdorff distance between the balls
D(A), D(B) and (ii) a unit-alignment term.  This module builds three
computable admissible-norm oracles:

* ``eps_amalgam_norm``   - both spaces inside one ambient algebra;
* ``almost_amal_norm``   - glued along a comparison map of measured
  distortion (the workhorse for upper bounds);
* ``bridge_norm``        - the max norm scaled by (R, d) whose quotient
  modulo the line through the two units is the bridge seminorm.

Every bound carries a slack ledger (net covering certificates, measured
map distortion) instead of pretending to be exact; the upper estimators
only ever overestimate the glue norm, so reported values stay valid
upper bounds up to the recorded net certificates.

Distances between finite nets all come from the blocked kernel
``numerics.op_dists``, and sub-nets from ``numerics.farthest_first``,
the greedy insertion that also builds the ball nets.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import numerics as nm
from .cqms import Cqms
from .finmetric import FiniteMetricSpace, gh_lower_bound


# ---------------------------------------------------------------------------
# comparison maps


@dataclass
class ComparisonMap:
    """Linear map from a subspace X of A into B, in orthonormalized form.

    ``x_ortho`` is a Hilbert-Schmidt orthonormal Hermitian basis of X and
    ``images`` its elementwise image, so applying the map is a real
    coefficient contraction.  ``distortion`` is the measured sup over
    probe unit vectors of | |phi(x)| - |x| |, and ``unit_defect`` the
    norm gap |phi(e_A) - e_B| when the unit lies in X.
    """

    x_ortho: np.ndarray            # (k, dA, dA)
    images: np.ndarray             # (k, dB, dB)
    label: str = ""
    distortion: float | None = None
    unit_defect: float | None = None

    @property
    def k(self) -> int:
        return self.x_ortho.shape[0]

    @property
    def dim_a(self) -> int:
        return self.x_ortho.shape[-1]

    @property
    def dim_b(self) -> int:
        return self.images.shape[-1]

    def x_coeffs(self, a: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("kab,ab->k", self.x_ortho.conj(),
                                 np.asarray(a, dtype=complex)))

    def x_element(self, c: np.ndarray) -> np.ndarray:
        return np.einsum("k,kab->ab", np.asarray(c, dtype=float), self.x_ortho)

    def apply_coeffs(self, c: np.ndarray) -> np.ndarray:
        return np.einsum("k,kab->ab", np.asarray(c, dtype=float), self.images)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_coeffs(self.x_coeffs(x))

    def measure(self, rng: np.random.Generator | None = None, probes: int = 64,
                extra: np.ndarray | None = None) -> tuple[float, float | None]:
        """Measure distortion on probe unit vectors of X (basis directions,
        seeded random directions, optional caller-supplied elements)."""
        rng = rng or np.random.default_rng(0)
        coeffs = [np.eye(self.k), rng.standard_normal((probes, self.k))]
        if extra is not None:
            coeffs.append(np.array([self.x_coeffs(m) for m in extra]))
        coeffs = np.concatenate(coeffs)
        xn = nm.op_norms(np.array([self.x_element(c) for c in coeffs]))
        imn = nm.op_norms(np.array([self.apply_coeffs(c) for c in coeffs]))
        seen = xn >= 1e-12
        worst = float(np.max(np.abs(imn[seen] / xn[seen] - 1.0), initial=0.0))
        da = self.dim_a
        e_a = np.eye(da, dtype=complex)
        ce = self.x_coeffs(e_a)
        unit_defect = None
        if nm.hs_norm(e_a - self.x_element(ce)) <= 1e-8 * np.sqrt(da):
            unit_defect = nm.op_norm(self.apply_coeffs(ce) - np.eye(self.dim_b))
        self.distortion = worst
        self.unit_defect = unit_defect
        return worst, unit_defect


def comparison_from_pairs(raw_x: np.ndarray, raw_images: np.ndarray,
                          label: str = "") -> ComparisonMap:
    """Orthonormalize a spanning set of X, carrying the images along so the
    same real coefficients evaluate both sides."""
    xs, ims = [], []
    for x, im in zip(np.asarray(raw_x, dtype=complex), np.asarray(raw_images, dtype=complex)):
        v, w = x.copy(), im.copy()
        for e, f in zip(xs, ims):
            c = np.einsum("ab,ab->", e.conj(), v)
            v = v - c * e
            w = w - c * f
        norm = nm.hs_norm(v)
        if norm > 1e-10:
            xs.append(v / norm)
            ims.append(w / norm)
    return ComparisonMap(x_ortho=np.array(xs), images=np.array(ims), label=label)


def identity_map(a: Cqms) -> ComparisonMap:
    basis = a.space.ortho
    return comparison_from_pairs(basis, basis, label="identity")


def _centered(w: int, q: int) -> int:
    return w if w <= q // 2 else w - q


def torus_frequency_map(a: Cqms, b: Cqms) -> ComparisonMap:
    """Frequency matching between two fuzzy tori: the unitary at centered
    frequency w in the source goes to the unitary at the same centered
    frequency in the target (defined whenever the target lattice contains
    it).  X is the span of the matched Hermitian pairs."""
    qa = int(round(np.sqrt(len(a.basis_labels))))
    qb = int(round(np.sqrt(len(b.basis_labels))))
    raw_x, raw_im = [], []
    for (w1, w2), u in sorted(a.basis_labels.items()):
        c1, c2 = _centered(w1, qa), _centered(w2, qa)
        if not (-qb // 2 < c1 <= qb // 2 and -qb // 2 < c2 <= qb // 2):
            continue
        v = b.basis_labels[(c1 % qb, c2 % qb)]
        raw_x.append((u + u.conj().T) / 2.0)
        raw_im.append((v + v.conj().T) / 2.0)
        raw_x.append((u - u.conj().T) / 2j)
        raw_im.append((v - v.conj().T) / 2j)
    return comparison_from_pairs(np.array(raw_x), np.array(raw_im),
                                 label=f"torus-frequency({a.name}->{b.name})")


def cycle_refinement_map(a: Cqms, b: Cqms) -> ComparisonMap:
    """Label-refinement step extension from m circle points to a multiple:
    the indicator of point j goes to the indicator of its block of
    refined points.  An exact isometry for the sup norm."""
    ma, mb = a.dim, b.dim
    if mb % ma != 0:
        raise ValueError("refinement needs the target size to be a multiple")
    pts, refined = np.arange(ma), np.arange(mb)
    raw_x = np.zeros((ma, ma, ma), dtype=complex)
    raw_x[pts, pts, pts] = 1.0
    raw_im = np.zeros((ma, mb, mb), dtype=complex)
    raw_im[refined // (mb // ma), refined, refined] = 1.0
    return comparison_from_pairs(raw_x, raw_im, label=f"cycle-refinement({a.name}->{b.name})")


def berezin_transport_map(a: Cqms, b: Cqms, maps_a, maps_b) -> ComparisonMap:
    """Sphere-to-sphere map through the shared orbit sample: covariant
    symbol at the source level, contravariant symbol at the target."""
    basis = a.space.ortho
    images = np.array([maps_b.cosymbol(maps_a.symbol(e)) for e in basis])
    images = (images + np.swapaxes(images.conj(), 1, 2)) / 2.0
    return comparison_from_pairs(basis, images,
                                 label=f"berezin({a.name}->{b.name})")


# ---------------------------------------------------------------------------
# admissible norms on the direct sum


@dataclass
class SumNorm:
    """Computable admissible-norm oracle on A (+) B.

    ``value`` never underestimates the underlying norm for the
    ``almost_amal`` kind (every evaluation is a feasible point of the
    defining infimum), so Hausdorff distances computed from it stay on
    the conservative side; ``is_upper_approx`` records this.
    """

    kind: str                      # "eps_amalgam" | "almost_amal" | "bridge"
    eps: float = 0.0
    phi: ComparisonMap | None = None
    bridge_r: float = 0.0
    bridge_d: float = 0.0
    is_upper_approx: bool = False

    def value(self, a: np.ndarray, b: np.ndarray, descend: bool = False) -> float:
        if self.kind == "eps_amalgam":
            return max(nm.op_norm(a + b), self.eps * nm.op_norm(a),
                       self.eps * nm.op_norm(b))
        if self.kind == "almost_amal":
            return self._amal_value(a, b, descend)
        if self.kind == "bridge":
            return max(nm.op_norm(a) / self.bridge_r, nm.op_norm(b) / self.bridge_r,
                       nm.op_norm(self.phi.apply(a) - b) / self.bridge_d)
        raise ValueError(f"unknown SumNorm kind {self.kind!r}")

    # -- almost-amalgamation ----------------------------------------------

    def _amal_objective(self, a, b, c) -> float:
        x = self.phi.x_element(c)
        return (nm.op_norm(a - x) + nm.op_norm(b + self.phi.apply_coeffs(c))
                + self.eps * nm.op_norm(x))

    def _amal_smoothed(self, a, b, c, tau):
        """Smoothed glue objective and its gradient in the X coefficients:
        each operator norm becomes tau * lse(+-eig / tau)."""
        phi = self.phi
        x = phi.x_element(c)
        terms = [(a - x, -phi.x_ortho, 1.0),
                 (b + phi.apply_coeffs(c), phi.images, 1.0),
                 (x, phi.x_ortho, self.eps)]
        total = 0.0
        grad = np.zeros(phi.k)
        for mat, dbasis, scale in terms:
            if scale == 0.0:
                continue
            w, v = np.linalg.eigh(mat)
            z = np.concatenate([w, -w]) / tau
            zmax = float(np.max(z))
            e = np.exp(z - zmax)
            tot = float(e.sum())
            total += scale * (tau * (zmax + np.log(tot)))
            coef = (e[: len(w)] - e[len(w):]) / tot
            wmat = (v * coef) @ v.conj().T
            grad += scale * np.real(np.einsum("ab,kab->k", wmat.conj(), dbasis))
        return total, grad

    def _amal_value(self, a, b, descend: bool) -> float:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        zero = np.zeros(self.phi.k)
        ca = self.phi.x_coeffs(a)
        at_zero, at_ca = self._amal_objective(a, b, zero), self._amal_objective(a, b, ca)
        best = min(at_zero, at_ca)
        if not descend or self.phi.k == 0:
            return best
        c = ca if at_ca <= at_zero else zero
        scale = max(best, 1e-9)
        for factor in (0.2, 0.05, 0.01, 0.002):
            tau = factor * scale
            res = minimize(lambda u: self._amal_smoothed(a, b, u, tau), c,
                           jac=True, method="L-BFGS-B",
                           options={"maxiter": 150, "ftol": 1e-15, "gtol": 1e-13})
            c = res.x
            scale = max(self._amal_objective(a, b, c), 1e-9)
        return min(best, self._amal_objective(a, b, c))

    # -- bridge seminorm ----------------------------------------------------

    def bridge_seminorm(self, a: np.ndarray, b: np.ndarray) -> float:
        """N(a, b) = inf_lambda |(a, b) + lambda (e_A, e_B)|_1, the quotient
        seminorm modulo the line through the pair of units."""
        if self.kind != "bridge":
            raise ValueError("bridge_seminorm is only defined for bridge norms")
        da, db = a.shape[0], b.shape[0]
        ea, eb = np.eye(da, dtype=complex), np.eye(db, dtype=complex)

        def f(lam):
            return self.value(a + lam * ea, b + lam * eb)

        m = self.bridge_r * f(0.0) + nm.op_norm(a) + nm.op_norm(b) + 1.0
        res = minimize_scalar(f, bounds=(-m, m), method="bounded",
                              options={"xatol": 1e-10})
        return float(min(res.fun, f(0.0)))

    # -- diagnostics ---------------------------------------------------------

    def admissibility_defects(self, probes_a, probes_b) -> float:
        """max over probes of | |(a,0)| - |a| | and | |(0,b)| - |b| |,
        relative to 1 + |.|; ought to sit near zero for a genuinely
        admissible norm."""
        worst = 0.0
        for a in probes_a:
            za = np.zeros((self.phi.dim_b if self.phi else a.shape[0],) * 2, dtype=complex) \
                if self.kind != "eps_amalgam" else np.zeros_like(a)
            v = self.value(a, za, descend=True)
            worst = max(worst, abs(v - nm.op_norm(a)) / (1.0 + nm.op_norm(a)))
        for b in probes_b:
            zb = np.zeros((self.phi.dim_a if self.phi else b.shape[0],) * 2, dtype=complex) \
                if self.kind != "eps_amalgam" else np.zeros_like(b)
            v = self.value(zb, b, descend=True)
            worst = max(worst, abs(v - nm.op_norm(b)) / (1.0 + nm.op_norm(b)))
        return worst


def eps_amalgam_norm(eps: float) -> SumNorm:
    """max(|u + v|, eps |u|, eps |v|) for two copies of one ambient space;
    the two copies end up eps-close: |(a, -a)| = eps |a|."""
    if not 0 < eps <= 1:
        raise ValueError("need 0 < eps <= 1")
    return SumNorm(kind="eps_amalgam", eps=eps)


def almost_amal_norm(phi: ComparisonMap, eps: float) -> SumNorm:
    """Glue norm inf{|a - x| + |b + phi(x)| + eps |x|}; requires eps at
    least the measured distortion of phi (the admissibility hypothesis)."""
    if phi.distortion is None:
        phi.measure()
    if eps < phi.distortion:
        raise ValueError(
            f"eps={eps:.3e} is below the measured distortion {phi.distortion:.3e}")
    return SumNorm(kind="almost_amal", eps=eps, phi=phi, is_upper_approx=True)


def bridge_norm(bridge_r: float, bridge_d: float, identification: ComparisonMap) -> SumNorm:
    """|(a,b)|_1 = max(|a|/R, |b|/R, |phi(a) - b|/d), with the bridge
    seminorm available as the quotient modulo R (e_A, e_B)."""
    if bridge_r <= 0 or bridge_d <= 0:
        raise ValueError("bridge needs positive R and d")
    return SumNorm(kind="bridge", bridge_r=bridge_r, bridge_d=bridge_d,
                   phi=identification)


# ---------------------------------------------------------------------------
# distance bounds


@dataclass
class BoundReport:
    pair: tuple
    kind: str                      # "oq" or "oq_R"
    big_r: float | None
    value: float
    hausdorff_term: float
    unit_term: float
    slack: float
    certified_upper: float
    components: dict = field(default_factory=dict)
    degraded: bool = False

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair), "kind": self.kind, "R": self.big_r,
            "value": self.value, "hausdorff_term": self.hausdorff_term,
            "unit_term": self.unit_term, "slack": self.slack,
            "certified_upper": self.certified_upper, "degraded": self.degraded,
            "components": dict(self.components),
        }


@dataclass
class LowerReport:
    pair: tuple
    value: float
    radius_gap: float
    gh_term: float
    slack: float
    components: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair), "value": self.value,
            "radius_gap": self.radius_gap, "gh_term": self.gh_term,
            "slack": self.slack, "components": dict(self.components),
        }


def _retract_gap(target: Cqms, stack: np.ndarray, radius: float) -> np.ndarray:
    """Distance from each stacked element to its radial retraction into
    D_radius of the target space (zero when already inside)."""
    norms = nm.op_norms(stack)
    if radius <= 1e-12:
        return norms
    factor = np.maximum(np.maximum(target.seminorms(stack), norms / radius), 1.0)
    return norms * (1.0 - 1.0 / factor)


# glue eps = measured distortion * EPS_MARGIN; descent polishes at most
# REFINE_WITNESSES rows per directed Hausdorff term; lower-bound sub-nets
# keep at most SUB_CAP points
EPS_MARGIN, REFINE_WITNESSES, SUB_CAP = 1.05, 12, 12


def dist_oq_upper(a: Cqms, b: Cqms, phi: ComparisonMap, big_r: float = None,
                  eps_net: float = 0.25, budget: int = 64, seed: int = 0) -> BoundReport:
    """Upper estimate of the order-unit quantum distance through an explicit
    almost-amalgamation norm along ``phi``.

    With ``big_r`` set this is the R-variant (both balls at radius R and
    unit term R e_A vs R e_B); otherwise the plain distance with per-space
    radii.  The reported value is the max of the net Hausdorff distance
    under the glue norm and the unit term; the true distance is at most
    ``value + slack`` where slack sums the two net covering certificates.
    """
    ra, rb = a.radius(), b.radius()
    if big_r is None:
        kind, radius_a, radius_b = "oq", ra, rb
    else:
        kind, radius_a, radius_b = "oq_R", float(big_r), float(big_r)
    net_a = a.ball_net(radius_a, eps_net, budget=budget, seed=seed)
    net_b = b.ball_net(radius_b, eps_net, budget=budget, seed=seed)

    # distortion measured on a fixed internal probe law, so the glue norm
    # does not wobble with the caller's net seed
    rng = np.random.default_rng(1729)
    eps_phi, unit_defect = phi.measure(rng, probes=192, extra=net_a.points[:32])
    eps = max(eps_phi * EPS_MARGIN, eps_phi + 1e-9, 1e-9)
    norm = almost_amal_norm(phi, eps)

    pa, pb = net_a.points, net_b.points
    ca = np.array([phi.x_coeffs(x) for x in pa])
    xa = np.array([phi.x_element(c) for c in ca])
    res = nm.op_norms(pa - xa)
    xnorm = nm.op_norms(xa)
    ims = np.array([phi.apply_coeffs(c) for c in ca])
    cross = nm.op_dists(ims, pb)
    cand1 = res[:, None] + eps * xnorm[:, None] + cross
    cand0 = nm.op_norms(pa)[:, None] + nm.op_norms(pb)[None, :]
    dmat = np.minimum(cand0, cand1)

    # deterministic partner candidates beyond the finite nets: retract the
    # mapped point into the target ball (rows), and the least-squares glue
    # preimage retracted into the source ball (columns); both are feasible
    # points of the defining infimum, so every entry stays an upper bound
    row_extra = res + eps * xnorm + _retract_gap(b, ims, radius_b)
    pinv = np.linalg.pinv(nm.realify(phi.images))
    cb = nm.realify(pb) @ pinv
    xb = np.einsum("nk,kab->nab", cb, phi.x_ortho)
    gaps_b = nm.op_norms(np.einsum("nk,kab->nab", cb, phi.images) - pb)
    col_extra = _retract_gap(a, xb, radius_a) + eps * nm.op_norms(xb) + gaps_b

    def directed(dm, extra, points_row, points_col, transpose):
        # iteratively polish whichever row currently dominates the sup, so
        # the reported Hausdorff term rests on descended values
        mins = np.minimum(dm.min(axis=1), extra)
        refined = set()
        for _ in range(REFINE_WITNESSES):
            i = int(np.argmax(mins))
            if i in refined:
                break
            refined.add(i)
            j = int(np.argmin(dm[i]))
            aa, bb = (points_row[i], points_col[j])
            if transpose:
                aa, bb = bb, aa
            v = norm.value(aa, -bb, descend=True)
            mins[i] = min(mins[i], v)
        return float(np.max(mins))

    h = max(directed(dmat, row_extra, pa, pb, False),
            directed(dmat.T, col_extra, pb, pa, True))
    da, db = a.dim, b.dim
    unit_term = norm.value(radius_a * np.eye(da, dtype=complex),
                           -radius_b * np.eye(db, dtype=complex), descend=True)
    value = max(h, unit_term)
    slack = net_a.covering_certificate + net_b.covering_certificate
    degraded = not (net_a.complete and net_b.complete)
    return BoundReport(
        pair=(a.name, b.name), kind=kind, big_r=big_r, value=value,
        hausdorff_term=h, unit_term=unit_term, slack=slack,
        certified_upper=value + slack,
        components={
            "radius_a": ra, "radius_b": rb, "phi": phi.label,
            "phi_distortion": eps_phi, "phi_unit_defect": unit_defect,
            "glue_eps": eps, "net_a_size": net_a.size, "net_b_size": net_b.size,
            "net_a_certificate": net_a.covering_certificate,
            "net_b_certificate": net_b.covering_certificate,
            "eps_net": eps_net,
        },
        degraded=degraded,
    )


def _subnet(points: np.ndarray) -> tuple[np.ndarray, float, FiniteMetricSpace]:
    """Greedy max-separated subset of at most SUB_CAP net points (sorted
    indices, deterministic), the farthest any net point lies from it, and
    the subset as a finite metric space."""
    idx = np.arange(len(points))
    if len(points) > SUB_CAP:
        first = int(np.argmax(nm.op_norms(points)))
        rest = nm.farthest_first(points, nm.op_dists(points, points[first:first + 1])[:, 0],
                                 SUB_CAP - 1, lambda far: far <= 1e-12)
        idx = np.array(sorted([first] + rest))
    sub = points[idx]
    coarsen = float(np.max(np.min(nm.op_dists(points, sub), axis=1)))
    dist = nm.op_dists(sub, sub)
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return idx, coarsen, FiniteMetricSpace(np.round(dist, 12))


def dist_oq_lower(a: Cqms, b: Cqms, eps_net: float = 0.25, budget: int = 64,
                  seed: int = 0) -> LowerReport:
    """Lower estimate: the radius gap, and the finite Gromov-Hausdorff
    lower bound between small sub-nets of the defining balls minus the
    measured net slacks (covering certificate + subnet coarsening).

    When both radii are exact (halved Floyd-Warshall sums of at most d - 1
    lengths), a gap within their rounding bound
    ``(d_A + d_B) * eps * max(r_A, r_B)`` is float noise and counts as 0.
    """
    ra, rb = a.radius(), b.radius()
    net_a = a.ball_net(ra, eps_net, budget=budget, seed=seed)
    net_b = b.ball_net(rb, eps_net, budget=budget, seed=seed)
    idx_a, coarsen_a, sa = _subnet(net_a.points)
    idx_b, coarsen_b, sb = _subnet(net_b.points)
    slack_a = net_a.covering_certificate + coarsen_a
    slack_b = net_b.covering_certificate + coarsen_b
    gh = gh_lower_bound(sa, sb)
    radius_gap = abs(ra - rb)
    if (a.radius_method() == b.radius_method() == "exact"
            and radius_gap <= (a.dim + b.dim) * np.finfo(float).eps * max(ra, rb)):
        radius_gap = 0.0           # rounding between two exact shortest-path sums
    value = max(radius_gap, gh - slack_a - slack_b, 0.0)
    return LowerReport(
        pair=(a.name, b.name), value=value, radius_gap=radius_gap,
        gh_term=gh, slack=slack_a + slack_b,
        components={
            "radius_a": ra, "radius_b": rb,
            "subnet_a": int(idx_a.size), "subnet_b": int(idx_b.size),
            "net_a_certificate": net_a.covering_certificate,
            "net_b_certificate": net_b.covering_certificate,
            "coarsen_a": coarsen_a, "coarsen_b": coarsen_b,
        },
    )


# ---------------------------------------------------------------------------
# consistency audit


@dataclass
class AuditCheck:
    name: str
    passed: bool
    lhs: float
    rhs: float
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "lhs": self.lhs, "rhs": self.rhs, "note": self.note}


@dataclass
class AuditRecord:
    pair: tuple
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {"pair": list(self.pair), "all_passed": self.all_passed,
                "checks": [c.as_dict() for c in self.checks]}


def audit_chain(a: Cqms, b: Cqms, reports: dict, tol: float = 1e-9) -> AuditRecord:
    """Interval-consistency audit of a family of bound reports.

    Expected keys: ``oq_lower``/``oq_upper`` (plain distance),
    ``oqR_lower``/``oqR_upper`` (R-variant at R >= both radii), and
    optionally ``oq_rB_upper``/``oq_rB_lower`` (R-variant at R = r_B).
    Checks: lower <= upper + slack; upper <= r_A + r_B + slack; the
    implied interval for the reference quantum distance from the (1/3, 5)
    and (1/2, 5/2) constant pairs is nonempty; and the R = r_B variant
    sits within |r_A - r_B| of the plain distance up to slack.  Failures
    are recorded findings, not exceptions.
    """
    ra, rb = a.radius(), b.radius()
    checks = []

    def get(key):
        return reports.get(key)

    lo, up = get("oq_lower"), get("oq_upper")
    lo_r, up_r = get("oqR_lower"), get("oqR_upper")

    if lo is not None and up is not None:
        checks.append(AuditCheck(
            "lower<=upper", lo.value <= up.certified_upper + tol,
            lo.value, up.certified_upper))
        checks.append(AuditCheck(
            "upper<=rA+rB+slack", up.value <= ra + rb + up.slack + tol,
            up.value, ra + rb + up.slack))
    if lo_r is not None and up_r is not None:
        checks.append(AuditCheck(
            "R-variant lower<=upper", lo_r.value <= up_r.certified_upper + tol,
            lo_r.value, up_r.certified_upper))
    if all(x is not None for x in (lo, up, lo_r, up_r)):
        q_lo = max(lo.value / 3.0, lo_r.value / 2.0)
        q_hi = min(5.0 * up.certified_upper, 2.5 * up_r.certified_upper)
        checks.append(AuditCheck(
            "dist_q interval nonempty", q_lo <= q_hi + tol, q_lo, q_hi,
            note="[max(lower/3, lowerR/2), min(5 upper, 2.5 upperR)]"))
    up_rb, lo_rb = get("oq_rB_upper"), get("oq_rB_lower")
    if all(x is not None for x in (lo, up, up_rb, lo_rb)):
        slack = up.slack + up_rb.slack
        gap = max(0.0,
                  lo.value - (up_rb.certified_upper),
                  lo_rb.value - (up.certified_upper))
        checks.append(AuditCheck(
            "|oq - oq^{rB}| <= |rA-rB| + slack", gap <= abs(ra - rb) + slack + tol,
            gap, abs(ra - rb) + slack))
    return AuditRecord(pair=(a.name, b.name), checks=checks)


def audit_pair(a: Cqms, b: Cqms, phi: ComparisonMap, eps_net: float = 0.25,
               budget: int = 64, seed: int = 0) -> tuple[dict, AuditRecord]:
    """Convenience: compute the full report set for a pair and audit it."""
    ra, rb = a.radius(), b.radius()
    big_r = max(ra, rb)
    # the lower bound takes no R: one report serves all three variants
    lower = dist_oq_lower(a, b, eps_net, budget, seed)
    upper_r = dist_oq_upper(a, b, phi, big_r, eps_net, budget, seed)
    reports = {
        "oq_upper": dist_oq_upper(a, b, phi, None, eps_net, budget, seed),
        "oq_lower": lower,
        "oqR_upper": upper_r,
        "oqR_lower": lower,
        # at r_B = max(r_A, r_B) this is the same call as oqR_upper
        "oq_rB_upper": (upper_r if rb == big_r
                        else dist_oq_upper(a, b, phi, rb, eps_net, budget, seed)),
        "oq_rB_lower": lower,
    }
    return reports, audit_chain(a, b, reports)
