"""Estimates of the order-unit quantum Gromov-Hausdorff distance.

The distance is an infimum over admissible norms on the direct sum of
two spaces of the max of (i) the Hausdorff distance between the balls
D(A), D(B) and (ii) a unit-alignment term.  This module builds one such
norm, ``SumNorm``: A and B glued along a comparison map phi, the norm
behind every upper bound.

Every upper bound carries a slack ledger (net covering certificates,
measured map distortion) instead of pretending to be exact; the
estimators only ever overestimate the glue norm, so reported values
stay upper bounds up to the recorded net certificates, provided the glue
is admissible.  Its eps is decided in ``dist_oq_upper`` alone: the maximum
of phi's distortion over ``ComparisonMap.measure``'s one probe law, times
a margin, not a certified bound.

The glue norm N(a, b) = inf_x |a - x| + |b + phi(x)| + eps |x| is
evaluated at feasible points only.  Its descent is a weighted sum of three
operator norms over an affine family, so it goes through the one norm
minimizer of the support solves, ``cqms.minimize_norms``.  When a, b and
the map are diagonal every norm is a max of |entries|, so the infimum is
one HiGHS linear program, exact up to its tolerance.  Otherwise the glue is
annealed on a log-sum-exp smoothing at the decreasing temperatures of the
one ladder, ``cqms.LADDER``; stages that end unconverged are counted, and
upper reports carry the count (``glue_unconverged_stages``).

Distances between finite nets come from ``numerics``.  The upper bound's
glue table reads only row and column minima, so it goes through
``numerics.nearest``, which eigensolves only the entries that can be one.
Upper reports flag nets that stopped at their point cap (``net_a_capped``,
``net_b_capped``).  The lower bound is the radius gap alone and builds no
net.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import examples as ex
from . import numerics as nm
from .cqms import Cqms, minimize_norms


# ---------------------------------------------------------------------------
# comparison maps


@dataclass
class ComparisonMap:
    """Linear map from a subspace X of A into B, in orthonormalized form.

    ``x_ortho`` is a Hilbert-Schmidt orthonormal Hermitian basis of X and
    ``images`` its elementwise image, so applying the map is a real
    coefficient contraction.  Coordinates and elements are (..., k) and
    (..., d, d) stacks.
    """

    x_ortho: np.ndarray            # (k, dA, dA)
    images: np.ndarray             # (k, dB, dB)
    label: str = ""

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
        return np.real(np.einsum("kab,...ab->...k", self.x_ortho.conj(),
                                 np.asarray(a, dtype=complex)))

    def x_element(self, c: np.ndarray) -> np.ndarray:
        return nm.combine(c, self.x_ortho)

    def apply_coeffs(self, c: np.ndarray) -> np.ndarray:
        return nm.combine(c, self.images)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_coeffs(self.x_coeffs(x))

    def measure(self, extra: np.ndarray) -> tuple[float, float | None]:
        """(distortion, unit_defect).  The distortion is the max of
        | |phi(x)| - |x| | / |x| over the one probe law of the glue eps: the k
        basis directions of X, 192 directions drawn from ``default_rng(1729)``
        (fixed, so the glue does not wobble with a caller's net seed), and the
        projections onto X of the elements ``extra`` (a stack, possibly
        empty).  The unit defect is |phi(e_A) - e_B| when the unit lies in X,
        else None."""
        rng = np.random.default_rng(1729)
        points = self.x_coeffs(extra)
        coeffs = np.concatenate([np.eye(self.k), rng.standard_normal((192, self.k)), points])
        xn = nm.op_norms(self.x_element(coeffs))
        imn = nm.op_norms(self.apply_coeffs(coeffs))
        seen = xn >= 1e-12
        worst = float(np.max(np.abs(imn[seen] / xn[seen] - 1.0), initial=0.0))
        da = self.dim_a
        e_a = np.eye(da, dtype=complex)
        ce = self.x_coeffs(e_a)
        unit_defect = None
        if nm.hs_norm(e_a - self.x_element(ce)) <= 1e-8 * np.sqrt(da):
            unit_defect = nm.op_norm(self.apply_coeffs(ce) - np.eye(self.dim_b))
        return worst, unit_defect


def comparison_from_pairs(raw_x: np.ndarray, raw_images: np.ndarray,
                          label: str) -> ComparisonMap:
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
    frequency in the target, when the target lattice contains both it and
    its negative.  X is the span of the matched Hermitian pairs.

    u_-w is a multiple of u_w*, so the Hermitian parts of u_w span those of
    u_-w, and the map is injective when it commutes with negation.  For an
    even q_B below q_A it does not: in the target the frequency q_B / 2 is
    its own negative, while in the source -q_B / 2 is another frequency,
    outside the target window.  Frequencies with a coordinate at q_B / 2 are
    then left out; all others, and every frequency of a map into an odd
    level, between equal levels or into a higher level, are kept."""
    qa = int(round(np.sqrt(len(a.basis_labels))))
    qb = int(round(np.sqrt(len(b.basis_labels))))

    def inside(w):
        # w and its negative, centred at level q_A, both in the target window
        return all(-qb // 2 < _centered(v % qa, qa) <= qb // 2 for v in (w, -w))

    raw_x, raw_im = [], []
    for (w1, w2), u in sorted(a.basis_labels.items()):
        if not (inside(w1) and inside(w2)):
            continue
        c1, c2 = _centered(w1, qa), _centered(w2, qa)
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


def berezin_transport_map(a: Cqms, b: Cqms) -> ComparisonMap:
    """Sphere-to-sphere map through the shared orbit sample: covariant
    symbol at the source level, contravariant symbol at the target, each
    read from its space's own action (``examples.berezin_maps``).  The two
    spaces must sit on one sampled group, else a ValueError."""
    sample_a, sample_b = a.action.group.descriptor, b.action.group.descriptor
    if sample_a != sample_b:
        raise ValueError(f"spaces compared by Berezin transport sit on different SU(2) "
                         f"grids or groups: {sample_a!r} and {sample_b!r}")
    maps_a, maps_b = ex.berezin_maps(a), ex.berezin_maps(b)
    basis = a.space.ortho
    images = np.array([maps_b.cosymbol(maps_a.symbol(e)) for e in basis])
    images = (images + np.swapaxes(images.conj(), 1, 2)) / 2.0
    return comparison_from_pairs(basis, images,
                                 label=f"berezin({a.name}->{b.name})")


# ---------------------------------------------------------------------------
# the glue norm on the direct sum

@dataclass
class SumNorm:
    """The glue norm N(a, b) = inf_x |a - x| + |b + phi(x)| + eps |x| on
    A (+) B, the one norm the upper bounds build; it is admissible when eps
    bounds the distortion of phi on all of X.

    ``value`` never underestimates N: every evaluation is a feasible point
    of the defining infimum, so Hausdorff distances computed from it stay
    on the conservative side.  It is the best of three points: x = 0, x =
    the projection of a onto X, and the result of ``cqms.minimize_norms``
    over the three terms weighted (1, 1, eps), zero-padded to the larger
    dimension (their zero eigenvalues lie within each max): the LP's
    minimizer on diagonal pairs, else the annealed one, started at the
    better of the first two points, its temperatures scaled by the exact
    glue value.  ``unconverged_stages`` counts the Newton stages of this
    norm that ended without converging.
    """

    phi: ComparisonMap
    eps: float
    unconverged_stages: int = field(default=0, init=False, repr=False)

    def _objective(self, a, b, c) -> float:
        x = self.phi.x_element(c)
        return (nm.op_norm(a - x) + nm.op_norm(b + self.phi.apply_coeffs(c))
                + self.eps * nm.op_norm(x))

    @cached_property
    def _glue_dirs(self) -> np.ndarray:
        """The glue terms a - x, b + phi(x) and x along the X coefficients:
        (k, 3, 1, d, d), d the larger dimension, the smaller side's matrices
        padded with zero rows and columns."""
        phi = self.phi
        dirs = np.zeros((phi.k, 3, 1) + (max(phi.dim_a, phi.dim_b),) * 2, dtype=complex)
        dirs[:, 0, 0, :phi.dim_a, :phi.dim_a] = -phi.x_ortho
        dirs[:, 1, 0, :phi.dim_b, :phi.dim_b] = phi.images
        dirs[:, 2, 0, :phi.dim_a, :phi.dim_a] = phi.x_ortho
        return dirs

    @cached_property
    def _glue_diagonal(self) -> bool:
        """Whether every matrix of ``_glue_dirs`` is diagonal: a property of
        phi alone, so ``value`` scans them once per norm, not once per call."""
        return nm.is_diagonal(self._glue_dirs)

    def value(self, a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        zero = np.zeros(self.phi.k)
        ca = self.phi.x_coeffs(a)
        at_zero, at_ca = self._objective(a, b, zero), self._objective(a, b, ca)
        best = min(at_zero, at_ca)
        if self.phi.k == 0:
            return best
        dirs = self._glue_dirs
        start = np.zeros(dirs.shape[1:], dtype=complex)     # the terms at x = 0
        start[0, 0, :len(a), :len(a)] = a
        start[1, 0, :len(b), :len(b)] = b
        if nm.is_diagonal(start) and self._glue_diagonal:
            start, dirs = np.diagonal(start, 0, -2, -1).real, np.diagonal(dirs, 0, -2, -1).real
        else:
            start, dirs = start.view(float), dirs.view(float)
        c, unconverged = minimize_norms(start, dirs.reshape(self.phi.k, -1),
                                        np.array([1.0, 1.0, self.eps]),
                                        lambda c: self._objective(a, b, c),
                                        ca if at_ca <= at_zero else zero)
        self.unconverged_stages += unconverged
        return min(best, self._objective(a, b, c))


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
    components: dict = field(default_factory=dict)
    # no net, so no slack: a class constant kept because the benchmark's
    # torus-audit check reads ``slack`` on every report.  ``as_dict`` leaves
    # it out, where a 0.0 would read as the net slack it once reported
    slack = 0.0

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair), "value": self.value,
            "radius_gap": self.radius_gap, "components": dict(self.components),
        }


def _retract_gap(target: Cqms, stack: np.ndarray, norms: np.ndarray,
                 radius: float) -> np.ndarray:
    """Distance from each stacked element to its radial retraction into
    D_radius of the target space (zero when already inside), given the
    elements' operator norms."""
    if radius <= 1e-12:
        return norms
    factor = np.maximum(np.maximum(target.seminorms(stack), norms / radius), 1.0)
    return norms * (1.0 - 1.0 / factor)


# glue eps = measured distortion * EPS_MARGIN; descent polishes at most
# REFINE_WITNESSES rows per directed Hausdorff term
EPS_MARGIN, REFINE_WITNESSES = 1.05, 12


def dist_oq_upper(a: Cqms, b: Cqms, phi: ComparisonMap, big_r: float | None,
                  eps_net: float, budget: int, seed: int) -> BoundReport:
    """Upper estimate of the order-unit quantum distance through the glue
    norm along ``phi``.

    With ``big_r`` a number this is the R-variant (both balls at radius R and
    unit term R e_A vs R e_B); otherwise the plain distance with per-space
    radii.  The reported value is the max of the net Hausdorff distance
    under the glue norm and the unit term; slack sums the two net covering
    certificates.

    The glue's eps (``glue_eps``) is EPS_MARGIN = 1.05 times the largest
    distortion ``phi.measure`` finds on its probe law and the first 32 points
    of A's net: a lower estimate of the distortion sup, not a certified
    bound.  This is the one place that decides eps.  The true distance is at
    most ``value + slack`` only when eps does bound phi's distortion on all
    of X.
    On the cycle refinement maps (l-infinity isometries) it does.  On torus
    frequency maps it does not: for torus(3,1)->(5,1) the distortion
    exceeds 0.71 against a glue_eps of 0.430, so ``certified_upper`` there
    is an estimate, not a bound.

    Each bound is computed once per question and memoized in A's
    ``upper_cache``.  The question is everything the bound reads: B (by
    identity; the entry holds B, so its id is not reused), phi's label,
    ``x_ortho`` and ``images`` (exact contents), the two ball radii, the
    plain radii r_A and r_B (a ``state_diameter`` call can raise a dense
    radius), ``eps_net``, ``budget`` and ``seed``.  So the plain bound and
    an R-variant whose balls are the same (R = r_A = r_B, as on even
    cycles) share one computation.  Every call returns a fresh report with
    its own ``kind``, ``big_r`` and ``components`` dict.
    """
    if (phi.dim_a, phi.dim_b) != (a.dim, b.dim):
        raise ValueError(f"comparison map {phi.label!r} goes from {phi.dim_a} x {phi.dim_a} "
                         f"to {phi.dim_b} x {phi.dim_b} matrices, but the spaces are "
                         f"{a.dim} x {a.dim} and {b.dim} x {b.dim}")
    ra, rb = a.radius(), b.radius()
    if big_r is None:
        kind, radius_a, radius_b = "oq", ra, rb
    else:
        kind, radius_a, radius_b = "oq_R", float(big_r), float(big_r)
    key = (id(b), phi.label,
           tuple((m.dtype.str, m.shape, m.tobytes()) for m in (phi.x_ortho, phi.images)),
           radius_a, radius_b, ra, rb, eps_net, budget, seed)
    if key in a.upper_cache:
        known = a.upper_cache[key][1]
        return replace(known, kind=kind, big_r=big_r, components=dict(known.components))
    net_a = a.ball_net(radius_a, eps_net, budget=budget, seed=seed)
    net_b = b.ball_net(radius_b, eps_net, budget=budget, seed=seed)

    eps_phi, unit_defect = phi.measure(net_a.points[:32])
    eps = max(eps_phi * EPS_MARGIN, eps_phi + 1e-9, 1e-9)
    norm = SumNorm(phi, eps)

    pa, pb = net_a.points, net_b.points
    ca = phi.x_coeffs(pa)
    xa = phi.x_element(ca)
    res = nm.op_norms(pa - xa)
    xnorm = nm.op_norms(xa)
    ims = phi.apply_coeffs(ca)
    # glue candidates res_i + eps |x_i| + |phi(x_i) - b_j| against the plain
    # |a_i| + |b_j|: only each row's and column's minimum is read
    row_min, row_arg, col_min, col_arg = nm.nearest(
        ims, pb, res + eps * xnorm, nm.op_norms(pa)[:, None] + nm.op_norms(pb)[None, :])

    # deterministic partner candidates beyond the finite nets: retract the
    # mapped point into the target ball (rows), and the least-squares glue
    # preimage retracted into the source ball (columns); both are feasible
    # points of the defining infimum, so every entry stays an upper bound
    row_extra = res + eps * xnorm + _retract_gap(b, ims, nm.op_norms(ims), radius_b)
    pinv = np.linalg.pinv(nm.realify(phi.images))
    cb = nm.realify(pb) @ pinv
    xb = phi.x_element(cb)
    gaps_b = nm.op_norms(phi.apply_coeffs(cb) - pb)
    xbnorm = nm.op_norms(xb)
    col_extra = _retract_gap(a, xb, xbnorm, radius_a) + eps * xbnorm + gaps_b

    def directed(nearest_min, nearest_arg, extra, points_row, points_col, transpose):
        # iteratively polish whichever row currently dominates the sup, so
        # the reported Hausdorff term rests on descended values
        mins = np.minimum(nearest_min, extra)
        refined = set()
        for _ in range(REFINE_WITNESSES):
            i = int(np.argmax(mins))
            if i in refined:
                break
            refined.add(i)
            j = int(nearest_arg[i])
            aa, bb = (points_row[i], points_col[j])
            if transpose:
                aa, bb = bb, aa
            v = norm.value(aa, -bb)
            mins[i] = min(mins[i], v)
        return float(np.max(mins))

    h = max(directed(row_min, row_arg, row_extra, pa, pb, False),
            directed(col_min, col_arg, col_extra, pb, pa, True))
    da, db = a.dim, b.dim
    unit_term = norm.value(radius_a * np.eye(da, dtype=complex),
                           -radius_b * np.eye(db, dtype=complex))
    value = max(h, unit_term)
    slack = net_a.covering_certificate + net_b.covering_certificate
    degraded = not (net_a.complete and net_b.complete)
    report = BoundReport(
        pair=(a.name, b.name), kind=kind, big_r=big_r, value=value,
        hausdorff_term=h, unit_term=unit_term, slack=slack,
        certified_upper=value + slack,
        components={
            "radius_a": ra, "radius_b": rb, "phi": phi.label,
            "phi_distortion": eps_phi, "phi_unit_defect": unit_defect,
            "glue_eps": eps, "glue_unconverged_stages": norm.unconverged_stages,
            "net_a_size": net_a.size, "net_b_size": net_b.size,
            "net_a_certificate": net_a.covering_certificate,
            "net_b_certificate": net_b.covering_certificate,
            "net_a_capped": net_a.capped, "net_b_capped": net_b.capped,
            "eps_net": eps_net,
        },
        degraded=degraded,
    )
    a.upper_cache[key] = (b, report)
    return replace(report, components=dict(report.components))


def dist_oq_lower(a: Cqms, b: Cqms) -> LowerReport:
    """Lower estimate: the radius gap |r_A - r_B|.

    When both radii are exact (halved Floyd-Warshall sums of at most d - 1
    lengths), a gap within their rounding bound
    ``(d_A + d_B) * eps * max(r_A, r_B)`` is float noise and counts as 0.
    On dense spaces both radii are ascent lower estimates, so their gap is
    an estimate, not a certified bound, until the radii are bracketed.
    """
    ra, rb = a.radius(), b.radius()
    radius_gap = abs(ra - rb)
    if (a.radius_method() == b.radius_method() == "exact"
            and radius_gap <= (a.dim + b.dim) * np.finfo(float).eps * max(ra, rb)):
        radius_gap = 0.0           # rounding between two exact shortest-path sums
    return LowerReport(pair=(a.name, b.name), value=radius_gap, radius_gap=radius_gap,
                       components={"radius_a": ra, "radius_b": rb})


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


def audit_chain(a: Cqms, b: Cqms, reports: dict) -> AuditRecord:
    """Interval-consistency audit of ``audit_pair``'s report set.

    Keys: ``oq_upper`` (plain distance), ``oqR_upper`` (R-variant at R >=
    both radii), ``oq_rB_upper`` (R-variant at R = r_B), and
    ``oq_lower``/``oqR_lower``/``oq_rB_lower``, which are one report, the
    radius gap; ``oq_lower`` is read for all three.  Checks: lower <=
    upper + slack; upper <= r_A + r_B + slack; the implied interval for the
    reference quantum distance from the (1/3, 5) and (1/2, 5/2) constant
    pairs is nonempty; and the R = r_B variant sits within |r_A - r_B| of
    the plain distance up to slack.  Failures are recorded findings, not
    exceptions.  Each comparison allows 1e-9.
    """
    ra, rb = a.radius(), b.radius()
    tol = 1e-9
    lo = reports["oq_lower"]
    up, up_r, up_rb = reports["oq_upper"], reports["oqR_upper"], reports["oq_rB_upper"]
    # one lower report serves both variants: max(lower/3, lower/2) = lower/2
    q_lo = lo.value / 2.0
    q_hi = min(5.0 * up.certified_upper, 2.5 * up_r.certified_upper)
    slack = up.slack + up_rb.slack
    gap = max(0.0, lo.value - up_rb.certified_upper, lo.value - up.certified_upper)
    checks = [
        AuditCheck("lower<=upper", lo.value <= up.certified_upper + tol,
                   lo.value, up.certified_upper),
        AuditCheck("upper<=rA+rB+slack", up.value <= ra + rb + up.slack + tol,
                   up.value, ra + rb + up.slack),
        AuditCheck("R-variant lower<=upper", lo.value <= up_r.certified_upper + tol,
                   lo.value, up_r.certified_upper),
        AuditCheck("dist_q interval nonempty", q_lo <= q_hi + tol, q_lo, q_hi,
                   note="[lower/2, min(5 upper, 2.5 upperR)]"),
        AuditCheck("|oq - oq^{rB}| <= |rA-rB| + slack", gap <= abs(ra - rb) + slack + tol,
                   gap, abs(ra - rb) + slack),
    ]
    return AuditRecord(pair=(a.name, b.name), checks=checks)


def audit_pair(a: Cqms, b: Cqms, phi: ComparisonMap, eps_net: float, budget: int,
               seed: int) -> tuple[dict, AuditRecord]:
    """Compute the full report set for a pair and audit it.  Upper variants
    that ask one question (R = r_B when r_B is the larger radius; the plain
    distance when r_A = r_B) are computed once, by ``dist_oq_upper``'s memo."""
    ra, rb = a.radius(), b.radius()
    # the lower bound is the radius gap and takes no R or net: one report
    # serves all three variants
    lower = dist_oq_lower(a, b)
    reports = {
        "oq_upper": dist_oq_upper(a, b, phi, None, eps_net, budget, seed),
        "oq_lower": lower,
        "oqR_upper": dist_oq_upper(a, b, phi, max(ra, rb), eps_net, budget, seed),
        "oqR_lower": lower,
        "oq_rB_upper": dist_oq_upper(a, b, phi, rb, eps_net, budget, seed),
        "oq_rB_lower": lower,
    }
    return reports, audit_chain(a, b, reports)
