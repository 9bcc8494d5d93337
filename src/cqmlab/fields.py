"""Parameterized families of quantum metric spaces over finite grids.

A continuous-parameter family is operationalized as an ordered finite
grid of labels with one space per label.  A section set is a dict from
label to an (n, d, d) stack whose row i is section i at that label; the
study that reads it takes it as an argument.  Three studies:

* ``criterion_iii_check`` - do finitely many sections epsilon-cover the
  defining balls across the grid (the ball-covering convergence
  criterion, evaluated against each member's net);
* ``multiplicity_profile`` - the integer multiplicity table with local
  constancy and lower semicontinuity flags at the distinguished point;
* ``convergence_study``   - distance bounds member-by-member against the
  distinguished member, with a trend summary.

The upper-semicontinuity side of the continuous-field axioms has no
finite-grid analogue with literal truth; reports carry the section
surrogate only and say so.
"""

from dataclasses import dataclass

import numpy as np

from . import group_action as ga
from . import numerics as nm
from .cqms import Cqms
from .distoq import dist_oq_lower, dist_oq_upper, torus_frequency_map
from .examples import fuzzy_torus, scalar_cqms

SURROGATE_NOTE = ("finite-grid surrogate: section coverage over the sampled grid; "
                  "the upper-semicontinuity axiom itself is not checkable pointwise")


@dataclass
class ParamFamily:
    """Ordered parameter grid with one member space per label, based at
    ``t0``.  Sections are not part of a family: studies take them."""

    labels: list
    t0: object
    members: dict
    name: str = ""

    def __post_init__(self):
        if self.t0 not in self.members:
            raise ValueError("t0 is not a member label")
        for t in self.labels:
            if t not in self.members:
                raise ValueError(f"missing member at {t!r}")

    def neighbors(self, t) -> list:
        i = self.labels.index(t)
        out = []
        if i > 0:
            out.append(self.labels[i - 1])
        if i + 1 < len(self.labels):
            out.append(self.labels[i + 1])
        return out


# ---------------------------------------------------------------------------
# bundled family constructors


def constant_family(member: Cqms, labels) -> ParamFamily:
    members = {t: member for t in labels}
    return ParamFamily(labels=list(labels), t0=labels[0], members=members, name="constant")


def degenerate_family(reference: Cqms, bound_r: float) -> tuple[ParamFamily, dict]:
    """The non-convergent family on the grid 0, 1/3, 2/3, 1: the scalars at
    t0 = 0, the full space at every other grid point.  Returns it with its
    nine sections, which span only the t0 fibre's ball (scalar multiples
    of the unit, up to ``bound_r``)."""
    labels = [round(k / 3, 6) for k in range(4)]
    t0 = labels[0]
    members = {t: (scalar_cqms(reference) if t == t0 else reference) for t in labels}
    d = reference.dim
    scalars = np.array([lam * np.eye(d, dtype=complex)
                        for lam in np.linspace(-bound_r, bound_r, 9)])
    fam = ParamFamily(labels=labels, t0=t0, members=members, name="degenerate")
    return fam, {t: scalars for t in labels}


def torus_theta_family(q: int, p_values) -> ParamFamily:
    """Fuzzy tori at one level q over a grid of deformation steps p, based
    at the first.  Its sections come from ``transported_net_sections``."""
    p_values = list(p_values)
    members = {p: fuzzy_torus(q, p) for p in p_values}
    return ParamFamily(labels=p_values, t0=p_values[0], members=members,
                       name=f"torus-theta(q={q})")


def transported_net_sections(fam: ParamFamily, bound_r: float, eps_net: float,
                             budget: int, seed: int) -> dict:
    """The section set whose t0 values are the t0 member's ball-net points,
    transported to the other members by matched frequency coefficients
    (fuzzy tori); a member that is the t0 space itself takes the points
    as they are.  Returns label -> (n, d, d) stack, one row per net point."""
    base = fam.members[fam.t0]
    net = base.ball_net(bound_r, eps_net, budget=budget, seed=seed)
    sections = {}
    for t in fam.labels:
        member = fam.members[t]
        if member is base:
            sections[t] = net.points
        else:
            phi = torus_frequency_map(base, member)
            sections[t] = phi.apply(net.points)
    return sections


# ---------------------------------------------------------------------------
# studies


def criterion_iii_check(fam: ParamFamily, sections: dict, eps: float,
                        bound_r: float, budget: int, seed: int) -> dict:
    """Do the sections eps-cover the balls D_R across the grid?

    ``sections`` maps every label to an (n, d, d) stack of section values;
    a label it lacks, or a value that is not d x d or lies outside its
    member's span (tolerance 1e-7), is a ValueError naming the label.  Per
    member: every point of its (R, eps/4)-net must lie within eps of some
    section value; the verdict carries the worst gap and the net's covering
    certificate (nets flagged incomplete degrade the verdict's meaning, not
    its computation).
    """
    per = {}
    all_pass = True
    for t in fam.labels:
        if t not in sections:
            raise ValueError(f"sections undefined at {t!r}")
        member, stack = fam.members[t], np.asarray(sections[t])
        if (stack.shape[1:] != (member.dim, member.dim)
                or not all(member.space.contains(s, tol=1e-7) for s in stack)):
            raise ValueError(f"a section leaves the span at {t!r}")
        net = member.ball_net(bound_r, eps / 4.0, budget=budget, seed=seed)
        worst = nm.covering_radius(stack, net.points)
        ok = worst < eps
        all_pass = all_pass and ok
        per[t] = {"passed": ok, "worst_gap": worst, "net_size": net.size,
                  "net_certificate": net.covering_certificate,
                  "net_complete": net.complete}
    return {"name": f"criterion-iii(eps={eps},R={bound_r})", "passed": all_pass,
            "note": SURROGATE_NOTE, "per_label": per}


def multiplicity_profile(fam: ParamFamily, characters) -> dict:
    """Integer multiplicity table mul(t, gamma) with flags at t0.

    ``locally_constant``: every character has the same multiplicity at
    t0 and its grid neighbors.  ``lower_semicontinuous``: mul at t0 is
    at most the min over the neighbors (the finite-grid restatement of
    lower semicontinuity of multiplicity).
    """
    table = {}
    for t in fam.labels:
        member = fam.members[t]
        pairs = ga.multiplicities(member.action, characters, member.space.ortho)
        table[t] = {str(ch.label): m for ch, (_, m) in zip(characters, pairs)}
    neigh = fam.neighbors(fam.t0)
    locally_constant = True
    lower_semi = True
    for ch in characters:
        v0 = table[fam.t0][str(ch.label)]
        vals = [table[t][str(ch.label)] for t in neigh]
        if any(v != v0 for v in vals):
            locally_constant = False
        if vals and v0 > min(vals):
            lower_semi = False
    return {"table": table, "locally_constant": locally_constant,
            "lower_semicontinuous": lower_semi, "t0": fam.t0}


def convergence_study(fam: ParamFamily, phi_rules: dict, characters,
                      bound_r: float | None, eps_net: float, budget: int,
                      seed: int) -> dict:
    """Distance-bound table member vs the distinguished member, with the
    family's ``multiplicity_profile`` over ``characters``.  A row's lower
    bound is the radius gap, an estimate on dense members (ascent radii).

    ``phi_rules`` maps each label t != ``fam.t0`` to a ComparisonMap from
    A_t to A_{t0}.  Each row's upper bound is the R-variant at ``bound_r``,
    or, when it is None, at the larger of the two radii.  Rows come back in
    grid order; the trend summary checks that certified upper bounds do not
    increase as the grid approaches t0 from either side, within the
    reported slacks.
    """
    t0 = fam.t0
    base = fam.members[t0]
    rows = []
    for t in fam.labels:
        if t == t0:
            continue
        member = fam.members[t]
        big_r = bound_r
        if big_r is None:
            big_r = max(member.radius(), base.radius())
        up = dist_oq_upper(member, base, phi_rules[t], big_r, eps_net,
                           budget=budget, seed=seed)
        lo = dist_oq_lower(member, base)
        rows.append({"t": t, "upper": up.value, "upper_certified": up.certified_upper,
                     "lower": lo.value, "slack": up.slack, "degraded": up.degraded})
    i0 = fam.labels.index(t0)
    before = [r for r in rows if fam.labels.index(r["t"]) < i0]
    after = [r for r in rows if fam.labels.index(r["t"]) > i0]
    trend_ok = True
    for seq in (before, list(reversed(after))):
        for r1, r2 in zip(seq, seq[1:]):
            if r2["upper_certified"] > r1["upper_certified"] + r1["slack"] + r2["slack"] + 1e-9:
                trend_ok = False
    return {"rows": rows, "trend_monotone_toward_t0": trend_ok, "t0": t0,
            "note": SURROGATE_NOTE, "multiplicity": multiplicity_profile(fam, characters)}


def family_agreement(fam: ParamFamily, sections: dict, eps: float, bound_r: float,
                     characters, budget: int, seed: int) -> dict:
    """The desk-scale equivalence check: the section-covering verdict and
    local multiplicity constancy must agree on every bundled family."""
    crit = criterion_iii_check(fam, sections, eps, bound_r, budget=budget, seed=seed)
    prof = multiplicity_profile(fam, characters)
    return {
        "family": fam.name,
        "criterion_iii_passed": crit["passed"],
        "multiplicity_locally_constant": prof["locally_constant"],
        "agree": crit["passed"] == prof["locally_constant"],
        "criterion": crit,
        "multiplicity": prof,
    }
