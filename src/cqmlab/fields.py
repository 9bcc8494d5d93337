"""Parameterized families of quantum metric spaces over finite grids.

A continuous-parameter family is operationalized as an ordered finite
grid of labels with one space per label and named sections (coefficient
rules in matched labeled bases, so evaluation is exact).  Three studies:

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

from dataclasses import dataclass, field

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
    """Ordered parameter grid with one member space per label.

    ``sections`` maps a section name to a dict of per-label elements;
    every section must evaluate inside its member's span and the unit
    section ("unit") is mandatory.
    """

    labels: list
    t0: object
    members: dict
    sections: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.t0 not in self.members:
            raise ValueError("t0 is not a member label")
        if "unit" not in self.sections:
            self.sections["unit"] = {t: self.members[t].unit() for t in self.labels}
        self.validate()

    def validate(self) -> None:
        for t in self.labels:
            if t not in self.members:
                raise ValueError(f"missing member at {t!r}")
        for name, values in self.sections.items():
            for t in self.labels:
                if t not in values:
                    raise ValueError(f"section {name!r} undefined at {t!r}")
                if not self.members[t].space.contains(values[t], tol=1e-7):
                    raise ValueError(f"section {name!r} leaves the span at {t!r}")

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


def degenerate_family(reference: Cqms, bound_r: float) -> ParamFamily:
    """The non-convergent family on the grid 0, 1/3, 2/3, 1: the scalars at
    t0 = 0, the full space at every other grid point, with nine sections
    spanning only the t0 fibre's ball (scalar multiples of the unit, up to
    ``bound_r``)."""
    labels = [round(k / 3, 6) for k in range(4)]
    t0 = labels[0]
    members = {t: (scalar_cqms(reference) if t == t0 else reference) for t in labels}
    sections = {}
    d = reference.dim
    for i, lam in enumerate(np.linspace(-bound_r, bound_r, 9)):
        sections[f"scalar_{i}"] = {t: lam * np.eye(d, dtype=complex) for t in labels}
    return ParamFamily(labels=labels, t0=t0, members=members, sections=sections,
                       name="degenerate")


def torus_theta_family(q: int, p_values) -> ParamFamily:
    """Fuzzy tori at one level q over a grid of deformation steps p, based
    at the first, with sections given by matched frequency coefficients."""
    p_values = list(p_values)
    members = {p: fuzzy_torus(q, p) for p in p_values}
    return ParamFamily(labels=p_values, t0=p_values[0], members=members,
                       name=f"torus-theta(q={q})")


def transported_net_sections(fam: ParamFamily, bound_r: float, eps_net: float,
                             budget: int = 48, seed: int = 0) -> list:
    """Add sections whose t0 values are the t0 member's ball-net points,
    transported to the other members by matched frequency coefficients
    (fuzzy tori); a member that is the t0 space itself takes the points
    as they are.  Returns the new section names."""
    base = fam.members[fam.t0]
    net = base.ball_net(bound_r, eps_net, budget=budget, seed=seed)
    maps = {t: torus_frequency_map(base, fam.members[t])
            for t in fam.labels if fam.members[t] is not base}
    names = []
    for i, pt in enumerate(net.points):
        name = f"net_{i}"
        fam.sections[name] = {t: maps[t].apply(pt) if t in maps else pt
                              for t in fam.labels}
        names.append(name)
    return names


def scalar_grid_sections(fam: ParamFamily) -> list:
    return [n for n in fam.sections if n.startswith("scalar_")]


# ---------------------------------------------------------------------------
# studies


@dataclass
class FamilyVerdict:
    name: str
    per_label: dict
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "note": self.note,
                "per_label": self.per_label}


def criterion_iii_check(fam: ParamFamily, section_names, eps: float,
                        bound_r: float, budget: int = 48, seed: int = 0) -> FamilyVerdict:
    """Do the named sections eps-cover the balls D_R across the grid?

    Per member: every point of its (R, eps/4)-net must lie within eps of
    some section value; the verdict carries the worst gap and the net's
    covering certificate (nets flagged incomplete degrade the verdict's
    meaning, not its computation).
    """
    for name in section_names:
        if name not in fam.sections:
            raise ValueError(f"unknown section {name!r}")
    per = {}
    all_pass = True
    for t in fam.labels:
        member = fam.members[t]
        net = member.ball_net(bound_r, eps / 4.0, budget=budget, seed=seed)
        svals = np.array([fam.sections[name][t] for name in section_names])
        worst = nm.covering_radius(svals, net.points)
        ok = worst < eps
        all_pass = all_pass and ok
        per[t] = {"passed": ok, "worst_gap": worst, "net_size": net.size,
                  "net_certificate": net.covering_certificate,
                  "net_complete": net.complete}
    return FamilyVerdict(name=f"criterion-iii(eps={eps},R={bound_r})",
                         per_label=per, passed=all_pass, note=SURROGATE_NOTE)


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
        basis = None if member.space.is_full else member.space.ortho
        pairs = ga.multiplicities(member.action, characters, basis)
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


def convergence_study(fam: ParamFamily, t0, phi_rules: dict, characters,
                      bound_r: float = None, eps_net: float = 0.25,
                      budget: int = 48, seed: int = 0) -> dict:
    """Distance-bound table member vs the distinguished member, with the
    family's ``multiplicity_profile`` over ``characters``.  A row's lower
    bound is the radius gap, an estimate on dense members (ascent radii).

    ``phi_rules`` maps each label t != t0 to a ComparisonMap from A_t to
    A_{t0}.  Rows come back in grid order; the trend summary checks that
    certified upper bounds do not increase as the grid approaches t0
    from either side, within the reported slacks.
    """
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


def family_agreement(fam: ParamFamily, section_names, eps: float, bound_r: float,
                     characters, budget: int = 48, seed: int = 0) -> dict:
    """The desk-scale equivalence check: the section-covering verdict and
    local multiplicity constancy must agree on every bundled family."""
    crit = criterion_iii_check(fam, section_names, eps, bound_r,
                               budget=budget, seed=seed)
    prof = multiplicity_profile(fam, characters)
    return {
        "family": fam.name,
        "criterion_iii_passed": crit.passed,
        "multiplicity_locally_constant": prof["locally_constant"],
        "agree": crit.passed == prof["locally_constant"],
        "criterion": crit.as_dict(),
        "multiplicity": prof,
    }
