import numpy as np
import pytest

from cqmlab import distoq as dq
from cqmlab import examples as ex
from cqmlab import fields as fl


@pytest.fixture(scope="module")
def torus31():
    return ex.fuzzy_torus(3, 1)


def test_unit_section_mandatory(torus31):
    fam = fl.constant_family(torus31, [0, 1, 2])
    assert "unit" in fam.sections
    for t in fam.labels:
        assert np.allclose(fam.sections["unit"][t], np.eye(3))


def test_section_validation_errors(torus31):
    with pytest.raises(ValueError):
        fl.ParamFamily(labels=[0, 1], t0=0,
                       members={0: torus31, 1: torus31},
                       sections={"bad": {0: np.eye(3, dtype=complex)}})
    big = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        fl.ParamFamily(labels=[0], t0=0, members={0: torus31},
                       sections={"off": {0: big}})


def test_criterion_iii_unknown_section(torus31):
    fam = fl.constant_family(torus31, [0, 1])
    with pytest.raises(ValueError):
        fl.criterion_iii_check(fam, ["missing"], 0.5, 1.0)


def test_constant_family_passes(torus31):
    fam = fl.constant_family(torus31, [0, 1, 2])
    bound_r = torus31.radius()
    net = torus31.ball_net(bound_r, 0.25, budget=32, seed=0)
    names = []
    for i, pt in enumerate(net.points):
        name = f"net_{i}"
        fam.sections[name] = {t: pt for t in fam.labels}
        names.append(name)
    verdict = fl.criterion_iii_check(fam, names, 1.0, bound_r, budget=32, seed=0)
    assert verdict.passed
    prof = fl.multiplicity_profile(fam, ex.torus_characters(3))
    assert prof["locally_constant"] and prof["lower_semicontinuous"]
    table = prof["table"]
    assert all(v == 1 for v in table[0].values())


def test_degenerate_family_fails_both(torus31):
    fam = fl.degenerate_family(torus31, bound_r=1.0)
    names = fl.scalar_grid_sections(fam)
    agree = fl.family_agreement(fam, names, eps=0.4, bound_r=1.0,
                                characters=ex.torus_characters(3),
                                budget=32, seed=0)
    assert not agree["criterion_iii_passed"]
    assert not agree["multiplicity_locally_constant"]
    assert agree["agree"]
    # at t0 only the trivial character survives; multiplicity may only drop
    prof = agree["multiplicity"]
    t0 = prof["t0"]
    assert prof["table"][t0]["(0, 0)"] == 1
    assert sum(prof["table"][t0].values()) == 1
    assert prof["lower_semicontinuous"]


def test_degenerate_scalar_sections_pass_at_t0(torus31):
    fam = fl.degenerate_family(torus31, bound_r=1.0)
    names = fl.scalar_grid_sections(fam)
    verdict = fl.criterion_iii_check(fam, names, 0.4, 1.0, budget=32, seed=0)
    assert verdict.per_label[fam.t0]["passed"]
    others = [t for t in fam.labels if t != fam.t0]
    assert all(not verdict.per_label[t]["passed"] for t in others)


def test_torus_theta_family_passes_both():
    fam = fl.torus_theta_family(5, [1, 2])
    bound_r = max(fam.members[p].radius() for p in (1, 2))
    names = fl.transported_net_sections(fam, bound_r, eps_net=0.6, budget=24, seed=0)
    # regression threshold: worst transported-section gap measured 1.026 on
    # the first certified run of this grid (bound_r ~ 2.0), pinned with headroom
    agree = fl.family_agreement(fam, names, eps=1.15, bound_r=bound_r,
                                characters=ex.torus_characters(5),
                                budget=24, seed=0)
    assert agree["multiplicity_locally_constant"]
    assert agree["criterion_iii_passed"], agree["criterion"]
    assert agree["agree"]


def test_sphere_family_trend():
    members = {tj: ex.fuzzy_sphere(tj) for tj in (1, 2, 3)}
    fam = fl.ParamFamily(labels=[1, 2, 3], t0=3, members=members, name="spheres")
    bmaps = {tj: ex.berezin_maps(tj) for tj in (1, 2, 3)}
    rules = {tj: dq.berezin_transport_map(members[tj], members[3], bmaps[tj], bmaps[3])
             for tj in (1, 2)}
    study = fl.convergence_study(fam, 3, rules, eps_net=0.5, budget=24, seed=0,
                                 characters=ex.sphere_characters(3))
    rows = {r["t"]: r for r in study["rows"] if "upper" in r}
    assert set(rows) == {1, 2}
    assert study["trend_monotone_toward_t0"]
    assert "locally_constant" in study["multiplicity"]
    for r in rows.values():
        assert r["lower"] <= r["upper_certified"] + 1e-9


def test_degenerate_lower_bound_away_from_zero(torus31):
    fam = fl.degenerate_family(torus31, bound_r=1.0)
    t0 = fam.t0
    other = [t for t in fam.labels if t != t0][0]
    lo = dq.dist_oq_lower(fam.members[other], fam.members[t0])
    assert lo.value >= torus31.radius() - 1e-6
