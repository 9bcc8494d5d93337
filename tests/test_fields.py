import numpy as np
import pytest

from cqmlab import distoq as dq
from cqmlab import examples as ex
from cqmlab import fields as fl
from cqmlab import group_action as ga


@pytest.fixture(scope="module")
def torus31():
    return ex.fuzzy_torus(3, 1)


def test_section_validation_errors(torus31):
    fam = fl.ParamFamily(labels=[0, 1], t0=0, members={0: torus31, 1: torus31})
    with pytest.raises(ValueError, match="undefined at 1"):
        fl.criterion_iii_check(fam, {0: np.eye(3, dtype=complex)[None]}, 0.5, 1.0,
                               budget=48, seed=0)
    big = np.eye(4, dtype=complex)[None]
    with pytest.raises(ValueError, match="leaves the span at 0"):
        fl.criterion_iii_check(fam, {0: big, 1: big}, 0.5, 1.0, budget=48, seed=0)
    with pytest.raises(ValueError, match="missing member at 2"):
        fl.ParamFamily(labels=[0, 2], t0=0, members={0: torus31})


def test_every_section_set_is_span_checked():
    # a section set built after the family, as transported_net_sections
    # builds one, is checked like any other: an off-diagonal Hermitian
    # matrix leaves a diagonal space's span, here at a label other than t0
    cycle = ex.commutative_cycle(6)
    fam = fl.constant_family(cycle, [0, 1, 2])
    inside = np.diag(np.arange(6.0)).astype(complex)
    off = np.zeros((6, 6), dtype=complex)
    off[0, 1] = off[1, 0] = 1.0
    sections = {0: np.array([inside]), 1: np.array([inside]), 2: np.array([inside, off])}
    with pytest.raises(ValueError, match="leaves the span at 2"):
        fl.criterion_iii_check(fam, sections, 0.5, 1.0, budget=8, seed=0)


def test_constant_family_passes(torus31):
    fam = fl.constant_family(torus31, [0, 1, 2])
    bound_r = torus31.radius()
    net = torus31.ball_net(bound_r, 0.25, budget=32, seed=0)
    verdict = fl.criterion_iii_check(fam, {t: net.points for t in fam.labels}, 1.0, bound_r,
                                     budget=32, seed=0)
    assert verdict["passed"]
    prof = fl.multiplicity_profile(fam, ga.torus_characters(3, 2))
    assert prof["locally_constant"] and prof["lower_semicontinuous"]
    table = prof["table"]
    assert all(v == 1 for v in table[0].values())


def test_degenerate_family_fails_both(torus31):
    fam, scalars = fl.degenerate_family(torus31, bound_r=1.0)
    agree = fl.family_agreement(fam, scalars, eps=0.4, bound_r=1.0,
                                characters=ga.torus_characters(3, 2),
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
    fam, scalars = fl.degenerate_family(torus31, bound_r=1.0)
    assert all(scalars[t].shape == (9, 3, 3) for t in fam.labels)
    verdict = fl.criterion_iii_check(fam, scalars, 0.4, 1.0, budget=32, seed=0)
    assert verdict["per_label"][fam.t0]["passed"]
    others = [t for t in fam.labels if t != fam.t0]
    assert all(not verdict["per_label"][t]["passed"] for t in others)


def test_torus_theta_family_passes_both():
    fam = fl.torus_theta_family(5, [1, 2])
    bound_r = max(fam.members[p].radius() for p in (1, 2))
    sections = fl.transported_net_sections(fam, bound_r, eps_net=0.6, budget=24, seed=0)
    assert sections[1].shape == sections[2].shape
    # regression threshold: worst transported-section gap measured 1.026 on
    # the first certified run of this grid (bound_r ~ 2.0), pinned with headroom
    agree = fl.family_agreement(fam, sections, eps=1.15, bound_r=bound_r,
                                characters=ga.torus_characters(5, 2),
                                budget=24, seed=0)
    assert agree["multiplicity_locally_constant"]
    assert agree["criterion_iii_passed"], agree["criterion"]
    assert agree["agree"]


def test_sphere_family_trend():
    members = {tj: ex.fuzzy_sphere(tj) for tj in (1, 2, 3)}
    fam = fl.ParamFamily(labels=[1, 2, 3], t0=3, members=members, name="spheres")
    rules = {tj: dq.berezin_transport_map(members[tj], members[3]) for tj in (1, 2)}
    study = fl.convergence_study(fam, rules, bound_r=None, eps_net=0.5, budget=24, seed=0,
                                 characters=ex.sphere_characters(3, ex.DEFAULT_SU2_GRID))
    rows = {r["t"]: r for r in study["rows"] if "upper" in r}
    assert set(rows) == {1, 2}
    assert study["trend_monotone_toward_t0"]
    assert "locally_constant" in study["multiplicity"]
    for r in rows.values():
        assert r["lower"] <= r["upper_certified"] + 1e-9


def test_degenerate_lower_bound_away_from_zero(torus31):
    fam, _ = fl.degenerate_family(torus31, bound_r=1.0)
    t0 = fam.t0
    other = [t for t in fam.labels if t != t0][0]
    lo = dq.dist_oq_lower(fam.members[other], fam.members[t0])
    assert lo.value >= torus31.radius() - 1e-6
