"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cqmlab import cqms as cq
from cqmlab import distoq as dq
from cqmlab import examples as ex
from cqmlab import fields as fl
from cqmlab import finmetric as fm
from cqmlab import group_action as ga
from cqmlab import numerics as nm

from conftest import cycle_arc_matrix, gh_bruteforce, kantorovich_lp, random_metric_space

ROOT = Path(__file__).resolve().parents[1]


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- bundled examples (shared, built once) -----------------------------------

@pytest.fixture(scope="module")
def bundle():
    return {
        "cycle8": ex.commutative_cycle(8),
        "cycle12": ex.commutative_cycle(12),
        "torus21": ex.fuzzy_torus(2, 1),
        "torus31": ex.fuzzy_torus(3, 1),
        "torus51": ex.fuzzy_torus(5, 1),
        "sphere1": ex.fuzzy_sphere(1),
        "sphere2": ex.fuzzy_sphere(2),
        "sphere3": ex.fuzzy_sphere(3),
    }


def test_criterion_01_classical_recovery():
    start = time.monotonic()
    c = ex.commutative_cycle(12)
    arcs = cycle_arc_matrix(12)
    worst = 0.0
    states = [cq.dirac_state(12, i) for i in range(12)]
    for i in range(12):
        for j in range(12):
            if i == j:
                continue
            coef = np.zeros(12)
            coef[i], coef[j] = 1.0, -1.0
            oracle = kantorovich_lp(arcs, coef)
            got = c.state_metric(states[i], states[j])
            worst = max(worst, abs(got - oracle) / oracle)
    elapsed = time.monotonic() - start
    adjacent = c.state_metric(states[0], states[1])
    ok = (abs(adjacent - 2 * np.pi / 12) / (2 * np.pi / 12) < 0.02
          and worst < 0.02 and elapsed < 10.0)
    verdict(1, ok, f"12x12 table worst rel err {worst:.2%} vs LP oracle, "
                   f"adjacent {adjacent:.6f} vs {2*np.pi/12:.6f}, {elapsed:.1f}s")


def test_criterion_02_radius_bound(bundle):
    rows = []
    ok = True
    for name, obj in bundle.items():
        r = obj.radius()
        bound = obj.action.group.haar_mean_length()
        diam = obj.state_diameter(sample=16, seed=3)
        gap = abs(diam / 2.0 - r) / max(r, 1e-12)
        ok = ok and (r <= bound + 1e-6) and (gap <= 0.10)
        rows.append(f"{name}: r={r:.4f}<=~{bound:.4f}, |d/2-r|/r={gap:.1%}")
    verdict(2, ok, "; ".join(rows))


def test_criterion_03_ball_geometry(bundle):
    ok = True
    details = []
    for name in ("torus31", "sphere2"):
        obj = bundle[name]
        big_r, small_r, eps = 1.0, 0.5, 0.5
        net_big = obj.ball_net(big_r, eps, budget=48, seed=0)
        net_small = obj.ball_net(small_r, eps, budget=48, seed=0)
        dmat = nm.op_dists(net_big.points, net_small.points)
        h = max(dmat.min(axis=1).max(), dmat.min(axis=0).max())
        slack = 2 * (net_big.covering_certificate + net_small.covering_certificate)
        ok = ok and h <= (big_r - small_r) + slack + 1e-9
        details.append(f"{name}: H={h:.3f} <= 0.5 + {slack:.3f}")
    verdict(3, ok, "; ".join(details))


@pytest.fixture(scope="module")
def bound_pairs(bundle):
    specs = [
        ("cycle8", "cycle12_x", None),            # refinement against m=16
        ("cycle12", "cycle24_x", None),
        ("torus21", "torus31", "freq"),
        ("torus51", "torus71_x", "freq"),
        ("sphere1", "sphere2", "berezin"),
        ("sphere2", "sphere3", "berezin"),
    ]
    extras = {
        "cycle12_x": ex.commutative_cycle(16),
        "cycle24_x": ex.commutative_cycle(24),
        "torus71_x": ex.fuzzy_torus(7, 1),
    }
    out = []
    for aname, bname, kind in specs:
        a = bundle.get(aname, extras.get(aname))
        b = bundle.get(bname, extras.get(bname))
        if kind == "freq":
            phi = dq.torus_frequency_map(a, b)
        elif kind == "berezin":
            ja, jb = a.dim - 1, b.dim - 1
            phi = dq.berezin_transport_map(a, b, ex.berezin_maps(ja), ex.berezin_maps(jb))
        else:
            phi = dq.cycle_refinement_map(a, b)
        reports, record = dq.audit_pair(a, b, phi, eps_net=0.5, budget=24, seed=0)
        out.append((f"{aname}|{bname}", a, b, reports, record))
    return out


def test_criterion_04_inequality_chain(bound_pairs):
    ok = len(bound_pairs) >= 5
    details = [f"{len(bound_pairs)} pairs"]
    for label, a, b, reports, record in bound_pairs:
        lo, up = reports["oq_lower"], reports["oq_upper"]
        lo_r, up_r = reports["oqR_lower"], reports["oqR_upper"]
        chain = lo.value <= up.certified_upper + 1e-9
        cap = up.value <= a.radius() + b.radius() + up.slack + 1e-9
        q_lo = max(lo.value / 3.0, lo_r.value / 2.0)
        q_hi = min(5.0 * up.certified_upper, 2.5 * up_r.certified_upper)
        interval = q_lo <= q_hi + 1e-9
        ok = ok and chain and cap and interval and record.all_passed
        details.append(f"{label}: lo={lo.value:.3f} up={up.value:.3f}"
                       f" q=[{q_lo:.3f},{q_hi:.3f}] audit={record.all_passed}")
    verdict(4, ok, "; ".join(details))


def test_criterion_05_pseudo_triangle(bundle, bound_pairs):
    table = {label: reports for label, _, _, reports, _ in bound_pairs}
    up_ab = table["sphere1|sphere2"]["oq_upper"]
    up_bc = table["sphere2|sphere3"]["oq_upper"]
    lo_ac = dq.dist_oq_lower(bundle["sphere1"], bundle["sphere3"])
    slack = up_ab.slack + up_bc.slack
    lhs = lo_ac.value
    rhs = up_ab.value + up_bc.value + slack
    ok = lhs <= rhs + 1e-9
    verdict(5, ok, f"lower(s1,s3)={lhs:.4f} <= {up_ab.value:.4f}+{up_bc.value:.4f}"
                   f"+slack {slack:.4f}")


def test_criterion_06_multiplicity_exactness():
    start = time.monotonic()
    ok = True
    worst_torus = 0.0
    for q, p in ((2, 1), (3, 1), (5, 1), (5, 2), (7, 1)):
        t = ex.fuzzy_torus(q, p)
        traces = ga.action_traces(t.action)
        for ch in ex.torus_characters(q):
            raw = complex(np.dot(t.action.group.weights, ch.values.conj() * traces))
            worst_torus = max(worst_torus, abs(raw - 1.0))
            ok = ok and abs(raw - 1.0) < 1e-9
    worst_sphere = 0.0
    for two_j in (1, 2, 3, 4, 5, 6):
        s = ex.fuzzy_sphere(two_j)
        traces = ga.action_traces(s.action)
        for two_l in range(0, 2 * two_j + 4, 2):
            ch = ga.su2_characters(ex.su2_grid(), [two_l])[0]
            raw = complex(np.dot(s.action.group.weights, ch.values.conj() * traces))
            expected = 1 if two_l <= 2 * two_j else 0
            worst_sphere = max(worst_sphere, abs(raw - expected))
            m = ga.multiplicity(s.action, ch, traces=traces)
            ok = ok and m == expected
    elapsed = time.monotonic() - start
    ok = ok and worst_sphere < 0.05 and elapsed < 60.0
    verdict(6, ok, f"torus raw dev {worst_torus:.1e} (<1e-9), sphere raw dev "
                   f"{worst_sphere:.4f} (<0.05), {elapsed:.1f}s")


def test_criterion_07_convergence_vs_multiplicity(bundle):
    verdicts = {}
    # degenerate family: both criteria must fail
    fam_d = fl.degenerate_family(bundle["torus31"], bound_r=1.0)
    agree_d = fl.family_agreement(fam_d, fl.scalar_grid_sections(fam_d), eps=0.4,
                                  bound_r=1.0, characters=ex.torus_characters(3),
                                  budget=32, seed=0)
    verdicts["degenerate"] = agree_d
    # fuzzy-torus grid family: both must pass (recorded eps schedule)
    fam_t = fl.torus_theta_family(5, [1, 2])
    bound_r = max(fam_t.members[p].radius() for p in (1, 2))
    names = fl.transported_net_sections(fam_t, bound_r, eps_net=0.6, budget=24, seed=0)
    agree_t = fl.family_agreement(fam_t, names, eps=1.15, bound_r=bound_r,
                                  characters=ex.torus_characters(5),
                                  budget=24, seed=0)
    verdicts["torus-theta"] = agree_t
    # constant family: trivially passes both
    fam_c = fl.constant_family(bundle["torus21"], [0, 1])
    r21 = bundle["torus21"].radius()
    net = bundle["torus21"].ball_net(r21, 0.3, budget=32, seed=0)
    names_c = []
    for i, pt in enumerate(net.points):
        fam_c.sections[f"net_{i}"] = {t: pt for t in fam_c.labels}
        names_c.append(f"net_{i}")
    agree_c = fl.family_agreement(fam_c, names_c, eps=1.0, bound_r=r21,
                                  characters=ex.torus_characters(2),
                                  budget=32, seed=0)
    verdicts["constant"] = agree_c
    ok = (not agree_d["criterion_iii_passed"]
          and not agree_d["multiplicity_locally_constant"]
          and agree_t["criterion_iii_passed"]
          and agree_t["multiplicity_locally_constant"]
          and agree_c["criterion_iii_passed"]
          and agree_c["multiplicity_locally_constant"]
          and all(v["agree"] for v in verdicts.values()))
    detail = ", ".join(f"{k}: crit={v['criterion_iii_passed']}"
                       f"/mult={v['multiplicity_locally_constant']}"
                       f"/agree={v['agree']}" for k, v in verdicts.items())
    verdict(7, ok, detail)


def test_criterion_08_gh_oracle(rng):
    ok = True
    for _ in range(100):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x, y = random_metric_space(rng, n), random_metric_space(rng, m)
        a = fm.gh_exact_small(x, y)
        b = gh_bruteforce(x.dist, y.dist)
        ok = ok and abs(a - b) < 1e-10
    x = random_metric_space(rng, 6)
    point = fm.FiniteMetricSpace(np.zeros((1, 1)))
    ok = ok and fm.gh_exact_small(x, point) == x.diam() / 2.0
    # Lemma: GH below eps/(4 P(X, eps/2)) forces the eps-balls to cover
    hits = 0
    while hits < 500:
        n = int(rng.integers(3, 7))
        x = random_metric_space(rng, n)
        ys = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        eps = float(rng.uniform(0.2, 1.5)) * max(x.diam(), 0.1)
        if fm.gh_exact_small(x, x.subspace(ys)) < eps / (4.0 * fm.packing_number(x, eps / 2.0)):
            hits += 1
            ok = ok and fm.ball_cover_test(x, ys, eps)
    # Lemma: GH below eps/4 bounds packing numbers across the pair
    hits = 0
    while hits < 500:
        n = int(rng.integers(2, 6))
        x = random_metric_space(rng, n)
        y = fm.FiniteMetricSpace(np.round(x.dist * (1.0 + rng.uniform(-0.02, 0.02)), 12))
        eps = float(rng.uniform(0.1, 1.2)) * max(x.diam(), 0.1)
        if fm.gh_exact_small(x, y) < eps / 4.0:
            hits += 1
            ok = ok and fm.packing_number(x, eps) <= fm.packing_number(y, eps / 2.0)
    verdict(8, ok, "100 exact-vs-bruteforce pairs identical, point law exact, "
                   "ball-cover and packing lemmas 500/500")


def test_criterion_09_universal_embedding(rng):
    space = fm.circle_space(30)
    bound = 1.0
    fns = [fm.random_lipschitz_function(space, rng, bound) for _ in range(20)]
    rep = fm.universal_embed([space], bound, 6, [fns])
    limit = 2.0 ** (-5) * (2 * bound)
    ok = (rep.max_distortion <= limit and rep.z_ok
          and all(all(e.net_ok) for e in rep.per_space)
          and all(e.edges_ok for e in rep.per_space))
    verdict(9, ok, f"max distortion {rep.max_distortion:.5f} <= {limit:.5f}, "
                   f"Z membership exact: {rep.z_ok}")


def test_criterion_10_determinism(tmp_path):
    scenario = ROOT / "scenarios" / "regression.json"
    payloads = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "cqmlab.cli", "--out", str(out),
             "run", str(scenario)],
            capture_output=True, text=True, timeout=900)
        assert res.returncode == 0, res.stderr
        payloads.append((out / "report.json").read_bytes())
    ok = payloads[0] == payloads[1]
    statuses = [j["status"] for j in json.loads(payloads[0])["jobs"]]
    ok = ok and all(s == "ok" for s in statuses)
    verdict(10, ok, f"byte-identical reports ({len(payloads[0])} bytes), "
                    f"all jobs ok: {statuses}")
