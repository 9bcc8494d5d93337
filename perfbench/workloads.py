"""The four benchmark workloads.

Each workload makes its inputs from the seed when it is constructed,
builds its ``Cqms`` objects afresh inside every timed pass (users pay
for radii and nets on every scenario run), and checks the pass's
outputs afterwards, untimed.  An operation fails if it raises, returns
a non-finite value, or fails its check.

``run_pass`` returns the raw outputs; ``check`` turns them into one
``(operation, ok, note)`` row per operation; ``quality`` extracts the
quality metrics the workload produces.  Only those named in ``bounded``
are reported as end-to-end metrics: a net covering certificate is the
largest distance from a few dozen random probes to the net, so
``net_certificate_max`` and ``interval_width`` (which adds the
certificates) move by 10-20% from one seed to the next on the sphere
nets and the cycle scenario.  There they are recorded in the detail
record only; torus-audit, whose nets stop at the point cap, carries them
steadily.
"""

import copy
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from cqmlab import cli
from cqmlab import cqms as cq
from cqmlab import distoq as dq
from cqmlab import examples as ex
from cqmlab import numerics as nm


class Failed:
    """An operation that raised; keeps the exception text for the log."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:   # a failed operation is a finding, not a crash
        return Failed(exc)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float, np.floating)) and math.isfinite(v) for v in values)


def _row(name, ok, note=""):
    return (name, bool(ok), note)


def _failed_row(name, out):
    return _row(name, False, out.text if isinstance(out, Failed) else "non-finite")


def reference_gauge(space: cq.Cqms, points: np.ndarray, r: float) -> np.ndarray:
    """max(L(a), |a|/r) for each point, straight from the sampled group.

    Independent of cqmlab's seminorm paths: the sup runs over one
    element of every inverse pair of the whole sample (no kernel
    deduplication, no diagonal fast path), with numpy's eigensolver.
    Exact screening keeps it cheap: the Frobenius norm bounds the
    operator norm from above, so an element whose Frobenius quotient is
    below the best operator quotient found so far cannot attain the sup.
    """
    group = space.action.group
    idx = group.seminorm_support()
    u = space.action.implementers[idx]
    uh = np.swapaxes(u.conj(), 1, 2)
    lens = group.lengths[idx]
    out = np.empty(len(points))
    for k, a in enumerate(points):
        diffs = u @ a @ uh - a
        frob = np.sqrt(np.einsum("xab,xab->x", diffs.conj(), diffs).real) / lens
        top = int(np.argmax(frob))
        sup = np.max(np.abs(np.linalg.eigvalsh(diffs[top]))) / lens[top]
        hot = np.flatnonzero(frob > sup)
        if hot.size:
            ops = np.max(np.abs(np.linalg.eigvalsh(diffs[hot])), axis=1) / lens[hot]
            sup = max(sup, float(np.max(ops)))
        out[k] = max(sup, np.max(np.abs(np.linalg.eigvalsh(a))) / r)
    return out


def _hausdorff(pa: np.ndarray, pb: np.ndarray) -> float:
    dmat = nm.op_norms(pa[:, None] - pb[None, :])
    return float(max(dmat.min(axis=1).max(), dmat.min(axis=0).max()))


# ---------------------------------------------------------------------------


class SphereSolve:
    """radius() and seeded state-metric solves on a fresh fuzzy sphere(2).

    Each pair is a random pure state and a random pure state orthogonal
    to it: at a fixed trace distance the metric's scale varies less
    from seed to seed, which keeps ``estimate_ratio`` steady.
    """

    name = "sphere-solve"
    bounded = ("estimate_ratio",)
    solves = 6

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        self.pairs = []
        for _ in range(self.solves):
            v, w = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
            self.pairs.append((cq.vector_state(v), cq.vector_state(w)))

    def run_pass(self) -> dict:
        space = ex.fuzzy_sphere(2)
        radius = attempt(space.radius)
        metrics = [attempt(space.state_metric, mu, nu) for mu, nu in self.pairs]
        return {"space": space, "radius": radius, "metrics": metrics}

    def check(self, out) -> list:
        bracket = out["space"].action.group.haar_mean_length()
        r = out["radius"]
        rows = [_row("radius", r <= bracket + 1e-6, f"{r:.6f} <= {bracket:.6f}")
                if _finite(r) else _failed_row("radius", r)]
        for k, m in enumerate(out["metrics"]):
            rows.append(_row(f"state_metric[{k}]", 0.0 <= m <= 2.0 * bracket,
                             f"{m:.6f} in [0, {2 * bracket:.6f}]")
                        if _finite(m) else _failed_row(f"state_metric[{k}]", m))
        return rows

    def quality(self, out) -> dict:
        bracket = out["space"].action.group.haar_mean_length()
        ratios = [out["radius"] / bracket] + [m / (2.0 * bracket) for m in out["metrics"]]
        return {"estimate_ratio": float(np.mean(ratios))}


class SphereNets:
    """Criterion-03 ball geometry on fresh fuzzy spheres two_j = 2 and 3."""

    name = "sphere-nets"
    bounded = ()
    two_js = (2, 3)
    radii = (1.0, 0.5)
    eps, budget = 0.5, 48

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def run_pass(self) -> dict:
        out = {}
        for two_j in self.two_js:
            space = ex.fuzzy_sphere(two_j)
            nets = [attempt(space.ball_net, r, self.eps, budget=self.budget, seed=self.seed)
                    for r in self.radii]
            h = Failed(ValueError("no nets"))
            if not any(isinstance(n, Failed) for n in nets):
                h = attempt(_hausdorff, nets[0].points, nets[1].points)
            out[two_j] = {"space": space, "nets": nets, "hausdorff": h}
        return out

    def check(self, out) -> list:
        rows = []
        for two_j, res in out.items():
            for r, net in zip(self.radii, res["nets"]):
                name = f"ball_net[two_j={two_j},r={r}]"
                if isinstance(net, Failed) or not _finite(net.covering_certificate):
                    rows.append(_failed_row(name, net))
                    continue
                worst = float(np.max(reference_gauge(res["space"], net.points, r)))
                rows.append(_row(name, worst <= 1.0 + 1e-6,
                                 f"{net.size} points, max gauge {worst:.9f}"))
            h, name = res["hausdorff"], f"hausdorff[two_j={two_j}]"
            if not _finite(h):
                rows.append(_failed_row(name, h))
                continue
            big, small = res["nets"]
            slack = 2.0 * (big.covering_certificate + small.covering_certificate)
            bound = (self.radii[0] - self.radii[1]) + slack
            rows.append(_row(name, h <= bound + 1e-9, f"H={h:.6f} <= {bound:.6f}"))
        return rows

    def quality(self, out) -> dict:
        certs = [n.covering_certificate for res in out.values() for n in res["nets"]]
        return {"net_certificate_max": float(max(certs))}


_PAIRS = (("oq_upper", "oq_lower"), ("oqR_upper", "oqR_lower"),
          ("oq_rB_upper", "oq_rB_lower"))


class TorusAudit:
    """Criterion-04 audit of fresh fuzzy tori (3,1) and (5,1)."""

    name = "torus-audit"
    bounded = ("estimate_ratio", "interval_width", "net_certificate_max")
    eps_net, budget = 0.5, 24

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def run_pass(self) -> dict:
        a, b = ex.fuzzy_torus(3, 1), ex.fuzzy_torus(5, 1)
        phi = dq.torus_frequency_map(a, b)
        result = attempt(dq.audit_pair, a, b, phi, eps_net=self.eps_net,
                         budget=self.budget, seed=self.seed)
        return {"spaces": (a, b), "audit": result}

    def check(self, out) -> list:
        result = out["audit"]
        names = [k for pair in _PAIRS for k in pair] + ["audit"]
        if isinstance(result, Failed):
            return [_failed_row(n, result) for n in names]
        reports, record = result
        rows = []
        for key in names[:-1]:
            rep = reports.get(key)
            upper = getattr(rep, "certified_upper", 0.0)
            rows.append(_row(key, rep is not None and _finite(rep.value, rep.slack, upper),
                             "" if rep is not None else "missing"))
        failed = [c.name for c in record.checks if not c.passed]
        rows.append(_row("audit", record.checks and not failed,
                         f"{len(record.checks)} checks, failed: {failed}"))
        return rows

    def quality(self, out) -> dict:
        reports, _ = out["audit"]
        ratios = [space.radius() / space.action.group.haar_mean_length()
                  for space in out["spaces"]]
        widths = [reports[up].certified_upper - reports[lo].value for up, lo in _PAIRS]
        certs = [reports[up].components[k] for up, _ in _PAIRS
                 for k in ("net_a_certificate", "net_b_certificate")]
        return {"estimate_ratio": float(np.mean(ratios)),
                "interval_width": float(np.mean(widths)),
                "net_certificate_max": float(max(certs))}


class ScenarioRegression:
    """The bundled regression scenario through the CLI runner, seed replaced."""

    name = "scenario-regression"
    bounded = ("estimate_ratio",)

    def __init__(self, seed: int, root: Path):
        doc = json.loads((root / "scenarios" / "regression.json").read_text())
        doc["seed"] = seed
        self.doc = doc
        self.first_bytes = None
        self.out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_pass(self) -> dict:
        report, code = cli.run_scenario(copy.deepcopy(self.doc))
        cli.write_report(report, self.out_dir)
        return {"report": report, "code": code}

    def check(self, out) -> list:
        rows = [_row(f"job[{job['name']}]", job.get("status") == "ok",
                     job.get("error", ""))
                for job in out["report"]["jobs"]]
        data = (self.out_dir / "report.json").read_bytes()
        if self.first_bytes is None:
            self.first_bytes = data
        same = data == self.first_bytes
        rows.append(_row("report", out["code"] == 0 and same,
                         f"exit {out['code']}, identical to first pass: {same}"))
        return rows

    def quality(self, out) -> dict:
        jobs = {job["kind"]: job["result"] for job in out["report"]["jobs"]}
        rad = jobs["radius"]
        bound = rad["length_mean_bound"]
        ratios = [rad["radius"] / bound, rad["state_diameter"] / (2.0 * bound)]
        pairs = [(jobs["dist"]["upper"], jobs["dist"]["lower"])]
        pairs += [(jobs["audit"]["reports"][up], jobs["audit"]["reports"][lo])
                  for up, lo in _PAIRS]
        widths = [up["certified_upper"] - lo["value"] for up, lo in pairs]
        certs = [up["components"][k] for up, _ in pairs
                 for k in ("net_a_certificate", "net_b_certificate")]
        return {"estimate_ratio": float(np.mean(ratios)),
                "interval_width": float(np.mean(widths)),
                "net_certificate_max": float(max(certs))}


WORKLOADS = {w.name: w for w in (SphereSolve, SphereNets, TorusAudit, ScenarioRegression)}
