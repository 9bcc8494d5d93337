"""Batch frontend: scenario files in, machine-readable reports out.

A scenario is a JSON document naming example constructions and a list
of jobs (radius, multiplicity table, distance bounds, audits, family
studies).  Runs are deterministic for a fixed seed and platform; the
report serializer sorts keys and formats every float as %.9e, so a
repeated run produces byte-identical output.

Exit codes: 0 on success, 2 on scenario parse/validation errors, 3 when
an audit fails and the policy is "fail" (the default; "warn" downgrades).
``QGH_THREADS`` caps the linear-algebra thread pools (applied when the
package is imported; unset, they default to one thread) and is echoed in
the environment stamp.
"""

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import distoq as dq
from . import fields as fl
from . import group_action as ga
from . import examples as ex


class ScenarioError(Exception):
    """Malformed scenario: carries a human-readable location diagnostic."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _render(obj, indent: int = 0) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            return "null"
        return format(x, ".9e")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _render(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted((str(k), v) for k, v in obj.items())
        inner = ",\n".join(
            pad + "  " + json.dumps(k) + ": " + _render(v, indent + 2)
            for k, v in items)
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(report: dict) -> str:
    return _render(report) + "\n"


def render_csv_tables(report: dict) -> dict:
    """Extract plotter-ready CSV tables from a report: one per job that
    produced a trend table (columns t, upper, lower, slack) and one per
    multiplicity table."""
    tables = {}
    for job in report.get("jobs", []):
        res = job.get("result") or {}
        rows = res.get("rows")
        if rows:
            lines = ["t,upper,lower,slack"]
            for r in rows:
                lines.append(",".join([str(r["t"]), format(r["upper"], ".9e"),
                                       format(r["lower"], ".9e"),
                                       format(r["slack"], ".9e")]))
            tables[f"{job['name']}_trend.csv"] = "\n".join(lines) + "\n"
        mult = res.get("multiplicity") or res.get("table")
        if isinstance(mult, dict) and "table" in mult:
            mult = mult["table"]
        if isinstance(mult, dict) and mult and all(isinstance(v, dict) for v in mult.values()):
            chars = sorted({c for row in mult.values() for c in row})
            lines = ["t," + ",".join(chars)]
            for t in sorted(mult, key=str):
                lines.append(str(t) + "," + ",".join(str(mult[t][c]) for c in chars))
            tables[f"{job['name']}_mult.csv"] = "\n".join(lines) + "\n"
    return tables


# ---------------------------------------------------------------------------
# scenario loading


def load_scenario(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from exc
    validate_scenario(doc)
    return doc


def _descriptor(spec: dict, doc: dict) -> ex.ExampleDescriptor:
    return ex.ExampleDescriptor.make(
        spec["family"], seed=spec.get("seed", doc.get("seed", 0)),
        **{k: v for k, v in spec.items() if k not in ("name", "family", "seed")})


def _names(value, table) -> bool:
    """Whether a scenario value is a key of ``table``: a JSON list or object
    is never a name (and is not hashable, so no membership test is made)."""
    return isinstance(value, str) and value in table


def _check_settings(spec: dict, where: str) -> None:
    """The run-wide settings a scenario, or one of its jobs, may set: ``seed``
    and ``budget`` are integers (a boolean is not one), ``budget`` is at least
    1, and ``eps_net`` is a positive finite number."""
    for key in ("seed", "budget"):
        value = spec.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{where}'{key}' must be an integer, got {value!r}")
    if spec.get("budget", 1) < 1:
        raise ScenarioError(f"{where}'budget' must be at least 1, got {spec['budget']}")
    eps_net = spec.get("eps_net", 1.0)
    if (isinstance(eps_net, bool) or not isinstance(eps_net, (int, float))
            or not 0.0 < eps_net < math.inf):
        raise ScenarioError(f"{where}'eps_net' must be a positive number, got {eps_net!r}")


def validate_scenario(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    if "seed" not in doc:
        raise ScenarioError("scenario requires an explicit 'seed'")
    _check_settings(doc, "")
    for key in ("examples", "jobs"):
        if not isinstance(doc.get(key, []), list):
            raise ScenarioError(f"'{key}' must be a list")
    names = set()
    for i, spec in enumerate(doc.get("examples", [])):
        where = f"examples[{i}]"
        if not isinstance(spec, dict):
            raise ScenarioError(f"{where}: must be an object")
        for key in ("name", "family"):
            if key not in spec:
                raise ScenarioError(f"{where}: missing '{key}'")
            if not isinstance(spec[key], str):
                raise ScenarioError(f"{where}: '{key}' must be a string")
        try:
            _descriptor(spec, doc).validate()
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        names.add(spec["name"])
    for i, job in enumerate(doc.get("jobs", [])):
        where = f"jobs[{i}]"
        if not isinstance(job, dict):
            raise ScenarioError(f"{where}: must be an object")
        _check_settings(job, f"{where}: ")
        kind = job.get("kind")
        if not _names(kind, _JOBS):
            raise ScenarioError(f"{where}: unknown kind {kind!r}")
        for ref_key in ("example", "a", "b", "reference"):
            ref = job.get(ref_key)
            if ref is not None and not _names(ref, names):
                raise ScenarioError(
                    f"{where}: reference {ref!r} does not name a declared example")
        if kind in ("dist", "audit") and not _names(job.get("phi", "identity"), _PHI):
            raise ScenarioError(f"{where}: unknown phi rule {job.get('phi')!r}")
        if kind == "family" and not _names(job.get("type"), _FAMILY_STUDIES):
            raise ScenarioError(f"{where}: unknown family type {job.get('type')!r}")


def _build_examples(doc: dict) -> dict:
    built = {}
    for i, spec in enumerate(doc.get("examples", [])):
        desc = _descriptor(spec, doc)
        try:
            built[spec["name"]] = (desc, desc.build())
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"examples[{i}]: {exc}") from exc
    return built


def _unconverged(a, b) -> dict:
    """Each space's count of unconverged support-solve stages so far (a
    space's count runs over every job of the scenario that uses it)."""
    return {"a": a.unconverged_stages, "b": b.unconverged_stages}


def _shared_grid(descs) -> tuple:
    """The one SU(2) grid the spheres among ``descs`` are declared on (the
    default grid when there are none): spheres compared through Berezin
    symbols, with the characters of their family, must share one sample."""
    grids = {ex.grid_dims(dict(desc.params).get("grid", ex.DEFAULT_SU2_GRID))
             for desc in descs if desc.family == "sphere"}
    if len(grids) > 1:
        raise ScenarioError(f"spheres compared here are declared on different "
                            f"SU(2) grids: {sorted(grids)}")
    return grids.pop() if grids else ex.DEFAULT_SU2_GRID


def _berezin_map(a, b) -> dq.ComparisonMap:
    """Berezin transport between two built spheres, with its symbols on the
    SU(2) grid both are declared on."""
    (desc_a, cq_a), (desc_b, cq_b) = a, b
    grid = _shared_grid([desc_a, desc_b])
    return dq.berezin_transport_map(cq_a, cq_b, ex.berezin_maps(cq_a.dim - 1, grid),
                                    ex.berezin_maps(cq_b.dim - 1, grid))


# comparison maps of dist and audit jobs: rule -> the built (descriptor,
# Cqms) pairs of A and B -> ComparisonMap
_PHI = {
    "identity": lambda a, b: dq.identity_map(a[1]),
    "cycle_refine": lambda a, b: dq.cycle_refinement_map(a[1], b[1]),
    "torus_freq": lambda a, b: dq.torus_frequency_map(a[1], b[1]),
    "berezin": _berezin_map,
}


def _pair(job, built) -> tuple:
    """A dist or audit job's two spaces and the comparison map of its rule."""
    a, b = built[job["a"]], built[job["b"]]
    return a[1], b[1], _PHI[job.get("phi", "identity")](a, b)


# ---------------------------------------------------------------------------
# job runners: each takes (job, built examples, seed, eps_net, budget)


def _example_job(job, built, seed, eps_net, budget) -> dict:
    desc, cq = built[job["example"]]
    return {
        "descriptor": desc.as_dict(), "dim": cq.dim,
        "real_dim": cq.space.real_dim, "group_size": cq.action.group.size,
        "group": cq.action.group.descriptor,
        "seminorm_kernel_size": int(cq.action.seminorm_kernel()[0].size),
        "ergodic": bool(ga.ergodicity_check(
            cq.action, None if cq.space.is_full else cq.space.ortho)),
    }


def _radius_job(job, built, seed, eps_net, budget) -> dict:
    _, cq = built[job["example"]]
    value = cq.radius()
    bound = cq.action.group.haar_mean_length()
    out = {"radius": value, "method": cq.radius_method(),
           "length_mean_bound": bound, "within_bound": bool(value <= bound + 1e-6)}
    if job.get("diameter"):
        diam = cq.state_diameter(sample=int(job.get("sample", 16)), seed=seed)
        out["state_diameter"] = diam
        out["consistency_gap"] = abs(diam / 2.0 - value) / max(value, 1e-12)
    out["unconverged_stages"] = cq.unconverged_stages
    return out


def _mult_job(job, built, seed, eps_net, budget) -> dict:
    desc, cq = built[job["example"]]
    chars = desc.characters()
    basis = None if cq.space.is_full else cq.space.ortho
    pairs = ga.multiplicities(cq.action, chars, basis,
                              float(job.get("integer_tol", ga.DEFAULT_INTEGER_TOL)))
    table = {str(ch.label): m for ch, (_, m) in zip(chars, pairs)}
    raw_worst = max([0.0] + [abs(raw - m) for raw, m in pairs])
    out = {"table": table, "raw_worst_deviation": raw_worst,
           "grid": cq.action.group.descriptor}
    if cq.action.group.is_exact:
        total = sum(m * ch.dimension ** 2 for ch, m in zip(chars, table.values()))
        out["dimension_sum_check"] = {
            "sum": total, "expected": cq.space.real_dim,
            "passed": bool(total == cq.space.real_dim)}
    return out


def _dist_job(job, built, seed, eps_net, budget) -> dict:
    a, b, phi = _pair(job, built)
    upper = dq.dist_oq_upper(a, b, phi, job.get("R"), eps_net, budget, seed)
    lower = dq.dist_oq_lower(a, b, eps_net, budget, seed)
    return {"upper": upper.as_dict(), "lower": lower.as_dict(),
            "unconverged_stages": _unconverged(a, b)}


def _audit_job(job, built, seed, eps_net, budget) -> dict:
    a, b, phi = _pair(job, built)
    reports, record = dq.audit_pair(a, b, phi, eps_net, budget, seed)
    return {"reports": {k: v.as_dict() for k, v in reports.items()},
            "audit": record.as_dict(), "unconverged_stages": _unconverged(a, b)}


def _embed_job(job, built, seed, eps_net, budget) -> dict:
    from . import finmetric as fm
    n = int(job.get("points", 30))
    depth = int(job.get("depth", 6))
    bound = float(job.get("bound", 1.0))
    count = int(job.get("functions", 20))
    space = fm.circle_space(n)
    rng = np.random.default_rng(seed)
    fns = [fm.random_lipschitz_function(space, rng, bound) for _ in range(count)]
    rep = fm.universal_embed([space], bound, depth, [fns])
    return {
        "depth": depth, "cover_sizes": rep.cover_sizes,
        "max_distortion": rep.max_distortion,
        "distortion_bound": rep.distortion_bound, "z_ok": rep.z_ok,
        "nets_ok": all(all(e.net_ok) for e in rep.per_space),
        "edges_ok": all(e.edges_ok for e in rep.per_space),
    }


# ---------------------------------------------------------------------------
# family studies: the runners of family jobs, by their "type"


def _degenerate_study(job, built, seed, eps_net, budget) -> dict:
    desc, ref = built[job["reference"]]
    big_r = job.get("R")
    bound_r = float(big_r if big_r is not None else max(ref.radius(), 1.0))
    fam = fl.degenerate_family(ref, bound_r=bound_r)
    return fl.family_agreement(fam, fl.scalar_grid_sections(fam), float(job.get("eps", 0.5)),
                               bound_r, desc.characters(), budget=budget, seed=seed)


def _torus_theta_study(job, built, seed, eps_net, budget) -> dict:
    q = int(job["q"])
    ps = [int(p) for p in job["ps"]]
    fam = fl.torus_theta_family(q, ps)
    big_r = job.get("R")
    bound_r = float(big_r if big_r is not None else max(fam.members[p].radius() for p in ps))
    names = fl.transported_net_sections(fam, bound_r, eps_net, budget=budget, seed=seed)
    return fl.family_agreement(fam, names, float(job.get("eps", 0.5)), bound_r,
                               ex.torus_characters(q), budget=budget, seed=seed)


def _constant_study(job, built, seed, eps_net, budget) -> dict:
    desc, member = built[job["example"]]
    fam = fl.constant_family(member, job.get("labels", [0, 1, 2]))
    big_r = job.get("R")
    bound_r = float(big_r if big_r is not None else member.radius())
    names = fl.transported_net_sections(fam, bound_r, eps_net, budget=budget, seed=seed)
    return fl.family_agreement(fam, names, float(job.get("eps", 0.5)), bound_r,
                               desc.characters(), budget=budget, seed=seed)


def _sphere_convergence_study(job, built, seed, eps_net, budget) -> dict:
    two_js = [int(x) for x in job["two_js"]]
    t0_j = int(job.get("t0", max(two_js)))
    labels = sorted(set(two_js + [t0_j]))
    grid = _shared_grid(desc for desc, _ in built.values()
                        if dict(desc.params).get("two_j") in labels)
    members = {tj: built_or_make_sphere(built, tj, grid) for tj in labels}
    fam = fl.ParamFamily(labels=labels, t0=t0_j, members=members,
                         name=f"sphere-family(max={t0_j})")
    bmaps = {tj: ex.berezin_maps(tj, grid) for tj in labels}
    rules = {tj: dq.berezin_transport_map(members[tj], members[t0_j], bmaps[tj], bmaps[t0_j])
             for tj in labels if tj != t0_j}
    chars = ex.sphere_characters(max(labels), grid_dims=grid)
    return fl.convergence_study(fam, t0_j, rules, bound_r=job.get("R"),
                                eps_net=eps_net, budget=budget, seed=seed,
                                characters=chars)


_FAMILY_STUDIES = {
    "degenerate": _degenerate_study,
    "torus_theta": _torus_theta_study,
    "constant": _constant_study,
    "sphere_convergence": _sphere_convergence_study,
}

_JOBS = {
    "example": _example_job,
    "radius": _radius_job,
    "mult": _mult_job,
    "dist": _dist_job,
    "audit": _audit_job,
    "family": lambda job, *rest: _FAMILY_STUDIES[job["type"]](job, *rest),
    "embed": _embed_job,
}


def _run_job(job: dict, built: dict, defaults: dict) -> dict:
    return _JOBS[job["kind"]](job, built, int(job.get("seed", defaults["seed"])),
                              float(job.get("eps_net", defaults["eps_net"])),
                              int(job.get("budget", defaults["budget"])))


def built_or_make_sphere(built: dict, two_j: int, grid: tuple):
    """The declared sphere at ``two_j``, else a new one on ``grid`` (the
    grid every declared member shares, see ``_shared_grid``)."""
    for desc, cq in built.values():
        if desc.family == "sphere" and dict(desc.params).get("two_j") == two_j:
            return cq
    return ex.fuzzy_sphere(two_j, grid_dims=grid)


# ---------------------------------------------------------------------------
# scenario runner


def environment_stamp(doc: dict) -> dict:
    return {
        "package": "cqmlab", "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": doc.get("seed"),
        "qgh_threads": os.environ.get("QGH_THREADS"),
    }


def run_scenario(doc: dict) -> tuple[dict, int]:
    """Execute jobs in declaration order; per-job failures are recorded,
    not fatal.  Returns (report, exit_code)."""
    validate_scenario(doc)
    defaults = {
        "seed": int(doc.get("seed", 0)),
        "eps_net": float(doc.get("eps_net", 0.3)),
        "budget": int(doc.get("budget", 48)),
    }
    built = _build_examples(doc)
    jobs_out = []
    audit_failed = False
    for i, job in enumerate(doc.get("jobs", [])):
        name = job.get("name", f"job{i:02d}_{job['kind']}")
        entry = {"name": name, "kind": job["kind"]}
        try:
            result = _run_job(job, built, defaults)
            entry["status"] = "ok"
            entry["result"] = result
            audit = result.get("audit") if isinstance(result, dict) else None
            if audit is not None and not audit.get("all_passed", True):
                audit_failed = True
        except Exception as exc:   # job failures are findings, not crashes
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        jobs_out.append(entry)
    report = {
        "environment": environment_stamp(doc),
        "config": {k: doc.get(k) for k in ("seed", "eps_net", "budget", "audit_policy")},
        "jobs": jobs_out,
    }
    policy = doc.get("audit_policy", "fail")
    code = 3 if (audit_failed and policy == "fail") else 0
    return report, code


def write_report(report: dict, out_dir, fmt: str = "json") -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    target = out / "report.json"
    target.write_text(render_json(report))
    paths.append(target)
    if fmt == "csv":
        for fname, text in render_csv_tables(report).items():
            p = out / fname
            p.write_text(text)
            paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# argument parsing


def _parse_example_arg(arg: str) -> dict:
    """cycle:m=12 | torus:q=3,p=1 | sphere:two_j=2,grid=12x12x12"""
    try:
        family, _, rest = arg.partition(":")
        fields = {}
        if rest:
            for part in rest.split(","):
                k, _, v = part.partition("=")
                fields[k] = v if "x" in v else int(v)
        return {"name": arg, "family": family, **fields}
    except ValueError as exc:
        raise ScenarioError(f"cannot parse example descriptor {arg!r}") from exc


def _single_job_doc(args, example_specs, job) -> dict:
    return {
        "seed": args.seed,
        "eps_net": args.eps_net,
        "budget": args.budget,
        "audit_policy": "warn" if args.audit_warn_only else "fail",
        "examples": example_specs,
        "jobs": [job],
    }


def _flag_parser(defaults: bool) -> argparse.ArgumentParser:
    """The flags every command takes, before or after the command name.  The
    copy after the name has no defaults (``SUPPRESS``), so that it never
    overwrites a value given before the name."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=default(0))
    p.add_argument("--eps-net", dest="eps_net", type=float, default=default(0.3))
    p.add_argument("--budget", type=int, default=default(48))
    p.add_argument("--grid", default=default(None),
                   help="SU(2) grid override, e.g. 12x12x12")
    p.add_argument("--out", default=default("reports"))
    p.add_argument("--format", choices=("json", "csv"), default=default("json"))
    p.add_argument("--audit-warn-only", action="store_true", default=default(False))
    return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqmlab", parents=[_flag_parser(True)],
        description="quantum metric space laboratory: certified distance "
                    "bounds, radii, multiplicities, family studies")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = [_flag_parser(False)]

    p = sub.add_parser("example", parents=flags, help="construct an example, report its shape")
    p.add_argument("descriptor")
    p = sub.add_parser("radius", parents=flags, help="radius estimate and its quadrature bound")
    p.add_argument("descriptor")
    p.add_argument("--diameter", action="store_true")
    p = sub.add_parser("mult", parents=flags, help="multiplicity table of an example")
    p.add_argument("descriptor")
    p = sub.add_parser("dist", parents=flags, help="distance bounds for a pair")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--phi", default="identity",
                   choices=sorted(_PHI))
    p.add_argument("--R", type=float, default=None)
    p = sub.add_parser("audit", parents=flags, help="full bound set + consistency audit")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--phi", default="identity", choices=sorted(_PHI))
    p = sub.add_parser("family", parents=flags, help="family study from an inline spec")
    p.add_argument("spec", help="JSON object for the family job")
    p = sub.add_parser("run", parents=flags, help="run a scenario file")
    p.add_argument("scenario")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            doc = load_scenario(args.scenario)
        else:
            if args.command in ("example", "radius", "mult"):
                spec = _parse_example_arg(args.descriptor)
                if args.grid and spec["family"] == "sphere":
                    spec["grid"] = args.grid
                job = {"kind": args.command, "example": spec["name"]}
                if args.command == "radius" and args.diameter:
                    job["diameter"] = True
                doc = _single_job_doc(args, [spec], job)
            elif args.command in ("dist", "audit"):
                sa, sb = _parse_example_arg(args.a), _parse_example_arg(args.b)
                job = {"kind": args.command, "a": sa["name"], "b": sb["name"],
                       "phi": args.phi}
                if args.command == "dist" and args.R is not None:
                    job["R"] = args.R
                doc = _single_job_doc(args, [sa, sb], job)
            else:   # family
                try:
                    job = json.loads(args.spec)
                except json.JSONDecodeError as exc:
                    raise ScenarioError(f"family spec is not valid JSON: {exc}")
                if not isinstance(job, dict):
                    raise ScenarioError("family spec must be a JSON object")
                job["kind"] = "family"
                doc = _single_job_doc(args, [], job)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    try:
        report, code = run_scenario(doc)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    paths = write_report(report, args.out, args.format)
    for p in paths:
        print(p)
    return code


if __name__ == "__main__":
    sys.exit(main())
