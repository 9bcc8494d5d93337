"""Batch frontend: scenario files in, machine-readable reports out.

A scenario is a JSON document naming example constructions and a list
of jobs (radius, multiplicity table, distance bounds, audits, family
studies).  Runs are deterministic for a fixed seed and platform; the
report serializer sorts keys and formats every float as %.9e, so a
repeated run produces byte-identical output.

Each field of a scenario is declared once, as a ``(type, default, range)``
row of a field table: ``SETTINGS`` for the run-wide settings, ``_JOBS``
and ``_FAMILY_STUDIES`` for each job kind and study type (as ``(runner,
fields)``), and ``examples.FAMILIES`` for each example family.
``validate_scenario`` checks every object before any job runs, and each
runner takes its checked job, with every default filled in.

Exit codes: 0 on success, 2 on scenario parse/validation errors, 3 when
an audit fails and the policy is "fail" (the default; "warn" downgrades).
``QGH_THREADS`` caps the linear-algebra thread pools (applied when the
package is imported; unset, they default to one thread) and is echoed in
the environment stamp.
"""

import argparse
import json
import os
import platform
import sys
from contextlib import contextmanager
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
        return format(float(obj), ".9e") if np.isfinite(obj) else "null"
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
    family job's multiplicity profile (columns t and the characters)."""
    tables = {}
    for job in report.get("jobs", []):
        res = job.get("result") or {}
        rows = res.get("rows")
        if rows:
            lines = ["t,upper,lower,slack"] + [
                ",".join([str(r["t"])] + [format(r[k], ".9e")
                                          for k in ("upper", "lower", "slack")])
                for r in rows]
            tables[f"{job['name']}_trend.csv"] = "\n".join(lines) + "\n"
        mult = (res.get("multiplicity") or {}).get("table")
        if mult:
            chars = sorted({c for row in mult.values() for c in row})
            lines = ["t," + ",".join(chars)] + [
                f"{t}," + ",".join(str(mult[t][c]) for c in chars) for t in sorted(mult, key=str)]
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


@contextmanager
def _at(where: str):
    """Raise a ValueError from inside as a ScenarioError located at ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"{where}{exc}") from None


def validate_scenario(doc: dict) -> dict:
    """The scenario checked against its field tables: the run-wide settings,
    ``examples`` as descriptors by name, and ``jobs`` with every default
    filled in (a job's ``seed``, ``budget`` and ``eps_net`` are the run's
    unless it sets them).  A ScenarioError names the first bad object and
    field."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario root must be an object")
    if "seed" not in doc:
        raise ScenarioError("scenario requires an explicit 'seed'")
    with _at(""):
        run = ex.check_fields(_SCENARIO, doc)
    examples, jobs = {}, []
    for i, spec in enumerate(run["examples"]):
        with _at(f"examples[{i}]: "):
            if not isinstance(spec, dict):
                raise ValueError("must be an object")
            name = spec.get("name")
            if not isinstance(name, str):
                raise ValueError(f"'name' must be a string, got {name!r}")
            desc = ex.ExampleDescriptor.make(spec.get("family"), **{
                k: v for k, v in spec.items() if k not in ("name", "family")})
            desc.checked()
            if name in examples:
                raise ValueError(f"duplicate name {name!r}")
            examples[name] = desc
    for i, spec in enumerate(run["jobs"]):
        with _at(f"jobs[{i}]: "):
            if not isinstance(spec, dict):
                raise ValueError("must be an object")
            fields = {**_JOB, **ex.lookup(_JOBS, "kind", spec.get("kind"))[1]}
            if spec["kind"] == "family":
                fields.update(ex.lookup(_FAMILY_STUDIES, "family type", spec.get("type"))[1])
            job = ex.check_fields(fields, {"name": f"job{i:02d}_{spec['kind']}",
                                           **{k: run[k] for k in _JOB if k in run}, **spec})
            for key, (kind, _, _) in fields.items():
                if kind is _REF and job[key] not in examples:
                    raise ValueError(f"reference {job[key]!r} does not name a declared example")
            if job["name"] in {other["name"] for other in jobs}:
                raise ValueError(f"duplicate name {job['name']!r}")
            jobs.append(job)
    return {**run, "examples": examples, "jobs": jobs}


def _unconverged(a, b) -> dict:
    """Each space's count of unconverged support-solve stages so far (a
    space's count runs over every job of the scenario that uses it)."""
    return {"a": a.unconverged_stages, "b": b.unconverged_stages}


def _shared_grid(descs) -> tuple:
    """The one SU(2) grid the spheres among ``descs`` are declared on (the
    default grid when there are none): the members a sphere study builds,
    and the characters of its family, must share their sample."""
    grids = {desc.checked()["grid"] for desc in descs if desc.family == "sphere"}
    if len(grids) > 1:
        raise ScenarioError(f"spheres compared here are declared on different "
                            f"SU(2) grids: {sorted(grids)}")
    return grids.pop() if grids else ex.DEFAULT_SU2_GRID


# comparison maps of dist and audit jobs: rule -> the built spaces A and B
# -> ComparisonMap
_PHI = {
    "identity": lambda a, b: dq.identity_map(a),
    "cycle_refine": dq.cycle_refinement_map,
    "torus_freq": dq.torus_frequency_map,
    "berezin": dq.berezin_transport_map,
}


def _pair(job, built) -> tuple:
    """A dist or audit job's two spaces and the comparison map of its rule."""
    a, b = built[job["a"]][1], built[job["b"]][1]
    return a, b, _PHI[job["phi"]](a, b)


# ---------------------------------------------------------------------------
# job runners: each takes (checked job, built examples)


def _example_job(job, built) -> dict:
    desc, cq = built[job["example"]]
    return {
        "descriptor": desc.as_dict(), "dim": cq.dim,
        "real_dim": cq.space.real_dim, "group_size": cq.action.group.size,
        "group": cq.action.group.descriptor,
        "seminorm_kernel_size": int(cq.action.seminorm_kernel()[0].size),
        "ergodic": ga.ergodicity_check(cq.action, cq.space.ortho),
    }


def _radius_job(job, built) -> dict:
    _, cq = built[job["example"]]
    # the diameter's ascent can raise the radius, so it runs first: the job
    # then reports r = diam / 2 exactly
    diam = cq.state_diameter(job["sample"], job["seed"]) if job["diameter"] else None
    value = cq.radius()
    bound = cq.action.group.haar_mean_length()
    out = {"radius": value, "method": cq.radius_method(),
           "length_mean_bound": bound, "within_bound": bool(value <= bound + 1e-6)}
    if diam is not None:
        out["state_diameter"] = diam
    out["unconverged_stages"] = cq.unconverged_stages
    return out


def _mult_job(job, built) -> dict:
    desc, cq = built[job["example"]]
    chars = desc.characters()
    pairs = ga.multiplicities(cq.action, chars, cq.space.ortho, job["integer_tol"])
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


def _dist_job(job, built) -> dict:
    a, b, phi = _pair(job, built)
    upper = dq.dist_oq_upper(a, b, phi, job["R"], job["eps_net"], job["budget"], job["seed"])
    lower = dq.dist_oq_lower(a, b)
    return {"upper": upper.as_dict(), "lower": lower.as_dict(),
            "unconverged_stages": _unconverged(a, b)}


def _audit_job(job, built) -> dict:
    a, b, phi = _pair(job, built)
    reports, record = dq.audit_pair(a, b, phi, job["eps_net"], job["budget"], job["seed"])
    return {"reports": {k: v.as_dict() for k, v in reports.items()},
            "audit": record.as_dict(), "unconverged_stages": _unconverged(a, b)}


def _embed_job(job, built) -> dict:
    from . import finmetric as fm
    space = fm.circle_space(job["points"])
    rng = np.random.default_rng(job["seed"])
    fns = [fm.random_lipschitz_function(space, rng, job["bound"])
           for _ in range(job["functions"])]
    rep = fm.universal_embed([space], job["bound"], job["depth"], [fns])
    return {
        "depth": job["depth"], "cover_sizes": rep.cover_sizes,
        "max_distortion": rep.max_distortion,
        "distortion_bound": rep.distortion_bound, "z_ok": rep.z_ok,
        "nets_ok": all(all(e.net_ok) for e in rep.per_space),
        "edges_ok": all(e.edges_ok for e in rep.per_space),
    }


# ---------------------------------------------------------------------------
# family studies: the runners of family jobs, by their "type"; a study's
# ball radius R defaults (None) to one from its members' radii


def _degenerate_study(job, built) -> dict:
    desc, ref = built[job["reference"]]
    bound_r = job["R"] or max(ref.radius(), 1.0)
    fam, sections = fl.degenerate_family(ref, bound_r=bound_r)
    return fl.family_agreement(fam, sections, job["eps"], bound_r, desc.characters(),
                               budget=job["budget"], seed=job["seed"])


def _net_section_study(job, built) -> dict:
    """The torus_theta and constant studies, which differ only in their
    family and character table: sections transported from the t0 member's
    ball net."""
    if job["type"] == "torus_theta":
        fam, chars = fl.torus_theta_family(job["q"], job["ps"]), ga.torus_characters(job["q"], 2)
    else:
        desc, member = built[job["example"]]
        fam, chars = fl.constant_family(member, job["labels"]), desc.characters()
    bound_r = job["R"] or max(m.radius() for m in fam.members.values())
    sections = fl.transported_net_sections(fam, bound_r, job["eps_net"],
                                           budget=job["budget"], seed=job["seed"])
    return fl.family_agreement(fam, sections, job["eps"], bound_r, chars,
                               budget=job["budget"], seed=job["seed"])


def _sphere_convergence_study(job, built) -> dict:
    t0_j = job["t0"] or max(job["two_js"])
    labels = sorted(set(job["two_js"] + [t0_j]))
    # the first declared sphere of each level, else a new one on the grid
    # that the declared ones share
    declared = [(desc, cq) for desc, cq in built.values()
                if desc.family == "sphere" and desc.checked()["two_j"] in labels]
    grid = _shared_grid(desc for desc, _ in declared)
    found = {desc.checked()["two_j"]: cq for desc, cq in reversed(declared)}
    members = {tj: found[tj] if tj in found else ex.fuzzy_sphere(tj, grid_dims=grid)
               for tj in labels}
    fam = fl.ParamFamily(labels=labels, t0=t0_j, members=members,
                         name=f"sphere-family(max={t0_j})")
    rules = {tj: dq.berezin_transport_map(members[tj], members[t0_j])
             for tj in labels if tj != t0_j}
    chars = ex.sphere_characters(max(labels), grid_dims=grid)
    return fl.convergence_study(fam, rules, bound_r=job["R"], eps_net=job["eps_net"],
                                budget=job["budget"], seed=job["seed"], characters=chars)


# ---------------------------------------------------------------------------
# field tables: each scenario field is a (type, default, range) row, checked
# by ``ex.check_fields`` (``...``: no default, the field must be given)

_LIST = ex.field_type("a list", lambda v: isinstance(v, list))
# a job's name names its CSV tables, so it must not leave the output folder
_STEM = ex.field_type("a file-name stem", lambda v: isinstance(v, str)
                      and v not in (".", "..") and not {"/", "\\"} & set(v))
_REF = ex.field_type("the name of an example", lambda v: isinstance(v, str))

# the run-wide settings; a job may set seed, budget and eps_net for itself.
# Fields that size arrays are capped, so too large a value exits 2, not OOM
SETTINGS = {
    "seed": (ex.integer, 0, (0, None)),
    "budget": (ex.integer, 48, (1, 4096)),
    "eps_net": (ex.number, 0.3, None),
    "audit_policy": (ex.one_of("fail", "warn"), "fail", None),
}
_SCENARIO = {**SETTINGS, "examples": (_LIST, [], None), "jobs": (_LIST, [], None)}

# the fields of every job; a job's name defaults to job<index>_<kind>
_JOB = {"kind": (ex.text, ..., None), "name": (_STEM, ..., None),
        **{k: SETTINGS[k] for k in ("seed", "budget", "eps_net")}}

_EXAMPLE = (_REF, ..., None)
_R = (ex.number, None, None)
_EPS = (ex.number, 0.5, None)
_SPHERE_LEVELS = ex.FAMILIES["sphere"].fields["two_j"][2]

# family study type -> (runner, its fields)
_FAMILY_STUDIES = {
    "degenerate": (_degenerate_study, {"reference": _EXAMPLE, "R": _R, "eps": _EPS}),
    "torus_theta": (_net_section_study, {"q": ex.FAMILIES["torus"].fields["q"],
                                         "ps": (ex.integers, ..., None), "R": _R, "eps": _EPS}),
    "constant": (_net_section_study, {"example": _EXAMPLE,
                                      "labels": (ex.integers, [0, 1, 2], None),
                                      "R": _R, "eps": _EPS}),
    "sphere_convergence": (_sphere_convergence_study, {
        "two_js": (ex.integers, ..., _SPHERE_LEVELS), "t0": (ex.integer, None, _SPHERE_LEVELS),
        "R": _R}),
}

_PAIR = {"a": _EXAMPLE, "b": _EXAMPLE, "phi": (ex.one_of(*_PHI), "identity", None)}

# job kind -> (runner, its fields besides those of every job)
_JOBS = {
    "example": (_example_job, {"example": _EXAMPLE}),
    "radius": (_radius_job, {"example": _EXAMPLE, "diameter": (ex.boolean, False, None),
                             "sample": (ex.integer, 16, (1, 256))}),
    "mult": (_mult_job, {"example": _EXAMPLE,
                         "integer_tol": (ex.number, ga.DEFAULT_INTEGER_TOL, None)}),
    "dist": (_dist_job, {**_PAIR, "R": _R}),
    "audit": (_audit_job, _PAIR),
    "family": (lambda job, built: _FAMILY_STUDIES[job["type"]][0](job, built),
               {"type": (ex.text, ..., None)}),
    "embed": (_embed_job, {"points": (ex.integer, 30, (1, 128)),
                           "depth": (ex.integer, 6, (1, None)), "bound": (ex.number, 1.0, None),
                           "functions": (ex.integer, 20, (0, None))}),
}


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
    run = validate_scenario(doc)
    built = {}
    for i, (name, desc) in enumerate(run["examples"].items()):
        with _at(f"examples[{i}]: "):
            built[name] = (desc, desc.build())
    jobs_out = []
    audit_failed = False
    for job in run["jobs"]:
        entry = {"name": job["name"], "kind": job["kind"]}
        try:
            entry.update(status="ok", result=_JOBS[job["kind"]][0](job, built))
            audit_failed |= not entry["result"].get("audit", {}).get("all_passed", True)
        except Exception as exc:   # job failures are findings, not crashes
            entry.update(status="error", error=f"{type(exc).__name__}: {exc}")
        jobs_out.append(entry)
    # the config block echoes the settings as given, not their defaults
    report = {"environment": environment_stamp(doc), "jobs": jobs_out,
              "config": {k: doc.get(k) for k in SETTINGS}}
    return report, 3 if (audit_failed and run["audit_policy"] == "fail") else 0


def write_report(report: dict, out_dir, fmt: str = "json") -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {"report.json": render_json(report),
             **(render_csv_tables(report) if fmt == "csv" else {})}
    for name, text in texts.items():
        (out / name).write_text(text)
    return [out / name for name in texts]


# ---------------------------------------------------------------------------
# argument parsing


def _parse_example_arg(arg: str, grid) -> dict:
    """cycle:m=12 | torus:q=3,p=1 | sphere:two_j=2,grid=12x12x12, named by
    ``arg`` itself; ``grid`` (the --grid flag), when set, is a sphere's grid."""
    family, _, rest = arg.partition(":")
    try:
        pairs = [part.partition("=") for part in rest.split(",")] if rest else []
        fields = {k: v if "x" in v else int(v) for k, _, v in pairs}
    except ValueError as exc:
        raise ScenarioError(f"cannot parse example descriptor {arg!r}") from exc
    if grid and family == "sphere":
        fields["grid"] = grid
    return {"name": arg, "family": family, **fields}


def _flag_parser(defaults: bool) -> argparse.ArgumentParser:
    """The flags every command takes, before or after the command name.  The
    copy after the name has no defaults (``SUPPRESS``), so that it never
    overwrites a value given before the name."""
    def default(value):
        return value if defaults else argparse.SUPPRESS

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=default(SETTINGS["seed"][1]))
    p.add_argument("--eps-net", dest="eps_net", type=float,
                   default=default(SETTINGS["eps_net"][1]))
    p.add_argument("--budget", type=int, default=default(SETTINGS["budget"][1]))
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

    def command(name, summary, *positionals):
        # a job flag that is not given is left out of the job, whose field
        # table then fills in its default
        p = sub.add_parser(name, parents=[_flag_parser(False)], help=summary,
                           argument_default=argparse.SUPPRESS)
        for key in positionals:
            p.add_argument(key)
        return p

    command("example", "construct an example, report its shape", "example")
    command("radius", "radius estimate and its quadrature bound", "example").add_argument(
        "--diameter", action="store_true")
    command("mult", "multiplicity table of an example", "example")
    for name, summary in (("dist", "distance bounds for a pair"),
                          ("audit", "full bound set + consistency audit")):
        p = command(name, summary, "a", "b")
        p.add_argument("--phi", choices=sorted(_PHI))
        if name == "dist":
            p.add_argument("--R", type=float)
    command("family", "family study from an inline JSON object", "spec")
    command("run", "run a scenario file", "scenario")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            doc = load_scenario(args.scenario)
        else:   # a one-job scenario from the arguments
            specs = []
            if args.command == "family":
                try:
                    job = json.loads(args.spec)
                except json.JSONDecodeError as exc:
                    raise ScenarioError(f"family spec is not valid JSON: {exc}")
                if not isinstance(job, dict):
                    raise ScenarioError("family spec must be a JSON object")
            else:   # the job's own fields, each example named by its descriptor
                fields = _JOBS[args.command][1]
                job = {k: v for k, v in vars(args).items() if k in fields}
                specs = [_parse_example_arg(ref, args.grid) for ref in
                         dict.fromkeys(v for k, v in job.items() if fields[k][0] is _REF)]
            doc = {"seed": args.seed, "eps_net": args.eps_net, "budget": args.budget,
                   "audit_policy": ("warn" if args.audit_warn_only
                                    else SETTINGS["audit_policy"][1]),
                   "examples": specs, "jobs": [{**job, "kind": args.command}]}
        report, code = run_scenario(doc)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    for path in write_report(report, args.out, args.format):
        print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
