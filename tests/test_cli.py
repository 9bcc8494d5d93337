import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqmlab import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_doc(doc, tmp_path, fmt="json"):
    report, code = cli.run_scenario(doc)
    paths = cli.write_report(report, tmp_path, fmt)
    return report, code, paths


def test_empty_scenario(tmp_path):
    report, code, paths = run_doc({"seed": 0, "examples": [], "jobs": []}, tmp_path)
    assert code == 0
    assert report["jobs"] == []
    assert report["environment"]["seed"] == 0
    assert (tmp_path / "report.json").exists()


def test_missing_seed_rejected():
    with pytest.raises(cli.ScenarioError):
        cli.validate_scenario({"examples": [], "jobs": []})


def test_invalid_reference_diagnostic():
    doc = {"seed": 0, "examples": [{"name": "a", "family": "cycle", "m": 6}],
           "jobs": [{"kind": "radius", "example": "missing"}]}
    with pytest.raises(cli.ScenarioError) as err:
        cli.validate_scenario(doc)
    assert "missing" in str(err.value)


@pytest.mark.parametrize("doc,where", [
    ({"seed": 1, "jobs": [5]}, "jobs[0]"),
    ({"seed": 1, "examples": [3]}, "examples[0]"),
    ({"seed": 1, "examples": {"name": "c6", "family": "cycle"}}, "'examples'"),
    ({"seed": 1, "jobs": "radius"}, "'jobs'"),
], ids=["job-number", "example-number", "examples-object", "jobs-string"])
def test_non_object_entries_rejected(doc, where, tmp_path, capsys):
    # an entry of the wrong JSON type is a scenario error (exit 2) naming
    # its place, not a traceback
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(doc))
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(scenario)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("example,job,where", [
    ({"family": "cycle", "m": 100}, {"kind": "radius", "example": "e"}, "examples[0]"),
    ({"family": "cycle", "m": "x"}, {"kind": "radius", "example": "e"}, "examples[0]"),
    ({"family": "torus"}, {"kind": "radius", "example": "e"}, "examples[0]"),
    ({"family": "torus", "q": 4, "p": 2}, {"kind": "radius", "example": "e"}, "examples[0]"),
    ({"family": "sphere", "two_j": 1, "grid": "6x6"}, {"kind": "radius", "example": "e"},
     "examples[0]"),
    ({"family": "cycle", "m": 6}, {"kind": "family", "type": "ring"}, "jobs[0]"),
    ({"name": ["e"], "family": "cycle", "m": 6}, {"kind": "example", "example": "e"},
     "examples[0]"),
    ({"family": ["cycle"], "m": 6}, {"kind": "example", "example": "e"}, "examples[0]"),
    ({"family": "cycle", "m": 6}, {"kind": ["radius"], "example": "e"}, "jobs[0]"),
    ({"family": "cycle", "m": 6}, {"kind": "dist", "a": "e", "b": "e", "phi": ["identity"]},
     "jobs[0]"),
    ({"family": "cycle", "m": 6}, {"kind": "family", "type": {"degenerate": 1}}, "jobs[0]"),
    ({"family": "cycle", "m": 6}, {"kind": "radius", "example": ["e"]}, "jobs[0]"),
], ids=["m-out-of-range", "m-not-integer", "torus-without-q", "torus-not-coprime",
        "sphere-grid-two-dims", "unknown-family-type", "name-list", "family-list",
        "kind-list", "phi-list", "family-type-object", "reference-list"])
def test_bad_examples_and_family_types_exit_2(example, job, where, tmp_path, capsys):
    # a bad example parameter, or a job field that names no kind, rule, study
    # type or example (a JSON list or object included), is a scenario error
    # (exit 2) naming its place, not a traceback or a job error
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"seed": 1, "examples": [{"name": "e", **example}],
                                    "jobs": [job]}))
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(scenario)]) == 2
    assert where in capsys.readouterr().err


def test_example_seed_is_an_unknown_field(tmp_path, capsys):
    # no builder reads a seed, so an example that sets one is a scenario
    # error naming the field, not a setting that is silently dropped
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "seed": 1, "examples": [{"name": "c6", "family": "cycle", "m": 6, "seed": 3}],
        "jobs": [{"kind": "example", "example": "c6"}]}))
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert "examples[0]" in err and "'seed'" in err


@pytest.mark.parametrize("settings,job,where", [
    ({"seed": "x"}, {}, "'seed' must be an integer"),
    ({"seed": True}, {}, "'seed' must be an integer"),
    ({"budget": [3]}, {}, "'budget' must be an integer"),
    ({"budget": 2.5}, {}, "'budget' must be an integer"),
    ({"budget": 0}, {}, "'budget' must be at least 1"),
    ({"eps_net": 0}, {}, "'eps_net' must be a positive number"),
    ({"eps_net": "0.3"}, {}, "'eps_net' must be a positive number"),
    ({"eps_net": float("nan")}, {}, "'eps_net' must be a positive number"),
    ({}, {"seed": "x"}, "jobs[0]: 'seed' must be an integer"),
    ({}, {"budget": False}, "jobs[0]: 'budget' must be an integer"),
    ({}, {"budget": -4}, "jobs[0]: 'budget' must be at least 1"),
    ({}, {"eps_net": -0.3}, "jobs[0]: 'eps_net' must be a positive number"),
], ids=["seed-string", "seed-bool", "budget-list", "budget-float", "budget-zero",
        "eps-zero", "eps-string", "eps-nan", "job-seed-string", "job-budget-bool",
        "job-budget-negative", "job-eps-negative"])
def test_bad_run_settings_exit_2(settings, job, where, tmp_path, capsys):
    # a seed or budget that is not an integer (a boolean is not one), a budget
    # below 1, or an eps_net that is not a positive number, for the whole run
    # or for one job, is a scenario error (exit 2) naming its place, not a
    # traceback or a job error
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "seed": 1, **settings, "examples": [{"name": "c3", "family": "cycle", "m": 3}],
        "jobs": [{"kind": "radius", "example": "c3", **job}]}))
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(scenario)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--budget", "0"], ["--eps-net", "0"],
                                   ["--eps-net", "-0.5"], ["--eps-net", "inf"]])
def test_bad_run_setting_flags_exit_2(flags, tmp_path, capsys):
    # the common flags are the settings of a one-job scenario: a zero budget
    # would report a covering certificate from no probe at all
    code = cli.main(["--out", str(tmp_path), *flags, "dist", "torus:q=2,p=1",
                     "torus:q=3,p=1", "--phi", "torus_freq"])
    assert code == 2
    assert "scenario error" in capsys.readouterr().err


def test_bad_json_diagnostic(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"seed": 0,,}')
    with pytest.raises(cli.ScenarioError) as err:
        cli.load_scenario(p)
    assert "line" in str(err.value)


def test_small_scenario_and_roundtrip(tmp_path):
    doc = {
        "seed": 3, "eps_net": 0.4, "budget": 16,
        "examples": [{"name": "c6", "family": "cycle", "m": 6}],
        "jobs": [{"kind": "radius", "example": "c6"},
                 {"kind": "mult", "example": "c6"}],
    }
    report, code, paths = run_doc(doc, tmp_path)
    assert code == 0
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["jobs"][0]["result"]["within_bound"] is True
    assert parsed["jobs"][0]["result"]["method"] == "exact"
    assert parsed["jobs"][0]["result"]["unconverged_stages"] == 0
    assert set(parsed["jobs"][1]["result"]["table"].values()) == {1}
    # parse-back structural equality
    assert [j["name"] for j in parsed["jobs"]] == [j["name"] for j in report["jobs"]]


def test_pair_jobs_report_unconverged_stages(tmp_path, monkeypatch):
    # dist and audit jobs write both spaces' unconverged stage counts, as the
    # radius job does for its space: none at the default step cap, and with
    # a one-step cap each space's own count from its radius solves
    from cqmlab import cqms
    from cqmlab import examples as ex
    doc = {
        "seed": 1, "eps_net": 0.6, "budget": 8,
        "examples": [{"name": "t2", "family": "torus", "q": 2, "p": 1},
                     {"name": "t3", "family": "torus", "q": 3, "p": 1}],
        "jobs": [{"kind": "dist", "a": "t2", "b": "t3", "phi": "torus_freq"},
                 {"kind": "audit", "a": "t2", "b": "t3", "phi": "torus_freq"}],
    }

    def counts():
        report, _, _ = run_doc(doc, tmp_path)
        assert all(job["status"] == "ok" for job in report["jobs"])
        parsed = json.loads((tmp_path / "report.json").read_text())
        return [job["result"]["unconverged_stages"] for job in parsed["jobs"]]

    assert counts() == [{"a": 0, "b": 0}] * 2
    monkeypatch.setattr(cqms, "NEWTON_STEPS", 1)
    spaces = {"a": ex.fuzzy_torus(2, 1), "b": ex.fuzzy_torus(3, 1)}
    for space in spaces.values():
        space.radius()
    expected = {k: space.unconverged_stages for k, space in spaces.items()}
    assert expected["a"] != expected["b"]
    assert counts() == [expected] * 2


def test_render_byte_stability(tmp_path):
    doc = {
        "seed": 5, "eps_net": 0.4, "budget": 16,
        "examples": [{"name": "c6", "family": "cycle", "m": 6}],
        "jobs": [{"kind": "radius", "example": "c6", "diameter": True}],
    }
    report1, _, _ = run_doc(doc, tmp_path / "a")
    report2, _, _ = run_doc(doc, tmp_path / "b")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_job_error_recorded_not_fatal(tmp_path):
    doc = {
        "seed": 0,
        "examples": [{"name": "c6", "family": "cycle", "m": 6},
                     {"name": "c9", "family": "cycle", "m": 9}],
        "jobs": [{"kind": "dist", "a": "c6", "b": "c9", "phi": "cycle_refine"},
                 {"kind": "radius", "example": "c6"}],
    }
    report, code, _ = run_doc(doc, tmp_path)
    assert code == 0
    assert report["jobs"][0]["status"] == "error"      # 9 is not a multiple of 6
    assert "multiple" in report["jobs"][0]["error"]
    assert report["jobs"][1]["status"] == "ok"


def test_audit_exit_code(tmp_path, monkeypatch):
    # force an audit failure through a corrupted radius cache
    import cqmlab.distoq as dq

    def fake_audit(a, b, reports, tol=1e-9):
        rec = dq.AuditRecord(pair=("x", "y"),
                             checks=[dq.AuditCheck("forced", False, 1.0, 0.0)])
        return rec

    monkeypatch.setattr(dq, "audit_chain", fake_audit)
    doc = {
        "seed": 0, "eps_net": 0.5, "budget": 8,
        "examples": [{"name": "c6", "family": "cycle", "m": 6}],
        "jobs": [{"kind": "audit", "a": "c6", "b": "c6", "phi": "identity"}],
    }
    _, code, _ = run_doc(doc, tmp_path)
    assert code == 3
    doc["audit_policy"] = "warn"
    _, code, _ = run_doc(doc, tmp_path)
    assert code == 0


def test_bundled_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = cli.load_scenario(path)
        assert doc["seed"] is not None
        assert doc["jobs"]


def test_family_job_scenario(tmp_path):
    doc = {
        "seed": 1, "eps_net": 0.5, "budget": 16,
        "examples": [{"name": "t21", "family": "torus", "q": 2, "p": 1}],
        "jobs": [{"kind": "family", "type": "degenerate", "reference": "t21",
                  "eps": 0.4, "R": 1.0}],
    }
    report, code, _ = run_doc(doc, tmp_path)
    assert code == 0
    res = report["jobs"][0]["result"]
    assert res["agree"] is True
    assert res["criterion_iii_passed"] is False
    assert res["multiplicity_locally_constant"] is False


def test_sphere_grid_override(tmp_path):
    code = cli.main(["--seed", "0", "--out", str(tmp_path), "--grid", "6x6x6",
                     "example", "sphere:two_j=1"])
    assert code == 0
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert "6x6x6" in parsed["jobs"][0]["result"]["group"]


def test_sphere_mult_on_grid_override(tmp_path):
    # the characters of a sphere's multiplicity table sit on its own grid
    code = cli.main(["--seed", "0", "--out", str(tmp_path), "--grid", "6x6x6",
                     "mult", "sphere:two_j=1"])
    assert code == 0
    job = json.loads((tmp_path / "report.json").read_text())["jobs"][0]
    assert job["status"] == "ok", job.get("error")
    assert job["result"]["table"] == {"spin-0": 1, "spin-1": 1, "spin-2": 0}


def test_sphere_family_uses_declared_grid(tmp_path, monkeypatch):
    # every member, comparison map and character table of a sphere family
    # sits on the grid the scenario declares, not on the default grid
    from cqmlab import fields as fl
    seen = {}
    study = fl.convergence_study

    def spy(fam, t0, rules, **kwargs):
        seen["groups"] = {t: m.action.group.descriptor for t, m in fam.members.items()}
        seen["sizes"] = {len(ch.values) for ch in kwargs["characters"]}
        return study(fam, t0, rules, **kwargs)

    monkeypatch.setattr(fl, "convergence_study", spy)
    doc = {
        "seed": 0, "eps_net": 0.6, "budget": 8,
        "examples": [{"name": "s1", "family": "sphere", "two_j": 1, "grid": "6x6x6"}],
        "jobs": [{"kind": "family", "type": "sphere_convergence", "two_js": [1, 2]}],
    }
    report, code, _ = run_doc(doc, tmp_path)
    assert code == 0
    assert report["jobs"][0]["status"] == "ok", report["jobs"][0].get("error")
    assert sorted(seen["groups"]) == [1, 2]
    assert all("6x6x6" in g for g in seen["groups"].values())
    assert seen["sizes"] == {1 + 2 * 6 ** 3}
    doc["examples"].append({"name": "s2", "family": "sphere", "two_j": 2, "grid": "4x4x4"})
    report, _, _ = run_doc(doc, tmp_path)
    assert report["jobs"][0]["status"] == "error"
    assert "different SU(2) grids" in report["jobs"][0]["error"]


def test_berezin_map_uses_declared_grid(tmp_path, monkeypatch):
    # the Berezin symbols of a dist job sit on the grid its spheres are
    # declared on: a quadrature of that grid's size, the default grid never built
    from cqmlab import distoq as dq
    from cqmlab import examples as ex
    monkeypatch.setattr(ex, "_grid_cache", {})
    sizes = []
    transport = dq.berezin_transport_map

    def spy(a, b, maps_a, maps_b):
        sizes.extend(len(m.coherent) for m in (maps_a, maps_b))
        return transport(a, b, maps_a, maps_b)

    monkeypatch.setattr(dq, "berezin_transport_map", spy)
    doc = {
        "seed": 0, "eps_net": 0.6, "budget": 8,
        "examples": [{"name": "s1", "family": "sphere", "two_j": 1, "grid": "6x6x6"},
                     {"name": "s2", "family": "sphere", "two_j": 2, "grid": "6x6x6"}],
        "jobs": [{"kind": "dist", "a": "s1", "b": "s2", "phi": "berezin"}],
    }
    report, code, _ = run_doc(doc, tmp_path)
    assert code == 0
    assert report["jobs"][0]["status"] == "ok", report["jobs"][0].get("error")
    assert sizes == [1 + 2 * 6 ** 3] * 2
    assert list(ex._grid_cache) == [(6, 6, 6)]
    doc["examples"][1]["grid"] = "4x4x4"
    report, _, _ = run_doc(doc, tmp_path)
    assert report["jobs"][0]["status"] == "error"
    assert "different SU(2) grids" in report["jobs"][0]["error"]


def test_csv_trend_schema(tmp_path):
    report = {"jobs": [{"name": "fam", "kind": "family", "status": "ok",
                        "result": {"rows": [
                            {"t": 1, "upper": 0.5, "upper_certified": 0.7,
                             "lower": 0.1, "slack": 0.2, "degraded": False}]}}]}
    tables = cli.render_csv_tables(report)
    text = tables["fam_trend.csv"]
    assert text.splitlines()[0] == "t,upper,lower,slack"
    assert text.splitlines()[1].startswith("1,5.")


def test_main_cli_entry(tmp_path):
    code = cli.main(["--seed", "2", "--eps-net", "0.5", "--budget", "8",
                     "--out", str(tmp_path), "radius", "cycle:m=6"])
    assert code == 0
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["jobs"][0]["kind"] == "radius"


@pytest.mark.parametrize("command", ["dist", "audit"])
def test_identity_rule_needs_one_size(tmp_path, command):
    # the default identity rule maps A into itself: on spaces of different
    # sizes the job fails with an error that names the map and both sizes
    code = cli.main(["--budget", "8", "--out", str(tmp_path), command,
                     "cycle:m=6", "cycle:m=12"])
    assert code == 0
    job = json.loads((tmp_path / "report.json").read_text())["jobs"][0]
    assert job["status"] == "error"
    assert job["error"].startswith("ValueError: comparison map 'identity'")
    assert "6 x 6 and 12 x 12" in job["error"]


def test_main_flags_after_command(tmp_path):
    # the common flags work after the command name too (as the README's
    # `cqmlab run ... --out reports --format csv`), and a flag given before
    # the name is not reset by the command's copy of it
    scenario = tmp_path / "mini.json"
    scenario.write_text(json.dumps({
        "seed": 4, "examples": [{"name": "c6", "family": "cycle", "m": 6}],
        "jobs": [{"kind": "radius", "example": "c6"}]}))
    out = tmp_path / "run"
    assert cli.main(["run", str(scenario), "--out", str(out), "--format", "csv"]) == 0
    assert json.loads((out / "report.json").read_text())["jobs"][0]["status"] == "ok"
    out = tmp_path / "mixed"
    assert cli.main(["--budget", "8", "--out", str(out), "radius", "cycle:m=6",
                     "--seed", "2", "--audit-warn-only"]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert (config["budget"], config["seed"], config["audit_policy"]) == (8, 2, "warn")


def test_main_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = cli.main(["--out", str(tmp_path), "run", str(bad)])
    assert code == 2
    assert "scenario error" in capsys.readouterr().err


def test_qgh_threads_applied_before_numpy():
    # the BLAS reads its thread variables when numpy is first imported, so
    # importing cqmlab must set them before anything imports numpy
    code = ("import os, sys, cqmlab; "
            "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])")
    env = dict(os.environ, QGH_THREADS="1", OPENBLAS_NUM_THREADS="7")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "1"]


def test_blas_pools_default_to_one_thread():
    # without QGH_THREADS importing cqmlab caps the pools at one thread before
    # numpy loads, and an explicit setting still wins
    code = ("import os, sys, cqmlab; print('numpy' in sys.modules, *(os.environ[v] "
            "for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
    base = {k: v for k, v in os.environ.items()
            if k not in ("QGH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    for extra, want in (({}, ["1", "1", "1"]),
                        ({"OPENBLAS_NUM_THREADS": "2"}, ["1", "2", "1"])):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(base, **extra), timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False"] + want


def test_import_loads_no_scipy():
    # the CLI, dense radii and the SU(2) characters run on numpy alone; the
    # first diagonal support LP (a cycle state metric) loads scipy.optimize
    code = "\n".join([
        "import sys",
        "import cqmlab.cli",
        "from cqmlab import cqms, examples as ex",
        "ex.fuzzy_sphere(1).radius()",
        "ex.fuzzy_torus(3, 1).radius()",
        "ex.sphere_characters(1)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "ex.commutative_cycle(6).state_metric(cqms.dirac_state(6, 0), cqms.dirac_state(6, 2))",
        "print('scipy.optimize' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True"]


def test_subprocess_run_deterministic(tmp_path):
    # end-to-end through the executable with the BLAS capped at one and at
    # two threads: the jobs are byte-identical, the stamp echoes the cap
    # (the larger bundled regression scenario is exercised by the acceptance
    # suite; this one keeps the subprocess path fast)
    scenario = tmp_path / "mini.json"
    scenario.write_text(json.dumps({
        "seed": 4, "eps_net": 0.5, "budget": 8,
        "examples": [{"name": "c6", "family": "cycle", "m": 6}],
        "jobs": [{"kind": "radius", "example": "c6"},
                 {"kind": "embed", "points": 12, "depth": 3, "functions": 4}],
    }))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        res = subprocess.run(
            [sys.executable, "-m", "cqmlab.cli", "--out", str(out),
             "run", str(scenario)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, QGH_THREADS=threads))
        assert res.returncode == 0, res.stderr
        data = (out / "report.json").read_bytes()
        assert json.loads(data)["environment"]["qgh_threads"] == threads
        outs.append(data[data.index(b'"jobs":'):])
    assert outs[0] == outs[1]
