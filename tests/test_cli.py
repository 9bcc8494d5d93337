import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cqmlab import cli
from cqmlab import examples as ex
from cqmlab import group_action as ga

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
    ({"family": "torus", "q": 3.9}, {"kind": "example", "example": "e"}, "examples[0]: 'q'"),
    ({"family": "cycle", "m": "6"}, {"kind": "example", "example": "e"}, "examples[0]: 'm'"),
    ({"family": "torus", "q": 3, "p": True}, {"kind": "example", "example": "e"},
     "examples[0]: 'p'"),
], ids=["m-out-of-range", "m-not-integer", "torus-without-q", "torus-not-coprime",
        "sphere-grid-two-dims", "unknown-family-type", "name-list", "family-list",
        "kind-list", "phi-list", "family-type-object", "reference-list", "q-float",
        "m-string", "p-bool"])
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
    ({"budget": 0}, {}, "'budget' must be in [1, 4096]"),
    ({"eps_net": 0}, {}, "'eps_net' must be a positive number"),
    ({"eps_net": "0.3"}, {}, "'eps_net' must be a positive number"),
    ({"eps_net": float("nan")}, {}, "'eps_net' must be a positive number"),
    ({}, {"seed": "x"}, "jobs[0]: 'seed' must be an integer"),
    ({}, {"budget": False}, "jobs[0]: 'budget' must be an integer"),
    ({}, {"budget": -4}, "jobs[0]: 'budget' must be in [1, 4096]"),
    ({}, {"eps_net": -0.3}, "jobs[0]: 'eps_net' must be a positive number"),
    ({"audit_policy": "fial"}, {}, "'audit_policy' must be one of ['fail', 'warn']"),
    ({"audit_policy": 5}, {}, "'audit_policy' must be one of ['fail', 'warn']"),
], ids=["seed-string", "seed-bool", "budget-list", "budget-float", "budget-zero",
        "eps-zero", "eps-string", "eps-nan", "job-seed-string", "job-budget-bool",
        "job-budget-negative", "job-eps-negative", "policy-typo", "policy-number"])
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


@pytest.mark.parametrize("settings,example,job,where", [
    ({}, {"grid": "4097x1x1"}, {"kind": "example", "example": "e"},
     "examples[0]: 'grid' must be three positive integers like 12x12x12 with at most 4096"),
    ({}, {"grid": "400x400x400"}, {"kind": "example", "example": "e"},
     "examples[0]: 'grid' must be three positive integers like 12x12x12 with at most 4096"),
    ({}, {}, {"kind": "embed", "points": 129}, "jobs[0]: 'points' must be in [1, 128]"),
    ({}, {}, {"kind": "radius", "example": "e", "diameter": True, "sample": 257},
     "jobs[0]: 'sample' must be in [1, 256]"),
    ({"budget": 4097}, {}, {"kind": "example", "example": "e"}, "'budget' must be in [1, 4096]"),
    ({}, {}, {"kind": "audit", "a": "e", "b": "e", "budget": 4097},
     "jobs[0]: 'budget' must be in [1, 4096]"),
], ids=["grid-4097-nodes", "grid-400-cubed", "points-129", "sample-257", "budget-4097",
        "job-budget-4097"])
def test_oversized_fields_exit_2_before_building(settings, example, job, where, tmp_path,
                                                 capsys, monkeypatch):
    # a field that sizes the run's arrays, one past its cap, is a scenario
    # error (exit 2) found by validation alone: no grid, example or job runs
    def refuse(*args, **kwargs):
        raise AssertionError("built before the scenario was validated")

    monkeypatch.setattr(ga, "su2_euler_grid", refuse)
    monkeypatch.setattr(ex.ExampleDescriptor, "build", refuse)
    monkeypatch.setattr(cli, "_JOBS", {k: (refuse, f) for k, (_, f) in cli._JOBS.items()})
    scenario = tmp_path / "big.json"
    scenario.write_text(json.dumps({
        "seed": 1, **settings,
        "examples": [{"name": "e", "family": "sphere", "two_j": 1, **example}],
        "jobs": [job]}))
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(scenario)]) == 2
    assert where in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_size_caps_admit_their_limit():
    # each capped field validates at its cap
    run = cli.validate_scenario({
        "seed": 1, "budget": 4096,
        "examples": [{"name": "e", "family": "sphere", "two_j": 1, "grid": "16x16x16"}],
        "jobs": [{"kind": "embed", "points": 128},
                 {"kind": "radius", "example": "e", "diameter": True, "sample": 256}]})
    assert run["examples"]["e"].checked()["grid"] == (16, 16, 16)
    assert [job["budget"] for job in run["jobs"]] == [4096, 4096]
    assert (run["jobs"][0]["points"], run["jobs"][1]["sample"]) == (128, 256)


@pytest.mark.parametrize("settings,job,where", [
    ({}, {"kind": "radius", "example": "c3", "sampel": 4}, "jobs[0]: unknown fields ['sampel']"),
    ({"budgt": 8}, {"kind": "radius", "example": "c3"}, "unknown fields ['budgt']"),
    ({}, {"kind": "radius", "example": "c3", "sample": "x"},
     "jobs[0]: 'sample' must be an integer"),
    ({}, {"kind": "radius", "example": "c3", "diameter": "yes"},
     "jobs[0]: 'diameter' must be true or false"),
    ({}, {"kind": "radius"}, "jobs[0]: missing 'example'"),
    ({}, {"kind": "embed", "points": "x"}, "jobs[0]: 'points' must be an integer"),
    ({}, {"kind": "embed", "depth": 0}, "jobs[0]: 'depth' must be at least 1"),
    ({}, {"kind": "mult", "example": "c3", "integer_tol": "big"},
     "jobs[0]: 'integer_tol' must be a positive number"),
    ({}, {"kind": "dist", "a": "c3", "b": "c3", "R": -1}, "jobs[0]: 'R' must be a positive number"),
    ({}, {"kind": "dist", "a": "c3", "b": "c3", "phi": "identiy"}, "jobs[0]: 'phi' must be one of"),
    ({}, {"kind": "audit", "a": "c3", "b": "c3", "budget": 4, "audit_policy": "warn"},
     "jobs[0]: unknown fields ['audit_policy']"),
], ids=["job-unknown-key", "top-unknown-key", "sample-string", "diameter-string",
        "example-missing", "points-string", "depth-zero", "integer-tol-string", "R-negative",
        "phi-typo", "job-audit-policy"])
def test_bad_job_fields_exit_2(settings, job, where, tmp_path, capsys):
    # every field of a scenario is checked against its table before any job
    # runs: an unknown key at any level, or a mistyped, missing or
    # out-of-range field, is a scenario error (exit 2) naming the object and
    # the field, not a setting that is ignored or a job error
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "seed": 1, **settings, "examples": [{"name": "c3", "family": "cycle", "m": 3}],
        "jobs": [job]}))
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(scenario)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("examples,jobs,where", [
    ([], [{"kind": "family", "type": "constant", "example": "c3", "name": "../escaped"}],
     "jobs[0]: 'name' must be a file-name stem"),
    ([], [{"kind": "example", "example": "c3", "name": "sub\\escaped"}],
     "jobs[0]: 'name' must be a file-name stem"),
    ([], [{"kind": "example", "example": "c3", "name": "."}],
     "jobs[0]: 'name' must be a file-name stem"),
    ([], [{"kind": "example", "example": "c3", "name": ".."}],
     "jobs[0]: 'name' must be a file-name stem"),
    ([], [{"kind": "example", "example": "c3", "name": 7}],
     "jobs[0]: 'name' must be a file-name stem"),
    ([], [{"kind": "example", "example": "c3", "name": "twice"},
          {"kind": "radius", "example": "c3", "name": "twice"}], "jobs[1]: duplicate name 'twice'"),
    ([], [{"kind": "example", "example": "c3"},
          {"kind": "radius", "example": "c3", "name": "job00_example"}],
     "jobs[1]: duplicate name 'job00_example'"),
    ([{"name": "c3", "family": "cycle", "m": 6}], [{"kind": "example", "example": "c3"}],
     "examples[1]: duplicate name 'c3'"),
], ids=["name-parent", "name-backslash", "name-dot", "name-dotdot", "name-number",
        "job-names-repeat", "name-repeats-default", "example-names-repeat"])
def test_bad_names_exit_2(examples, jobs, where, tmp_path, capsys):
    # a job's name names its CSV tables, so it is a file-name stem that no
    # other job has; two examples of one name would leave every job on the
    # second.  Either is a scenario error (exit 2), and nothing is written
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({
        "seed": 1, "examples": [{"name": "c3", "family": "cycle", "m": 3}, *examples],
        "jobs": jobs}))
    code = cli.main(["--out", str(tmp_path / "out"), "--format", "csv", "run", str(scenario)])
    assert code == 2
    assert where in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("job,where", [
    ({"type": "torus_theta", "q": 13, "ps": [1]}, "'q' must be in [2, 12], got 13"),
    ({"type": "torus_theta", "q": 3, "ps": "12"}, "'ps' must be a non-empty list of integers"),
    ({"type": "torus_theta", "q": 3, "ps": []}, "'ps' must be a non-empty list of integers"),
    ({"type": "torus_theta", "q": 3, "ps": [1, 2.0]}, "'ps' must be a non-empty list"),
    ({"type": "sphere_convergence", "two_js": "12"}, "'two_js' must be a non-empty list"),
    ({"type": "sphere_convergence", "two_js": [1, 9]}, "'two_js' must be in [1, 8], got [1, 9]"),
    ({"type": "sphere_convergence", "two_js": [1, 2], "t0": 0}, "'t0' must be in [1, 8]"),
    ({"type": "constant", "example": "c3", "labels": [0, "1"]}, "'labels' must be a non-empty"),
    ({"type": "constant", "example": "c3", "eps": 0}, "'eps' must be a positive number"),
    ({"type": "degenerate", "reference": "c3", "R": "big"}, "'R' must be a positive number"),
    ({"type": "degenerate", "reference": "c3", "eps_net": 0.5, "q": 3}, "unknown fields ['q']"),
], ids=["q-above-range", "ps-string", "ps-empty", "ps-float", "two-js-string",
        "two-js-above-range", "t0-below-range", "labels-string", "eps-zero", "R-string",
        "study-unknown-key"])
def test_bad_family_study_fields(job, where):
    # a family study's fields are checked with the job, before anything is
    # built: its levels take the ranges of their example family's table
    doc = {"seed": 1, "examples": [{"name": "c3", "family": "cycle", "m": 3}],
           "jobs": [{"kind": "family", **job}]}
    with pytest.raises(cli.ScenarioError) as err:
        cli.validate_scenario(doc)
    assert f"jobs[0]: {where}" in str(err.value)


def test_checked_jobs_have_every_default():
    # validate_scenario hands each runner its job with every field filled in:
    # the run's settings where the job sets none, and each table default
    doc = {"seed": 4, "budget": 9,
           "examples": [{"name": "c3", "family": "cycle", "m": 3}],
           "jobs": [{"kind": "radius", "example": "c3"},
                    {"kind": "dist", "a": "c3", "b": "c3", "eps_net": 1, "name": "d"},
                    {"kind": "family", "type": "sphere_convergence", "two_js": [1, 2]}]}
    run = cli.validate_scenario(doc)
    assert run["audit_policy"] == "fail" and list(run["examples"]) == ["c3"]
    assert run["jobs"][0] == {"kind": "radius", "name": "job00_radius", "seed": 4, "budget": 9,
                              "eps_net": 0.3, "example": "c3", "diameter": False, "sample": 16}
    assert run["jobs"][1] == {"kind": "dist", "name": "d", "seed": 4, "budget": 9,
                              "eps_net": 1.0, "a": "c3", "b": "c3", "phi": "identity", "R": None}
    assert run["jobs"][2] == {"kind": "family", "name": "job02_family", "seed": 4, "budget": 9,
                              "eps_net": 0.3, "type": "sphere_convergence", "two_js": [1, 2],
                              "t0": None, "R": None}
    assert isinstance(run["jobs"][1]["eps_net"], float)


def test_one_command_pair_of_one_example(tmp_path):
    # a dist or audit command on one descriptor twice declares one example
    code = cli.main(["--budget", "8", "--out", str(tmp_path), "dist", "cycle:m=3", "cycle:m=3"])
    assert code == 0
    job = json.loads((tmp_path / "report.json").read_text())["jobs"][0]
    assert job["status"] == "ok", job.get("error")


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

    def spy(fam, rules, **kwargs):
        seen["groups"] = {t: m.action.group.descriptor for t, m in fam.members.items()}
        seen["sizes"] = {len(ch.values) for ch in kwargs["characters"]}
        return study(fam, rules, **kwargs)

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
    from cqmlab import examples as ex
    monkeypatch.setattr(ex, "_grid_cache", {})
    sizes = []
    berezin = ex.berezin_maps

    def spy(sphere):
        maps = berezin(sphere)
        sizes.append(len(maps.coherent))
        return maps

    monkeypatch.setattr(ex, "berezin_maps", spy)
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


def test_largest_cycle_example_is_quick(tmp_path):
    # the ergodicity verdict is one trace quadrature: the largest legal cycle
    # reports within seconds, not the minutes a Haar-averaging operator took
    start = time.perf_counter()
    assert cli.main(["--seed", "0", "--out", str(tmp_path), "example", "cycle:m=64"]) == 0
    assert time.perf_counter() - start < 30.0
    job = json.loads((tmp_path / "report.json").read_text())["jobs"][0]
    assert job["status"] == "ok", job.get("error")
    assert job["result"]["ergodic"] is True


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
        "ex.sphere_characters(1, ex.DEFAULT_SU2_GRID)",
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
