"""Checks on the package source: static ones on its syntax tree, and four on
the calls that the scenarios and benchmark workloads make."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cqmlab"

# functions and methods in src that the traffic of
# ``test_traffic_calls_every_function`` never calls, each kept on purpose; an
# entry also covers the functions nested in it.  A public name here is also
# exempt from ``test_public_names_have_callers``, and an entry's defaulted
# parameters from ``test_traffic_binds_every_default`` and
# ``test_traffic_uses_every_default``
TEST_ONLY = {
    "gh_exact_small": "criterion 08's exact Gromov-Hausdorff oracle for its lemmas",
    "_distortion_values": "gh_exact_small's candidate distortions",
    "_feasible_maps": "gh_exact_small's exact correspondence search",
    "ball_cover_test": "criterion 08's covering lemma, checked against gh_exact_small",
    "packing_number": "criterion 08's packing lemma, checked against gh_exact_small",
    "_greedy_packing": "packing_number's start, checked with it by criterion 08",
    "FiniteMetricSpace.diam": "criterion 08 and test_finmetric scale eps by it",
    "FiniteMetricSpace.subspace": "criterion 08's lemmas compare a space with its subspaces",
    "Cqms.ball_membership": "tests check live ball nets against the definition of D_r",
    "is_unitary": "tests check the frequency bases and implementers are unitary",
    "BerezinMaps.equivariance_defect": "tests check the Berezin maps are equivariant",
    "QuadratureError.__init__": "runs only when a quadrature is too coarse for a multiplicity",
    "random_hermitian": "test input",
    "dirac_state": "test input",
    "SampledGroup.seminorm_support": "perfbench/workloads.py::reference_gauge reads it; the "
                                     "kernel oracle of tests/conftest.py starts from it",
}


def _assigned_names(tree: ast.Module) -> set:
    """Names bound by module-level assignments (dunders excluded)."""
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                    names.add(sub.id)
    return names


def _loaded_names(paths) -> set:
    """Every name read as an ``ast.Name`` or ``ast.Attribute`` load."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def _function_reads(paths) -> set:
    """(module, name) for every read of a module-level function: a ``Name``
    load in its own module, an attribute load on a name imported as its
    module (``ga.apply``), or a ``from .module import name``."""
    reads = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                package = "" if node.level else (node.module or "")
                for alias in node.names:
                    if (node.level and node.module is None) or package == "cqmlab":
                        aliases[alias.asname or alias.name] = alias.name
                    elif node.level or package.startswith("cqmlab."):
                        reads.add(((node.module or "").rsplit(".", 1)[-1], alias.name))
            elif isinstance(node, ast.Import):
                aliases.update({alias.asname: alias.name.rsplit(".", 1)[-1]
                                for alias in node.names
                                if alias.asname and alias.name.startswith("cqmlab.")})
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and path.parent == SRC):
                reads.add((path.stem, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                reads.add((aliases[node.value.id], node.attr))
    return reads


def _public_defs(tree: ast.Module) -> list:
    """Public functions and classes at module level, and public methods of
    module-level classes as ``Class.method``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{sub.name}" for sub in node.body
                      if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return names


def _private_functions(tree: ast.Module) -> set:
    """Private (``_name``, not dunder) functions at module level and methods
    of module-level classes."""
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {node.name for node in defs
            if node.name.startswith("_") and not node.name.startswith("__")}


def test_module_constants_are_read():
    # a module-level name that no code in the package reads is a dead switch,
    # and a private function or method that nothing reads is a leftover path
    # (docstrings and comments do not count: they are not code)
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = _loaded_names(sorted(SRC.glob("*.py")))
    dead = sorted(f"{name}:{var}" for name, tree in trees.items()
                  for var in (_assigned_names(tree) | _private_functions(tree)) - loaded)
    assert not dead, f"module-level names or private functions never read in src: {dead}"


def test_public_names_have_callers():
    # a public function, class or method that neither the package nor the
    # benchmark reads serves only its own tests; string keys (a workload's
    # "hausdorff" result) are not reads.  A module-level function is read
    # only through its own module: ``np.linalg.norm`` does not read a
    # ``norm``, nor ``phi.apply`` a module-level ``apply``
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    loaded, reads = _loaded_names(paths), _function_reads(paths)
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    functions = {(module, node.name) for module, tree in trees.items() for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def read(module, name):
        if (module, name) in functions:
            return (module, name) in reads
        return name.split(".")[-1] in loaded

    defined = {module: _public_defs(tree) for module, tree in trees.items()}
    unread = sorted(f"{module}.py:{name}" for module, names in defined.items()
                    for name in names if not read(module, name) and name not in TEST_ONLY)
    assert not unread, f"public names in src that only tests reach: {unread}"


def test_no_general_minimizer():
    # every solver in src is exact (an LP) or a counted Newton stage; an
    # import of scipy.optimize.minimize would bring back an L-BFGS whose
    # stops nothing counts
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("scipy.optimize")):
                found += [f"{path.name}:{node.lineno}" for alias in node.names
                          if alias.name == "minimize"]
            elif (isinstance(node, ast.Attribute) and node.attr == "minimize"
                  and isinstance(node.value, (ast.Name, ast.Attribute))
                  and getattr(node.value, "attr", getattr(node.value, "id", "")) == "optimize"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy.optimize.minimize used in src: {found}"


def test_scipy_imported_only_inside_functions():
    # importing the package loads numpy alone: scipy is imported by the
    # functions that call it, so a run that needs none of it never loads it
    found = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(ast.parse(path.read_text()))
    assert not found, f"scipy imported at module level in src: {found}"


def test_one_annealing_loop():
    # every Newton stage runs inside ``cqms.anneal``: a second temperature
    # loop around ``_newton_stage`` would bring back a path whose stage
    # schedule and unconverged count the other solves do not share
    found = []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                owner = node.name
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "_newton_stage" and owner != "anneal":
                    found.append(f"{path.name}:{node.lineno} in {owner}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert not found, f"_newton_stage called outside cqms.anneal: {found}"


def test_one_norm_minimizer():
    # every norm LP and every log-sum-exp smoothing runs inside
    # ``cqms.minimize_norms``: a second call site of ``linprog`` or
    # ``spectral_lse`` would bring back a solve with its own family layout
    # and its own objective
    found, inside = [], []
    for path in sorted(SRC.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                owner = node.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("linprog", "spectral_lse"):
                    if (path.name, owner) == ("cqms.py", "minimize_norms"):
                        inside.append(name)
                    else:
                        found.append(f"{path.name}:{node.lineno} {name} in {owner}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert not found, f"linprog or spectral_lse called outside cqms.minimize_norms: {found}"
    assert sorted(inside) == ["linprog", "spectral_lse"]


def _contracts_coefficients(spec: str) -> bool:
    """True when an einsum spec is sum_k c_k B_k: it sums an index k between
    a basis operand, k followed by the output's last two (matrix) indices,
    and an operand that holds k and neither matrix index."""
    inputs, out = spec.replace(" ", "").split("->")
    operands, mats = inputs.split(","), out[-2:]
    if len(mats) < 2 or "." in mats:
        return False
    return any(k + mats in operands and any(k in op and not set(mats) & set(op) for op in operands)
               for k in set(inputs) - set(out) - {",", "."})


# einsums that sum against matrix stacks outside ``numerics.combine``, each
# kept on purpose, by (file, enclosing function)
OTHER_CONTRACTIONS = {
    ("examples.py", "cosymbol"): "a quadrature of complex symbol values and weights against "
                                 "the coherent-state projections, not real coefficient rows",
}


def test_one_coefficient_contraction():
    # every sum of real coefficient rows against a basis stack runs in
    # ``numerics.combine``, which adds the terms in order of k: an einsum that
    # contracts a coefficient axis into matrices is a second path, with its
    # own complex arithmetic and its own speed
    for spec in ("...k,kab->...ab", "nk,kab->nab", "k,kab->ab", "x,x,xab->ab"):
        assert _contracts_coefficients(spec), spec
    for spec in ("kab,...ab->...k", "ab,kab->k", "ab,kbc,dc->kad", "x,xab,kbc,xdc->kad",
                 "ab,xb,cb->xac", "nab,nab->n", "ij,ij->i"):
        assert not _contracts_coefficients(spec), spec
    found, kept = [], set()
    for path in sorted(SRC.glob("*.py")):
        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
                owner = node.name
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "einsum":
                spec = node.args[0].value if node.args and isinstance(node.args[0],
                                                                      ast.Constant) else None
                if not isinstance(spec, str) or _contracts_coefficients(spec):
                    if (path.name, owner) in OTHER_CONTRACTIONS:
                        kept.add((path.name, owner))
                    else:
                        found.append(f"{path.name}:{node.lineno} {spec!r} in {owner}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), None)
    assert not found, f"coefficient contractions outside numerics.combine: {found}"
    assert kept == set(OTHER_CONTRACTIONS)


def test_ball_nets_read_the_sample():
    # ``Cqms.ball_net`` scales the seminorms of ``_ball_sample`` to its
    # radius: an L evaluation inside it, directly or through another method,
    # would bring back a per-net sampling path that nets of one space and
    # seed do not share
    tree = ast.parse((SRC / "cqms.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Cqms")
    calls = {node.name: {getattr(sub.func, "id", getattr(sub.func, "attr", None))
                         for sub in ast.walk(node) if isinstance(sub, ast.Call)}
             for node in cls.body if isinstance(node, ast.FunctionDef)}
    # the methods that evaluate L, closed under calls outside the sample builder
    reach = {"seminorm", "seminorms", "_coeff_seminorms", "_kernel_norms"}
    grown = True
    while grown:
        more = {name for name, called in calls.items()
                if name != "_ball_sample" and called & reach} - reach
        reach |= more
        grown = bool(more)
    found = sorted(calls["ball_net"] & reach)
    assert not found, f"ball_net evaluates the seminorm through {found}"


def _defs() -> dict:
    """(file name, first line, name) -> qualified name (``Class.method``,
    ``function.nested``) for every function and method in src, nested ones
    included.  The first line is the first decorator's, as in the code
    object's ``co_firstlineno``; the name is its ``co_name``, so a lambda
    written on a def's line is not taken for that def."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path.name, line, child.name)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


# defaulted parameters that the traffic of ``test_traffic_calls_every_function``
# never binds to another value, each kept on purpose
UNSET_DEFAULTS = {
    "Cqms.ball_net.max_points": "perfbench/tracer.py binds it to count cap hits",
}

# defaulted parameters that every call of the traffic binds to another value,
# each kept on purpose
UNUSED_DEFAULTS = {
    "main.argv": "the cqmlab console script calls main() bare, so argparse reads sys.argv",
}

# parameters of private functions and methods that every call of the traffic
# binds to one and the same value, each kept on purpose
ONE_VALUE_PARAMETERS = {
    "_parse_example_arg.grid": "the CLI's --grid option, documented in README and run by "
                               "tests/test_cli.py; the traffic's one CLI command sets no grid",
}

_SCALARS = (type(None), bool, int, float, str)


def _is_default(value, default) -> bool:
    """``value`` is ``default``: of the same type and equal for a None, bool,
    int, float or str default, the same object for any other."""
    if isinstance(default, _SCALARS):
        return type(value) is type(default) and value == default
    return value is default


def _scoped_functions(namespace: dict) -> dict:
    """code -> (qualified name, function) for the module-level functions of
    the module whose globals are ``namespace``, and the methods of its
    module-level classes, decorators unwrapped.  Only code written in the
    module's file counts: a dataclass's generated ``__init__`` is left out."""
    module, path = namespace.get("__name__"), namespace.get("__file__")
    found = []
    for name, obj in list(namespace.items()):
        if inspect.isclass(obj) and obj.__module__ == module:
            found += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
        elif inspect.isfunction(obj) and obj.__module__ == module and obj.__qualname__ == name:
            found.append((name, obj))
    out = {}
    for qual, obj in found:
        fn = inspect.unwrap(getattr(obj, "__func__", getattr(obj, "fget", obj)))
        if inspect.isfunction(fn) and fn.__code__.co_filename == path:
            out[fn.__code__] = (qual, fn)
    return out


def _defaulted(qual: str, fn) -> list:
    """(``qual.parameter``, parameter, default) for each defaulted parameter of
    ``fn``."""
    return [(f"{qual}.{param.name}", param.name, param.default)
            for param in inspect.signature(fn).parameters.values()
            if param.default is not param.empty]


def _private_parameters(qual: str, fn) -> list:
    """(``qual.parameter``, parameter) for each parameter of ``fn`` when it is
    private (``_name`` or ``Class._name``, not a dunder), else []."""
    name = qual.rsplit(".", 1)[-1]
    if not name.startswith("_") or name.startswith("__"):
        return []
    return [(f"{qual}.{param}", param) for param in inspect.signature(fn).parameters]


def _record_traffic(out: Path) -> None:
    """Run the measured traffic and write to ``out/traffic.json`` the exit
    codes of its CLI runs, (file name, first line, name) of every function
    in src that it called, and the defaulted parameters of src (``Class.method.
    parameter`` or ``function.parameter``; module-level functions and
    methods of module-level classes) that no call bound to a value other
    than the default ("unbound"), and those that no call left at the
    default ("unused"); and the parameters of the private ones among those
    functions that every call bound to one and the same None, bool, int,
    float or str value, with that value's repr ("one_value").  A parameter
    ever bound to another object, or to two such values of different types
    or reprs, is not one-valued.  The traffic: every scenario in ``scenarios/``
    through ``cli.main(["run", ..., "--format", "csv"])``, one single-command
    ``cli.main`` call, and one ``run_pass()`` of each benchmark workload at
    seed 1 (then its ``close()``, where it has one).  The imports of the
    package and the workloads are traced too, since the field tables of
    ``cli`` are built by calls made when it is imported.  Only call events
    are traced, and nothing is traced in the functions called."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    called, bound, used = set(), set(), set()
    # code -> (defaulted parameters not yet bound to another value, those
    # not yet left at the default, private parameters bound to one scalar
    # value so far); file name -> whether it is in src
    watched, in_src = {}, {}
    # private parameter -> (type name, repr) of its one value so far;
    # parameters that took another value or a non-scalar
    values, varied = {}, set()

    def hook(frame, event, arg):
        code = frame.f_code
        called.add(code)
        pending = watched.get(code)
        if pending is None:
            name = code.co_filename
            if name not in in_src:
                in_src[name] = Path(name).resolve().parent == SRC.resolve()
            qual, fn = (_scoped_functions(frame.f_globals).get(code, (None, None))
                        if in_src[name] else (None, None))
            params = _defaulted(qual, fn) if fn else []
            pending = watched[code] = (params, params, _private_parameters(qual, fn) if fn else [])
        if pending[0] or pending[1] or pending[2]:
            args = frame.f_locals
            at_default = {key for key, name, default in pending[0] + pending[1]
                          if _is_default(args[name], default)}
            bound.update(key for key, _, _ in pending[0] if key not in at_default)
            used.update(key for key, _, _ in pending[1] if key in at_default)
            for key, name in pending[2]:
                value = args[name]
                seen = (type(value).__name__, repr(value)) if isinstance(value, _SCALARS) else None
                if seen is None or values.setdefault(key, seen) != seen:
                    varied.add(key)
            watched[code] = ([param for param in pending[0] if param[0] in at_default],
                             [param for param in pending[1] if param[0] not in at_default],
                             [param for param in pending[2] if param[0] not in varied])

    codes = {}
    sys.settrace(hook)
    try:
        from cqmlab import cli
        from perfbench.workloads import WORKLOADS

        for scenario in sorted((ROOT / "scenarios").glob("*.json")):
            codes[scenario.stem] = cli.main(["run", str(scenario), "--format", "csv",
                                             "--out", str(out / scenario.stem)])
        codes["dist"] = cli.main(["--out", str(out / "dist"), "--budget", "8", "dist",
                                  "cycle:m=3", "cycle:m=6", "--phi", "cycle_refine"])
        for workload in WORKLOADS.values():
            run = workload(1, ROOT)
            try:
                run.run_pass()
            finally:
                getattr(run, "close", lambda: None)()
    finally:
        sys.settrace(None)
    files = {name: Path(name).resolve() for name in {code.co_filename for code in called}}
    lines = sorted({(files[code.co_filename].name, code.co_firstlineno, code.co_name)
                    for code in called if files[code.co_filename].parent == SRC.resolve()})
    defaulted = {key for path in sorted(SRC.glob("*.py"))
                 for qual, fn in _scoped_functions(
                     vars(importlib.import_module(f"cqmlab.{path.stem}"))).values()
                 for key, _, _ in _defaulted(qual, fn)}
    one_value = {key: seen[1] for key, seen in sorted(values.items()) if key not in varied}
    (out / "traffic.json").write_text(json.dumps({"codes": codes, "called": lines,
                                                  "unbound": sorted(defaulted - bound),
                                                  "unused": sorted(defaulted - used),
                                                  "one_value": one_value}))


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """The measured traffic of ``_record_traffic``, run once in a fresh
    interpreter, because caches filled by earlier tests (the SU(2) grids)
    would hide the calls that build them: (output directory, traffic.json)."""
    out = tmp_path_factory.mktemp("traffic")
    child = subprocess.run([sys.executable, __file__, str(out)],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return out, json.loads((out / "traffic.json").read_text())


def _allowed(qual: str) -> bool:
    return any(qual == name or qual.startswith(name + ".") for name in TEST_ONLY)


def test_traffic_calls_every_function(traffic):
    # a function or method that no scenario, CLI command or benchmark
    # workload calls serves only its own tests: measured by tracing calls,
    # not matched by name, so a test-only method that shares its name with a
    # live one is caught
    from cqmlab import cli
    from cqmlab import examples as ex
    doc = json.loads((ROOT / "scenarios" / "every-kind.json").read_text())
    jobs = doc["jobs"]
    assert {job["kind"] for job in jobs} == set(cli._JOBS)
    assert {job["type"] for job in jobs if job["kind"] == "family"} == set(cli._FAMILY_STUDIES)
    assert ({job.get("phi", "identity") for job in jobs if job["kind"] in ("dist", "audit")}
            == set(cli._PHI))
    # every declared field is set at least once: the run-wide settings at the
    # top level, the fields of every job on some job, and each kind's, study
    # type's and example family's own fields on an object of that kind
    tables = [("settings", cli.SETTINGS, [doc]), ("job", cli._JOB, jobs)]
    tables += [(kind, fields, [job for job in jobs if job["kind"] == kind])
               for kind, (_, fields) in cli._JOBS.items()]
    tables += [(study, fields, [job for job in jobs if job.get("type") == study])
               for study, (_, fields) in cli._FAMILY_STUDIES.items()]
    tables += [(name, fam.fields, [spec for spec in doc["examples"] if spec["family"] == name])
               for name, fam in ex.FAMILIES.items()]
    unset = sorted(f"{name}.{key}" for name, fields, specs in tables for key in fields
                   if not any(key in spec for spec in specs))
    assert not unset, f"fields that every-kind.json never sets: {unset}"

    out, record = traffic
    assert set(record["codes"].values()) == {0}, record["codes"]
    for report in out.glob("*/report.json"):
        errors = [job for job in json.loads(report.read_text())["jobs"] if job["status"] != "ok"]
        assert not errors, f"{report.parent.name}: {errors}"

    defs, called = _defs(), {tuple(key) for key in record["called"]}
    uncalled = sorted(f"{key[0]}:{qual}" for key, qual in defs.items()
                      if key not in called and not _allowed(qual))
    assert not uncalled, f"functions in src that the traffic never calls: {uncalled}"
    # an allowlist entry that is gone or now called is stale
    quals = {qual: key for key, qual in defs.items()}
    stale = sorted(name for name in TEST_ONLY if name not in quals or quals[name] in called)
    assert not stale, f"stale entries in TEST_ONLY: {stale}"


def test_traffic_binds_every_default(traffic):
    # a default that the traffic never overrides is a constant dressed as a
    # knob: only tests can set it, so it is a second law beside the one in
    # use.  Measured on the traced calls, not matched by name, so a
    # parameter passed to one method does not count for another of its name
    unbound = set(traffic[1]["unbound"])
    found = sorted(key for key in unbound
                   if key not in UNSET_DEFAULTS and not _allowed(key.rsplit(".", 1)[0]))
    assert not found, f"defaulted parameters that the traffic never binds: {found}"
    # an allowlist entry that is gone or now bound is stale
    stale = sorted(set(UNSET_DEFAULTS) - unbound)
    assert not stale, f"stale entries in UNSET_DEFAULTS: {stale}"


def test_traffic_uses_every_default(traffic):
    # a default that every call of the traffic overrides is a knob left in
    # place after its only value in use moved to the callers: the default
    # serves only tests that lean on it.  Measured on the traced calls, as
    # ``test_traffic_binds_every_default`` is
    unused = set(traffic[1]["unused"])
    found = sorted(key for key in unused
                   if key not in UNUSED_DEFAULTS and not _allowed(key.rsplit(".", 1)[0]))
    assert not found, f"defaulted parameters that the traffic never leaves at the default: {found}"
    # an allowlist entry that is gone or now used is stale
    stale = sorted(set(UNUSED_DEFAULTS) - unused)
    assert not stale, f"stale entries in UNUSED_DEFAULTS: {stale}"


def test_private_parameters_take_two_values(traffic):
    # a private parameter that every traced call binds to one value is a
    # constant passed as an argument: the defaulted-parameter guards do not
    # see it, since it has no default.  Measured on the traced calls, as
    # ``test_traffic_binds_every_default`` is
    one_value = traffic[1]["one_value"]
    found = sorted(f"{key} = {value}" for key, value in one_value.items()
                   if key not in ONE_VALUE_PARAMETERS)
    assert not found, f"private parameters that the traffic binds to one value: {found}"
    # an allowlist entry that is gone or now takes two values is stale
    stale = sorted(set(ONE_VALUE_PARAMETERS) - set(one_value))
    assert not stale, f"stale entries in ONE_VALUE_PARAMETERS: {stale}"


if __name__ == "__main__":
    _record_traffic(Path(sys.argv[1]))
