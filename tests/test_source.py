"""Checks on the package source: static ones on its syntax tree, and one on
the calls that the scenarios and benchmark workloads make."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cqmlab"

# functions and methods in src that the traffic of
# ``test_traffic_calls_every_function`` never calls, each kept on purpose; an
# entry also covers the functions nested in it.  A public name here is also
# exempt from ``test_public_names_have_callers``
TEST_ONLY = {
    "gh_exact_small": "criterion 08's exact Gromov-Hausdorff oracle for gh_lower_bound",
    "_distortion_values": "gh_exact_small's candidate distortions",
    "_feasible_maps": "gh_exact_small's exact correspondence search",
    "ball_cover_test": "criterion 08's covering lemma for gh_lower_bound",
    "gh_lower_bound": "test_finmetric checks it against gh_exact_small; no distance bound uses it",
    "packing_number": "criterion 08's packing lemma, checked against gh_exact_small",
    "_greedy_packing": "packing_number's start, checked with it by criterion 08",
    "FiniteMetricSpace.diam": "criterion 08 and test_finmetric scale eps by it",
    "FiniteMetricSpace.subspace": "criterion 08's lemmas compare a space with its subspaces",
    "Cqms.ball_membership": "tests check live ball nets against the definition of D_r",
    "Cqms.seminorm": "the one-element L that ball_membership and 23 test sites use",
    "is_unitary": "tests check the frequency bases and implementers are unitary",
    "BerezinMaps.equivariance_defect": "tests check the Berezin maps are equivariant",
    "QuadratureError.__init__": "runs only when a quadrature is too coarse for a multiplicity",
    "random_hermitian": "test input",
    "dirac_state": "test input",
    "multiplicity": "perfbench/tracer.py hooks it by name; tests check one character at a time",
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


# defaulted parameters that no call in src or perfbench passes, each kept on
# purpose
UNSET_DEFAULTS = {
    "Cqms.ball_net.max_points": "perfbench/tracer.py binds it to count cap hits",
    "main.argv": "the console entry point",
}


def _defaulted_params(tree: ast.Module) -> list:
    """(qualname, call name, parameter, positional index or None) for every
    defaulted parameter of a module-level function or a method of a
    module-level class; ``__init__`` is called by its class name, and the
    index skips the bound ``self``/``cls``."""
    owners = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            owners += [(cls.name, node) for node in cls.body if isinstance(node, ast.FunctionDef)]
    out = []
    for cls, fn in owners:
        qual = fn.name if cls is None else f"{cls}.{fn.name}"
        call = cls if fn.name == "__init__" else fn.name
        decorators = {getattr(d, "id", None) for d in fn.decorator_list}
        positional = fn.args.posonlyargs + fn.args.args
        if cls is not None and "staticmethod" not in decorators:
            positional = positional[1:]
        defaulted = positional[len(positional) - len(fn.args.defaults):]
        out += [(qual, call, arg.arg, positional.index(arg)) for arg in defaulted]
        out += [(qual, call, arg.arg, None)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None]
    return out


def _passed_params(paths) -> dict:
    """Call name -> (keywords passed, most positional arguments, whether some
    call passes ``*`` or ``**``) over every call in the files."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords, count, star = passed.get(name, (set(), 0, False))
            keywords = keywords | {kw.arg for kw in node.keywords if kw.arg is not None}
            star = (star or any(kw.arg is None for kw in node.keywords)
                    or any(isinstance(arg, ast.Starred) for arg in node.args))
            passed[name] = (keywords, max(count, len(node.args)), star)
    return passed


def test_defaulted_parameters_are_set():
    # a default that no caller overrides is a constant dressed as a knob:
    # only tests can set it, so it is a second law beside the one in use
    passed = _passed_params(sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    found, unset = [], set()
    for path in sorted(SRC.glob("*.py")):
        for qual, call, param, index in _defaulted_params(ast.parse(path.read_text())):
            keywords, count, star = passed.get(call, (set(), 0, False))
            if star or param in keywords or (index is not None and index < count):
                continue
            unset.add(f"{qual}.{param}")
            if qual not in TEST_ONLY and f"{qual}.{param}" not in UNSET_DEFAULTS:
                found.append(f"{path.name}:{qual}.{param}")
    assert not found, f"defaulted parameters that no call in src or perfbench sets: {found}"
    # an allowlist entry that is gone or now set is stale
    stale = sorted(set(UNSET_DEFAULTS) - unset)
    assert not stale, f"stale entries in UNSET_DEFAULTS: {stale}"


def _defs() -> dict:
    """(file name, first line) -> qualified name (``Class.method``,
    ``function.nested``) for every function and method in src, nested ones
    included.  The first line is the first decorator's, as in the code
    object's ``co_firstlineno``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path.name, line)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return found


def _record_traffic(out: Path) -> None:
    """Run the measured traffic and write to ``out/traffic.json`` the exit
    codes of its CLI runs and (file name, first line) of every function in
    src that it called.  The traffic: every scenario in ``scenarios/``
    through ``cli.main(["run", ..., "--format", "csv"])``, one single-command
    ``cli.main`` call, and one ``run_pass()`` of each benchmark workload at
    seed 1 (then its ``close()``, where it has one).  Only call events are
    traced, and nothing is traced in the functions called."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from cqmlab import cli
    from perfbench.workloads import WORKLOADS

    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)

    codes = {}
    sys.settrace(hook)
    try:
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
    lines = sorted({(files[code.co_filename].name, code.co_firstlineno) for code in called
                    if files[code.co_filename].parent == SRC.resolve()})
    (out / "traffic.json").write_text(json.dumps({"codes": codes, "called": lines}))


def test_traffic_calls_every_function(tmp_path):
    # a function or method that no scenario, CLI command or benchmark
    # workload calls serves only its own tests: measured by tracing calls,
    # not matched by name, so a test-only method that shares its name with a
    # live one is caught.  The traffic runs in a fresh interpreter, because
    # caches filled by earlier tests (the SU(2) grids) would hide the calls
    # that build them
    from cqmlab import cli
    jobs = json.loads((ROOT / "scenarios" / "every-kind.json").read_text())["jobs"]
    assert {job["kind"] for job in jobs} == set(cli._JOBS)
    assert {job["type"] for job in jobs if job["kind"] == "family"} == set(cli._FAMILY_STUDIES)
    assert ({job.get("phi", "identity") for job in jobs if job["kind"] in ("dist", "audit")}
            == set(cli._PHI))

    child = subprocess.run([sys.executable, __file__, str(tmp_path)],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    traffic = json.loads((tmp_path / "traffic.json").read_text())
    assert set(traffic["codes"].values()) == {0}, traffic["codes"]
    for report in tmp_path.glob("*/report.json"):
        errors = [job for job in json.loads(report.read_text())["jobs"] if job["status"] != "ok"]
        assert not errors, f"{report.parent.name}: {errors}"

    defs, called = _defs(), {tuple(key) for key in traffic["called"]}

    def allowed(qual):
        return any(qual == name or qual.startswith(name + ".") for name in TEST_ONLY)

    uncalled = sorted(f"{file}:{qual}" for (file, line), qual in defs.items()
                      if (file, line) not in called and not allowed(qual))
    assert not uncalled, f"functions in src that the traffic never calls: {uncalled}"
    # an allowlist entry that is gone or now called is stale
    quals = {qual: key for key, qual in defs.items()}
    stale = sorted(name for name in TEST_ONLY if name not in quals or quals[name] in called)
    assert not stale, f"stale entries in TEST_ONLY: {stale}"


if __name__ == "__main__":
    _record_traffic(Path(sys.argv[1]))
