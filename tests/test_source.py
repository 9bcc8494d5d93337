"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cqmlab"


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


def test_module_constants_are_read():
    # a module-level name that no code in the package reads is a dead switch
    # (docstrings and comments do not count: they are not code)
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    dead = sorted(f"{name}:{var}" for name, tree in trees.items()
                  for var in _assigned_names(tree) - loaded)
    assert not dead, f"module-level names never read in src: {dead}"


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
