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
