"""Every public top-level name of the package is reached from outside the tests.

A name counts as reached when the package, the scripts or the benchmark use
it (an ``ast.Name`` read or an attribute; an import alone does not count),
or when README.md names it in backticks, which makes it documented library
surface.  Code that only the tests call is surface to maintain that carries
nothing of the paper, so it goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bikoeff"
USERS = ("src", "scripts", "bench")


def public_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def used_names():
    used = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def readme_names():
    """The parts of every dotted name that opens a backtick span, as in `oracle.fit_atoms(p)`."""
    names = set()
    for span in re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text()):
        dotted = re.match(r"[A-Za-z_][\w.]*", span)
        if dotted:
            names.update(dotted.group().split("."))
    return names


def test_every_public_name_is_reached():
    reached = used_names() | readme_names()
    unreached = [f"{path.stem}.{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in sorted(public_names(path) - reached)]
    assert not unreached, f"public names that only the tests reach: {unreached}"
