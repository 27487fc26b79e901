"""``src/`` holds only what the pipeline reaches: no public code that only tests call.

Every public top-level function and class of ``geoloc`` must be named
somewhere other than its own definition, in ``src/``, in ``bench/``, or as
``pyproject.toml``'s console script. A name used only inside code that is
itself unreached does not count. Every name a ``src/`` module imports must
be used in that module, unless its statement is marked ``# noqa: F401`` (a
re-export). The checks read the source with ``ast`` and import nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "geoloc"

# Acceptance criterion 5 calls it: kNN over an index, as the criterion states it.
EXEMPT = {"retrieval.knn"}


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` refers to by name, attribute or import."""
    found: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rsplit(".", 1)[-1])
    return found


def test_every_public_function_and_class_of_src_is_reached_outside_the_tests():
    src = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    trees = [*src.values(), *(ast.parse(path.read_text(), str(path)) for path in ROOT.glob("bench/**/*.py"))]
    # The [project.scripts] entry; tomllib is not in Python 3.10's standard library.
    script = re.search(r'^geoloc = "(geoloc\.\w+:\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    public = {
        f"{module}.{node.name}": node
        for module, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and script != f"geoloc.{module}:{node.name}" and f"{module}.{node.name}" not in EXEMPT
    }
    # Names used outside every checked definition, and inside each one.
    outside = set().union(*(_names(n) for tree in trees for n in tree.body if n not in public.values()))
    inside = {name: _names(node) for name, node in public.items()}
    # A name used only inside unreached definitions is unreached too: drop them until none is left.
    reached = set(public)
    while True:
        dropped = {
            name for name in reached
            if public[name].name not in outside
            and not any(public[name].name in inside[other] for other in reached - {name})
        }
        if not dropped:
            break
        reached -= dropped
    unreached = sorted(set(public) - reached)
    assert not unreached, f"public code that nothing outside the tests reaches: {unreached}"


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, including those of string annotations (forward references)."""
    found = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    notes = [note for n in ast.walk(tree) for note in (getattr(n, "annotation", None), getattr(n, "returns", None))]
    for note in filter(None, notes):
        for c in ast.walk(note):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                found |= _read_names(ast.parse(c.value, mode="eval"))
    return found


def test_every_name_a_src_module_imports_is_used_there():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text, str(path))
        used = _read_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            unused += [f"{path.stem}: {name}" for name in bound if name not in used]
    assert not unused, f"imported but unused: {unused}"
