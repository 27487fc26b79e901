"""``src/`` holds only what the pipeline reaches: no public code that only tests call.

Every public top-level function and class of ``geoloc`` must be named
somewhere other than its own definition, in ``src/``, in ``bench/``, or as
``pyproject.toml``'s console script. A name used only inside code that is
itself unreached does not count. Every name a ``src/`` module imports must
be used in that module, unless its statement is marked ``# noqa: F401`` (a
re-export). ``ImageRecord`` appears in ``src/`` annotations only on the
record edge that ``bench/`` still reads (``RECORD_EDGE``). Randomness comes only from seeded generators, the stream that
byte-identical worlds and splits rest on. The checks read the source with
``ast`` and import nothing.
"""

import ast
import re
from pathlib import Path

import pytest

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


def _annotation_names(note: ast.AST) -> set[str]:
    """Every name the annotation ``note`` reads, including those of its strings (forward references)."""
    found: set[str] = set()
    for c in ast.walk(note):
        if isinstance(c, ast.Name):
            found.add(c.id)
        elif isinstance(c, ast.Constant) and isinstance(c.value, str):
            found |= _annotation_names(ast.parse(c.value, mode="eval"))
    return found


def _notes(node: ast.AST) -> list[ast.AST]:
    """The annotations ``node`` carries itself: an argument's or an assignment's, a function's return."""
    return [note for note in (getattr(node, "annotation", None), getattr(node, "returns", None)) if note]


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, including those of string annotations (forward references)."""
    found = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in (note for n in ast.walk(tree) for note in _notes(n)):
        found |= _annotation_names(note)
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


# The definitions whose annotations may name ImageRecord: the record forms that bench/ still calls or reads.
# Everything else in src/ passes manifests as ManifestColumns.
RECORD_EDGE = {
    "ingest.parse_manifest",
    "ingest.load_manifest",
    "ingest.serialize_manifest",
    "ingest.save_manifest",
    "ingest.ManifestColumns.records",
    "train.embed_records",
    "synth.SyntheticWorld",
}


def annotated_names(tree: ast.AST) -> list[tuple[str, str]]:
    """``(definition, name)`` for each name an annotation in ``tree`` reads, strings read as code.

    ``definition`` is the dotted path of the innermost function or class whose annotation it is
    (``""`` at module level); a function's own argument and return annotations belong to it.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        found.extend((scope, name) for note in _notes(node) for name in _annotation_names(note))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_record_edge_of_src_names_image_record():
    named = []
    for path in sorted(SRC.glob("*.py")):
        for scope, name in annotated_names(ast.parse(path.read_text(), str(path))):
            where = f"{path.stem}.{scope}"
            if name == "ImageRecord" and not any(where == e or where.startswith(f"{e}.") for e in RECORD_EDGE):
                named.append(where)
    assert not named, f"ImageRecord named outside the record edge: {sorted(set(named))}"


def test_annotated_names_belong_to_their_innermost_definition():
    source = (
        "x: 'A'\n"
        "def f(a: B, b: 'list[C]') -> D:\n"
        "    def g() -> E: ...\n"
        "class K:\n"
        "    y: F\n"
        "    def m(self, z: 'G | None'): ...\n"
    )
    assert sorted(annotated_names(ast.parse(source))) == [
        ("", "A"), ("K", "F"), ("K.m", "G"), ("f", "B"), ("f", "C"), ("f", "D"), ("f", "list"), ("f.g", "E"),
    ]


# What ``src/`` may take from each random module: generators it seeds itself.
SEEDED = {"numpy.random": {"default_rng", "SeedSequence", "Generator"}, "random": {"Random"}}
# Each of these needs a seed, its first argument, that is not None.
SEEDED_CALLS = {"numpy.random.default_rng", "numpy.random.SeedSequence", "random.Random"}


def unseeded_randomness(tree: ast.AST) -> list[str]:
    """Each use of randomness in ``tree`` that no seed pins, as ``line <n>: <name>``.

    Any name of ``numpy.random`` or ``random`` outside ``SEEDED`` is one: the legacy
    ``np.random.<draw>``, ``RandomState`` and ``seed``, or a module-level ``random.<draw>``.
    So is a call in ``SEEDED_CALLS`` without a seed or with None. Names
    are followed through import aliases.
    """
    bound = {}  # a local name -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname, a.name) if a.asname else (a.name.split(".")[0],) * 2 for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    faults = [f"line {node.lineno}: {node.module}.{a.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module in SEEDED
              for a in node.names if a.name not in SEEDED[node.module]]

    def resolve(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        head = resolve(node.value) if isinstance(node, ast.Attribute) else None
        return head and f"{head}.{node.attr}"

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module, _, attr = (resolve(node) or "").rpartition(".")
            if module in SEEDED and attr not in SEEDED[module]:
                faults.append(f"line {node.lineno}: {module}.{attr}")
        if isinstance(node, ast.Call) and resolve(node.func) in SEEDED_CALLS:
            seed = node.args[0] if node.args else node.keywords[0].value if node.keywords else None
            if seed is None or isinstance(seed, ast.Constant) and seed.value is None:
                faults.append(f"line {node.lineno}: {resolve(node.func)}() without a seed")
    return faults


def test_src_draws_randomness_only_from_seeded_generators():
    faults = [f"{path.stem}: {fault}" for path in sorted(SRC.glob("*.py"))
              for fault in unseeded_randomness(ast.parse(path.read_text(), str(path)))]
    assert not faults, f"randomness that no seed pins: {faults}"


@pytest.mark.parametrize("source, faults", [
    ("import numpy as np\nrng = np.random.default_rng(np.random.SeedSequence([1, 2]))", 0),
    ("import random\nrandom.Random(7).shuffle(x)", 0),
    ("import numpy as np\ndef f(rng: np.random.Generator): pass", 0),
    ("import numpy as np\nrng = np.random.default_rng()", 1),
    ("import numpy as np\nrng = np.random.default_rng(None)", 1),
    ("import numpy\nx = numpy.random.rand(3)", 1),
    ("import numpy as np\nnp.random.seed(0)", 1),
    ("import numpy as np\nr = np.random.RandomState(0)", 1),
    ("from numpy import random as npr\nx = npr.normal()", 1),
    ("from numpy.random import default_rng\nrng = default_rng()", 1),
    ("from numpy.random import shuffle", 1),
    ("import random\nrandom.shuffle(x)", 1),
    ("import random as r\nx = r.random()", 1),
    ("import random\nrng = random.Random()", 1),
    ("import numpy as np\nrng = np.random.default_rng(seed=None)", 1),
    ("import numpy as np\nss = np.random.SeedSequence()", 1),
    ("import numpy as np\nss = np.random.SeedSequence(entropy=3)", 0),
    ("from random import choice", 1),
])
def test_unseeded_randomness_is_found(source, faults):
    assert len(unseeded_randomness(ast.parse(source))) == faults
