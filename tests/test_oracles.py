import ast
import sys
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_the_standard_library_numpy_and_geoloc_errors():
    # An oracle that imported the code under test could share its bugs.
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported, "no imports found"
    outside = {
        name for name in imported
        if name.split(".")[0] not in sys.stdlib_module_names and name not in {"numpy", "geoloc.errors"}
    }
    assert outside == set()
