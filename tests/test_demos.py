"""The demos import only names that helmlayer has.

Nothing in the test suite runs the demos, so a name the library drops or
renames would otherwise break them unnoticed.  The check parses each
demo and looks its helmlayer imports up, without running it.
"""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _helmlayer_imports(path):
    """(module, name) of each helmlayer import in a file, name None for a
    plain ``import helmlayer...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("helmlayer"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None) for alias in node.names if alias.name.startswith("helmlayer")
            )


def test_demo_imports_exist():
    assert DEMOS
    for path in DEMOS:
        imports = list(_helmlayer_imports(path))
        assert imports, f"{path.name} imports nothing from helmlayer"
        for module, name in imports:
            mod = importlib.import_module(module)
            assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"
