"""One rule for a JSON number in ``src/ridelink``: ``errors.finite_number``.

Whether a value read from JSON, or passed to a checked constructor, is a
number that a float holds is asked in one place. A module other than
``errors.py`` that imports ``numbers`` or defines a function whose name
contains ``finite`` is writing a rule of its own, and the rules drift apart:
one lets a 400-digit integer through, another a ``true``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ridelink"
HOME = "errors.py"


def own_rules(sources: dict) -> list[str]:
    """``file: what`` for each ``numbers`` import and each function named
    ``*finite*`` in ``sources`` (file name -> text), ``HOME`` excepted."""
    found = []
    for name, text in sorted(sources.items()):
        if name == HOME:
            continue
        for node in ast.walk(ast.parse(text, name)):
            if isinstance(node, ast.Import):
                found += [f"{name}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "numbers"]
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers" and not node.level:
                found.append(f"{name}: from numbers import ...")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and "finite" in node.name.lower()):
                found.append(f"{name}: def {node.name}")
    return found


def test_no_module_writes_its_own_number_rule():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert HOME in sources
    found = own_rules(sources)
    assert not found, "use errors.finite_number instead: " + ", ".join(found)


def test_home_defines_the_rule():
    tree = ast.parse((PACKAGE / HOME).read_text(encoding="utf-8"))
    assert "finite_number" in {node.name for node in tree.body
                                if isinstance(node, ast.FunctionDef)}


def test_each_kind_of_own_rule_is_caught():
    sources = {
        "a.py": "import numbers\n",
        "b.py": "from numbers import Real\n",
        "c.py": "def _finite(v):\n    return v == v\n",
        "d.py": "class K:\n    def is_Finite(self):\n        pass\n",
        "e.py": "from .errors import finite_number\nimport math\nfinite = math.isfinite\n",
        HOME: "import numbers\n\ndef finite_number(v):\n    return True\n",
    }
    assert own_rules(sources) == ["a.py: import numbers", "b.py: from numbers import ...",
                                  "c.py: def _finite", "d.py: def is_Finite"]
