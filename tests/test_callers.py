"""Every function, class and method in ``src/ridelink`` has a caller there.

A definition that no code in the package names, other than the definition
itself, runs only when a test or an outside tool calls it: the package
carries it for them. A name counts as used wherever it appears as a name or
as an attribute (``f``, ``x.f``), matched by its bare name, so a method is
used when any ``.name`` appears; names inside the definition's own body, as
in a recursive call, do not count. Special methods (``__len__``, ...) are
called by Python itself. The few entry points that code outside the package
calls are listed in ``ENTRY_POINTS`` with their callers.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ridelink"

ENTRY_POINTS = {
    # argparse calls it on a bad command line
    "cli._Parser.error",
    # bench/spans.py times it by this name, and tests/test_bench_layers.py
    # requires every name the benchmark times to resolve
    "explain.pdp",
}


def _names(node) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(module: str, node, owner: str = ""):
    """(dotted name, node) of each function, class and method under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            dotted = f"{owner}{child.name}"
            yield f"{module}.{dotted}", child
            yield from _definitions(module, child, f"{dotted}.")
        else:
            yield from _definitions(module, child, owner)


def uncalled(paths) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in paths}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for dotted, node in _definitions(module, tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - _names(node)[name] == 0:
                found.append(dotted)
    return sorted(found)


def test_every_definition_has_a_caller_in_src():
    found = set(uncalled(sorted(PACKAGE.glob("*.py"))))
    assert found <= ENTRY_POINTS, "defined in src/ but named nowhere else there: " + ", ".join(
        sorted(found - ENTRY_POINTS))
    # an entry point that is gone, or that src/ now calls, leaves the list
    assert found == ENTRY_POINTS


def test_the_scan_finds_what_only_tests_would_call(tmp_path):
    source = ("def used():\n    return 1\n\n"
              "def unused():\n    return used()\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
              "class Table:\n    def __len__(self):\n        return 0\n\n"
              "    def take(self):\n        return self\n\n"
              "    def kept(self):\n        return self.take()\n\n"
              "VALUE = Table().kept()\n")
    path = tmp_path / "mod.py"
    path.write_text(source, encoding="utf-8")
    assert uncalled([path]) == ["mod.recursive", "mod.unused"]
