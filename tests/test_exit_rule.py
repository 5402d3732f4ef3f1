"""One place gives a bad file its exit code: ``cli.py``.

A reader in ``src/ridelink`` raises what it naturally raises on a file that
does not parse (``ValueError`` and its subclasses, ``KeyError``,
``TypeError``, ``csv.Error``), and ``cli`` turns each of those into exit 2.
A module other than ``cli.py`` and ``errors.py`` that names one of the
exceptions carrying an exit code is choosing an exit code of its own, and the
gaps between such choices let a bad file through as an internal error.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ridelink"
HOMES = ("cli.py", "errors.py")
EXIT_ERRORS = {"CliError", "InputError", "ConfigError", "MissingArtifactError"}


def exit_choices(sources: dict) -> list[str]:
    """``file: name`` for each exit-code exception that a module in
    ``sources`` (file name -> text) names, ``HOMES`` excepted."""
    found = []
    for name, text in sorted(sources.items()):
        if name in HOMES:
            continue
        for node in ast.walk(ast.parse(text, name)):
            named = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            if named in EXIT_ERRORS:
                found.append(f"{name}: {named}")
    return list(dict.fromkeys(found))


def test_only_cli_chooses_an_exit_code():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert set(HOMES) <= set(sources)
    found = exit_choices(sources)
    assert not found, "raise ValueError and let cli map it: " + ", ".join(found)


def test_each_way_of_naming_is_caught():
    sources = {
        "a.py": "from .errors import InputError, finite_number\n",
        "b.py": "from . import errors\n\ndef f():\n    raise errors.ConfigError('x')\n",
        "c.py": "def f():\n    raise CliError\n    raise CliError\n",
        "d.py": "import ridelink.errors.MissingArtifactError\n",
        "e.py": '"""raises InputError"""\nInputErrors = 1\nraise ValueError("InputError")\n',
        "cli.py": "from .errors import InputError\n",
        "errors.py": "class CliError(Exception):\n    pass\n",
    }
    assert exit_choices(sources) == ["a.py: InputError", "b.py: ConfigError", "c.py: CliError",
                                     "d.py: MissingArtifactError"]
