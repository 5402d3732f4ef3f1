"""Every defaulted parameter in ``src/ridelink`` has a caller that sets it.

A parameter whose default no call in the package ever overrides is a knob
that only its default reaches: the code should hold that one value as a
constant. Calls are matched by the callee's name (``f(...)`` or
``x.f(...)``); a class's ``__init__`` is matched through calls of the class
name, and so are the fields of a ``@dataclass``, which are the parameters of
the ``__init__`` it generates. A call sets a parameter by keyword, by
position, or through ``*`` or ``**`` unpacking. The few parameters that
exist so tests can substitute a value are listed in ``SEAMS``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ridelink"

# test seams: a smaller PDP grid, a fake environment, an argv list, the
# per-leg timetable of the hand-built test cities
SEAMS = {
    ("pdp", "n_grid"),
    ("env_overrides", "environ"),
    ("main", "argv"),
    ("Route", "leg_times_min"),
}


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))]


def _name(node):
    """The called or decorating name: ``f`` of ``f``, ``x.f`` or ``f(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _dataclass_fields(cls):
    """(field, defaulted) per ``__init__`` parameter of a ``@dataclass``, in
    field order; a ``field(init=False)`` is no parameter."""
    out = []
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        defaulted = node.value is not None
        if isinstance(node.value, ast.Call) and _name(node.value) == "field":
            keywords = {k.arg: k.value for k in node.value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        out.append((node.target.id, defaulted))
    return out


def _defaulted(trees):
    """(callee name, parameter, positional index or None) per defaulted
    parameter; a method's index skips ``self``, and keyword-only parameters
    have no index."""
    out = []
    for tree in trees:
        for cls in [None, *[n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]]:
            if cls is not None and any(_name(d) == "dataclass" for d in cls.decorator_list):
                out.extend((cls.name, name, i)
                           for i, (name, defaulted) in enumerate(_dataclass_fields(cls))
                           if defaulted)
            body = tree.body if cls is None else cls.body
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                bound = cls is not None and not static
                name = cls.name if cls is not None and fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i in range(first, len(positional)):
                    out.append((name, positional[i].arg, i - bound))
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None))
    return out


def _calls(trees):
    """Callee name -> list of (positional count, has *, keyword names, has **)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            names = {k.arg for k in node.keywords if k.arg is not None}
            double = any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append((len(node.args), starred, names, double))
    return calls


def unset_knobs(trees) -> list[str]:
    calls = _calls(trees)
    unset = []
    for name, param, index in _defaulted(trees):
        if (name, param) in SEAMS:
            continue
        if not any(param in names or double or starred
                   or (index is not None and n_pos > index)
                   for n_pos, starred, names, double in calls.get(name, ())):
            unset.append(f"{name}({param})")
    return sorted(unset)


def test_every_default_is_overridden_by_some_call():
    unset = unset_knobs(_trees())
    assert not unset, "defaults that no call in src/ sets: " + ", ".join(unset)


def test_seams_are_still_parameters():
    params = {(name, param) for name, param, _ in _defaulted(_trees())}
    assert SEAMS <= params


def test_moved_default_is_caught():
    source = ("def trip_stats(trips):\n    return _histogram(trips)\n\n"
              "def _histogram(values, bins=20):\n    return bins\n")
    assert unset_knobs([ast.parse(source)]) == ["_histogram(bins)"]


def test_unset_dataclass_field_is_caught():
    source = ("from dataclasses import dataclass, field\n\n"
              "@dataclass(frozen=True)\nclass Leg:\n    km: float\n"
              "    cache: dict = field(init=False, default_factory=dict)\n"
              "    speed: float = 30.0\n    mode: str = field(default='bus')\n\n"
              "def route():\n    return [Leg(1.0, 20.0), Leg(km=2.0)]\n")
    assert unset_knobs([ast.parse(source)]) == ["Leg(mode)"]
    assert unset_knobs([ast.parse(source.replace("Leg(km=2.0)", "Leg(2.0, 20.0, 'x')"))]) == []


def test_keyword_position_and_unpacking_each_set_a_default():
    source = ("def f(a, b=1, *, c=2):\n    pass\n\n"
              "class K:\n    def __init__(self, d=3):\n        pass\n\n"
              "    def g(self, e=4):\n        pass\n\n"
              "f(0, 5)\nf(0, **{'c': 1})\nK(7)\nK().g(*[1])\n")
    assert unset_knobs([ast.parse(source)]) == []
    assert unset_knobs([ast.parse(source.replace("K(7)", "K()"))]) == ["K(d)"]
