"""Every name in ``src/hklab`` has a caller, and every default a setter.

Read from the sources as they are (``ast``), not from imported modules:

* every top-level function and class of ``src/hklab`` is referenced by code
  in ``src/hklab``: a name read or an attribute taken, not a docstring, and
  not its own definition.  The exceptions are the oracles the tests call and
  the one function that only the benchmark wraps;
* every defaulted parameter of those functions and constructors is passed by
  some call in ``src/hklab`` or ``perfbench/``: by keyword, by position, or
  through ``**``.

Each check is also run on a small mutated source, so it is seen to fail on
an unreferenced function and on a parameter that nobody sets.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hklab"
PERFBENCH = ROOT / "perfbench"

# unreferenced in src/ on purpose
ORACLES = {
    "in_major_1d_scan", "classify_direct", "lattice_representation_integral",
    "complete_sum_all", "series_term_direct", "direct_weyl_sum",
    "in_major_1d",  # kept for perfbench/spans.py, which wraps it
}
# (function, parameter) defaults that no call in src/ or perfbench/ sets
UNSET_DEFAULTS = {
    # at x_min=0 it is the exact full-torus oracle of circle.restricted_moment
    ("vinogradov_count", "x_min"),
    # a report at the default primes takes 1.1-1.5 s, so the tests pick a few
    ("solubility_report", "primes"),
}


def _trees(*roots):
    return {path: ast.parse(path.read_text())
            for root in roots for path in sorted(root.glob("*.py"))}


def _top_level(trees):
    """``{name: node}`` of the module-level functions and classes."""
    return {node.name: node for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _unreferenced(trees):
    """Top-level names that no code of ``trees`` reads, outside their own body."""
    used = set()
    for tree in trees.values():
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute)
                        else sub.name if isinstance(sub, ast.alias) else None)
                if name is not None and name != own:
                    used.add(name)
    return set(_top_level(trees)) - used


def _defaulted(node):
    """The defaulted parameters of a function, or of a class's constructor.

    A class's are those of its ``__init__``, or its annotated fields with a
    value (a dataclass).  Positional parameters come with their index.
    """
    if isinstance(node, ast.ClassDef):
        init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
        if init:
            return _defaulted(init[0])
        fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
        return {f.target.id: i for i, f in enumerate(fields) if f.value is not None}
    a = node.args
    positional = a.posonlyargs + a.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = {p.arg: i - skip
           for i, p in enumerate(positional[len(positional) - len(a.defaults):],
                                 len(positional) - len(a.defaults))}
    out.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return out


def _callee(call, owner):
    """The name a call calls: ``f(...)``, ``m.f(...)``, or ``cls(...)`` in class ``owner``."""
    f = call.func
    if isinstance(f, ast.Name):
        return owner if f.id == "cls" and owner else f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _passed(call):
    """The parameter names and positions a call sets, ``(None, None)`` for all.

    ``**cli._given(a=..., b=...)`` sets the names it is given; any other
    ``*`` or ``**`` argument may set every parameter.
    """
    names = set()
    for kw in call.keywords:
        if kw.arg is not None:
            names.add(kw.arg)
        elif isinstance(kw.value, ast.Call) and _callee(kw.value, None) == "_given":
            names |= {k.arg for k in kw.value.keywords}
        else:
            return None, None
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None, None
    return names, set(range(len(call.args)))


def _calls(trees):
    """``(callee, names, positions)`` for every call, names/positions None for 'all'."""
    out = []
    for tree in trees.values():
        stack = [(tree, None)]
        while stack:
            node, owner = stack.pop()
            if isinstance(node, ast.Call):
                out.append((_callee(node, owner), *_passed(node)))
            if isinstance(node, ast.ClassDef):
                owner = node.name
            stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return out


def _unset_defaults(src_trees, caller_trees):
    """``(function, parameter)`` pairs whose default no call of ``caller_trees`` overrides."""
    calls = _calls(caller_trees)
    unset = set()
    for name, node in _top_level(src_trees).items():
        for param, pos in _defaulted(node).items():
            if not any(callee == name and (names is None or param in names
                                           or (pos is not None and pos in positions))
                       for callee, names, positions in calls):
                unset.add((name, param))
    return unset


def test_every_src_name_has_a_src_reference():
    assert _unreferenced(_trees(SRC)) == ORACLES


def test_every_default_is_set_by_some_call():
    src = _trees(SRC)
    assert _unset_defaults(src, {**src, **_trees(PERFBENCH)}) == UNSET_DEFAULTS


def _mutated(extra):
    """The ``src`` trees with ``extra`` source appended to ``circle.py``."""
    src = _trees(SRC)
    path = SRC / "circle.py"
    src[path] = ast.parse(path.read_text() + "\n\n" + extra)
    return src


def test_reference_check_fails_on_an_unreferenced_function():
    src = _mutated("def _nobody_calls_me(x):\n    return x\n")
    assert _unreferenced(src) == ORACLES | {"_nobody_calls_me"}


def test_default_check_fails_on_a_parameter_nobody_sets():
    # a caller that passes only the positional argument leaves `spare` unset
    src = _mutated("def _helper(x, spare=3):\n    return x + spare\n\n\n"
                   "def _user():\n    return _helper(1)\n")
    callers = {**src, **_trees(PERFBENCH)}
    assert _unset_defaults(src, callers) == UNSET_DEFAULTS | {("_helper", "spare")}
    # ... and set positionally or by name, it is not reported
    for call in ("_helper(1, 2)", "_helper(1, spare=2)", "_helper(1, **_given(spare=2))"):
        src = _mutated("def _helper(x, spare=3):\n    return x + spare\n\n\n"
                       f"def _user():\n    return {call}\n")
        assert _unset_defaults(src, {**src, **_trees(PERFBENCH)}) == UNSET_DEFAULTS
