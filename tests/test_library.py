"""Rules that hold for the library source as a whole."""

from __future__ import annotations

import ast
import fractions
import sys
from fractions import Fraction
from pathlib import Path

import tropcurve
from tropcurve import curve, plfunction
from tropcurve.plfunction import chip_fire, extend, restrict_whole
from tropcurve.randgen import random_class_respecting_function, random_curve, random_subgraph

from conftest import rng_for

SRC = Path(tropcurve.__file__).resolve().parent


def _imported_names(node: ast.AST) -> list[str]:
    """Dotted names an import statement reads, with ``from`` imports as module.name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
    return []


def test_only_the_generators_import_randomness():
    # ast.walk reaches imports inside function bodies too.  A library
    # function decides by exact equality; sampled checks live in the test
    # data generator and the self-test that draws from it.
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for name in _imported_names(node):
                if {"random", "randgen"} & set(name.split(".")):
                    importers.add(path.name)
    assert importers == {"randgen.py", "selftest.py"}


def _is_inf(node: ast.AST) -> bool:
    """``INF`` or ``-INF``."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Name) and node.id == "INF"


def test_plfunction_tells_infinity_by_identity():
    # Edge lengths, subgraph interval ends, distances and piece ends hold the
    # INF object itself, so the library asks ``is INF``; ``==`` would send a
    # Fraction through its float comparison.  Only values a caller passes in
    # (an edge length or interval end as given, chip_fire's length) are
    # decided with ``==``.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) \
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                    and any(_is_inf(x) for x in (node.left, *node.comparators)):
                found.append(f"{path.name}: {ast.unparse(node)}")
    assert sorted(found) == ["curve.py: x == INF", "plfunction.py: l == INF",
                             "subgraph.py: hi == INF"]


def _is_inf_or_default_inf(node: ast.AST) -> bool:
    """``INF``, ``-INF`` or a ``.get(key, INF)`` call."""
    return _is_inf(node) or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                             and node.func.attr == "get" and len(node.args) == 2
                             and _is_inf(node.args[1]))


def test_no_order_comparison_reads_infinity():
    # Distances, interval ends and gap corners are integers on one scale per
    # curve or subgraph, with None or a missing entry for infinity; ordering
    # a number against the float INF would send a Fraction through its float
    # comparison.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) \
                    and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops) \
                    and any(map(_is_inf_or_default_inf, (node.left, *node.comparators))):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_integer_metric_enters_no_fractions_frame():
    # Dijkstra, the chip-firing profile and the extension's gaps run on the
    # integer scales of the curve and the subgraph; Fractions are built only
    # at the public boundary.
    watched = {curve.Curve._dijkstra.__code__: "_dijkstra",
               plfunction._fired.__code__: "_fired", plfunction._gaps.__code__: "_gaps"}
    entered = dict.fromkeys(watched.values(), 0)
    inside = set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in watched:
            entered[watched[code]] += 1
        elif code.co_filename == fractions.__file__:
            f = frame.f_back
            while f is not None:
                if f.f_code in watched:
                    inside.add(watched[f.f_code])
                f = f.f_back

    rng = rng_for("integer-metric")
    for _ in range(60):
        c = random_curve(rng)
        g = random_subgraph(c, rng)
        f_prime = restrict_whole(random_class_respecting_function(c, rng), g)[0]
        length = rng.choice([curve.INF, rng.randint(1, 5), Fraction(rng.randint(1, 20), 7)])
        sys.setprofile(hook)
        try:
            chip_fire(c, g, length)
            extend(f_prime, g, -1024)
            c.distance(c.pt_vertex("v0"), c.pt_on_edge("e0", c.edges["e0"].length / 3)
                       if "e0" in c.edges else c.pt_vertex("v0"))
        finally:
            sys.setprofile(None)
    assert inside == set() and min(entered.values()) >= 60, (inside, entered)


def test_io_writes_json_without_indent():
    # json.dumps(..., indent=...) runs the pure-Python encoder, a generator
    # frame per value; the writers and the command line go through
    # io._dumps, which gives the same bytes.
    found = []
    for path in (SRC / "io.py", SRC / "cli.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps" \
                    and any(k.arg in ("indent", "default") for k in node.keywords):
                found.append(f"{path.name}: {ast.unparse(node)}")
    assert found == []


def _breaks_readers(path: Path) -> set[str]:
    """The top-level functions and classes of a module that read ``.breaks``."""
    tree = ast.parse(path.read_text(), str(path))
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "breaks"}


def test_profile_readers_read_the_grid():
    # Profile.breaks builds Fractions from the grid; it is a view for tests,
    # repr and error messages.  realize, pullback, germ_bump, the function
    # writer, the glue check and the self-test read Profile.grid.
    readers = {name: _breaks_readers(SRC / name)
               for name in ("realization.py", "io.py", "glue.py", "selftest.py", "morphism.py")}
    assert readers == {"realization.py": set(), "io.py": set(), "glue.py": set(),
                       "selftest.py": set(), "morphism.py": set()}


def _callers(name: str) -> list[str]:
    """``module: enclosing function`` for each call of ``name`` in src/; a
    method is named ``Class.method``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            scopes = ([(f"{top.name}.{getattr(item, 'name', '<body>')}", item) for item in top.body]
                      if isinstance(top, ast.ClassDef) else [(getattr(top, "name", "<module>"), top)])
            for scope, tree in scopes:
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call) and (
                            isinstance(node.func, ast.Name) and node.func.id == name
                            or isinstance(node.func, ast.Attribute) and node.func.attr == name):
                        found.append(f"{path.name}: {scope}")
    return found


def test_the_integer_scale_has_one_home():
    # Rationals go onto an integer scale, and scales onto their lcm, only
    # through semifield's on_scale, common_scale and least_scale.  The one
    # other lcm is _combine2's crossing refinement, an lcm of slope
    # differences rather than of denominators.
    assert {f for f in _callers("as_integer_ratio") if not f.startswith("semifield.py")} == set()
    assert {f for f in _callers("lcm")
            if not f.startswith("semifield.py")} == {"plfunction.py: _combine2"}


def test_library_results_are_built_trusted():
    # The semifield operations and pullbacks map Rat(curve) into itself, so
    # every function and divisor the library builds goes through _trusted.
    # The validating constructors take only data from outside: -inf, edge
    # data and a divisor file.
    assert sorted(_callers("PLFunction")) == ["plfunction.py: PLFunction.from_edge_data",
                                              "plfunction.py: PLFunction.neg_inf"]
    assert _callers("Divisor") == ["io.py: divisor_from_json"]


def test_edge_maps_read_profiles_through_pull():
    # Restriction, pullback and gluing each read a profile along an edge map
    # with plfunction._pull, which puts the start and the length on the
    # profile's grid; none of them adds an edge length to an offset itself.
    found, pulls = [], set()
    for name, func in (("plfunction.py", "restrict_whole"), ("morphism.py", "pullback"),
                       ("glue.py", "glue_function")):
        (top,) = [top for top in ast.parse((SRC / name).read_text()).body
                  if isinstance(top, ast.FunctionDef) and top.name == func]
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) \
                    and any(isinstance(x, ast.Attribute) and x.attr == "length"
                            for x in (node.left, node.right)):
                found.append(f"{func}: {ast.unparse(node)}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_pull":
                pulls.add(func)
    assert found == []
    assert pulls == {"restrict_whole", "pullback", "glue_function"}


def test_every_imported_name_is_used():
    # A name a module imports and never reads is left over from deleted code.
    # __init__.py imports to re-export, so it is not checked.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
