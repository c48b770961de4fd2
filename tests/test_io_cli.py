"""File format round trips and the command line front end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropcurve import io as tio
from tropcurve import selftest
from tropcurve.cli import main
from tropcurve.curve import Curve
from tropcurve.errors import FileFormatError, TropError
from tropcurve.hypersurface import plane_hypersurface
from tropcurve.plfunction import PLFunction, edge_profile, module_degree, principal_divisor
from tropcurve.randgen import LINE_POLY, random_curve, random_function
from tropcurve.semifield import TropPoly, ratio_str

from conftest import (LITERAL, LOOSE, fraction_calls, identity_fn, on_integer_grid, ref_literal,
                      rng_for, scaled_fn)


class TestRoundTrips:
    def test_curve(self):
        # Curves, functions, divisors, polynomials and complexes.
        assert selftest.suite_formats(rng_for("io-curve"), 25) == 25

    def test_divisor(self, line):
        d = principal_divisor(scaled_fn(line, 2))
        assert tio.divisor_from_json(line, tio.divisor_to_json(d)) == d

    def test_complex(self):
        K = plane_hypersurface(LINE_POLY)
        assert tio.complex_from_json(tio.complex_to_json(K)) == K

    def test_poly(self):
        F = TropPoly.of(2, {(0, 0): Fraction(-1, 3), (2, 1): Fraction(7, 2)})
        assert tio.poly_from_text(tio.poly_to_text(F), nvars=2) == F

    def test_morphism(self, line):
        from tropcurve.morphism import Morphism

        m = Morphism.identity(line)
        back = tio.morphism_from_json(line, line, tio.morphism_to_json(m))
        assert back.vertex_map == m.vertex_map and back.degrees == m.degrees


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 80, 2 ** 80),
                         st.floats(), st.text())
json_keys = st.one_of(st.text(), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
                      st.floats())
json_data = st.recursive(
    json_scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(json_keys, kids, max_size=5)),
    max_leaves=40)


@given(json_data)
@example({"é \"q\"\n": [[], {}, (), None, True, 10 ** 30, ("a", -1.5)], 2: {"": ["\u2028"]}})
@example([[["1/2", "-3"], ["7", "0"]], {"slope_at_infinity": -2, "breakpoints": [["0", "1"]]}])
def test_dumps_matches_json_indent(x):
    """The writers' encoder gives ``json.dumps(x, indent=2)`` byte for byte:
    tuples as lists, ``json``'s key coercion and ``ensure_ascii`` escapes."""
    assert tio._dumps(x) == json.dumps(x, indent=2)


@given(st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 9), st.integers(1, 60))
@example(0, 1, 1)
@example(0, 7, 5)
@example(-12, 4, 1)
@example(9, 1, 1)
@example(-9, 1, 3)
@example(-6, 9, 3)
def test_ratio_is_str_of_fraction(n, d, k):
    """The function writer's ``"n/d"`` for the pair (n·k, d·k), which the
    factor k leaves unreduced, is ``str(Fraction(n, d))``."""
    assert ratio_str(n * k, d * k) == str(Fraction(n, d))


ESCAPED_IDS = ["é", 'a"b', "\\"]


def _with_escaped_ids(c: Curve, rng) -> Curve:
    """c with each edge id led by one that JSON escapes, and half the time an isolated vertex."""
    data = c.description()
    rename = {e["id"]: rng.choice(ESCAPED_IDS) + e["id"] for e in data["edges"]}
    for e in data["edges"]:
        e["id"] = rename[e["id"]]
    data["ray_classes"] = {rename[k]: v for k, v in data["ray_classes"].items()}
    if rng.random() < 0.5:
        data["vertices"].append({"id": rng.choice(ESCAPED_IDS) + " alone"})
    return tio.curve_from_json(json.dumps(data))


def _dumped_function(f: PLFunction) -> str:
    """The function file as ``json.dumps(..., indent=2)`` writes it, built from each
    edge's ``Fraction`` breakpoints, apart from the writer's grid text."""
    if f.is_neg_inf:
        return json.dumps("-inf", indent=2) + "\n"
    data = {}
    for eid in sorted(f.curve.edges):
        prof = edge_profile(f, eid)
        data[eid] = {"breakpoints": [[str(o), str(v)] for o, v in prof.breaks]}
        if f.curve.edges[eid].is_infinite:
            data[eid]["slope_at_infinity"] = prof.tail
    if f.isolated:
        data["values_at_vertices"] = {vid: str(v) for vid, v in sorted(f.isolated.items())}
    return json.dumps(data, indent=2) + "\n"


def test_function_writer_gives_the_bytes_of_json_dumps():
    # The writer formats each edge's grid as text; on random functions, -inf,
    # rays, isolated vertices and ids that JSON escapes among them, its bytes
    # are json.dumps(indent=2)'s, and the file reads back to the function.
    rng = rng_for("function-writer-bytes")
    seen = Counter()
    for k in range(150):
        c = _with_escaped_ids(random_curve(rng), rng)
        f = PLFunction.neg_inf(c) if k == 0 else random_function(c, rng, allow_neg_inf=True)
        text = tio.function_to_json(f)
        assert text == _dumped_function(f)
        assert tio.function_from_json(c, text) == f
        seen.update({"-inf": f.is_neg_inf, "isolated": bool(f.isolated),
                     "ray": not f.is_neg_inf and any(e.is_infinite for e in c.edges.values()),
                     "fraction": "/" in text, "escaped": "\\" in text})
    assert all(seen[kind] for kind in ("-inf", "isolated", "ray", "fraction", "escaped")), seen


def test_an_edge_named_values_at_vertices():
    # An edge of that name keeps its entry when read.  With isolated vertices
    # as well, the file would need the key twice, so the writer refuses.
    c = Curve.build(vertices=["a", "b"], edges=[("values_at_vertices", "a", "b", "2")])
    f = PLFunction.from_edge_data(c, {"values_at_vertices": ([("0", "1"), ("2", "3")], None)})
    assert tio.function_from_json(c, tio.function_to_json(f)) == f
    c = Curve.build(vertices=["a", "b", "z"], edges=[("values_at_vertices", "a", "b", "2")])
    with pytest.raises(TropError, match="^edge 'values_at_vertices' clashes with the key of the "
                                        "isolated vertices' values"):
        tio.function_to_json(PLFunction.constant(c, 1))


def test_a_non_string_edge_id_has_no_function_file():
    # A curve built in Python may name an edge 3, which no file can name.
    c = Curve.build(vertices=["a", "b"], edges=[(3, "a", "b", 1)])
    with pytest.raises(TropError, match="^edge id 3 is not a string: this function has no "
                                        "function file$"):
        tio.function_to_json(PLFunction.constant(c, 1))


@pytest.mark.parametrize("x", [{(1, 2): 3}, [{"a": {(1,): 2}}], [object()], {"a": Fraction(1)}])
def test_dumps_rejects_as_json_does(x):
    with pytest.raises(TypeError) as want:
        json.dumps(x, indent=2)
    with pytest.raises(TypeError) as got:
        tio._dumps(x)
    assert str(got.value) == str(want.value)


def test_reading_a_function_file_builds_no_fraction():
    # Each number is read to an integer pair and each edge goes onto its
    # grid, so reading 101 breakpoints enters no fractions frame; nor does
    # the principal divisor of the result, or its module degree.  The
    # curve's length scale is worked out once per curve, before.
    c = Curve.segment(50)
    rows = [[ratio_str(k, 2), ratio_str(k % 2, 2)] for k in range(101)]
    text = json.dumps({"e": {"breakpoints": rows}})
    c._length_scale()
    assert fraction_calls(tio.function_from_json, c, text) == 0
    f = tio.function_from_json(c, text)
    assert len(f.profiles["e"].grid[1]) == 101 and on_integer_grid(f.profiles["e"])
    assert fraction_calls(principal_divisor, f) == 0 and fraction_calls(module_degree, [f, f]) == 0
    assert principal_divisor(f).degree() == 0 and module_degree([f]) == 100  # 50 peaks of -2


# The breakpoint numbers of TestLiterals in test_semifield, and every kind of JSON value.
NUMBERS = st.one_of(st.text(alphabet="0123456789-/+._e x٣²", max_size=10),
                    st.from_regex(LITERAL, fullmatch=True), st.sampled_from(LOOSE),
                    st.floats(allow_nan=False), st.booleans(), st.none(),
                    st.lists(st.integers(), max_size=1), st.integers(-99, 99),
                    st.integers(-10 ** 30, 10 ** 30))


def _check_breakpoint_number(x, where: str):
    # A breakpoint number is read once, to a pair; its rejection reads as it
    # did when rat decided, for a string and for any other JSON value, and a
    # file is read as number by number.
    row = [x, "0"] if where == "offset" else ["0", x]
    text = json.dumps({"e": {"breakpoints": [row, ["0", "0"], ["3", "0"]]}})
    with pytest.raises(FileFormatError) as exc:
        tio.function_from_json(Curve.segment(3), text)
        raise FileFormatError("invalid function: read")  # a number that reads
    if isinstance(x, str) and ref_literal(x) is not None or type(x) is int:
        assert str(exc.value).startswith("invalid function: ")
    else:
        assert str(exc.value) == (
            f"bad {where}: {x!r}" if isinstance(x, str) else
            f"{where} must be a rational string, not a {type(x).__name__}: {x!r}")
    assert _read(text) == _read_number_by_number(text)


def _read(text: str):
    try:
        return tio.function_from_json(Curve.segment(3), text)
    except FileFormatError as exc:
        return str(exc)


def _read_number_by_number(text: str):
    """``_read`` with every number read alone by ``ratio``, the reference reading."""
    with mock.patch.object(tio, "ratio_pairs", side_effect=TropError):
        return _read(text)


class TestRejects:
    @pytest.mark.parametrize("right, message", [
        ({"breakpoints": [["0"]], "slope_at_infinity": 1}, "[offset, value] pairs"),
        ({"breakpoints": [[0, True]], "slope_at_infinity": 1}, "not a bool"),
        ({"breakpoints": [["0", "1"]], "slope_at_infinity": True}, "must be an integer"),
    ], ids=["short-breakpoint", "bool-value", "bool-slope"])
    def test_malformed_function_exits_65(self, workdir, capsys, right, message):
        left = {"breakpoints": [["0", "1"]], "slope_at_infinity": -1}
        (workdir / "f.json").write_text(json.dumps({"left": left, "right": right}))
        assert main(["div", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "f.json")]) == 65
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("start, ends, shown", [("0", ("1", "2"), "[1, 2]"),
                                                    ("1/2", ("3/2", "-1/2"), "[-1/2, 3/2]")],
                             ids=["integers", "fractions"])
    def test_discontinuity_shows_the_values(self, tmp_path, capsys, start, ends, shown):
        # Two parallel unit edges A-B whose functions agree at A and not at B.
        (tmp_path / "c.json").write_text(json.dumps({
            "vertices": [{"id": "A"}, {"id": "B"}],
            "edges": [{"id": "e", "u": "A", "v": "B", "length": "1"},
                      {"id": "f", "u": "A", "v": "B", "length": "1"}]}))
        (tmp_path / "f.json").write_text(json.dumps(
            {eid: {"breakpoints": [["0", start], ["1", end]]} for eid, end in zip("ef", ends)}))
        assert main(["div", "--curve", str(tmp_path / "c.json"),
                     "--fn", str(tmp_path / "f.json")]) == 65
        assert capsys.readouterr().err == (f"error: invalid function: discontinuous at vertex 'B': "
                                           f"values {shown}\n")

    @pytest.mark.parametrize("length", [" inf ", "inf\n", "Inf"],
                             ids=["spaces", "newline", "capital"])
    def test_inf_has_one_spelling(self, tmp_path, capsys, length):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"vertices": [{"id": "A"}],
                                   "edges": [{"id": "r", "u": "A", "v": "X", "length": length}],
                                   "ray_classes": {"r": "k"}}))
        assert main(["check-curve", "--curve", str(bad)]) == 65
        assert f"bad edge length: {length!r}" in capsys.readouterr().err

    def test_overlong_exponent_exits_65(self, tmp_path, capsys):
        (tmp_path / "F.txt").write_text("0 : 0 0\n0 : " + "1" * 5000 + " 0\n")
        assert main(["hypersurface", "--poly", str(tmp_path / "F.txt")]) == 65
        assert "bad exponent list" in capsys.readouterr().err

    @pytest.mark.parametrize("slope", ["-1_0", "-\u0661", "-2/1", "-2.0"],
                             ids=["underscore", "arabic-digit", "fraction", "decimal"])
    def test_extend_slope_is_an_integer_literal(self, capsys, slope):
        with pytest.raises(SystemExit) as exc:
            main(["extend", "--curve", "c.json", "--subgraph", "g.json", "--fn", "f.json",
                  f"--slope={slope}"])
        assert exc.value.code == 2
        assert f"argument --slope: invalid int value: {slope!r}" in capsys.readouterr().err

    def test_bool_length_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"vertices": [{"id": "A"}, {"id": "B"}],
                                   "edges": [{"id": "e", "u": "A", "v": "B", "length": True}]}))
        assert main(["check-curve", "--curve", str(bad)]) == 65
        assert "not a bool" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ({"dim": 2, "vertices": [["0", "0"]], "rays": [[0, [1], 1]]},
         "ray direction (1,) has dimension 1, expected 2"),
        ({"dim": 2, "vertices": [["0", "0"]], "rays": [[0, [1.5, 0], 1], [0, [-1, 0], 1]]},
         "ray direction component must be an integer, not float"),
        ({"dim": 2, "vertices": [["0", "0"], ["1", "0"]], "segments": [[0, 1, True]]},
         "weight must be an integer, not bool"),
        ({"dim": True, "vertices": [["0"]]}, "dim must be an integer"),
        ({"dim": 2, "vertices": [["0", "0"]], "rays": [[0, 1, 1]]}, "invalid complex"),
    ], ids=["short-direction", "float-direction", "bool-weight", "bool-dim", "int-direction"])
    def test_malformed_complex_exits_65(self, tmp_path, capsys, data, message):
        (tmp_path / "k.json").write_text(json.dumps(data))
        assert main(["balance", "--complex", str(tmp_path / "k.json")]) == 65
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1.5", "1e3", "1_000", " 3/4 "],
                             ids=["decimal", "exponent", "underscore", "spaces"])
    def test_loose_rational_literal_exits_65(self, tmp_path, capsys, literal):
        # Only -?digits(/digits)? is a rational literal.
        data = {"dim": 2, "vertices": [[literal, "0"], ["1", "1"]], "segments": [[0, 1, 1]]}
        (tmp_path / "k.json").write_text(json.dumps(data))
        assert main(["balance", "--complex", str(tmp_path / "k.json")]) == 65
        assert f"bad coordinate: {literal!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("vertices", [[5], 5], ids=["int-vertex", "int-vertices"])
    def test_vertices_not_lists_exit_65(self, tmp_path, capsys, vertices):
        data = {"dim": 2, "vertices": vertices, "segments": [], "rays": []}
        (tmp_path / "k.json").write_text(json.dumps(data))
        assert main(["balance", "--complex", str(tmp_path / "k.json")]) == 65
        assert capsys.readouterr().err.startswith(
            "error: complex vertices must be a list of coordinate lists")

    def test_bool_degree_exits_65(self, workdir, capsys):
        m = {"vertex_map": {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"},
             "edge_map": {"left": {"edge": "left"}, "right": {"edge": "right"}},
             "degrees": {"left": True, "right": True}}
        (workdir / "m.json").write_text(json.dumps(m))
        assert main(["pullback", "--source", str(workdir / "line.json"),
                     "--target", str(workdir / "line.json"), "--morphism", str(workdir / "m.json"),
                     "--fn", str(workdir / "x.json")]) == 65
        assert "degree of 'left' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["false", "true", 0, None], ids=["false", "true", "zero", "null"])
    def test_non_bool_at_infinity_exits_65(self, tmp_path, capsys, flag):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"vertices": [{"id": "O"}, {"id": "X", "at_infinity": flag}],
                                   "edges": [{"id": "r", "u": "O", "v": "X", "length": "inf"}],
                                   "ray_classes": {"r": "k"}}))
        assert main(["check-curve", "--curve", str(bad)]) == 65
        assert "vertex 'X': at_infinity must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("load, data, message", [
        ("curve", {"vertices": [{"id": "A"}], "edges": {}}, "edges must be a JSON list, not dict"),
        ("curve", {"vertices": [{"id": "A"}, {"id": "B"}],
                   "edges": [{"id": "e", "u": "A", "v": None, "length": "1"}]},
         "edge endpoint must be a string, not NoneType: None"),
        ("subgraph", {"vertices": [0]}, "vertex id must be a string, not int: 0"),
        ("subgraph", {"intervals": [[1, "0", "1"]]}, "edge id must be a string, not int: 1"),
        ("function", {"values_at_vertices": []}, "values_at_vertices must be a JSON object"),
        ("morphism", {"edge_map": []}, "edge_map must be a JSON object, not list"),
        ("morphism", {"vertex_map": {"O": 0}}, "vertex id must be a string, not int: 0"),
        ("embedding", {"vertex_map": {"O": 0}}, "point must be a string, not int: 0"),
        ("embedding", {"vertex_map": {"O": {"offset": "1"}}},
         "point objects need vertex, or edge and offset"),
        ("embedding", {"vertex_map": {"O": {"edge": "right"}}},
         "point objects need vertex, or edge and offset"),
        ("complex", {"dim": 2, "vertices": [], "rays": {}}, "rays must be a JSON list, not dict"),
    ], ids=["curve-edges", "curve-null-endpoint", "subgraph-vertex", "subgraph-interval",
            "function-values", "morphism-edge-map", "morphism-vertex", "embedding-point",
            "embedding-point-without-edge", "embedding-point-without-offset", "complex-rays"])
    def test_container_shapes_and_string_ids(self, line, load, data, message):
        text = json.dumps(data)
        loaders = {"curve": lambda: tio.curve_from_json(text),
                   "subgraph": lambda: tio.subgraph_from_json(line, text),
                   "function": lambda: tio.function_from_json(line, text),
                   "morphism": lambda: tio.morphism_from_json(line, line, text),
                   "embedding": lambda: tio.embedding_from_json(line, line, text),
                   "complex": lambda: tio.complex_from_json(text)}
        with pytest.raises(FileFormatError) as exc:
            loaders[load]()
        assert message in str(exc.value)

    def test_float_length(self):
        text = json.dumps({"vertices": [{"id": "A"}, {"id": "B"}],
                           "edges": [{"id": "e", "u": "A", "v": "B", "length": 1.5}]})
        with pytest.raises(FileFormatError, match="float"):
            tio.curve_from_json(text)

    def test_nan_length(self):
        text = json.dumps({"vertices": [{"id": "A"}, {"id": "B"}],
                           "edges": [{"id": "e", "u": "A", "v": "B", "length": "nan"}]})
        with pytest.raises(FileFormatError):
            tio.curve_from_json(text)

    def test_json_error_carries_position(self):
        with pytest.raises(FileFormatError, match="line 1"):
            tio.curve_from_json("{nope}")

    @given(NUMBERS, st.sampled_from(["offset", "value"]))
    def test_breakpoint_numbers_keep_their_messages(self, x, where):
        _check_breakpoint_number(x, where)

    @pytest.mark.parametrize("x", [*LOOSE, 7, -10 ** 30, True, 1.5, None],
                             ids=[*map(str, range(len(LOOSE))), "int", "big-int", "bool",
                                  "float", "null"])
    @pytest.mark.parametrize("where", ["offset", "value"])
    def test_named_breakpoint_numbers_keep_their_messages(self, x, where):
        _check_breakpoint_number(x, where)

    @given(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=1, max_size=4))
    def test_a_file_reads_as_number_by_number(self, rows):
        # Each edge is read in one pass; a file is accepted as it is read one
        # number at a time, or rejected at its first bad number with its message.
        text = json.dumps({"e": {"breakpoints": [["0", "0"], *rows]}})
        assert _read(text) == _read_number_by_number(text)


class TestPlots:
    def test_svg_deterministic(self, tmp_path):
        K = plane_hypersurface(LINE_POLY)
        assert tio.complex_to_svg(K) == tio.complex_to_svg(K)
        assert tio.complex_to_svg(K).count("<line") == 3
        assert "<text" in tio.complex_to_svg(K)

    def test_csv_any_dimension(self, line):
        from tropcurve.realization import realize

        r = realize(line, [identity_fn(line)])
        text = tio.complex_to_csv(r.image)
        assert text.splitlines()[0] == "kind,index,data,weight"

    def test_svg_needs_dim_two(self, line):
        from tropcurve.realization import realize

        r = realize(line, [identity_fn(line)])
        with pytest.raises(Exception):
            tio.complex_to_svg(r.image)


@pytest.fixture
def workdir(tmp_path, line) -> Path:
    (tmp_path / "line.json").write_text(tio.curve_to_json(line))
    (tmp_path / "twox.json").write_text(tio.function_to_json(scaled_fn(line, 2)))
    (tmp_path / "x.json").write_text(tio.function_to_json(identity_fn(line)))
    K = plane_hypersurface(LINE_POLY)
    (tmp_path / "line0.json").write_text(tio.complex_to_json(K))
    (tmp_path / "line12.json").write_text(tio.complex_to_json(K.translate((1, 2))))
    (tmp_path / "poly.txt").write_text(tio.poly_to_text(LINE_POLY))
    return tmp_path


class TestCli:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["check-curve", "--curve", str(bad)]) == 65

    def test_check_curve(self, workdir, capsys):
        assert main(["check-curve", "--curve", str(workdir / "line.json")]) == 0
        assert "components=1" in capsys.readouterr().out

    def test_div_example(self, workdir, capsys):
        code = main(["div", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "twox.json"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"left.inf": 2, "right.inf": -2}

    def test_degree(self, workdir, capsys):
        main(["degree", "--curve", str(workdir / "line.json"),
              "--fn", str(workdir / "twox.json"), "--json"])
        assert json.loads(capsys.readouterr().out) == {"degree": 2}

    def test_harmonic_exit_codes(self, workdir):
        assert main(["harmonic", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "x.json"), "--point", "O"]) == 0
        assert main(["harmonic", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "x.json"), "--point", "right.inf"]) == 1

    @pytest.mark.parametrize("spec", ["P", "s@1", "l@2", "r.inf", "A", "s@1/2"],
                             ids=["vertex", "breakpoint", "loop-midpoint", "infinity",
                                  "harmonic-vertex", "harmonic-interior"])
    def test_harmonic_reports_the_divisor_coefficient(self, tmp_path, capsys, spec):
        c = Curve.build(vertices=["P"], edges=[("l", "P", "P", 4), ("s", "P", "A", 2),
                                               ("r", "P", None, "inf")], ray_classes={"r": "x"})
        f = PLFunction.from_edge_data(c, {"l": ([(0, 0), (2, 2), (4, 0)], None),
                                          "s": ([(0, 0), (1, 1), (2, 1)], None),
                                          "r": ([(0, 0)], 1)})
        (tmp_path / "c.json").write_text(tio.curve_to_json(c))
        (tmp_path / "f.json").write_text(tio.function_to_json(f))
        p = tio.parse_point(c, spec)
        coeff = principal_divisor(f).coeff(p)
        args = ["harmonic", "--curve", str(tmp_path / "c.json"), "--fn", str(tmp_path / "f.json"),
                "--point", spec]
        assert main(args) == (0 if coeff == 0 else 1)
        assert capsys.readouterr().out == f"harmonic at {p}: {coeff == 0} (coefficient {coeff})\n"
        main(args + ["--json"])
        assert capsys.readouterr().out == json.dumps(
            {"harmonic": coeff == 0, "coefficient": coeff}, indent=2) + "\n"

    def test_intersect_example(self, workdir, capsys):
        code = main(["intersect", "--a", str(workdir / "line0.json"),
                     "--b", str(workdir / "line12.json"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [{"point": ["1", "1"], "mult": 1}]

    def test_intersect_overlap_is_input_error(self, workdir, capsys):
        code = main(["intersect", "--a", str(workdir / "line0.json"),
                     "--b", str(workdir / "line0.json")])
        assert code == 2

    def test_hypersurface_and_fit(self, workdir, capsys):
        out = workdir / "K.json"
        assert main(["hypersurface", "--poly", str(workdir / "poly.txt"),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["fitpoly", "--complex", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 1

    def test_bezout(self, workdir, capsys):
        assert main(["bezout", "--a", str(workdir / "line0.json"),
                     "--b", str(workdir / "line12.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"sum": 1, "bound": 1, "degrees": [1, 1], "ok": True}

    def test_balance(self, workdir, capsys):
        assert main(["balance", "--complex", str(workdir / "line0.json")]) == 0

    def test_witness(self, workdir, capsys):
        assert main(["witness-disconnected", "--curve", str(workdir / "line.json")]) == 1
        assert "connected" in capsys.readouterr().out

    def test_localize(self, workdir, capsys):
        assert main(["localize", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "twox.json"), "--point", "O", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["germ"]["slopes"] == [-2, 2]

    def test_chipfire_and_restrict(self, workdir, capsys):
        sub = workdir / "sub.json"
        sub.write_text(json.dumps({"vertices": ["O"]}))
        out = workdir / "cf.json"
        assert main(["chipfire", "--curve", str(workdir / "line.json"),
                     "--subgraph", str(sub), "--length", "2", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["restrict", "--curve", str(workdir / "line.json"),
                     "--fn", str(out), "--subgraph", str(sub),
                     "-o", str(workdir / "part")]) == 0
        assert (workdir / "part.0.curve.json").exists()

    def test_restrict_writes_primed_ids_that_read_back(self, tmp_path, capsys):
        # The parent has a vertex named like the cut point e@1.
        c = Curve.build(vertices=["A", "B", "e@1"],
                        edges=[("e", "A", "B", 3), ("f", "B", "e@1", 1)])
        f = PLFunction.from_edge_data(c, {"e": ([(0, 0), (3, 3)], None),
                                          "f": ([(0, 3), (1, 10)], None)})
        (tmp_path / "c.json").write_text(tio.curve_to_json(c))
        (tmp_path / "f.json").write_text(tio.function_to_json(f))
        (tmp_path / "sub.json").write_text(json.dumps({"intervals": [["e", "1", "1"]]}))
        assert main(["restrict", "--curve", str(tmp_path / "c.json"), "--fn", str(tmp_path / "f.json"),
                     "--subgraph", str(tmp_path / "sub.json"), "-o", str(tmp_path / "part")]) == 0
        sub = tio.curve_from_json((tmp_path / "part.0.curve.json").read_text())
        part = tio.function_from_json(sub, (tmp_path / "part.0.fn.json").read_text())
        assert list(sub.vertices) == ["e@1'"] and part.value_at(sub.pt_vertex("e@1'")) == 1

    def test_a_point_name_that_reads_two_ways_is_rejected(self, tmp_path, capsys):
        # "e@1" is a vertex and offset 1 on edge e; "x@2" is a vertex, and no edge is x.
        c = Curve.build(vertices=["A", "e@1", "x@2"],
                        edges=[("e", "A", "e@1", 3), ("f", "e@1", "x@2", 1)])
        assert tio.parse_point(c, "x@2") == c.pt_vertex("x@2")
        assert tio.parse_point(c, "e@2") == c.pt_on_edge("e", 2)
        assert tio.parse_point(c, "e@3") == c.pt_vertex("e@1")
        with pytest.raises(FileFormatError,
                           match="point 'e@1' is ambiguous: vertex 'e@1', or offset 1 on edge 'e'"):
            tio.parse_point(c, "e@1")
        # Both readings of "e@0" are the vertex itself.
        named = Curve.build(vertices=["e@0"], edges=[("e", "e@0", "B", 1)])
        assert tio.parse_point(named, "e@0") == named.pt_vertex("e@0")
        f = PLFunction.from_edge_data(c, {"e": ([(0, 0), (3, 3)], None), "f": ([(0, 3), (1, 3)], None)})
        (tmp_path / "c.json").write_text(tio.curve_to_json(c))
        (tmp_path / "f.json").write_text(tio.function_to_json(f))
        args = ["harmonic", "--curve", str(tmp_path / "c.json"), "--fn", str(tmp_path / "f.json")]
        assert main(args + ["--point", "e@1"]) == 65
        assert main(args + ["--point", "x@2"]) == 0
        assert capsys.readouterr().out == "harmonic at x@2: True (coefficient 0)\n"

    def test_canonical(self, workdir, capsys):
        assert main(["canonical", "--curve", str(workdir / "line.json"), "--json"]) == 0

    def test_realize(self, workdir, capsys):
        assert main(["realize", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "x.json"),
                     "--fn", str(workdir / "twox.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["injective"] is True and payload["all_harmonic"] is True

    def test_ingest(self, workdir, capsys):
        assert main(["ingest", "--complex", str(workdir / "line0.json"),
                     "-o", str(workdir / "ing")]) == 0
        assert (workdir / "ing.curve.json").exists()
        assert (workdir / "ing.fn0.json").exists()

    def test_plot_determinism(self, workdir, capsys):
        a, b = workdir / "a.svg", workdir / "b.svg"
        assert main(["plot", "--complex", str(workdir / "line0.json"), "--out", str(a)]) == 0
        assert main(["plot", "--complex", str(workdir / "line0.json"), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        csv = workdir / "a.csv"
        assert main(["plot", "--complex", str(workdir / "line0.json"), "--out", str(csv)]) == 0
        assert csv.read_text().startswith("kind,")

    def test_internal_errors_exit_70(self, workdir, monkeypatch, capsys):
        from tropcurve import cli, realization

        # A failed self-check of the program's own result.
        monkeypatch.setattr(realization, "plane_hypersurface",
                            lambda F: plane_hypersurface(TropPoly.of(2, {(0, 0): 0, (2, 0): 0})))
        assert main(["fitpoly", "--complex", str(workdir / "line0.json")]) == 70
        out, err = capsys.readouterr()
        assert out == "" and err == "internal error: InternalError: fitted polynomial fails verification\n"
        # Any other exception escaping a command.
        monkeypatch.setattr(cli, "check_balanced", lambda k: {}["missing"])
        assert main(["balance", "--complex", str(workdir / "line0.json")]) == 70
        out, err = capsys.readouterr()
        assert out == "" and err == "internal error: KeyError: 'missing'\n"

    def test_selftest_quick(self, capsys):
        assert main(["selftest", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(r["suite"] for r in payload) == sorted(name for name, _ in selftest.SUITES)
        assert all(r["passed"] for r in payload)

    def test_selftest_parallel_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--parallel"])
        assert exc.value.code == 2

    def test_selftest_reports_a_crash_with_its_seed(self, monkeypatch, capsys):
        def crash(rng, cases):
            raise ValueError("boom")

        monkeypatch.setattr(selftest, "SUITES", [("crashing suite", crash)])
        assert main(["selftest", "--seed", "7"]) == 1
        out, err = capsys.readouterr()
        assert "FAIL  crashing suite: ValueError: boom; reproduce with --seed 7" in out
        assert "Traceback" not in out + err
        assert main(["selftest", "--seed", "7", "--json"]) == 1
        (entry,) = json.loads(capsys.readouterr().out)
        assert entry["detail"] == "ValueError: boom" and entry["seed"] == 7

    def test_selftest_fails_under_optimize(self):
        # python -O strips assert statements; a false law must still fail the run.
        code = ("import sys\n"
                "from tropcurve import selftest\n"
                "from tropcurve.cli import main\n"
                "from tropcurve.curve import Curve\n"
                "Curve.distance = lambda self, p, q: 1\n"
                "selftest.SUITES = [('distance is a metric', selftest.suite_metric)]\n"
                "print('optimize', sys.flags.optimize)\n"
                "sys.exit(main(['selftest', '--seed', '5']))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "optimize 1" in proc.stdout
        assert "FAIL  distance is a metric: AssertionError; reproduce with --seed 5" in proc.stdout

    def test_weight_generator_mode(self, workdir, capsys):
        assert main(["weight", "--curve", str(workdir / "line.json"),
                     "--fn", str(workdir / "twox.json"), "--edge", "right", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["weight"] == 2

    def test_glue_cli(self, workdir, tmp_path, capsys):
        s1 = Curve.segment(1, "A", "B", "e")
        s2 = Curve.segment(1, "C", "D", "f")
        pt = Curve.build(vertices=["P"])
        (tmp_path / "s1.json").write_text(tio.curve_to_json(s1))
        (tmp_path / "s2.json").write_text(tio.curve_to_json(s2))
        (tmp_path / "pt.json").write_text(tio.curve_to_json(pt))
        (tmp_path / "ea.json").write_text(json.dumps({"vertex_map": {"P": "B"}, "edge_map": {}}))
        (tmp_path / "eb.json").write_text(json.dumps({"vertex_map": {"P": "C"}, "edge_map": {}}))
        assert main(["glue", "--a", str(tmp_path / "s1.json"), "--b", str(tmp_path / "s2.json"),
                     "--shape", str(tmp_path / "pt.json"),
                     "--embed-a", str(tmp_path / "ea.json"),
                     "--embed-b", str(tmp_path / "eb.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["edges"]) == 2

    @pytest.mark.parametrize("orient, code", [(1, 0), (True, 65), (1.0, 65), ("1", 65)],
                             ids=["one", "true", "float", "string"])
    def test_glue_orientation_is_an_integer(self, tmp_path, capsys, orient, code):
        for name, (u, v, e) in {"a": ("A", "B", "e"), "b": ("C", "D", "f"),
                                "shape": ("S", "T", "g")}.items():
            (tmp_path / f"{name}.json").write_text(tio.curve_to_json(Curve.segment(1, u, v, e)))
        (tmp_path / "ea.json").write_text(json.dumps(
            {"vertex_map": {"S": "A", "T": "B"}, "edge_map": {"g": ["e", "0", orient]}}))
        (tmp_path / "eb.json").write_text(json.dumps(
            {"vertex_map": {"S": "C", "T": "D"}, "edge_map": {"g": ["f", "0", 1]}}))
        assert main(["glue", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                     "--shape", str(tmp_path / "shape.json"),
                     "--embed-a", str(tmp_path / "ea.json"),
                     "--embed-b", str(tmp_path / "eb.json"), "--json"]) == code
        if code == 65:
            assert "orientation must be 1 or -1" in capsys.readouterr().err

    def test_extend_cli(self, workdir, tmp_path, capsys):
        seg = Curve.segment(10)
        (tmp_path / "seg.json").write_text(tio.curve_to_json(seg))
        sub = tmp_path / "mid.json"
        sub.write_text(json.dumps({"intervals": [["e", "4", "6"]]}))
        from tropcurve.subgraph import make_subgraph
        from tropcurve.plfunction import restrict_whole

        g = make_subgraph(seg, intervals=[("e", 4, 6)])
        fp, _ = restrict_whole(PLFunction.constant(seg, 2), g)
        (tmp_path / "fp.json").write_text(tio.function_to_json(fp))
        out = tmp_path / "ext.json"
        assert main(["extend", "--curve", str(tmp_path / "seg.json"),
                     "--subgraph", str(sub), "--fn", str(tmp_path / "fp.json"),
                     "--slope", "-2", "-o", str(out)]) == 0
        ext = tio.function_from_json(seg, out.read_text())
        assert ext.value_at(seg.pt_on_edge("e", 3)) == 0

    def test_pullback_cli(self, workdir, tmp_path, capsys):
        m = {"vertex_map": {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"},
             "edge_map": {"left": {"edge": "left"}, "right": {"edge": "right"}},
             "degrees": {"left": 2, "right": 2}}
        (tmp_path / "m.json").write_text(json.dumps(m))
        out = tmp_path / "pb.json"
        assert main(["pullback", "--source", str(workdir / "line.json"),
                     "--target", str(workdir / "line.json"),
                     "--morphism", str(tmp_path / "m.json"),
                     "--fn", str(workdir / "x.json"), "-o", str(out)]) == 0
        line = tio.curve_from_json((workdir / "line.json").read_text())
        back = tio.function_from_json(line, out.read_text())
        assert back == scaled_fn(line, 2)

    def test_weight_morphism_mode(self, workdir, tmp_path, capsys):
        m = {"vertex_map": {"O": "O", "left.inf": "left.inf", "right.inf": "right.inf"},
             "edge_map": {"left": {"edge": "left"}, "right": {"edge": "right"}},
             "degrees": {"left": 2, "right": 2}}
        (tmp_path / "m.json").write_text(json.dumps(m))
        assert main(["weight", "--source", str(workdir / "line.json"),
                     "--target", str(workdir / "line.json"),
                     "--morphism", str(tmp_path / "m.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_weight"] and payload["edge_weights"] == {"left": 2, "right": 2}
