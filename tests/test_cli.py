import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqcalc import cells, cli, matroid, quadrics, segre
from cqcalc.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_json(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "4", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == 9
    assert payload["schema"] == 1
    assert payload["meta"]["params"] == {"n": 4, "d": 3}


def test_phi_text(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "3", "--d", "3")
    assert code == 0
    assert out.strip() == "4"


def test_json_round_trip_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "delta", "--m", "2", "--n", "3", "--r", "2",
                           "--format", "json")
    assert code == 0
    reloaded = json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert reloaded == out


def test_determinism(capsys):
    argv = ["toric", "mu-generic", "--n", "3", "--format", "json"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert json.loads(first[1])["result"] == [1, 3, 3, 1]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_domain_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "phi", "--n", "3", "--d", "99")
    assert code == 3
    assert "out of range" in err
    code, _, err = run_cli(capsys, "flag-integral", "--n", "3", "--b", "1,1")
    assert code == 3
    assert "degree mismatch" in err
    code, _, err = run_cli(capsys, "flag-integral", "--n", "1", "--b", "")
    assert code == 3
    assert "Fl_n needs n >= 2, got n=1" in err
    code, _, err = run_cli(capsys, "hypersurface-count", "--d", "6", "--n", "2", "--b", "1")
    assert code == 3
    assert "outside theorem hypotheses" in err


def test_matroid_graph_commands(tmp_path, capsys):
    graph = tmp_path / "c4.txt"
    graph.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
    code, out, _ = run_cli(capsys, "matroid", "charpoly", "--graph", str(graph),
                           "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["characteristic"]["coefficients"] == [-3, 6, -4, 1]
    assert result["reduced"] == [1, 3, 3]
    code, out, _ = run_cli(capsys, "matroid", "reduced", "--graph", str(graph))
    assert code == 0
    assert out.strip() == "1 3 3"
    code, out, _ = run_cli(capsys, "matroid", "chromatic", "--graph", str(graph),
                           "--format", "json")
    assert json.loads(out)["result"]["coefficients"] == [0, -3, 6, -4, 1]


def test_matroid_uniform_and_euler(capsys):
    code, out, _ = run_cli(capsys, "matroid", "reduced", "--uniform", "3,3")
    assert code == 0 and out.strip() == "1 2 1"
    code, out, _ = run_cli(capsys, "matroid", "euler", "--nu", "1,2,2,1")
    assert code == 0 and out.strip() == "0"


def test_deep_deletion_contraction(capsys):
    # 1500 levels of deletion-contraction, past the default recursion limit
    code, out, err = run_cli(capsys, "matroid", "charpoly", "--uniform", "1,1500",
                             "--format", "json")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["characteristic"]["coefficients"] == [-1, 1]
    assert result["reduced"] == [1]


def test_cells_histogram_flag(capsys):
    code, out, _ = run_cli(capsys, "cells", "--n", "3", "--histogram")
    assert code == 0
    assert out.strip() == "1 2 3 3 2 1"


def test_cells_actions(capsys):
    code, out, _ = run_cli(capsys, "cells", "enumerate", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["1|2", "12", "2|1"]
    code, out, _ = run_cli(capsys, "cells", "weight", "--sigma", "2|13")
    assert out.strip() == "3"
    code, out, _ = run_cli(capsys, "cells", "verify", "--sigma", "2|13",
                           "--values", "x13=1,x23=1,y1=1")
    assert out.strip() == "true"
    code, out, _ = run_cli(capsys, "cells", "verify", "--sigma", "13|2",
                           "--random", "--seed", "9", "--format", "json")
    assert json.loads(out)["result"] is True


CELLS_PARAM = {
    "1|2|3": (
        "sigma: 1|2|3\nfree_variables: x12\nx13\nx23\ny1\ny2\nfree_variable_count: 5\n"
        "X: 1 0 0\nx12 1 0\nx13 x23 1\nY: 1 0 0\n0 y1 0\n0 0 y1*y2\n"
        "companion: y1*y2 0 0\n0 y2 0\n0 0 1\n",
        '{"X": [["1", "0", "0"], ["x12", "1", "0"], ["x13", "x23", "1"]], '
        '"Y": [["1", "0", "0"], ["0", "y1", "0"], ["0", "0", "y1*y2"]], '
        '"companion": [["y1*y2", "0", "0"], ["0", "y2", "0"], ["0", "0", "1"]], '
        '"free_variable_count": 5, "free_variables": ["x12", "x13", "x23", "y1", "y2"], '
        '"sigma": "1|2|3"}',
    ),
    "2|13": (
        "sigma: 2|13\nfree_variables: x13\nx23\ny1\nfree_variable_count: 3\n"
        "X: 1 0 0\n0 1 0\nx13 x23 1\nY: 0 0 y1\n0 1 0\ny1 0 0\n"
        "companion: 0 0 1\n0 y1 0\n1 0 0\n",
        '{"X": [["1", "0", "0"], ["0", "1", "0"], ["x13", "x23", "1"]], '
        '"Y": [["0", "0", "y1"], ["0", "1", "0"], ["y1", "0", "0"]], '
        '"companion": [["0", "0", "1"], ["0", "y1", "0"], ["1", "0", "0"]], '
        '"free_variable_count": 3, "free_variables": ["x13", "x23", "y1"], '
        '"sigma": "2|13"}',
    ),
    "3|2|1": (
        "sigma: 3|2|1\nfree_variables: \nfree_variable_count: 0\n"
        "X: 1 0 0\n0 1 0\n0 0 1\nY: 0 0 0\n0 0 0\n0 0 1\n"
        "companion: 1 0 0\n0 0 0\n0 0 0\n",
        '{"X": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], '
        '"Y": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]], '
        '"companion": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], '
        '"free_variable_count": 0, "free_variables": [], "sigma": "3|2|1"}',
    ),
}


@pytest.mark.parametrize("sigma", ["1|2|3|4|5|6|7|8|9|10,11", "11|3,10|1,9|2|4,8|5,7|6"])
def test_cells_past_nine_elements_match_library(capsys, sigma):
    cell = cells.TwoPermutation.parse(sigma)
    assert cell.n == 11
    assert run_cli(capsys, "cells", "weight", "--sigma", sigma) == (
        0, f"{cells.weight(cell)}\n", "")
    code, out, _ = run_cli(capsys, "cells", "param", "--sigma", sigma, "--format", "json")
    result = json.loads(out)["result"]
    param = cells.cell_parametrization(cell)
    assert code == 0 and result["sigma"] == sigma
    for name in ("X", "Y", "companion"):
        assert result[name] == [[cells.format_entry(e) for e in row]
                                for row in getattr(param, name)]
    assert result["free_variables"] == list(param.free_variables())


def test_cells_sigma_past_sixteen_refused(capsys):
    sigma = "|".join(map(str, range(1, 18)))
    for action in ("weight", "param"):
        _assert_domain_error(capsys, ("cells", action, "--sigma", sigma),
                             "--sigma needs n <= 16, got n = 17")


@pytest.mark.parametrize("sigma", sorted(CELLS_PARAM))
def test_cells_param_output_pinned(capsys, sigma):
    text, result = CELLS_PARAM[sigma]
    assert run_cli(capsys, "cells", "param", "--sigma", sigma) == (0, text, "")
    payload = (f'{{"meta": {{"command": "cells param", "params": {{"sigma": "{sigma}"}}}}, '
               f'"result": {result}, "schema": 1}}\n')
    assert run_cli(capsys, "cells", "param", "--sigma", sigma,
                   "--format", "json") == (0, payload, "")


def test_toric_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "toric", "fan-check", "--permutohedral", "2",
                           "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"smooth": True, "complete": True, "rank": 2, "rays": 6,
                      "maximal_cones": 6}

    from cqcalc.toric import format_fan, permutohedral_fan

    fan_file = tmp_path / "hexagon.txt"
    fan_file.write_text(format_fan(permutohedral_fan(2)))
    code, out, _ = run_cli(capsys, "toric", "fan-check", "--fan", str(fan_file))
    assert code == 0

    # integrate the point class x1 * x12 written with 1-based ray indices
    fan = permutohedral_fan(2)
    idx = {label: i + 1 for i, label in enumerate(fan.ray_labels)}
    cls = json.dumps([{"rays": [idx["x1"], idx["x12"]], "coeff": 1}])
    code, out, _ = run_cli(capsys, "toric", "integral", "--fan", str(fan_file),
                           "--class", cls)
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("rays", [[99, 1], [0, 1]])
def test_toric_ray_index_outside_fan(capsys, rays):
    # 1-based on the command line: 99 is past the six rays, 0 becomes -1
    cls = json.dumps([{"rays": rays, "coeff": 1}])
    code, out, err = run_cli(capsys, "toric", "integral", "--permutohedral", "2",
                             "--class", cls)
    assert code == 3 and out == ""
    assert err == "error: term does not span a cone\n"


def _assert_domain_error(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("matrix", ["[1,2]", "7"])
def test_matroid_matrix_must_be_rows(capsys, matrix):
    _assert_domain_error(capsys, ("matroid", "charpoly", "--matrix", matrix),
                         "matrix must be a JSON list of rows")


def test_toric_class_ray_indices_must_be_integers(capsys):
    cls = json.dumps([{"rays": ["a"]}])
    _assert_domain_error(capsys, ("toric", "integral", "--permutohedral", "2",
                                  "--class", cls), "ray indices must be integers")


@pytest.mark.parametrize("rays", [[1.7, 4.2], [True, 4]])
def test_toric_class_ray_indices_are_not_truncated(capsys, rays):
    # int() would read these as rays 1 and 4, which span a cone
    cls = json.dumps([{"rays": rays}])
    _assert_domain_error(capsys, ("toric", "integral", "--permutohedral", "2",
                                  "--class", cls), "ray indices must be integers")


@pytest.mark.parametrize("rays, named", [([1, 1, 4], "ray 1"), ([4, 1, 4], "ray 4")])
def test_toric_class_ray_repeated_in_a_term(capsys, rays, named):
    # x1^2 * x12 has degree 3; folding it into the set {x1, x12} would
    # integrate x1 * x12 = 1 instead
    cls = json.dumps([{"rays": rays}])
    _assert_domain_error(capsys, ("toric", "integral", "--permutohedral", "2",
                                  "--class", cls), f"{named} repeated")


@pytest.mark.parametrize("text", [
    "a b c\n",
    "2 2 1\n1 0\na b\n1 2\n",
    "2 2 1\n1 0\n0 1\n1 x\n",
])
def test_fan_file_tokens_must_be_integers(tmp_path, capsys, text):
    fan_file = tmp_path / "fan.txt"
    fan_file.write_text(text)
    _assert_domain_error(capsys, ("toric", "fan-check", "--fan", str(fan_file)),
                         "is not all integers")


@pytest.mark.parametrize("command", ["charpoly", "reduced", "chromatic"])
@pytest.mark.parametrize("text, needle", [
    ("a b\n", "is not all integers"),
    ("3 1\n1 2.5\n", "is not all integers"),
    ("3 -1\n", "must be nonnegative"),
    ("3 1\n1 2 3\n", "dangling token"),
])
def test_graph_file_tokens_must_be_integers(tmp_path, capsys, command, text, needle):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(text)
    _assert_domain_error(capsys, ("matroid", command, "--graph", str(graph_file)),
                         needle)


@pytest.mark.parametrize("text, needle", [
    # rays (1,0), (0,1), (-1,-1) with two of the three cones
    ("2 3 2\n1 0\n0 1\n-1 -1\n1 2\n2 3\n", "fan not complete"),
    # (2,0), (0,1) span a cone of index 2; there D1.D2 = 1/2
    ("2 4 4\n2 0\n0 1\n-1 0\n0 -1\n1 2\n2 3\n3 4\n4 1\n", "fan not smooth"),
    # 1 + (-1) + 2 lines: the count matches only if the header is read back
    ("2 -1 2\n1 2\n", "fan header 'rank #rays #cones' must be nonnegative"),
    # a repeated index does not make a cone of fewer rays
    ("2 2 1\n1 0\n0 1\n1 2 2\n", "fan cone '1 2 2' repeats a ray"),
    # rays but no maximal cone
    ("2 3 0\n1 0\n0 1\n-1 -1\n", "fan not complete"),
])
def test_toric_integral_checks_fan_file(tmp_path, capsys, text, needle):
    fan_file = tmp_path / "fan.txt"
    fan_file.write_text(text)
    cls = json.dumps([{"rays": [1, 2], "coeff": 1}])
    _assert_domain_error(capsys, ("toric", "integral", "--fan", str(fan_file),
                                  "--class", cls), needle)


@pytest.mark.parametrize("n", [9, 10**6])
@pytest.mark.parametrize("argv", [
    ("toric", "fan-check", "--permutohedral"),
    ("toric", "mu-generic", "--n"),
    ("toric", "integral", "--permutohedral"),
])
def test_permutohedral_fan_past_reach_refused(capsys, argv, n):
    # (n+1)! maximal cones: refused before any is built
    cls = ("--class", "[]") if argv[1] == "integral" else ()
    _assert_domain_error(capsys, (*argv, str(n), *cls),
                         f"permutohedral fan needs n <= 8, got n = {n}")


@pytest.mark.parametrize("n", [9, 10**6])
def test_mu_generic_past_reach_refused(capsys, n):
    # n = 9 would build 10! cones; the fan refuses before it builds any
    _assert_domain_error(capsys, ("toric", "mu-generic", "--n", str(n)),
                         f"permutohedral fan needs n <= 8, got n = {n}")


@pytest.mark.parametrize("n", [9, 10, 20])
def test_product_past_reach_refused(capsys, n):
    # a well-formed CQ_9 product would reduce with no bound on its work;
    # refused before the first step
    b = [0] * (n - 1)
    for k in range(n * (n + 1) // 2 - 1):
        b[k % (n - 1)] += 1
    _assert_domain_error(capsys, ("product", "--n", str(n), "--a", ",".join(["0"] * (n - 1)),
                                  "--b", ",".join(map(str, b))),
                         f"intersection product needs n <= 8, got n = {n}")
    # a malformed one still names its own fault
    _assert_domain_error(capsys, ("product", "--n", str(n), "--a", ",".join(["0"] * (n - 1)),
                                  "--b", ",".join(["1"] * (n - 1))), "degree mismatch")


@pytest.mark.parametrize("n", [13, 14, 30])
def test_flag_integral_past_reach_refused(capsys, n):
    # a balanced Fl_13 integral would deal for about 30 s; refused before
    # the first step, and a malformed one still names its own fault
    b = [n // 2] * (n - 1)
    b[0] += n * (n - 1) // 2 - sum(b)
    _assert_domain_error(capsys, ("flag-integral", "--n", str(n), "--b", ",".join(map(str, b))),
                         f"flag integral needs n <= 12, got n = {n}")
    _assert_domain_error(capsys, ("flag-integral", "--n", str(n), "--b", ",".join(["1"] * (n - 1))),
                         "degree mismatch")


@pytest.mark.parametrize("n", [9, 10**6])
def test_two_permutation_enumeration_past_reach_refused(capsys, n):
    # n = 9 would list 4,740,120 cells; the histogram counts them instead
    _assert_domain_error(capsys, ("cells", "enumerate", "--n", str(n)),
                         f"two-permutation enumeration needs n <= 8, got n = {n}")
    code, out, _ = run_cli(capsys, "cells", "--n", "9", "--histogram")
    assert code == 0 and sum(map(int, out.split())) == 4_740_120


def test_segre_commands(tmp_path, capsys):
    data = '{"degF":4,"nL":2,"mY":1,"s":[0,6]}'
    code, out, _ = run_cli(capsys, "segre", "mu", "--data", data, "--i", "2",
                           "--format", "json")
    assert code == 0 and json.loads(out)["result"] == 3
    data_file = tmp_path / "segre.json"
    data_file.write_text(data)
    code, out, _ = run_cli(capsys, "segre", "mu", "--data", f"@{data_file}", "--i", "2")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "segre", "correct", "--mu", "4", "--n", "5",
                           "--s=-7,2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "segre", "compare", "--mu", "1,2,4,4",
                           "--nu", "1,2,2,1")
    assert code == 0 and out.strip() == "true"


def test_monk_and_product(capsys):
    code, out, _ = run_cli(capsys, "monk", "--i", "2", "--w", "2,1,3",
                           "--format", "json")
    assert json.loads(out)["result"] == {"2,3,1": 1, "3,1,2": 1}
    code, out, _ = run_cli(capsys, "product", "--n", "3", "--a", "0,0", "--b", "5,0")
    assert out.strip() == "1"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, value", [
    (("hypersurface-count", "--d", "1000", "--n", "400", "--b", "10"),
     lambda: quadrics.hypersurface_characteristic_number(1000, 400, 10)),
    (("segre", "mu", "--data", '{"degF":3,"nL":20000,"mY":0,"s":[0]}', "--i", "20000"),
     lambda: segre.mu_from_segre(segre.SegreData(3, 20000, 0, (0,)), 20000)),
], ids=["hypersurface-count", "segre-mu"])
def test_results_past_the_int_digit_limit_print(capsys, argv, value, fmt):
    # both values run past 4,300 digits, Python's default limit on str(int)
    # and int(str) from 3.10.7 on; main lifts it for its output only
    limited = hasattr(sys, "set_int_max_str_digits")
    limit = sys.get_int_max_str_digits() if limited else None
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    assert len(out) > 4300
    if limited:
        assert sys.get_int_max_str_digits() == limit
        # reading the output back needs the limit lifted here too
        sys.set_int_max_str_digits(0)
    try:
        got = json.loads(out)["result"] if fmt == "json" else int(out)
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)
    assert got == value()


def test_bad_inputs_are_domain_errors(capsys):
    code, _, err = run_cli(capsys, "matroid", "euler", "--nu", "a,b")
    assert code == 3 and "integer list" in err
    code, _, err = run_cli(capsys, "matroid", "charpoly", "--graph", "/nonexistent.txt")
    assert code == 3 and "cannot read" in err
    code, _, err = run_cli(capsys, "toric", "integral", "--permutohedral", "2",
                           "--class", '{"bad": 1}')
    assert code == 3
    code, _, err = run_cli(capsys, "segre", "mu", "--data", "not json", "--i", "0")
    assert code == 3 and "bad JSON" in err


def test_phi_poly_json(capsys):
    code, out, _ = run_cli(capsys, "phi-poly", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["coefficients"] == [-1, 1]
    assert payload["meta"]["params"] == {"d": 2}
    with pytest.raises(SystemExit) as exc:
        main(["phi-poly", "--d", "2", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_timings_flag_adds_meta(capsys):
    code, out, _ = run_cli(capsys, "phi", "--n", "3", "--d", "1",
                           "--format", "json", "--timings")
    payload = json.loads(out)
    assert "elapsed_ms" in payload["meta"]


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "cqcalc.cli", "phi", "--n", "3", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


@pytest.mark.parametrize("argv, needle", [
    (("matroid", "reduced", "--uniform", "3"), "--uniform takes rank,size"),
    (("cells", "weight", "--sigma", "a|b"), "--sigma takes digit blocks"),
    (("segre", "mu", "--data", "[1]", "--i", "1"), "must be a JSON object"),
    (("segre", "nu", "--data", '{"degF":4,"nL":2,"mY":1,"s":5}', "--i", "1"),
     "needs integers"),
    (("segre", "mu", "--data", '{"degF":2,"nL":1,"mY":0,"s":["x"]}', "--i", "1"),
     "needs integers"),
    (("segre", "mu", "--data", '{"degF":2,"nL":"1","mY":0,"s":[1]}', "--i", "1"),
     "needs integers"),
    (("segre", "mu", "--data", '{"degF":2,"nL":1,"mY":0,"s":[1.5]}', "--i", "1"),
     "needs integers"),
    (("segre", "mu", "--data", '{"degF":2.5,"nL":1,"mY":0,"s":[1]}', "--i", "1"),
     "needs integers"),
    (("segre", "mu", "--data", '{"degF":1e400,"nL":1,"mY":0,"s":[1]}', "--i", "1"),
     "needs integers"),
])
def test_malformed_values_are_usage_errors(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and needle in err


@pytest.mark.parametrize("command, my", [("mu", -5), ("nu", -1), ("mu", 1)])
def test_segre_my_outside_range_is_domain_error(capsys, command, my):
    data = json.dumps({"degF": 2, "nL": 1, "mY": my, "s": [0] * max(my + 1, 0)})
    code, out, err = run_cli(capsys, "segre", command, "--data", data, "--i", "1")
    assert code == 3 and out == ""
    assert err == f"error: mY must be in 0..0, got {my}\n"


@pytest.mark.parametrize("argv", [
    ("phi", "--n=--", "--d", "3"),
    ("cells", "weight", "--sigma=--"),
    ("matroid", "reduced", "--uniform=--"),
    ("segre", "mu", "--data=--", "--i", "1"),
    ("toric", "integral", "--permutohedral", "2", "--class=--"),
    ("cells", "verify", "--sigma", "2|13", "--values=--"),
    ("product", "--n=--", "--a", "1", "--b", "2"),
    ("cells", "--n=--", "--histogram"),
    ("flag-integral", "--n", "3", "--b=--"),
], ids=" ".join)
def test_double_dash_option_value_is_usage_error(capsys, argv):
    # argparse before Python 3.13 turns `--opt=--` into an empty list;
    # 3.13 rejects it for an int option and passes "--" to the others
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code, needle = exc.code, "argument --n: invalid int value: '--'\n"
    else:
        needle = "usage error: '--' is not an option value\n"
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.endswith(needle)


def test_charpoly_computes_chi_once(capsys, monkeypatch):
    calls = []
    real = matroid.characteristic_polynomial

    def counted(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(matroid, "characteristic_polynomial", counted)
    code, out, _ = run_cli(capsys, "matroid", "charpoly", "--uniform", "3,6")
    assert code == 0 and len(calls) == 1
    assert out.splitlines()[1] == "reduced: 1 5 10"


def test_cli_import_leaves_out_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import cqcalc.cli, sys; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"


# --- the parser built for argv[0] against the full parser -------------------

def _subcommands(parser, prefix=()):
    """(path, parser) for every subcommand below `parser`, in usage order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,), sub
                yield from _subcommands(sub, prefix + (name,))


SUBCOMMANDS = [path for path, _ in _subcommands(build_parser())]
LEAVES = [path for path, sub in _subcommands(build_parser())
          if sub.get_default("handler") is not None]

# One valid argv per leaf subcommand.
VALID_ARGV = [
    ("phi", "--n", "4", "--d", "3"),
    ("phi-poly", "--d", "2", "--format", "json"),
    ("delta", "--m", "2", "--n", "3", "--r", "2"),
    ("delta-poly", "--m", "2", "--s", "2", "--timings"),
    ("phi-c", "--n", "3", "--c", "1", "--d", "2"),
    ("product", "--n", "3", "--a", "0,0", "--b", "5,0"),
    ("pataki", "--m", "1", "--n", "3", "--r", "1"),
    ("flag-integral", "--n", "3", "--b", "1,2"),
    ("monk", "--i", "1", "--w", "2,1,3"),
    ("hypersurface-count", "--d", "5", "--n", "2", "--b", "1"),
    ("matroid", "charpoly", "--uniform", "3,6", "--format", "json"),
    ("matroid", "reduced", "--matrix", "[[1, 1, 0]]"),
    ("matroid", "chromatic", "--graph", "c4.txt"),
    ("matroid", "euler", "--nu", "1,2,1"),
    ("toric", "fan-check", "--permutohedral", "2"),
    ("toric", "mu-generic", "--n", "3"),
    ("toric", "integral", "--fan", "hexagon.txt", "--class", "[]"),
    ("cells", "--n", "3", "--histogram"),
    ("cells", "enumerate", "--n", "3"),
    ("cells", "weight", "--sigma", "2|13"),
    ("cells", "param", "--sigma", "1|2|3"),
    ("cells", "verify", "--sigma", "2|13", "--random", "--seed", "4"),
    ("segre", "mu", "--data", "{}", "--i", "1"),
    ("segre", "nu", "--data", "@nu.json", "--i", "3"),
    ("segre", "correct", "--mu", "4", "--n", "5", "--s=-7,2"),
    ("segre", "compare", "--mu", "1,2", "--nu", "1,2"),
]


def _parse(parser, argv, capsys):
    try:
        namespace, code = parser.parse_args(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, namespace, captured.out, captured.err


def test_parser_is_built_for_argv0_only():
    assert len(SUBCOMMANDS) == 29 and len(LEAVES) == 26
    for path in SUBCOMMANDS:
        built = [p for p, _ in _subcommands(build_parser(list(path)))]
        assert built[0] == path[:1]
        assert built == [p for p in SUBCOMMANDS if p[0] == path[0]]
    for argv in ([], ["-h"], ["frobnicate"], ["--format", "json", "phi"]):
        assert [p for p, _ in _subcommands(build_parser(argv))] == SUBCOMMANDS


@pytest.mark.parametrize("path", SUBCOMMANDS, ids=" ".join)
def test_filtered_help_matches_full_parser(capsys, path):
    argv = [*path, "--help"]
    filtered = _parse(build_parser(argv), argv, capsys)
    assert filtered == _parse(build_parser(), argv, capsys)
    assert filtered[0] == 0 and filtered[2].startswith(f"usage: cq {' '.join(path)} ")


def test_filtered_namespace_matches_full_parser(capsys):
    commands = set()
    for argv in VALID_ARGV:
        code, namespace, out, err = _parse(build_parser(list(argv)), list(argv), capsys)
        assert code is None and out == err == "", argv
        assert namespace == build_parser().parse_args(list(argv)), argv
        commands.add(namespace.command_name)
    assert commands == {" ".join(path) for path in LEAVES}


@pytest.mark.parametrize("argv, code, needle", [
    ([], 2, "usage: cq [-h]"),
    (["-h"], 0, None),
    (["frobnicate"], 2, "cq: error: argument command: invalid choice: 'frobnicate'"),
    (["matroid"], 2, "cq matroid: error: the following arguments are required: action"),
    (["matroid", "bogus"], 2, "invalid choice: 'bogus'"),
    (["phi", "--n", "x", "--d", "1"], 2, "cq phi: error: argument --n: invalid int value"),
    (["phi-poly", "--d", "2", "--jobs", "2"], 2, "unrecognized arguments: --jobs 2"),
])
def test_usage_errors_match_full_parser(capsys, monkeypatch, argv, code, needle):
    def outcome():
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    filtered = outcome()
    full_parser = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full_parser())
    assert filtered == outcome()
    assert filtered[0] == code
    if needle is None:
        assert filtered[1].startswith("usage: cq [-h]") and filtered[2] == ""
    else:
        assert needle in filtered[2]


# The leaves that are one `_call` entry, with one argv each and the values
# it parses to.
CALL_LEAVES = [
    (("phi", "--n", "4", "--d", "3"), {"n": 4, "d": 3}),
    (("phi-poly", "--d", "2"), {"d": 2}),
    (("delta", "--m", "2", "--n", "3", "--r", "2"), {"m": 2, "n": 3, "r": 2}),
    (("delta-poly", "--m", "2", "--s", "1"), {"m": 2, "s": 1}),
    (("phi-c", "--n", "3", "--c", "1", "--d", "2"), {"n": 3, "c": 1, "d": 2}),
    (("product", "--n", "3", "--a", "0,0", "--b", "5 0"),
     {"n": 3, "a": [0, 0], "b": [5, 0]}),
    (("pataki", "--m", "1", "--n", "3", "--r", "1"), {"m": 1, "n": 3, "r": 1}),
    (("flag-integral", "--n", "3", "--b", "1,2"), {"n": 3, "b": [1, 2]}),
    (("hypersurface-count", "--d", "5", "--n", "2", "--b", "1"),
     {"d": 5, "n": 2, "b": 1}),
    (("matroid", "euler", "--nu", "1,2,1"), {"nu": [1, 2, 1]}),
    (("toric", "mu-generic", "--n", "3"), {"n": 3}),
    (("segre", "compare", "--mu", "1,2", "--nu", "1,-2"),
     {"mu": [1, 2], "nu": [1, -2]}),
]


def _command(argv):
    return " ".join(itertools.takewhile(lambda a: not a.startswith("--"), argv))


def test_call_leaves_are_the_table_entries():
    calls = {" ".join(path) for path, sub in _subcommands(build_parser())
             if getattr(sub.get_default("handler"), "__qualname__", "")
             == "_call.<locals>.handler"}
    assert calls == {_command(argv) for argv, _ in CALL_LEAVES}


@pytest.mark.parametrize("argv, params", CALL_LEAVES,
                         ids=[_command(argv) for argv, _ in CALL_LEAVES])
def test_call_leaves_echo_parsed_values(capsys, argv, params):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    meta = json.loads(out)["meta"]
    assert meta == {"command": _command(argv), "params": params}


# --- what a cold `cq` process imports ---------------------------------------

# The library modules each leaf's handler loads, by the leaf's first word;
# every `cq` process also loads cqcalc, cqcalc.cli and cqcalc.exactmath.
LEAF_MODULES = {
    **dict.fromkeys(
        ("phi", "phi-poly", "delta", "delta-poly", "phi-c", "product", "pataki",
         "hypersurface-count"),
        {"quadrics", "schubert"},
    ),
    "flag-integral": {"schubert"},
    "monk": {"schubert"},
    "matroid": {"matroid"},
    "toric": {"toric"},
    "cells": {"cells"},
    "segre": {"segre"},
}
# Options whose value is JSON data.
JSON_OPTIONS = {"--matrix", "--class", "--data"}
FOOTPRINT_CODE = (
    "import sys\n"
    "from cqcalc.cli import main\n"
    "main()\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('cqcalc'))\n"
    "print(*loaded, 'json' in sys.modules, file=sys.stderr)\n"
)


@pytest.mark.parametrize("argv", VALID_ARGV, ids=_command)
def test_cold_leaf_loads_only_its_modules(tmp_path, argv):
    from cqcalc.toric import format_fan, permutohedral_fan

    (tmp_path / "c4.txt").write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
    (tmp_path / "hexagon.txt").write_text(format_fan(permutohedral_fan(2)))
    (tmp_path / "nu.json").write_text('{"degF": 4, "nL": 2, "mY": 1, "s": [0, 6]}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_CODE, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    *loaded, json_loaded = proc.stderr.splitlines()[-1].split()
    modules = {"cli", "exactmath", *LEAF_MODULES[argv[0]]}
    assert loaded == sorted(["cqcalc", *(f"cqcalc.{m}" for m in modules)])
    # text output and integer options never need json
    assert json_loaded == str("json" in argv or bool(JSON_OPTIONS & set(argv)))


def test_domain_error_past_delta_work_budget(capsys):
    code, out, err = run_cli(capsys, "delta", "--m", "400", "--n", "40", "--r", "20")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "work budget" in err
