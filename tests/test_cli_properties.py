"""Property test of the CLI exit-code contract: on any argv drawn for the
closed-form subcommands, `flag-integral`, `product`, the Chow-group
histogram, `toric mu-generic`, `cells weight|param|verify` and
`segre mu|nu`, `main` returns 0, 2 or 3 or argparse exits with 2, and no
other exception escapes.  Each value is passed as `--flag value` or `--flag=value`, and
may be `--`."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cqcalc.cli import main

INT = st.integers(-2, 10).map(str)
# A flag integral with n <= 10 takes under 0.1 s once the volume table on
# seven variables is built, which the first one with n >= 8 does in about
# 0.2 s, so no drawn list can hang.
INT_LIST = st.lists(st.integers(-2, 10), max_size=10).map(lambda xs: ",".join(map(str, xs)))
# Bar syntax, mostly well formed; a cell of up to 8 elements parametrizes
# in milliseconds, and only n = 3 cells verify.
SIGMA = st.one_of(
    st.lists(st.text("123", min_size=1, max_size=2), min_size=1, max_size=4).map("|".join),
    st.text("12345678|a -,", max_size=9),
)
ASSIGNMENT = st.tuples(
    st.sampled_from(["x12", "x13", "x23", "y1", "y2", "z", ""]),
    st.sampled_from(["1", "-2/3", "5", "0", "1/0", "a", ""]),
).map("=".join)
VALUES = st.one_of(
    st.lists(ASSIGNMENT, max_size=6).map(",".join),
    st.text("xy123=,/-", max_size=12),
)
# A JSON value that is no integer.
NOT_INT = st.one_of(st.floats(), st.text("01x", max_size=3), st.none())


@st.composite
def segre_data(draw):
    """Valid Segre data (mY in 0..nL-1 and one s_j for each j <= mY) as a
    JSON object, mostly with one field spoiled: degF, nL, mY or one s_j
    made a float, a string or null, mY out of range, s of the wrong
    length, or a field left out."""
    nl = draw(st.integers(1, 10))
    my = draw(st.integers(0, nl - 1))
    data = {"degF": draw(st.integers(1, 10)), "nL": nl, "mY": my,
            "s": draw(st.lists(st.integers(-9, 9), min_size=my + 1, max_size=my + 1))}
    spoil = draw(st.sampled_from(["", "degF", "nL", "mY", "s_j", "range", "length", "missing"]))
    if spoil in ("degF", "nL", "mY"):
        data[spoil] = draw(NOT_INT)
    elif spoil == "s_j":
        data["s"][draw(st.integers(0, my))] = draw(NOT_INT)
    elif spoil == "range":
        data["mY"] = draw(st.sampled_from([-1, nl, nl + 1]))
    elif spoil == "length":
        data["s"] = draw(st.lists(st.integers(-9, 9), max_size=12).filter(
            lambda s: len(s) != my + 1))
    elif spoil == "missing":
        del data[draw(st.sampled_from(sorted(data)))]
    return json.dumps(data)


SEGRE_DATA = segre_data()

# Command words -> {flag: value strategy, or None for a bare flag}.
# `product` runs the general reduction, which has no work budget, so its n
# stops at 7: the slowest CQ_7 monomial with exponents <= 10 answers in
# about 0.25 s.  The histogram with n <= 8 and mu_generic with n <= 4 each
# answer in under 0.1 s.
FLAGS = {
    "phi": {"--n": INT, "--d": INT},
    "phi-c": {"--n": INT, "--c": INT, "--d": INT},
    "delta": {"--m": INT, "--n": INT, "--r": INT},
    "pataki": {"--m": INT, "--n": INT, "--r": INT},
    "phi-poly": {"--d": INT},
    "delta-poly": {"--m": INT, "--s": INT},
    "hypersurface-count": {"--d": INT, "--n": INT, "--b": INT},
    "flag-integral": {"--n": INT, "--b": INT_LIST},
    "product": {"--n": st.integers(-2, 7).map(str), "--a": INT_LIST, "--b": INT_LIST},
    "cells": {"--histogram": None, "--n": st.integers(-2, 8).map(str)},
    "toric mu-generic": {"--n": st.integers(-2, 4).map(str)},
    "cells weight": {"--sigma": SIGMA},
    "cells param": {"--sigma": SIGMA},
    "cells verify": {"--sigma": SIGMA, "--values": VALUES, "--random": None, "--seed": INT},
    "segre mu": {"--data": SEGRE_DATA, "--i": INT},
    "segre nu": {"--data": SEGRE_DATA, "--i": INT},
}
# Flags of which argparse takes exactly one, by command words: a drawn argv
# leaves out one of them, so that it still reaches the handler.
ONE_OF = {"cells verify": ("--values", "--random")}


@st.composite
def argvs(draw, commands=tuple(sorted(FLAGS))):
    command = draw(st.sampled_from(commands))
    flags = FLAGS[command]
    # at most one flag left out, so most argv reach the handler
    omitted = draw(st.sets(st.sampled_from(sorted(flags)), max_size=1))
    if command in ONE_OF:
        omitted.add(draw(st.sampled_from(ONE_OF[command])))
    argv = command.split()
    for flag, values in flags.items():
        if flag in omitted:
            continue
        if values is None:
            argv.append(flag)
            continue
        value = draw(st.one_of(values, st.just("--")))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(deadline=None, max_examples=200)
@given(argvs())
def test_exit_code_contract(argv):
    _assert_contract(argv)


@settings(deadline=None, max_examples=200)
@given(argvs(("segre mu", "segre nu")))
def test_segre_exit_code_contract(argv):
    # Most spoiled fields reach the evaluator only when SegreData lets a
    # non-integer through, so they get examples of their own.
    _assert_contract(argv)


def _assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
