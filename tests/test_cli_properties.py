"""Property test of the CLI exit-code contract: on any argv drawn for the
closed-form subcommands, `flag-integral`, the Chow-group histogram,
`toric mu-generic`, `cells weight|param|verify` and `segre mu|nu`, `main`
returns 0, 2 or 3 or argparse exits with 2, and no other exception
escapes.  Each value is passed as `--flag value` or `--flag=value`, and
may be `--`."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cqcalc.cli import main

INT = st.integers(-2, 10).map(str)
# A flag integral with n <= 10 takes under 0.1 s, so no drawn list can hang.
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
# Segre data: a JSON object whose fields are ints, floats, strings, null or
# lists, one of them sometimes missing.
SEGRE_FIELD = st.one_of(
    st.integers(-2, 10), st.floats(), st.text("01x", max_size=3), st.none(),
    st.lists(st.one_of(st.integers(-9, 9), st.floats(), st.text("1x", max_size=2),
                       st.none()), max_size=4),
)
SEGRE_DATA = st.dictionaries(st.sampled_from(["degF", "nL", "mY", "s"]), SEGRE_FIELD,
                             min_size=3).map(json.dumps)

# Command words -> {flag: value strategy, or None for a bare flag}.
# `product` is left out: it runs the general reduction, which has no work
# budget yet, so a drawn argv can run for a long time.  The histogram with
# n <= 8 and mu_generic with n <= 4 each answer in under 0.1 s.
FLAGS = {
    "phi": {"--n": INT, "--d": INT},
    "phi-c": {"--n": INT, "--c": INT, "--d": INT},
    "delta": {"--m": INT, "--n": INT, "--r": INT},
    "pataki": {"--m": INT, "--n": INT, "--r": INT},
    "phi-poly": {"--d": INT},
    "delta-poly": {"--m": INT, "--s": INT},
    "hypersurface-count": {"--d": INT, "--n": INT, "--b": INT},
    "flag-integral": {"--n": INT, "--b": INT_LIST},
    "cells": {"--histogram": None, "--n": st.integers(-2, 8).map(str)},
    "toric mu-generic": {"--n": st.integers(-2, 4).map(str)},
    "cells weight": {"--sigma": SIGMA},
    "cells param": {"--sigma": SIGMA},
    "cells verify": {"--sigma": SIGMA, "--values": VALUES, "--random": None, "--seed": INT},
    "segre mu": {"--data": SEGRE_DATA, "--i": INT},
    "segre nu": {"--data": SEGRE_DATA, "--i": INT},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    # at most one flag left out, so most argv reach the handler
    omitted = draw(st.sets(st.sampled_from(sorted(flags)), max_size=1))
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
