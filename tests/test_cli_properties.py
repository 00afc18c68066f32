"""Property test of the CLI exit-code contract: on any argv drawn for the
closed-form subcommands, `flag-integral`, the Chow-group histogram and
`toric mu-generic`, `main` returns 0, 2 or 3 or argparse exits with 2, and
no other exception escapes."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from cqcalc.cli import main

INT = st.integers(-2, 10).map(str)
# A flag integral with n <= 10 takes under 0.1 s, so no drawn list can hang.
INT_LIST = st.lists(st.integers(-2, 10), max_size=10).map(lambda xs: ",".join(map(str, xs)))

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
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    # at most one flag left out, so most argv reach the handler
    omitted = draw(st.sets(st.sampled_from(sorted(flags)), max_size=1))
    argv = command.split()
    for flag, values in flags.items():
        if flag not in omitted:
            argv += [flag] if values is None else [flag, draw(values)]
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
