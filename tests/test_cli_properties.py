"""Property test of the CLI exit-code contract: on any argv drawn for the
closed-form subcommands, `main` returns 0, 2 or 3 or argparse exits with 2,
and no other exception escapes."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from cqcalc.cli import main

# `product` is left out: it runs the general reduction, which has no work
# budget yet, so a drawn argv can run for a long time.
FLAGS = {
    "phi": ("--n", "--d"),
    "phi-c": ("--n", "--c", "--d"),
    "delta": ("--m", "--n", "--r"),
    "pataki": ("--m", "--n", "--r"),
    "phi-poly": ("--d",),
    "delta-poly": ("--m", "--s"),
    "hypersurface-count": ("--d", "--n", "--b"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    # at most one flag left out, so most argv reach the handler
    omitted = draw(st.sets(st.sampled_from(flags), max_size=1))
    argv = [command]
    for flag in flags:
        if flag not in omitted:
            argv += [flag, str(draw(st.integers(-2, 10)))]
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
