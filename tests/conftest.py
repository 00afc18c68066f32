"""Shared pytest setup.

Hypothesis imports `hypothesis.extra._patching`, and libcst with it, only
when a property test fails, to print the falsifying example.  Under
`-W error` a `DeprecationWarning` from that import (`mypy_extensions`,
through libcst) would end the run in `INTERNALERROR` instead of that
report, so the module is imported once here, with `DeprecationWarning`
ignored for this import only.  Without libcst the import fails and
nothing is done."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
