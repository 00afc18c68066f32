"""Command-line front end: every calculator behind one `cq` entry point.

The command tree is one table, `_COMMANDS`.  A subcommand that passes its
integer and integer-list options straight to one library function is a
single `_call` entry; the others have a handler that reads files, parses
richer input or shapes the result.  Each handler imports the library
modules it uses when it runs, and `json` is imported only for JSON input
or output, so a cold `cq` process loads only what its subcommand needs.
Which options go together is the parser's rule alone: each choice of
input source is one required, mutually exclusive group, so no handler
re-checks argv.

Output is plain text by default or a single JSON object with --format
json; the object carries a schema tag, the result, and a meta block
echoing the parameters.  Exit codes: 0 success, 2 usage error, 3 domain
error (degree mismatches, out-of-range parameters, hypothesis violations).
An output pipe closed early by its reader ends the write quietly, exit 0.

Identical argv produces byte-identical stdout; wall-clock timing is only
added to the meta block under --timings, since it is inherently
nondeterministic.
"""

import argparse
import importlib
import os
import sys
import time
from fractions import Fraction

from .exactmath import DomainError, UnivariatePolynomial

SCHEMA_VERSION = 1


def _jsonable(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else f"{value}"
    if isinstance(value, UnivariatePolynomial):
        return {
            "coefficients": [_jsonable(c) for c in value.coefficients],
            "pretty": value.to_string(),
        }
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {text!r}: {exc}")


def _parse_int_list(text):
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _read_text_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")


def _parse_assignments(text):
    values = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise DomainError(f"assignment {chunk!r} must look like name=value")
        name, _, raw = chunk.partition("=")
        values[name.strip()] = _parse_fraction(raw.strip())
    return values


def _read_data_argument(text):
    """Inline JSON, or @path to read JSON from a file."""
    import json

    if text.startswith("@"):
        text = _read_text_file(text[1:])
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad JSON data: {exc}")


def _load_fan(args):
    from . import toric

    if args.permutohedral is not None:
        return toric.permutohedral_fan(args.permutohedral)
    return toric.parse_fan(_read_text_file(args.fan))


def _load_matroid(args):
    from . import matroid

    if args.graph is not None:
        g = matroid.parse_graph(_read_text_file(args.graph))
        return matroid.matroid_from_graph(g), {"graph": args.graph}
    if args.uniform is not None:
        values = _parse_int_list(args.uniform)
        if len(values) != 2:
            raise UsageError(f"--uniform takes rank,size, got {args.uniform!r}")
        r, n = values
        return matroid.uniform_matroid(r, n), {"uniform": [r, n]}
    rows = _read_data_argument(args.matrix)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise DomainError("matrix must be a JSON list of rows")
    m = matroid.matroid_from_subspace(
        [[_parse_fraction(str(x)) for x in row] for row in rows]
    )
    return m, {"matrix": rows}


def _parse_sigma(text):
    from . import cells

    try:
        sigma = cells.TwoPermutation.parse(text)
    except ValueError:
        raise UsageError(f"--sigma takes digit blocks like '2|13' (elements "
                         f"separated by commas when n >= 10), got {text!r}")
    if sigma.n > cells.EXPONENT_CHAIN_N:
        raise DomainError(f"--sigma needs n <= {cells.EXPONENT_CHAIN_N}, got n = {sigma.n}")
    return sigma


# --- handlers -------------------------------------------------------------

def _cmd_monk(args):
    from . import schubert

    w = tuple(_parse_int_list(args.w))
    comb = schubert.monk_multiply(args.i, w)
    result = {
        ",".join(str(x) for x in v): c for v, c in sorted(comb.terms.items())
    }
    return result, {"i": args.i, "w": list(w)}


def _cmd_matroid_charpoly(args):
    from . import matroid

    m, echo = _load_matroid(args)
    poly = matroid.characteristic_polynomial(m)
    result = {"characteristic": poly, "reduced": None}
    if not poly.is_zero() and m.full_rank() >= 1:
        result["reduced"] = list(matroid.reduced_coefficients(poly))
    return result, echo


def _cmd_matroid_reduced(args):
    from . import matroid

    m, echo = _load_matroid(args)
    return list(matroid.reduced_characteristic_coefficients(m)), echo


def _cmd_matroid_chromatic(args):
    from . import matroid

    g = matroid.parse_graph(_read_text_file(args.graph))
    return matroid.chromatic_polynomial(g), {"graph": args.graph}


def _cmd_toric_fan_check(args):
    fan = _load_fan(args)
    fan.check_smooth()
    fan.check_complete()
    return {
        "smooth": True,
        "complete": True,
        "rank": fan.rank,
        "rays": len(fan.rays),
        "maximal_cones": len(fan.maximal_cones),
    }, {}


def _ray_index(i):
    """0-based index of a 1-based JSON ray index; a bool or a number with a
    fractional part is not an index."""
    if isinstance(i, bool) or isinstance(i, float) and not i.is_integer():
        raise ValueError(f"not a ray index: {i!r}")
    return int(i) - 1


def _cmd_toric_integral(args):
    from . import toric

    fan = _load_fan(args)
    if args.permutohedral is None:
        # The degree map below holds only on a smooth complete fan.
        fan.check_smooth()
        fan.check_complete()
    spec = _read_data_argument(args.cls)
    if not isinstance(spec, list) or not all(
        isinstance(item, dict) and isinstance(item.get("rays"), list)
        for item in spec
    ):
        raise DomainError('class must be a JSON list of {"rays": [...], "coeff": ...}')
    terms = {}
    for item in spec:
        try:
            indices = [_ray_index(i) for i in item["rays"]]
        except (TypeError, ValueError):
            raise DomainError(f"ray indices must be integers, got {item['rays']!r}")
        rays = frozenset(indices)
        if len(rays) < len(indices):
            # A term is a squarefree monomial: x1^2 * x12 is not x1 * x12.
            repeated = next(i for i in indices if indices.count(i) > 1)
            raise DomainError(f"ray {repeated + 1} repeated in one term {item['rays']!r}")
        coeff = _parse_fraction(str(item.get("coeff", 1)))
        terms[rays] = terms.get(rays, Fraction(0)) + coeff
    degree = len(next(iter(terms), frozenset()))
    cls = toric.ToricClass(fan, degree, terms)
    return toric.toric_integral(cls), {"degree": degree}


def _cmd_cells(args):
    from . import cells

    if args.histogram:
        if args.n is None:
            raise UsageError("histogram needs --n")
        hist = cells.chow_group_dimensions(args.n)
        return hist, {"n": args.n}
    raise UsageError("choose a cells action or pass --histogram")


def _cmd_cells_weight(args):
    from . import cells

    sigma = _parse_sigma(args.sigma)
    return cells.weight(sigma), {"sigma": str(sigma)}


def _cmd_cells_param(args):
    from . import cells

    sigma = _parse_sigma(args.sigma)
    param = cells.cell_parametrization(sigma)
    text = cells.format_entry
    result = {
        "sigma": str(sigma),
        "free_variables": list(param.free_variables()),
        "free_variable_count": param.free_variable_count,
        "X": [[text(e) for e in row] for row in param.X],
        "Y": [[text(e) for e in row] for row in param.Y],
        "companion": [[text(e) for e in row] for row in param.companion],
    }
    return result, {"sigma": str(sigma)}


def _cmd_cells_verify(args):
    from . import cells

    sigma = _parse_sigma(args.sigma)
    if args.values is not None:
        values = _parse_assignments(args.values)
    else:
        import random

        rng = random.Random(args.seed)
        param = cells.cell_parametrization(sigma)
        values = {
            name: Fraction(rng.randint(1, 20), rng.randint(1, 9))
            * rng.choice([1, -1])
            for name in param.free_variables()
        }
    ok = cells.verify_cell_point(sigma, values)
    return ok, {
        "sigma": str(sigma),
        "values": {k: str(v) for k, v in sorted(values.items())},
    }


def _cmd_segre_mu(args):
    """`segre mu` and `segre nu`: nu_from_segre is mu_from_segre."""
    from . import segre

    data = _segre_data(args)
    return segre.mu_from_segre(data, args.i), {"i": args.i}


def _segre_data(args):
    from . import segre

    raw = _read_data_argument(args.data)
    if not isinstance(raw, dict):
        raise UsageError('Segre data must be a JSON object like {"degF": 4, ...}')
    try:
        return segre.SegreData(
            degF=raw["degF"], nL=raw["nL"], mY=raw["mY"], s=tuple(raw["s"])
        )
    except KeyError as exc:
        raise DomainError(f"Segre data missing field {exc}")
    except TypeError:
        raise UsageError("Segre data needs integers degF, nL, mY and a list s")


def _cmd_segre_correct(args):
    from . import segre

    s = _parse_int_list(args.s) if args.s else []
    value = segre.nu_from_mu_correction(args.mu, args.n, len(s) - 1, s)
    return value, {"mu": args.mu, "n": args.n, "s": s}


# --- plumbing -------------------------------------------------------------

class UsageError(Exception):
    pass


def _text_render(value):
    if value is None:
        return "-"
    if isinstance(value, UnivariatePolynomial):
        coeffs = " ".join(str(_jsonable(c)) for c in value.coefficients)
        return f"{value.to_string()}  [coefficients, ascending: {coeffs}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, (int, Fraction)) for v in value):
            return " ".join(str(_jsonable(v)) for v in value)
        if value and all(isinstance(v, (list, tuple)) for v in value):
            return "\n".join(
                " ".join(str(_jsonable(x)) for x in row) for row in value
            )
        return "\n".join(str(_jsonable(v)) for v in value)
    if isinstance(value, dict):
        return "\n".join(f"{k}: {_text_render(v)}" for k, v in value.items())
    return str(_jsonable(value))


def _emit(args, command, result, params, elapsed):
    if args.format == "json":
        import json

        payload = {
            "schema": SCHEMA_VERSION,
            "result": _jsonable(result),
            "meta": {"command": command, "params": _jsonable(params)},
        }
        if args.timings:
            payload["meta"]["elapsed_ms"] = round(elapsed * 1000, 3)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(_text_render(result))


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument(
        "--timings", action="store_true", help="include wall time in json meta"
    )


def _leaf(handler, configure):
    """A subcommand that runs `handler`, with the arguments `configure` adds
    and the common ones; returns add(subparsers, name, prefix)."""

    def add(subparsers, name, prefix=""):
        sub = subparsers.add_parser(name)
        configure(sub)
        _add_common(sub)
        sub.set_defaults(handler=handler, command_name=f"{prefix}{name}")

    return add


def _call(target, *spec):
    """A leaf that calls the library function `target`, named "module.attr"
    and imported only when the leaf runs, with one value per spec item, in
    spec order, and echoes them as params.  An item is the name of a
    required int option, or (name, help) for a required comma-separated
    integer list; the handler parses the list, so a malformed one is a
    domain error."""
    names = [item if isinstance(item, str) else item[0] for item in spec]
    module, _, attr = target.partition(".")

    def handler(args):
        fn = getattr(importlib.import_module(f".{module}", __package__), attr)
        values = [
            getattr(args, item) if isinstance(item, str)
            else _parse_int_list(getattr(args, item[0]))
            for item in spec
        ]
        return fn(*values), dict(zip(names, values))

    def configure(s):
        for item in spec:
            if isinstance(item, str):
                s.add_argument(f"--{item}", type=int, required=True)
            else:
                s.add_argument(f"--{item[0]}", required=True, help=item[1])

    return _leaf(handler, configure)


def _group(actions):
    """A subcommand that only chooses one of `actions` (name -> add)."""

    def add(subparsers, name):
        sub = subparsers.add_parser(name).add_subparsers(dest="action", required=True)
        for action, add_action in actions.items():
            add_action(sub, action, prefix=f"{name} ")

    return add


_GRAPH_HELP = "graph file: 'v e' header then edge lines"


def _matroid_source(s):
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help=_GRAPH_HELP)
    source.add_argument("--uniform", help="rank,size")
    source.add_argument("--matrix", help="JSON rows spanning the subspace (or @file)")


def _fan_source(s):
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--fan", help="fan file: 'rank #rays #cones' header")
    source.add_argument("--permutohedral", type=int, help="use the built-in fan")


def _verify_options(s):
    s.add_argument("--sigma", required=True)
    point = s.add_mutually_exclusive_group(required=True)
    point.add_argument("--values", help='assignments like "x13=1,x23=-2/3,y1=5"')
    point.add_argument("--random", action="store_true")
    s.add_argument("--seed", type=int, default=0)


def _cells_options(s):
    s.add_argument("--n", type=int)
    s.add_argument("--histogram", action="store_true")
    actions = s.add_subparsers(dest="action")
    for action, add_action in _CELLS_ACTIONS.items():
        add_action(actions, action, prefix="cells ")


_CELLS_ACTIONS = {
    "enumerate": _call("cells.enumerate_two_permutations", "n"),
    "weight": _leaf(_cmd_cells_weight, lambda s: (
        s.add_argument("--sigma", required=True, help='bar syntax, e.g. "2|13"'),
    )),
    "param": _leaf(_cmd_cells_param, lambda s: (
        s.add_argument("--sigma", required=True),
    )),
    "verify": _leaf(_cmd_cells_verify, _verify_options),
}

# nu_from_segre is mu_from_segre, so `segre mu` and `segre nu` are one leaf.
_SEGRE_EVALUATE = _leaf(_cmd_segre_mu, lambda s: (
    s.add_argument("--data", required=True, help="JSON Segre data (or @file)"),
    s.add_argument("--i", type=int, required=True),
))

# The top-level subcommands, in usage order: name -> add(subparsers, name).
_COMMANDS = {
    "phi": _call("quadrics.phi", "n", "d"),
    "phi-poly": _call("quadrics.phi_polynomial", "d"),
    "delta": _call("quadrics.delta", "m", "n", "r"),
    "delta-poly": _call("quadrics.delta_polynomial", "m", "s"),
    "phi-c": _call("quadrics.phi_c", "n", "c", "d"),
    "product": _call(
        "quadrics.integrate_monomial",
        "n",
        ("a", "comma-separated exponents of S_1..S_{n-1}"),
        ("b", "comma-separated exponents of L_1..L_{n-1}"),
    ),
    "pataki": _call("quadrics.pataki_nonzero", "m", "n", "r"),
    "flag-integral": _call("schubert.flag_integral", "n", ("b", None)),
    "monk": _leaf(_cmd_monk, lambda s: (
        s.add_argument("--i", type=int, required=True),
        s.add_argument("--w", required=True, help="one-line notation, e.g. 2,1,3"),
    )),
    "hypersurface-count": _call(
        "quadrics.hypersurface_characteristic_number", "d", "n", "b"
    ),
    "matroid": _group({
        "charpoly": _leaf(_cmd_matroid_charpoly, _matroid_source),
        "reduced": _leaf(_cmd_matroid_reduced, _matroid_source),
        "chromatic": _leaf(_cmd_matroid_chromatic, lambda s: (
            s.add_argument("--graph", required=True, help=_GRAPH_HELP),
        )),
        "euler": _call(
            "matroid.euler_characteristic_complement",
            ("nu", "comma-separated integers"),
        ),
    }),
    "toric": _group({
        "fan-check": _leaf(_cmd_toric_fan_check, _fan_source),
        "mu-generic": _call("toric.mu_generic", "n"),
        "integral": _leaf(_cmd_toric_integral, lambda s: (
            _fan_source(s),
            s.add_argument(
                "--class", dest="cls", required=True,
                help='JSON like [{"rays":[1,4],"coeff":1}, ...] (or @file)',
            ),
        )),
    }),
    "cells": _leaf(_cmd_cells, _cells_options),
    "segre": _group({
        "mu": _SEGRE_EVALUATE,
        "nu": _SEGRE_EVALUATE,
        "correct": _leaf(_cmd_segre_correct, lambda s: (
            s.add_argument("--mu", type=int, required=True),
            s.add_argument("--n", type=int, required=True),
            s.add_argument("--s", default="", help="comma-separated Segre degrees"),
        )),
        "compare": _call("segre.mu_nu_inequality_check", ("mu", None), ("nu", None)),
    }),
}


def build_parser(argv=None):
    """The `cq` parser.  When argv[0] names a top-level subcommand, only that
    subcommand is built: a cold process then skips the other thirty-odd
    parsers, and what argv can reach parses, helps and errs exactly as in
    the full parser.  Otherwise (no argv, an option or an unknown name)
    every subcommand is built."""
    parser = argparse.ArgumentParser(
        prog="cq",
        description="Exact intersection-theory calculators for complete "
        "quadrics, flag varieties, matroids and toric Chow rings.",
    )
    filtered = bool(argv) and argv[0] in _COMMANDS
    names = argv[:1] if filtered else _COMMANDS
    # A filtered parser's usage line (printed for unrecognized arguments)
    # still lists every subcommand.  The full parser keeps the default: its
    # "invalid choice" error would name the metavar instead of "command".
    metavar = "{" + ",".join(_COMMANDS) + "}" if filtered else None
    top = parser.add_subparsers(dest="command", metavar=metavar)
    for name in names:
        _COMMANDS[name](top, name)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    # `--opt=--`: argparse before Python 3.13 drops the `--` and leaves the
    # option an empty list, 3.13 keeps "--" as its value; no option takes either.
    if any(isinstance(v, list) or v == "--" for v in vars(args).values()):
        print("usage error: '--' is not an option value", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        result, params = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    # An exact result can run past Python's default limit of 4,300 digits
    # on str(int) (3.10.7 on); lift it while printing only, so that parsing
    # the input keeps it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _emit(args, args.command_name, result, params, elapsed)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`cq cells enumerate --n 7 | head -1`)
        # and took what it wanted.  Send the rest of the buffer to devnull,
        # so that the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
