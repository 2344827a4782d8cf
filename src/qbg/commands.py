"""Command-line front end emitting deterministic CSV reports.

Every run writes exactly one CSV file: a ``#``-prefixed metadata header
(tool version, subcommand, parameters), a column-name row, then data rows.
Floats are rendered with ``repr`` (shortest round-trip form), line endings
are LF, and identical configurations produce byte-identical files.  On any
error nothing is written; the error name and message go to stderr and the
exit status is nonzero.

Parameters may come from flags or from a JSON config file (``--config``);
flags win on conflict.  Each parameter is declared once, in ``_PARAMS``:
its flag, its help text, and the conversion and checks its value gets,
whichever source it came from.  Values are checked in ``--help`` order, so
of several bad values the first listed by ``--help`` is the one reported.

This module and :mod:`qbg.params` import no numpy, and they hold all that
``map``, ``invert-map`` and ``clayton`` run, so a process running one of
those three never loads numpy; ``json`` is imported only to read a
``--config`` file.  The other five subcommands evaluate
distributions on a spectrum; their handlers are in :mod:`qbg.cli`, which is
imported, with numpy, the first time one of them runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import QbgError
from .params import (
    ClaytonParams,
    QParams,
    clayton_multipliers,
    clayton_to_q,
    load_multipliers,
    multipliers_to_q,
    q_to_multipliers,
    _require_finite,
)

#: The subcommands, in --help order.
_SUBCOMMANDS = ("dist-q", "dist-ext", "map", "invert-map", "clayton", "equiv", "solve",
                "entropy")


def _fmt(x) -> str:
    return repr(float(x))


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(config: argparse.Namespace, *names: str):
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"{config.subcommand} requires {_flag(name)}")


def _multiplier_rows(m) -> list[str]:
    return [f"{n},{_fmt(c)}" for n, c in enumerate(m.coeffs, start=1)]


def _run_map(config: argparse.Namespace):
    _require(config, "q", "beta", "order")
    m = q_to_multipliers(QParams(config.q, config.beta), config.order)
    meta = [("q", _fmt(config.q)), ("beta", _fmt(config.beta)),
            ("order", str(config.order))]
    return meta, "n,beta_n", _multiplier_rows(m)


def _run_invert_map(config: argparse.Namespace):
    _require(config, "multipliers")
    tol = 1e-9 if config.tol is None else config.tol
    m = load_multipliers(config.multipliers)
    params = multipliers_to_q(m, tol)
    meta = [("order", str(m.order)), ("tol", _fmt(tol)),
            ("matched", "true" if params is not None else "false")]
    rows = [] if params is None else [f"{_fmt(params.q)},{_fmt(params.beta)}"]
    return meta, "q,beta", rows


def _run_clayton(config: argparse.Namespace):
    _require(config, "beta", "delta")
    m = clayton_multipliers(ClaytonParams(config.beta, config.delta))
    meta = [("beta", _fmt(config.beta)), ("delta", _fmt(config.delta)),
            ("q", _fmt(clayton_to_q(config.delta)))]
    return meta, "n,beta_n", _multiplier_rows(m)


_LIGHT_HANDLERS = {
    "map": _run_map,
    "invert-map": _run_invert_map,
    "clayton": _run_clayton,
}


def _handler(subcommand: str):
    """The function that computes a subcommand's report; the five numeric
    ones come from :mod:`qbg.cli`, imported (with numpy) on first need."""
    if subcommand in _LIGHT_HANDLERS:
        return _LIGHT_HANDLERS[subcommand]
    from .cli import _HANDLERS

    return _HANDLERS[subcommand]


def run(config: argparse.Namespace) -> int:
    """Execute one subcommand and write its CSV report; returns 0 on success.

    The report text is assembled fully before the file is opened, so a
    failing run leaves no partial output behind.
    """
    _require(config, "out")
    meta, header, rows = _handler(config.subcommand)(config)
    lines = [f"# tool: qbg {__version__}", f"# subcommand: {config.subcommand}"]
    lines.extend(f"# {key}={value}" for key, value in meta)
    lines.append(header)
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0


def _number(value) -> float:
    # a string is refused: a config value must be a JSON number, and a flag's
    # text is converted by argparse before it gets here
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _targets(value) -> tuple[float, ...]:
    if isinstance(value, str):
        return tuple(float(part) for part in value.split(","))
    return tuple(_number(part) for part in value)


#: A kind of value: its converter, what a value must be, its flag's type.
_PATH = (os.fspath, "a path", None)
_NUMBER = (_number, "a number", float)
_INTEGER = (_integer, "an integer", int)

#: Every parameter, in --help order: how its value is converted, what a value
#: must be, the argparse type of its flag, and its help text.
_PARAMS = {
    "spectrum": (*_PATH, "spectrum file: 'energy,degeneracy' per line"),
    "multipliers": (*_PATH, "multiplier file: 'n,beta_n' per line"),
    "q": (*_NUMBER, "entropic index"),
    "beta": (*_NUMBER, "inverse temperature"),
    "delta": (*_NUMBER, "quadratic correction"),
    "order": (*_INTEGER, "multiplier order"),
    "max_order": (*_INTEGER, "largest truncation order"),
    "targets": (_targets, "a list of numbers", None, "comma-separated raw moments"),
    "tol": (*_NUMBER, "tolerance"),
    "out": (*_PATH, "output CSV path"),
}

#: Every flag; each takes one value.
_VALUE_FLAGS = frozenset([*map(_flag, _PARAMS), "--config"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbg",
        description="Distributions on finite energy spectra: q-exponential, "
        "exponential-polynomial, the multiplier mapping between them, and a "
        "moment-matching solver.  Output is a deterministic CSV report.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        for key, (_, _, flag_type, help_text) in _PARAMS.items():
            p.add_argument(_flag(key), type=flag_type, help=help_text)
        p.add_argument("--config", help="JSON config file; flags win on conflict")
    return parser


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with each flag and a following value that starts with ``-``
    written as one ``--flag=value`` word.  argparse reads such a value as an
    option unless it looks like ``-2`` or ``-0.5``, so ``--targets -0.5,1``,
    ``--q -1e300`` or ``--delta -inf`` would fail as a missing argument.
    ``-h`` and words starting with ``--`` stay options."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg in _VALUE_FLAGS and i < len(argv):
            value = argv[i]
            if value.startswith("-") and not value.startswith("--") and value != "-h":
                arg = f"{arg}={value}"
                i += 1
        out.append(arg)
    return out


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Flags, and the config file for what they leave unset, each value
    converted and checked; a value that fails is a ValueError.  One pass
    over ``_PARAMS``, in ``--help`` order, converts each value and then runs
    its own checks (a number must be finite; ``--targets`` must list at
    least one moment, each finite): of several bad values, the first in
    ``--help`` order is the one reported."""
    values = {key: getattr(args, key) for key in _PARAMS}
    if args.config is not None:
        import json

        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if key not in values:
                raise ValueError(f"unknown config key {key!r}")
            if values[key] is None:
                values[key] = value
    for key, (convert, must_be, _, _) in _PARAMS.items():
        value = values[key]
        if value is None:
            continue
        try:
            values[key] = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{_flag(key)} must be {must_be}, got {value!r}") from None
        if convert is _number:
            _require_finite(_flag(key), values[key])
        elif convert is _targets and len(values[key]) == 0:
            raise ValueError("--targets must list at least one moment")
        elif convert is _targets and not all(map(math.isfinite, values[key])):
            raise ValueError("--targets entries must be finite")
    return argparse.Namespace(subcommand=args.subcommand, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_joined(argv))
    try:
        config = _merge_config(args)
        return run(config)
    except (QbgError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
