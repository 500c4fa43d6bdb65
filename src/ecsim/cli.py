"""Sweep command-line interface.

One subcommand per entry of the sweep command table: probability,
squeezing, wigner, hz, qcrb.  Angles accept either raw radians or pi-suffix
notation ("0.8pi").  Repeatable --sweep flags override the per-command
default axes; declaration order sets the outer-to-inner nesting of emitted
rows.  Each subcommand's runner is one call of the sweep module's row
walker, which reads the command's cells and writes the rows in that
nesting.  --meta writes the walker's sidecar: config, axes outermost
first, version, row count, NA rows by cause on every command, and
wigner's grid minimum.

Every command is closed-form between coherent states (see the coherent
module): no Fock cutoff, no truncation and no numpy.  The config's
qfi_gauge, which only the library's finite-difference QFI reads, keeps its
default and is echoed in --meta; no flag sets it.

Exit codes: 0 success; 2 configuration or argument validation error (a
flag for a config field that the command's axes set, an input whose meter
exponent, axis width or squared amplitude overflows a double, and a
closed-form cell that is not a finite double, included), or an
--out/--meta path that cannot be written; 4 degenerate post-selection
at a single point, whose NA row is written, or at the wigner coupling.
Exit 2 writes no CSV: the sidecar is written first.  Multi-point sweeps
write NA rows instead, and exit 0, as does an NA cell that is a value (the
phase bound of a vanishing QFI).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .config import RangeSpec, WeakMeasurementConfig, default_config
from .errors import DegeneratePostSelectionError
from .sweep import _COMMANDS


def parse_angle(text: str) -> float:
    """Radians from either a float literal or a pi-multiple like '0.8pi'."""
    t = str(text).strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2].strip()
            if head in ("", "+"):
                return math.pi
            if head == "-":
                return -math.pi
            return float(head) * math.pi
        return float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def parse_sweep(text: str) -> tuple[str, RangeSpec]:
    """(axis name, RangeSpec) from 'name=min:max:points'."""
    try:
        name, _, spec = str(text).partition("=")
        name = name.strip()
        if not name:
            raise ValueError("empty axis name")
        lo, hi, pts = spec.split(":")
        return name, RangeSpec(parse_angle(lo), parse_angle(hi), int(pts))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse sweep {text!r} (expected name=min:max:points): {exc}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecsim",
        description="Deterministic parameter sweeps for post-selected weak "
        "measurements on entangled coherent states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, info in _COMMANDS.items():
        # A config flag that is not given stays out of the namespace, and its field keeps its default.
        p = sub.add_parser(name, help=info["help"], argument_default=argparse.SUPPRESS)
        p.add_argument("--r", type=float, help="coherent amplitude r >= 0")
        p.add_argument("--mu", type=parse_angle, help="phase of alpha (radians or e.g. 0.5pi)")
        p.add_argument("--varphi", type=parse_angle, help="mode-b phase shift")
        p.add_argument("--theta1", type=parse_angle, help="meter-1 polar angle in [0, pi)")
        p.add_argument("--delta1", type=parse_angle, help="meter-1 azimuth in [0, 2pi]")
        p.add_argument("--theta2", type=parse_angle, help="meter-2 polar angle in [0, pi)")
        p.add_argument("--delta2", type=parse_angle, help="meter-2 azimuth in [0, 2pi]")
        p.add_argument("--s1", type=float, help="mode-a coupling strength")
        p.add_argument("--s2", type=float, help="mode-b coupling strength")
        p.add_argument("--theta-big", type=parse_angle, help="squeezing phase angle")
        p.add_argument("--sweep", action="append", default=[], metavar="NAME=MIN:MAX:POINTS",
                       help=f"override a sweep axis (allowed: {', '.join(info['axes'])}); repeatable")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
        p.add_argument("--meta", default=None, help="JSON metadata output path")
    return parser


def _resolve_axes(
    command: str, sweep_flags: list[str]
) -> tuple[dict[str, RangeSpec], list[str]]:
    """Axis ranges plus the outer-to-inner emission order.

    Declared sweeps come first in declaration order; unspecified axes keep
    their built-in defaults and follow in canonical order.
    """
    info = _COMMANDS[command]
    axes = info["axes"]
    ranges = dict(info["defaults"])
    declared: list[str] = []
    for flag in sweep_flags:
        name, spec = parse_sweep(flag)
        if name not in axes:
            raise ValueError(
                f"unknown sweep axis {name!r} for {command} (allowed: {', '.join(axes)})"
            )
        if name in declared:
            raise ValueError(f"sweep axis {name!r} declared twice")
        declared.append(name)
        ranges[name] = spec
    order = declared + [ax for ax in axes if ax not in declared]
    return ranges, order


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    info = _COMMANDS[args.command]

    try:
        for field, axis in info["swept"].items():
            if field in vars(args):
                raise ValueError(f"--{field} is swept by {args.command}: set it with --sweep {axis}=MIN:MAX:POINTS")
        config = WeakMeasurementConfig.from_dict({**default_config().to_dict(), **vars(args)})
        ranges, order = _resolve_axes(args.command, args.sweep)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"ecsim: {exc}", file=sys.stderr)
        return 2

    axis_ranges = [ranges[name] for name in info["axes"]]
    try:
        result = info["runner"](config, *axis_ranges, order=order)
    except (DegeneratePostSelectionError, ValueError) as exc:
        print(f"ecsim: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, DegeneratePostSelectionError) else 2

    # The sidecar first, so a run that fails on an unwritable path writes no CSV.
    try:
        if args.meta is not None:
            result.write_metadata(args.meta)
        if args.out is not None:
            result.write_csv(args.out)
        else:
            sys.stdout.write(result.csv_text())
    except OSError as exc:
        print(f"ecsim: {exc}", file=sys.stderr)
        return 2

    single_point = all(spec.is_single for spec in axis_ranges)
    return 4 if single_point and result.metadata["na_rows"]["degenerate"] else 0


if __name__ == "__main__":
    sys.exit(main())
