"""Command-line interface.

Subcommands: phantom, corrupt, filter, evaluate, montecarlo, masks.
Exit codes: 0 success, 2 usage error, 1 runtime error.  Diagnostics go to
stderr, data to files or stdout.  The default seed comes from the
DESPECKLE_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys

from .divergence import DOFS, KINDS, RENYI_ORDERS, SHARED_LOOKS, TestConfig
from .errors import DespeckleError, InvalidArgumentError
from .harness import (
    SITUATIONS,
    RunPlan,
    corrupt,
    fast_plan,
    make_phantom,
    replicate_stream,
    run_protocol,
    write_csv,
)
from .lee import LeeSpec, lee_filter
from .metrics import METRIC_HEADER, compute_report
from .nmfilter import BAND_PIXELS, WINDOWS, FilterSpec, filter_image, mask_table_text
from .phantom import SIZES, default_geometry, read_geometry
from .raster import FORMATS, read_raster, write_raster


def _seed(flag: int | None = None) -> int:
    """The --seed value, or DESPECKLE_SEED's (default 0) when the flag is not
    given: a non-negative integer."""
    if flag is None:
        text = os.environ.get("DESPECKLE_SEED", "0")
        try:
            flag = int(text)
        except ValueError:
            raise InvalidArgumentError(f"DESPECKLE_SEED must be an integer, got {text!r}") from None
    if flag < 0:
        raise InvalidArgumentError(f"the seed (--seed or DESPECKLE_SEED) must be >= 0, got {flag}")
    return flag


def _add_format(p):
    p.add_argument("--format", choices=FORMATS, default="raw",
                   help="raster file format (default raw)")


def _add_test_flags(p, defaults):
    """--dof, --shared and --beta, defaulting to defaults' fields (a TestConfig or RunPlan)."""
    p.add_argument("--dof", type=int, choices=DOFS, default=defaults.dof)
    p.add_argument("--shared", choices=SHARED_LOOKS, default=defaults.shared_looks,
                   help="looks estimate shared by the test statistics")
    p.add_argument("--beta", type=float, default=defaults.renyi_order,
                   help=f"Renyi order in {RENYI_ORDERS}")


def _geometry(path, size):
    """The geometry file at path when given, else the built-in geometry of
    size when given, else None."""
    if path:
        return read_geometry(path)
    return default_geometry(size) if size else None


def _join(values) -> str:
    """Comma-join list flag values the way the parser reads them back."""
    return ",".join(str(v) for v in values)


def _filters_text(filters) -> str:
    return _join(kind if window is None else f"{kind}:{window}" for kind, window in filters)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="despeckle",
        description="Hypothesis-test-guided speckle filtering and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="write a noiseless test phantom")
    p.add_argument("--situation", type=int, choices=sorted(SITUATIONS), default=1)
    # a None default: argparse sees an exclusive flag as given when its value is
    # not its default, so an explicit --size 128 beside --geometry is refused
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--size", type=int, choices=SIZES, help="built-in layout (default 128)")
    layout.add_argument("--geometry", help="geometry file in place of the built-in layout")
    p.add_argument("--out", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("corrupt", help="multiply an image by simulated speckle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--situation", type=int, choices=sorted(SITUATIONS), default=1,
                   help="situation whose look count drives the speckle")
    p.add_argument("--seed", type=int, help="default: DESPECKLE_SEED, else 0")
    p.add_argument("--replicate", type=int, default=0,
                   help="replicate index of the RNG stream (default 0)")
    p.add_argument("--out", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_corrupt)

    spec = FilterSpec()
    p = sub.add_parser("filter", help="despeckle an image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--filter", dest="kind", default=spec.test.kind, choices=KINDS + ("lee",))
    p.add_argument("--window", type=int, choices=WINDOWS, default=spec.window)
    p.add_argument("--alpha", type=float, default=spec.test.alpha,
                   help="overall significance of the 8-test series (default %(default)s)")
    p.add_argument("--looks", type=float, default=LeeSpec().nominal_looks,
                   help="nominal looks for the lee filter (default %(default)s)")
    _add_test_flags(p, spec.test)
    p.add_argument("--threads", type=int, default=1,
                   help=f"processes for the region-test filters: an image of at least"
                        f" {2 * BAND_PIXELS} pixels is filtered in row bands, at most one per"
                        " usable CPU, by this process and children forked from it (POSIX"
                        " only); lee and smaller images run in this process, and the output"
                        " never depends on the value (default 1)")
    _add_format(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("evaluate", help="print quality metrics of test vs reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--geometry", help="geometry file enabling the ground-truth metrics")
    layout.add_argument("--geometry-size", type=int, choices=SIZES,
                        help="use the built-in geometry of this size")
    _add_format(p)
    p.set_defaults(func=cmd_evaluate)

    plan = RunPlan()
    p = sub.add_parser("montecarlo", help="run the simulation protocol, write a CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="default: DESPECKLE_SEED, else 0")
    p.add_argument("--fast", action="store_true", help="64x64 phantom, 20 replicates")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--size", type=int, choices=SIZES, help="built-in layout")
    layout.add_argument("--geometry", help="geometry file in place of the built-in layout")
    p.add_argument("--replicates", type=int)
    p.add_argument("--situations", default=_join(plan.situations),
                   help="comma-separated subset of 1..4")
    p.add_argument("--levels", default=_join(plan.levels),
                   help="comma-separated overall significance levels")
    p.add_argument("--filters", default=_filters_text(plan.filters),
                   help="comma-separated kind[:window] entries")
    _add_test_flags(p, plan)
    p.add_argument("--threads", type=int, default=1,
                   help="processes for the (situation, replicate) tasks, at most one per"
                        " usable CPU: this one and children forked from it (POSIX only),"
                        " each running one contiguous block of the tasks; 1 runs in this"
                        " process (default 1)")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("masks", help="print the committed region mask tables")
    p.add_argument("--window", type=int, choices=WINDOWS, default=spec.window)
    p.set_defaults(func=cmd_masks)

    return parser


def cmd_phantom(args) -> int:
    geom = _geometry(args.geometry, args.size or 128)
    img = make_phantom(geom, SITUATIONS[args.situation])
    write_raster(img, args.out, args.format)
    return 0


def cmd_corrupt(args) -> int:
    img = read_raster(args.infile, args.format)
    sit = SITUATIONS[args.situation]
    stream = replicate_stream(_seed(args.seed), sit.id, args.replicate)
    write_raster(corrupt(img, sit, stream), args.out, args.format)
    return 0


def cmd_filter(args) -> int:
    if args.threads < 1:
        raise InvalidArgumentError(f"--threads must be >= 1, got {args.threads}")
    img = read_raster(args.infile, args.format)
    if args.kind == "lee":
        out = lee_filter(img, LeeSpec(window=args.window, nominal_looks=args.looks))
    else:
        cfg = TestConfig(
            kind=args.kind,
            renyi_order=args.beta,
            alpha=args.alpha,
            dof=args.dof,
            shared_looks=args.shared,
        )
        out = filter_image(img, FilterSpec(window=args.window, test=cfg), args.threads)
    write_raster(out, args.out, args.format)
    return 0


def cmd_evaluate(args) -> int:
    ref = read_raster(args.ref, args.format)
    test = read_raster(args.test, args.format)
    report = compute_report(ref, test, _geometry(args.geometry, args.geometry_size))
    print(f"# despeckle evaluate --ref {args.ref} --test {args.test}")
    print(METRIC_HEADER)
    print(report.as_csv_row())
    return 0


def _entries(flag: str, text: str, parse) -> tuple:
    """Each non-empty comma-separated entry of text, parsed; a malformed one is
    a usage error that names the flag and the entry."""
    out = []
    for entry in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(parse(entry))
        except ValueError:
            raise InvalidArgumentError(f"{flag}: malformed entry {entry!r}") from None
    return tuple(out)


def _filter_entry(entry: str) -> tuple:
    kind, _, window = entry.partition(":")  # kind[:window]
    return kind, int(window) if window else None


def _parse_montecarlo_plan(args) -> RunPlan:
    # the layout and --replicates override the profile's defaults only when given
    sizing = {k: v for k, v in (("geometry", _geometry(args.geometry, args.size)),
                                ("replicates", args.replicates))
              if v is not None}
    return (fast_plan if args.fast else RunPlan)(
        situations=_entries("--situations", args.situations, int),
        filters=_entries("--filters", args.filters, _filter_entry),
        levels=_entries("--levels", args.levels, float),
        master_seed=_seed(args.seed),
        dof=args.dof,
        shared_looks=args.shared,
        renyi_order=args.beta,
        **sizing,
    )


def cmd_montecarlo(args) -> int:
    plan = _parse_montecarlo_plan(args)
    rows = run_protocol(plan, threads=args.threads)
    # echo the plan-defining flags (threads and the output path do not change results)
    layout = (f"--geometry {shlex.quote(args.geometry)}" if args.geometry
              else f"--size {plan.geometry.size}")
    echo = (
        "despeckle montecarlo"
        f" --seed {plan.master_seed} {layout} --replicates {plan.replicates}"
        f" --situations {_join(plan.situations)} --levels {_join(plan.levels)}"
        f" --filters {_filters_text(plan.filters)}"
        f" --dof {plan.dof} --shared {plan.shared_looks} --beta {repr(plan.renyi_order)}"
    )
    write_csv(rows, args.out, comments=(echo,))
    return 0


def cmd_masks(args) -> int:
    print(mask_table_text(args.window))
    return 0


_parser = functools.cache(build_parser)  # built once per process: it takes ~2 ms


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _seed()  # a bad DESPECKLE_SEED fails every subcommand, like a bad --seed
        folder = os.path.dirname(getattr(args, "out", "")) or "."  # before any input is read
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"--out {args.out}: no directory {folder!r}")
        return args.func(args)
    except (FileNotFoundError, InvalidArgumentError) as exc:
        # bad flag values and missing inputs are usage errors, like argparse's own
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"despeckle: {exc}", file=sys.stderr)
        return 2
    except (DespeckleError, OSError) as exc:
        print(f"despeckle: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected failure guard
        print(f"despeckle: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
