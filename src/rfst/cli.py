"""Command-line surface: generate transforms, check properties, reproduce tables.

Exit codes: 0 on success, 1 for argument or validation errors, 2 when a
numerical check (the equivalence test) fails.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, imaging, regularity, timing, transforms
from .rdst import EQUIV_DEFAULT_TOL, check_equiv_tol, rdst, signed_perm_equivalent

TRANSFORMS = {
    "dct": transforms.dct2,
    "dst": transforms.dst2,
    "ht": transforms.hadamard,
    "rfst": regularity.rfst,
    "rdst": rdst,
}
TRANSFORM_KINDS = {"dct": "DCT2", "dst": "DST2", "ht": "HT", "rfst": "RFST", "rdst": "RDST"}
TABLE1_SIZES = (2, 4, 8, 16, 32)
# the largest size measured: rfst(4096) builds in ms, but a dense 4096^2 matrix, which
# --type dct|dst|ht and rfst's dense core on its first read build, takes 2-3 s and ~581 MiB
MAX_SIZE = 4096


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments by default; status 2 is
    # reserved here for numerical check failures, so route through main().
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _size(text: str) -> int:
    """A size or count flag whose value sets an allocation or a run time, capped before either."""
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if size > MAX_SIZE:
        raise argparse.ArgumentTypeError(f"{size} exceeds the largest size {MAX_SIZE}")
    return size


def _write_text(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen(args) -> int:
    if args.what == "cascade":
        if args.type != "rfst":
            raise ValueError("cascade export is only defined for --type rfst")
        text = regularity.emit_cascade_csv(regularity.rfst(args.size).cascade)
    else:
        dense = TRANSFORMS[args.type](args.size).as_matrix()
        text = transforms.emit_matrix_text(dense.entries)
    _write_text(args.out, text)
    return 0


def _cmd_check(args) -> int:
    dense = TRANSFORMS[args.type](args.size).as_matrix()
    response = dense.entries @ np.ones(dense.size)
    print(f"orthonormality_residual,{dense.orthonormality_residual():.17g}")
    print("dc_response," + ",".join(f"{x:.17g}" for x in response))
    print(f"dc_leakage_energy,{analysis.dc_leakage_energy(dense):.17g}")
    return 0


def _cmd_coding_gain(args) -> int:
    report = analysis.coding_gain(TRANSFORMS[args.type](args.size), args.rho)
    print("kind,M,rho,gain_db")
    print(analysis.coding_gain_csv_row(report, label=args.type))
    return 0


def _cmd_table1(args) -> int:
    print("kind,M,rho,gain_db")
    for kind in ("dst", "rfst", "ht"):
        for size in TABLE1_SIZES:
            report = analysis.coding_gain(TRANSFORMS[kind](size), args.rho)
            print(analysis.coding_gain_csv_row(report, label=kind))
    return 0


def _cmd_opcount(args) -> int:
    print("style,M,mul,add")
    for style in regularity.OP_COUNT_STYLES:
        report = regularity.extra_op_count(args.size, style)
        print(f"{report.style},{report.size},{report.mul},{report.add}")
    return 0


def _cmd_equiv(args) -> int:
    check_equiv_tol(args.tol)
    witness = signed_perm_equivalent(
        rdst(args.size), regularity.rfst(args.size), args.tol
    )
    if witness is None:
        print("FAIL")
        print(
            f"no signed row permutation matches the two designs at size "
            f"{args.size} within {args.tol:g}",
            file=sys.stderr,
        )
        return 2
    print(f"OK max_residual={witness.max_residual:.3e}")
    print("perm," + ",".join(str(int(p)) for p in witness.perm))
    print("signs," + ",".join("+1" if s > 0 else "-1" for s in witness.signs))
    return 0


def _cmd_freq(args) -> int:
    transform = TRANSFORMS[args.type](args.size)
    out_dir = Path(args.out)
    width = len(str(args.size - 1))
    for row in range(args.size):
        fr = analysis.frequency_response(transform, row, args.points)
        out_dir.mkdir(parents=True, exist_ok=True)  # once the first row has passed the checks
        (out_dir / f"row_{row:0{width}d}.csv").write_text(
            analysis.frequency_response_csv(fr)
        )
    return 0


def _cmd_image(args) -> int:
    transforms._check_size(args.block)  # check inputs first: a large transform takes seconds
    if args.action == "inverse":
        with open(args.infile, "rb") as f:
            payload = imaging._Payload(f)  # the header checked; its bands are read as they run
            if payload.block != args.block:
                raise ValueError(
                    f"--block {args.block} does not match coefficient file block {payload.block}"
                )
            if payload.kind not in (None, TRANSFORM_KINDS[args.transform]):
                raise ValueError(f"--transform {args.transform} does not match coefficient "
                                 f"file transform {payload.kind}")
            # the output is opened, and cut to its size, while the input is still being read
            if os.path.exists(args.out) and os.path.samefile(args.infile, args.out):
                raise ValueError("--out names the --in file, which image inverse reads as it writes")
            imaging._inverse_file(payload, TRANSFORMS[args.transform](args.block), args.out)
        return 0
    img = imaging.read_pgm(args.infile)
    imaging._check_divisible(img.pixels.shape, args.block)
    transform = TRANSFORMS[args.transform](args.block)
    write = imaging._forward_file if args.action == "forward" else imaging._mosaic_file
    write(img, transform, args.out)
    return 0


def _cmd_bench(args) -> int:
    report = timing.bench_postprocessing(
        args.size, image_size=args.image_size, repeats=args.repeats, seed=args.seed
    )
    print("metric,value")
    print(f"cascade_median_seconds,{report.cascade_median_s:.9f}")
    print(f"dense_half_median_seconds,{report.dense_half_median_s:.9f}")
    print(f"saved_seconds,{report.saved_s:.9f}")
    print(f"max_abs_diff,{report.max_abs_diff:.3e}")
    print(f"shipped_median_seconds,{report.shipped_median_s:.9f}")
    return 0


@functools.cache  # built once: building took 1.0 ms of each main() call, parsing 0.05 ms
def _build_parser() -> _Parser:
    parser = _Parser(prog="rfst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="emit a transform matrix or cascade")
    p.add_argument("--type", required=True, choices=TRANSFORMS)
    p.add_argument("--size", required=True, type=_size)
    p.add_argument("--what", choices=("matrix", "cascade"), default="matrix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="print orthonormality residual, DC response, leakage")
    p.add_argument("--type", required=True, choices=TRANSFORMS)
    p.add_argument("--size", required=True, type=_size)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("coding-gain", help="coding gain of one transform as a CSV row")
    p.add_argument("--type", required=True, choices=TRANSFORMS)
    p.add_argument("--size", required=True, type=_size)
    p.add_argument("--rho", type=float, default=analysis.DEFAULT_RHO)
    p.set_defaults(func=_cmd_coding_gain)

    p = sub.add_parser("table1", help="coding gains for all sizes and transform families")
    p.add_argument("--rho", type=float, default=analysis.DEFAULT_RHO)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("opcount", help="extra operation counts for both postprocessings")
    p.add_argument("--size", required=True, type=int)
    p.set_defaults(func=_cmd_opcount)

    p = sub.add_parser("equiv", help="signed-permutation equivalence of the two designs")
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--tol", type=float, default=EQUIV_DEFAULT_TOL)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("freq", help="per-row frequency response CSV files")
    p.add_argument("--type", required=True, choices=TRANSFORMS)
    p.add_argument("--size", required=True, type=_size)
    p.add_argument("--points", type=_size, default=512)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("image", help="blockwise transform, inverse, or subband mosaic")
    p.add_argument("action", choices=("forward", "inverse", "mosaic"))
    p.add_argument("--transform", required=True, choices=TRANSFORMS)
    p.add_argument("--block", required=True, type=_size)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser(
        "bench", help="time cascade versus dense half-size postprocessing, and rfst as shipped")
    p.add_argument("--size", required=True, type=_size)
    p.add_argument("--image-size", type=_size, default=512)
    p.add_argument("--repeats", type=_size, default=11)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"rfst: error: {exc}", file=sys.stderr)
        return 1
