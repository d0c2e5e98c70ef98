"""The traced run: per-layer numbers from spans around calls into each module.

Spans are recorded only here, around calls into the public functions of
`cli`, `imaging`, `transforms`, `regularity`, `rdst`, `opcount` and
`analysis`; nothing inside the package is instrumented.  Spans are kept
in memory and written out once, when the run ends.  Every traced run
reports every per-layer metric, at the workload's block size and image.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench

LAYER_REPEATS = 5
CLI_MAIN_REPEATS = 3
CHILD_REPEATS = 3

# name -> (unit, better); MOVES says which end-to-end metric each layer should move
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.main_forward_s": ("s", "lower"),
    "cli.main_inverse_s": ("s", "lower"),
    "cli.child_forward_s": ("s", "lower"),
    "cli.child_inverse_s": ("s", "lower"),
    "imaging.read_pgm_s": ("s", "lower"),
    "imaging.write_coeff_file_s": ("s", "lower"),
    "imaging.read_coeff_file_s": ("s", "lower"),
    "imaging.write_pgm_s": ("s", "lower"),
    "imaging.bytes_read": ("B", "lower"),
    "imaging.bytes_written": ("B", "lower"),
    "imaging.forward_2d_s": ("s", "lower"),
    "imaging.inverse_2d_s": ("s", "lower"),
    "imaging.layout_s": ("s", "lower"),
    "imaging.layout_inverse_s": ("s", "lower"),
    "imaging.plane_bytes": ("B", "lower"),
    "imaging.working_set_over_l2": ("ratio", "lower"),
    "imaging.roundtrip_max_abs_err": ("level", "lower"),
    "imaging.flat_tile_max_ac": ("level", "lower"),
    "transforms.core_apply_s": ("s", "lower"),
    "transforms.core_flops": ("count", "lower"),
    "transforms.core_gflop_s": ("GFLOP/s", "higher"),
    "transforms.dst2_build_s": ("s", "lower"),
    "transforms.orthonormality_residual": ("abs", "lower"),
    "regularity.rfst_build_s": ("s", "lower"),
    "regularity.cascade_forward_s": ("s", "lower"),
    "regularity.cascade_inverse_s": ("s", "lower"),
    "regularity.reflections": ("count", "lower"),
    "rdst.dense_half_apply_s": ("s", "lower"),
    "rdst.dense_half_over_cascade": ("ratio", "higher"),
    "opcount.cascade_mul": ("count", "lower"),
    "opcount.cascade_add": ("count", "lower"),
    "analysis.dc_leakage_energy": ("energy", "lower"),
    "trace.forward_overhead_s": ("s", "lower"),
    "trace.inverse_overhead_s": ("s", "lower"),
}

MOVES = {
    "cli.import_s": "setup_s on every workload",
    "cli.main_forward_s": "forward_s on cli_roundtrip",
    "cli.main_inverse_s": "inverse_s on cli_roundtrip",
    "cli.child_forward_s, cli.child_inverse_s": "setup_s, forward_s, inverse_s on cli_roundtrip",
    "imaging.*_pgm_s, imaging.*_coeff_file_s": "forward_s, inverse_s on cli_roundtrip",
    "imaging.forward_2d_s, imaging.inverse_2d_s": "forward_s, inverse_s on every workload",
    "imaging.layout_s, imaging.layout_inverse_s": "forward_s, inverse_s on blocks_small",
    "transforms.core_apply_s": "forward_s, inverse_s on blocks_large; little on blocks_small",
    "transforms.dst2_build_s, regularity.rfst_build_s": "setup_s on blocks_large",
    "regularity.cascade_*_s": "forward_s, inverse_s on blocks_large once the core is fast",
    "rdst.dense_half_apply_s": "none: not on the shipped path; tracks the paper's wall-time claim",
}

IMPORT_CODE = """\
import json, time
t0 = time.perf_counter()
import rfst.cli
t1 = time.perf_counter()
import rfst
rfst.rfst({m})
print(json.dumps({{"import_s": t1 - t0, "rfst_build_s": time.perf_counter() - t1}}))
"""

DST2_CODE = """\
import json, time
import rfst
t0 = time.perf_counter()
rfst.dst2({m})
print(json.dumps({{"dst2_build_s": time.perf_counter() - t0}}))
"""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest through a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), name, self._open[-1] if self._open else None, 0.0)
        self.spans.append(record)
        self._open.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name and s.end is not None]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([vars(s) for s in self.spans]) + "\n")


def _repeat(tracer: Tracer, name: str, fn, repeats: int = LAYER_REPEATS, before=None):
    """Call fn `repeats` times inside spans; `before` prepares untimed arguments."""
    out = None
    for _ in range(repeats):
        args = before() if before else ()
        with tracer.span(name):
            out = fn(*args)
    return out


def _child_layers(tracer: Tracer, m: int, inputs: bench.Inputs, env: dict) -> tuple[dict, bool]:
    """Import, first-build and whole-CLI times, each in a fresh interpreter.

    Also returns whether every CLI child exited 0 and round-tripped the PGM byte for byte.
    """
    wd = inputs.workdir
    found = {name: [] for name in ("cli.import_s", "regularity.rfst_build_s", "transforms.dst2_build_s",
                                   "cli.child_forward_s", "cli.child_inverse_s")}
    cli = [sys.executable, "-m", "rfst", "image"]
    opts = ["--transform", "rfst", "--block", str(m)]
    cli_ok = True
    for _ in range(CHILD_REPEATS):
        with tracer.span("child.import_cli_build_rfst"):
            first = json.loads(bench.python_child(IMPORT_CODE.format(m=m), wd, env)[0])
        with tracer.span("child.build_dst2"):
            build = json.loads(bench.python_child(DST2_CODE.format(m=m), wd, env)[0])
        found["cli.import_s"].append(first["import_s"])
        found["regularity.rfst_build_s"].append(first["rfst_build_s"])
        found["transforms.dst2_build_s"].append(build["dst2_build_s"])
        for action, src, dst in (("forward", inputs.pgm_path, wd / "child.rfc"),
                                 ("inverse", wd / "child.rfc", wd / "child.pgm")):
            with tracer.span(f"child.cli_{action}"):
                done, wall = bench.run_child(cli + [action, *opts, "--in", str(src), "--out", str(dst)], wd, env)
            cli_ok = cli_ok and done.returncode == 0
            found[f"cli.child_{action}_s"].append(wall)
        back = wd / "child.pgm"
        cli_ok = cli_ok and back.is_file() and back.read_bytes() == inputs.pgm_path.read_bytes()
    return {name: statistics.median(times) for name, times in found.items()}, cli_ok


def traced(w: bench.Workload, seed: int, seconds: float, workdir: Path, trace_path: Path) -> dict:
    """The traced run: every per-layer metric, and how many checked calls failed."""
    rfst = bench.import_rfst()
    import rfst.cli
    from rfst.opcount import measure_cascade_ops
    from rfst.rdst import apply_half_postprocessing, half_postprocessing_matrix

    env = bench.child_env()
    tracer = Tracer()
    inputs = bench.prepare(w, seed, workdir)
    m, h, wd = w.block, inputs.pixels.shape[0], inputs.pixels.shape[1]

    # End-to-end pairs alternate untraced and traced, so their difference is
    # the tracing overhead measured under the same conditions.
    run = bench.pair_runner(rfst, inputs)
    untraced, traced_calls = bench.Calls(), bench.Calls()
    start = time.perf_counter()
    while len(traced_calls.forward) < bench.MIN_PAIRS or time.perf_counter() - start < seconds:
        run(untraced)
        with tracer.span("request"):
            run(traced_calls, tracer)

    fresh, cli_children_ok = _child_layers(tracer, m, inputs, env)

    coeff_path, out_path = workdir / "layer.rfc", workdir / "layer.pgm"
    io_args = ["--transform", "rfst", "--block", str(m)]
    codes = []
    main = lambda argv: codes.append(rfst.cli.main(argv))  # noqa: E731
    _repeat(tracer, "cli.main_forward", main, CLI_MAIN_REPEATS, lambda: (
        ["image", "forward", *io_args, "--in", str(inputs.pgm_path), "--out", str(coeff_path)],))
    _repeat(tracer, "cli.main_inverse", main, CLI_MAIN_REPEATS, lambda: (
        ["image", "inverse", *io_args, "--in", str(coeff_path), "--out", str(out_path)],))
    cli_identical = out_path.is_file() and out_path.read_bytes() == inputs.pgm_path.read_bytes()

    img = _repeat(tracer, "imaging.read_pgm", rfst.read_pgm, before=lambda: (inputs.pgm_path,))
    t = rfst.rfst(m)
    coeffs = _repeat(tracer, "imaging.forward_2d", rfst.forward_2d, before=lambda: (img, t))
    rec = _repeat(tracer, "imaging.inverse_2d", rfst.inverse_2d, before=lambda: (coeffs, t))
    _repeat(tracer, "imaging.write_coeff_file", rfst.write_coeff_file, before=lambda: (coeffs, coeff_path))
    _repeat(tracer, "imaging.read_coeff_file", rfst.read_coeff_file, before=lambda: (coeff_path,))
    out_img = rfst.GrayImage(np.clip(np.rint(rec), 0, 255).astype(np.uint8))
    _repeat(tracer, "imaging.write_pgm", rfst.write_pgm, before=lambda: (out_img, out_path))
    bytes_read = inputs.pgm_path.stat().st_size + coeff_path.stat().st_size
    bytes_written = coeff_path.stat().st_size + out_path.stat().st_size

    # the (M, H*W/M) segment matrix a row pass hands to the core
    plane = inputs.pixels.astype(np.float64)
    segments = np.ascontiguousarray(plane.reshape(h, wd // m, m).transpose(2, 0, 1).reshape(m, -1))
    y = _repeat(tracer, "transforms.core_apply", t.core.apply, before=lambda: (segments,))
    _repeat(tracer, "regularity.cascade_forward", t.cascade.apply, before=lambda: (y.copy(),))
    _repeat(tracer, "regularity.cascade_inverse", lambda v: t.cascade.apply(v, inverse=True),
            before=lambda: (y.copy(),))
    pp = half_postprocessing_matrix(m)
    _repeat(tracer, "rdst.dense_half_apply", apply_half_postprocessing, before=lambda: (pp, y[0::2]))
    with tracer.span("opcount.measure_cascade_ops"):
        ops = measure_cascade_ops(t.cascade)
    with tracer.span("analysis.dc_leakage_energy"):
        leakage = rfst.dc_leakage_energy(t)
    with tracer.span("transforms.orthonormality_residual"):
        residual = t.as_matrix().orthonormality_residual()
    tracer.write(trace_path)

    flat_ac, flat_ok = bench.flat_tiles_max_ac(coeffs.values, m, inputs.tiles)
    err = bench.roundtrip_max_err(rec, inputs.pixels)
    layer_checks = {
        "rfst image children exit 0 and round-trip byte-identically": cli_children_ok,
        "cli.main exit codes": all(code == 0 for code in codes),
        "cli.main round trip is byte-identical": cli_identical,
        "flat tiles regular": flat_ok,
        "round trip within tolerance": err <= bench.ROUNDTRIP_TOL,
        "cascade ops 2(M-2) mul, M-2 add": (ops.mul, ops.add) == (2 * (m - 2), m - 2),
    }
    failed_checks = [name for name, ok in layer_checks.items() if not ok]

    med = tracer.median
    core, casc_f, casc_i = med("transforms.core_apply"), med("regularity.cascade_forward"), med("regularity.cascade_inverse")
    sizes = bench.computed_sizes(w, bench.l2_bytes())
    flops = 2 * m * h * wd
    values = {
        **fresh,
        "cli.main_forward_s": med("cli.main_forward"),
        "cli.main_inverse_s": med("cli.main_inverse"),
        "imaging.read_pgm_s": med("imaging.read_pgm"),
        "imaging.write_coeff_file_s": med("imaging.write_coeff_file"),
        "imaging.read_coeff_file_s": med("imaging.read_coeff_file"),
        "imaging.write_pgm_s": med("imaging.write_pgm"),
        "imaging.bytes_read": bytes_read,
        "imaging.bytes_written": bytes_written,
        "imaging.forward_2d_s": med("imaging.forward_2d"),
        "imaging.inverse_2d_s": med("imaging.inverse_2d"),
        "imaging.layout_s": med("imaging.forward_2d") - 2 * (core + casc_f),
        "imaging.layout_inverse_s": med("imaging.inverse_2d") - 2 * (core + casc_i),
        "imaging.plane_bytes": sizes["plane_bytes"],
        "imaging.working_set_over_l2": sizes["working_set_over_l2"],
        "imaging.roundtrip_max_abs_err": err,
        "imaging.flat_tile_max_ac": flat_ac,
        "transforms.core_apply_s": core,
        "transforms.core_flops": flops,
        "transforms.core_gflop_s": flops / core / 1e9,
        "transforms.orthonormality_residual": residual,
        "regularity.cascade_forward_s": casc_f,
        "regularity.cascade_inverse_s": casc_i,
        "regularity.reflections": len(t.cascade),
        "rdst.dense_half_apply_s": med("rdst.dense_half_apply"),
        "rdst.dense_half_over_cascade": med("rdst.dense_half_apply") / casc_f,
        "opcount.cascade_mul": ops.mul,
        "opcount.cascade_add": ops.add,
        "analysis.dc_leakage_energy": leakage,
        "trace.forward_overhead_s": statistics.median(traced_calls.forward) - statistics.median(untraced.forward),
        "trace.inverse_overhead_s": statistics.median(traced_calls.inverse) - statistics.median(untraced.inverse),
    }
    metrics = {name: bench.metric(values[name], unit) for name, (unit, _) in PER_LAYER.items()}
    details = {
        "samples": {"request pairs": len(traced_calls.forward), "untraced pairs": len(untraced.forward),
                    "layer calls": LAYER_REPEATS, "cli.main calls": CLI_MAIN_REPEATS, "fresh interpreters": CHILD_REPEATS},
        "untraced forward_s": statistics.median(untraced.forward),
        "untraced inverse_s": statistics.median(untraced.inverse),
        "derived": "imaging.layout_s = forward_2d_s - 2*(core_apply_s + cascade_forward_s); "
                   "imaging.layout_inverse_s uses inverse_2d_s and cascade_inverse_s",
        "file_io": "warm page cache: every file is read right after it was written",
        "ratio_base": "rdst.dense_half_over_cascade = rdst.dense_half_apply_s / regularity.cascade_forward_s",
        "shares": _shares(w, values),
        "layer_checks": layer_checks,
        "moves": MOVES,
        "trace_file": os.path.relpath(trace_path, bench.ROOT),
        "errors": untraced.errors + traced_calls.errors + failed_checks,
    }
    return {
        "metrics": metrics,
        "details": details,
        "attempted": untraced.attempted + traced_calls.attempted + len(layer_checks),
        "failed": untraced.failed + traced_calls.failed + len(failed_checks),
    }


def _shares(w: bench.Workload, v: dict) -> dict:
    """Share of a forward call taken by each layer on the workload's path."""
    if w.via_cli:
        whole = "cli.child_forward_s"
        parts = {k: v[k] for k in ("cli.import_s", "imaging.read_pgm_s", "imaging.forward_2d_s",
                                   "imaging.write_coeff_file_s")}
    else:
        whole = "imaging.forward_2d_s"
        parts = {"imaging.layout_s": v["imaging.layout_s"],
                 "transforms.core_apply_s (x2)": 2 * v["transforms.core_apply_s"],
                 "regularity.cascade_forward_s (x2)": 2 * v["regularity.cascade_forward_s"]}
    shares = {k: x / v[whole] for k, x in parts.items()}
    return {"of": whole, "shares": shares, "largest": max(shares, key=shares.get)}
