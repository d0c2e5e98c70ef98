"""Workloads, seeded inputs, output checks and the untraced measurement loops.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns.  Forward and inverse calls are timed separately,
every timed output is checked outside the timed region, and a failed check
is counted, never dropped.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Closed-loop runs keep going past --seconds until this many forward/inverse
# pairs are timed, so the tail percentile below always has 10 samples beyond it.
MIN_PAIRS = 11
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0

# A flat tile leaks nothing into its AC coefficients in exact arithmetic.  In
# floating point the dense product leaves rounding that grows with the tile's
# DC coefficient and with M: 3.4e-9 on a 200-valued 1024x1024 tile, which is
# 1.7e-14 of its DC value.  Leakage from a transform that is not regular is of
# the order of the DC value itself.
FLAT_AC_ATOL = 1e-9
FLAT_AC_RTOL = 1e-13
ROUNDTRIP_TOL = 1e-9

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    block: int
    size: int  # the image is size x size
    via_cli: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_roundtrip", 8, 2048, True,
            "`rfst image forward|inverse` through rfst.cli.main on PGM and RFC files: "
            "argument parsing, PGM parsing and the 32 MiB RFC write and read show here, "
            "and the interpreter start and import in setup_s; timed in-process because "
            "child-process wall times spread beyond the 0.25 bound across ten runs",
        ),
        Workload(
            "blocks_small", 8, 2048, False,
            "in-process forward_2d/inverse_2d at the paper's codec block size; "
            "layout copies dominate, and a fast FFT core must not be chosen here",
        ),
        Workload(
            "blocks_large", 1024, 2048, False,
            "in-process forward_2d/inverse_2d with rfst(1024), past the dense-vs-FFT "
            "crossover; the dense core product dominates and setup_s holds the "
            "rfst(1024) build",
        ),
    )
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "forward_s": ("s", "lower"),
    "inverse_s": ("s", "lower"),
    "forward_tail_s": ("s", "lower"),
    "inverse_tail_s": ("s", "lower"),
    "roundtrip_mpix_s": ("Mpix/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}


def import_rfst():
    """Import the package from the checkout's src/, never from an installed copy."""
    if not (SRC / "rfst" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rfst package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rfst

    if Path(rfst.__file__).resolve().parent != (SRC / "rfst").resolve():
        raise ImportError(f"rfst imported from {rfst.__file__}, not from {SRC}")
    return rfst


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ and one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


# ---------------------------------------------------------------- inputs


def make_image(block: int, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded test image and the (row, col) block indices of its flat tiles.

    A smooth wave plus noise, with one block-aligned tile in sixteen (at
    least one) set to a constant, so the regularity of the transform can be
    checked on every forward output.
    """
    rng = np.random.default_rng(seed)
    freq = rng.uniform(1.0, 8.0, size=2)
    phase = rng.uniform(0.0, 2 * np.pi)
    x = np.arange(size)[None, :] / size
    pixels = np.empty((size, size), dtype=np.uint8)
    for start in range(0, size, 256):  # row chunks keep generation out of peak_rss_mib
        y = np.arange(start, min(start + 256, size))[:, None] / size
        field = 128.0 + 60.0 * np.sin(2 * np.pi * (freq[0] * x + freq[1] * y) + phase)
        field += 20.0 * rng.standard_normal(field.shape)
        pixels[start : start + 256] = np.clip(np.rint(field), 0, 255)

    tiles = size // block
    chosen = np.sort(rng.choice(tiles * tiles, size=max(1, tiles * tiles // 16), replace=False))
    rows, cols = np.divmod(chosen, tiles)
    values = rng.integers(0, 256, size=chosen.size, dtype=np.uint8)
    pixels.reshape(tiles, block, tiles, block)[rows, :, cols, :] = values[:, None, None]
    return pixels, np.stack([rows, cols], axis=1)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


# ---------------------------------------------------------------- checks


def flat_tiles_max_ac(values: np.ndarray, block: int, tiles: np.ndarray) -> tuple[float, bool]:
    """Largest AC magnitude on the flat tiles, and whether every tile is within tolerance."""
    n = values.shape[1] // block
    blocks = values.reshape(-1, block, n, block)[tiles[:, 0], :, tiles[:, 1], :]
    dc = np.abs(blocks[:, 0, 0])
    ac = np.abs(blocks.reshape(len(tiles), -1)[:, 1:]).max(axis=1)
    return float(ac.max()), bool(np.all(ac <= FLAT_AC_ATOL + FLAT_AC_RTOL * dc))


def roundtrip_max_err(reconstructed: np.ndarray, pixels: np.ndarray) -> float:
    # row chunks keep the check's temporaries small next to the program's own
    worst = 0.0
    for start in range(0, pixels.shape[0], 256):
        diff = reconstructed[start : start + 256] - pixels[start : start + 256]
        worst = max(worst, float(np.abs(diff, out=diff).max()))
    return worst


# ---------------------------------------------------------------- timing


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        raise ValueError(f"a tail needs at least 11 samples, got {len(ordered)}")
    return ordered[k - 1], 100.0 * k / len(ordered)


@dataclass
class Calls:
    """Timed forward/inverse calls of one loop, with their check results."""

    forward: list = field(default_factory=list)
    inverse: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.forward) + len(self.inverse)

    def record(self, times: list, seconds: float, error: str | None) -> None:
        times.append(seconds)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def timed(fn, tracer=None, span: str = ""):
    """Run fn; return (result, error text or None, seconds).

    A traced call is timed by its span, so the span's own cost is included.
    """
    with nullcontext() if tracer is None else tracer.span(span) as s:
        start = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:  # the caller counts it as a failed call
            out, error = None, repr(exc)
        seconds = time.perf_counter() - start
    return out, error, seconds if tracer is None else s.duration


def run_child(argv: list, cwd: Path, env: dict) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion (killed after CHILD_TIMEOUT_S); return it and its wall time."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return done, time.perf_counter() - start


def python_child(code: str, cwd: Path, env: dict) -> tuple[str, float]:
    """Run `python -c code`; return its stdout and wall time, raising if it failed."""
    done, wall = run_child([sys.executable, "-c", code], cwd, env)
    if done.returncode != 0:
        raise RuntimeError(f"child failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return done.stdout, wall


# Starts the clock before `import rfst`; nothing has loaded numpy yet.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
if "numpy" in sys.modules:
    sys.exit("numpy was imported before the timed region")
import rfst
import numpy as np
t = rfst.rfst({m})
rfst.forward_2d(rfst.GrayImage(np.zeros(({m}, {m}), np.uint8)), t)
print(time.perf_counter() - t0)
"""

CLI_SETUP_CODE = """\
import rfst.cli
import rfst
import numpy as np
rfst.forward_2d(rfst.GrayImage(np.zeros((8, 8), np.uint8)), rfst.rfst(8))
"""


def setup_sampler(w: Workload, workdir: Path, env: dict):
    """Return a callable giving one set-up time, after one untimed warm-up child.

    Library workloads time a fresh interpreter from before `import rfst` to a
    built transform that has been called once; cli_roundtrip takes the wall
    time of a child that imports rfst.cli, builds rfst(8), calls it once and
    exits.
    """
    code = CLI_SETUP_CODE if w.via_cli else SETUP_CODE.format(m=w.block)
    python_child(code, workdir, env)  # compiles bytecode, warms the page cache

    def sample() -> float:
        stdout, wall = python_child(code, workdir, env)
        return wall if w.via_cli else float(stdout.split()[-1])

    return sample


# ---------------------------------------------------------------- loops


@dataclass
class Inputs:
    """One workload's generated inputs, as the package receives them."""

    workload: Workload
    pixels: np.ndarray
    tiles: np.ndarray
    workdir: Path

    @property
    def pgm_path(self) -> Path:
        return self.workdir / "input.pgm"


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    pixels, tiles = make_image(w.block, w.size, seed)
    inputs = Inputs(w, pixels, tiles, workdir)
    inputs.pgm_path.write_bytes(pgm_bytes(pixels))
    return inputs


def blocks_pair(rfst, inputs: Inputs, img, forward_t, inverse_t, calls: Calls, tracer=None) -> None:
    """One forward_2d and one inverse_2d call, each timed and checked."""
    w = inputs.workload
    coeffs, error, seconds = timed(lambda: rfst.forward_2d(img, forward_t), tracer, "request.forward")
    if error is None:
        _, ok = flat_tiles_max_ac(coeffs.values, w.block, inputs.tiles)
        error = None if ok else "flat tile leaked into AC"
    calls.record(calls.forward, seconds, error)

    rec, error, seconds = timed(lambda: rfst.inverse_2d(coeffs, inverse_t), tracer, "request.inverse")
    if error is None:
        err = roundtrip_max_err(rec, inputs.pixels)
        error = None if err <= ROUNDTRIP_TOL else f"round-trip error {err:.3e}"
    calls.record(calls.inverse, seconds, error)


def cli_pair(rfst, inputs: Inputs, calls: Calls, tracer=None) -> None:
    """`rfst image forward` then `rfst image inverse` through rfst.cli.main, each timed and checked."""
    w, wd = inputs.workload, inputs.workdir
    opts = ["--transform", "rfst", "--block", str(w.block)]
    coeff_path, out_path = wd / "coeffs.rfc", wd / "output.pgm"
    for path in (coeff_path, out_path):
        path.unlink(missing_ok=True)

    argv = ["image", "forward", *opts, "--in", str(inputs.pgm_path), "--out", str(coeff_path)]
    code, error, seconds = timed(lambda: rfst.cli.main(argv), tracer, "request.forward")
    if error is None and code != 0:
        error = f"rfst image forward exited {code}"
    if error is None:
        _, ok = flat_tiles_max_ac(rfst.read_coeff_file(coeff_path).values, w.block, inputs.tiles)
        error = None if ok else "flat tile leaked into AC"
    calls.record(calls.forward, seconds, error)

    argv = ["image", "inverse", *opts, "--in", str(coeff_path), "--out", str(out_path)]
    code, error, seconds = timed(lambda: rfst.cli.main(argv), tracer, "request.inverse")
    if error is None and code != 0:
        error = f"rfst image inverse exited {code}"
    if error is None and out_path.read_bytes() != inputs.pgm_path.read_bytes():
        error = "output PGM differs from input"
    calls.record(calls.inverse, seconds, error)


def pair_runner(rfst, inputs: Inputs, forward_t=None, inverse_t=None):
    """Return run(calls, tracer) doing one forward/inverse pair of the workload, after one warm-up pair."""
    w = inputs.workload
    if w.via_cli:
        importlib.import_module("rfst.cli")
        cli_pair(rfst, inputs, Calls())
        return lambda calls, tracer=None: cli_pair(rfst, inputs, calls, tracer)
    img = rfst.GrayImage(inputs.pixels)
    forward_t = forward_t or rfst.rfst(w.block)
    inverse_t = inverse_t or forward_t
    blocks_pair(rfst, inputs, img, forward_t, forward_t, Calls())
    return lambda calls, tracer=None: blocks_pair(rfst, inputs, img, forward_t, inverse_t, calls, tracer)


def closed_loop(run, seconds: float, sample=None, samples: int = 0) -> tuple[Calls, list]:
    """Time pairs until `seconds` of loop time have passed and MIN_PAIRS are done.

    `sample`, when given, runs `samples` times at evenly spaced points of the
    loop, outside its time, so that set-up is measured under the same machine
    conditions as the calls rather than in one burst.
    """
    calls, taken = Calls(), []
    elapsed = 0.0
    while len(calls.forward) < MIN_PAIRS or elapsed < seconds:
        if sample and len(taken) < samples and elapsed >= len(taken) * seconds / samples:
            taken.append(sample())
        start = time.perf_counter()
        run(calls)
        elapsed += time.perf_counter() - start
    while sample and len(taken) < samples:
        taken.append(sample())
    return calls, taken


# ---------------------------------------------------------------- records


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself (via ctypes)."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    report = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                report[Path(path).name] = fn()
                break
        else:
            report[Path(path).name] = "no get_num_threads symbol"
    return report


def l2_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 * 1024}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def environment(seed: int) -> dict:
    """What the numbers depend on, including the thread pin really in effect."""
    import scipy

    rfst = import_rfst()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    variables = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    pinned = all(value == "1" for value in variables.values())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rfst": getattr(rfst, "__version__", "unknown"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": l2_bytes(),
        "seed": seed,
        "pinning": {
            "method": "environment variables set before numpy loads, in this process and every child"
            if pinned else "unpinned in this process; children get the variables",
            "variables": variables,
            "threadpoolctl": "installed, not used"
            if importlib.util.find_spec("threadpoolctl") else "not installed",
            "openblas_threads_reported": _blas_threads(),
        },
        "page_cache": "warm: inputs are written by the benchmark just before they are read",
    }


def computed_sizes(w: Workload, l2_per_core: int | None) -> dict:
    """Bytes per call computed from array sizes (not measured traffic)."""
    pixels = w.size * w.size
    plane = 8 * pixels
    working_set = pixels + 2 * plane  # uint8 image plus one float64 plane in and one out
    l2 = l2_per_core or 4 * 1024 * 1024
    return {
        "image_bytes": pixels,
        "plane_bytes": plane,
        "coeff_file_bytes": 20 + plane,
        "core_matrix_bytes": 8 * w.block * w.block,
        "working_set_bytes": working_set,
        "l2_bytes_per_core": l2,
        "l2_source": "sysfs" if l2_per_core else "assumed 4 MiB",
        "working_set_over_l2": working_set / l2,
        "note": "computed from array sizes; bandwidth is not claimed",
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    """The untraced run: every end-to-end metric, and how many checked calls failed."""
    rfst = import_rfst()
    env = child_env()
    inputs = prepare(w, seed, workdir)
    calls, setup = closed_loop(pair_runner(rfst, inputs), seconds,
                               setup_sampler(w, workdir, env), SETUP_REPEATS)

    fwd_tail, fwd_pct = tail(calls.forward)
    inv_tail, inv_pct = tail(calls.inverse)
    wall = sum(calls.forward) + sum(calls.inverse)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "forward_s": metric(statistics.median(calls.forward), "s"),
        "inverse_s": metric(statistics.median(calls.inverse), "s"),
        "forward_tail_s": metric(fwd_tail, "s"),
        "inverse_tail_s": metric(inv_tail, "s"),
        "roundtrip_mpix_s": metric(len(calls.forward) * w.size * w.size / 1e6 / wall, "Mpix/s"),
        "peak_rss_mib": metric(peak_kib / 1024, "MiB"),
    }
    details = {
        "samples": {"setup_s": len(setup), "forward_s": len(calls.forward), "inverse_s": len(calls.inverse)},
        "tail_percentile": {"forward_tail_s": fwd_pct, "inverse_tail_s": inv_pct},
        "error_rate": calls.failed / calls.attempted,
        "errors": calls.errors,
        "setup_samples_s": setup,
    }
    return {"metrics": metrics, "details": details, "attempted": calls.attempted, "failed": calls.failed}

