"""Print one SHA-256 per call x transform x shape of the 2-D pipeline's outputs.

Two checkouts whose runs print the same lines give bit-identical
outputs.  Each case is a seeded random image, transformed by:

- forward_2d and inverse_2d, each called twice, the first output
  dropped before the second call, so that the second call writes into
  the plane the first released;
- write_coeff_file of forward_2d's plane and write_pgm of the image,
  hashing each file;
- `rfst image forward`, `rfst image inverse` (of that RFC file) and
  `rfst image mosaic`, through rfst.cli.main, hashing each output file.

The worker count follows the CPUs this process may run on, so compare
runs under the same pinning, for example:

    taskset -c 0 python scripts/hash_outputs.py > one-cpu.txt
    taskset -c 0,1 python scripts/hash_outputs.py /path/to/other/checkout > two-cpus.txt

The optional argument is the checkout whose src/ is imported (by
default the one this script is in).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

# (transform, block size, height, width): every route of the pipeline.  Below 256 rfst
# runs its folded dense product, dct and ht their matrices; from 256 on rfst runs its FFT
# core, here on planes of several block rows and segments, 2048^2 at M=1024 among them
CASES = (
    ("rfst", 8, 256, 512),
    ("rfst", 8, 264, 520),
    ("rfst", 8, 2048, 2048),
    ("dct", 8, 264, 520),
    ("ht", 8, 256, 512),
    ("rfst", 256, 1024, 1024),
    ("rfst", 256, 768, 1280),
    ("rfst", 512, 1536, 2560),
    ("rfst", 1024, 2048, 2048),
)


def _digest(data) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from rfst import cli, forward_2d, inverse_2d
    from rfst.cli import TRANSFORMS
    from rfst.imaging import GrayImage, write_coeff_file, write_pgm

    print(f"# {root}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for kind, m, h, w in CASES:
            case = f"{kind} {m} {h}x{w}"
            rng = np.random.default_rng(m * h + w)
            img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
            t = TRANSFORMS[kind](m)
            for call in (1, 2):
                coeffs = forward_2d(img, t)
                digest = _digest(coeffs.values.tobytes())
                print(f"forward_2d#{call} {case} {digest}")
                del coeffs  # released, for the next call to reuse
            coeffs = forward_2d(img, t)
            for call in (1, 2):
                plane = inverse_2d(coeffs, t)
                print(f"inverse_2d#{call} {case} {_digest(plane.tobytes())}")
                del plane
            pgm, rfc, written = tmp / "in.pgm", tmp / "coeffs.rfc", tmp / "written.rfc"
            write_coeff_file(coeffs, written)
            print(f"write_coeff_file {case} {_digest(written.read_bytes())}")
            del coeffs
            write_pgm(img, pgm)
            print(f"write_pgm {case} {_digest(pgm.read_bytes())}")
            for action, src in (("forward", pgm), ("inverse", rfc), ("mosaic", pgm)):
                out = rfc if action == "forward" else tmp / f"{action}.pgm"
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(["image", action, "--transform", kind, "--block", str(m),
                                       "--in", str(src), "--out", str(out)])
                if status:
                    raise SystemExit(f"rfst image {action} exited {status} on {case}")
                print(f"image-{action} {case} {_digest(out.read_bytes())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
