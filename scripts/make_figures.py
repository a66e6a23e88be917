#!/usr/bin/env python3
"""Emit the figure data: optimized vs random point clouds (N=256, D=2)
for all eight cube kernels, and the 1-D kernel slices per dimension.

Usage: python scripts/make_figures.py [outdir] [--quick]

--quick drops to N=64 and capped optimizer iterations for a fast smoke
run.  Output is CSV only (plotting is out of scope); each point cloud
carries its discrepancy in '#' metadata lines.
"""

import pathlib
import sys

from kerndisc.cli import main as cli_main

CUBE_KERNELS = [f"{loc}-{fam}" for loc in ("per", "tra")
                for fam in ("exp", "mq", "gauss", "trunc")]


def run(outdir: pathlib.Path, quick: bool) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    n = "64" if quick else "256"
    for kernel in CUBE_KERNELS:
        for mode in ("random", "optimized"):
            out = outdir / f"cloud_{kernel}_{mode}_N{n}_D2.csv"
            argv = ["points", "--kernel", kernel, "--mode", mode,
                    "--N", n, "--D", "2", "--seed", "0", "--out", str(out)]
            if quick:
                argv += ["--max-iters", "200"]
            code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"points generation failed for {kernel} {mode}")
            print(f"wrote {out}")
        for dim in (1, 4, 64):
            out = outdir / f"slice_{kernel}_D{dim}.csv"
            code = cli_main(["slice", "--kernel", kernel, "--D", str(dim),
                             "--resolution", "512", "--out", str(out)])
            if code != 0:
                raise SystemExit(f"slice generation failed for {kernel} D={dim}")
            print(f"wrote {out}")


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    outdir = pathlib.Path(args[0]) if args else pathlib.Path("figures")
    run(outdir, quick="--quick" in sys.argv)
