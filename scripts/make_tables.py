#!/usr/bin/env python3
"""Regenerate the full set of discrepancy tables (random / optimized /
asymptotic for the four periodic kernels) as markdown and CSV.

Usage: python scripts/make_tables.py [outdir] [--quick]

--quick restricts the grid to N <= 64, D <= 4 for a fast smoke run.
Each table is computed once and written in both formats, through the
renderer of ``kerndisc table``.  The full optimized grid is
compute-heavy (hours at N=512, D=128); the random and asymptotic tables
take minutes.
"""

import pathlib
import sys

from kerndisc.cli import render_table, table_values

KERNELS = ("per-exp", "per-mq", "per-gauss", "per-trunc")
MODES = ("random", "optimized", "asymptotic")
SEED = 0
MC_SAMPLES = 2**16  # the `kerndisc table` default; periodic kernels read none


def run(outdir: pathlib.Path, quick: bool) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    n_list = [16, 32, 64] if quick else [16, 32, 64, 128, 256, 512]
    d_list = [1, 2, 4] if quick else [1, 2, 4, 8, 16, 32, 64, 128]
    for kernel in KERNELS:
        for mode in MODES:
            max_iters = 400 if mode == "optimized" and quick else None
            values = table_values(kernel, mode, n_list, d_list, SEED, MC_SAMPLES,
                                  max_iters, None)
            for fmt, ext in (("markdown", "md"), ("csv", "csv")):
                out = outdir / f"{kernel}_{mode}.{ext}"
                text = render_table(kernel, mode, SEED, n_list, d_list, values, fmt)
                out.write_text(text, encoding="utf-8", newline="")
                print(f"wrote {out}")


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    outdir = pathlib.Path(args[0]) if args else pathlib.Path("tables")
    run(outdir, quick="--quick" in sys.argv)
