#!/usr/bin/env python3
"""Run every figure preset and collect CSV tables plus SVG charts.

Writes fig1/fig2/fig3/figC outputs into a results directory (default
./results).  The full default grids take 43 s on a 2-vCPU Xeon VM; pass
--quick for a 5-point grid smoke run.
"""

import argparse
import pathlib
import sys

from odefilter.cli import main as odefilter_main

PRESETS = {
    "fig1": "wpd",
    "fig2": "wpd",
    "fig3": "wpd",
    "figC": "misalign",
}


def run(out_dir: pathlib.Path, grid: str) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for preset, command in PRESETS.items():
        csv_path = out_dir / f"{preset}.csv"
        svg_path = out_dir / f"{preset}.svg"
        argv = [
            command,
            "--preset",
            preset,
            "--h-grid",
            grid,
            "--out",
            str(csv_path),
            "--svg",
            str(svg_path),
        ]
        print(f"[{preset}] odefilter {' '.join(argv)}")
        code = odefilter_main(argv)
        if code != 0:
            print(f"[{preset}] failed with exit code {code}", file=sys.stderr)
            return code
        print(f"[{preset}] wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=pathlib.Path)
    parser.add_argument("--grid", default="0.1:2:8", help="H0:FACTOR:COUNT step-size grid")
    parser.add_argument("--quick", action="store_true", help="use a small 5-point grid")
    args = parser.parse_args()
    sys.exit(run(args.out_dir, "0.1:2:5" if args.quick else args.grid))
