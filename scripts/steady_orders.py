#!/usr/bin/env python3
"""Sweep the steady-state order verification over several noise orders.

For each p the script prints the fitted against the predicted h-exponent
of the five maximal covariance/gain quantities and writes one combined
CSV per noise model into the results directory.
"""

import argparse
import pathlib
import sys

from odefilter.cli import main as odefilter_main
from odefilter.noise import parse_noise
from odefilter.steady_state import verify_order_bounds


def run(out_dir: pathlib.Path, sigma: float) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = [0.1 * 2.0**-k for k in range(8)]
    for spec in ("power:1:1", "power:2:1", "power:3:1", "zero"):
        print(f"--- noise {spec} ---")
        noise = parse_noise(spec)
        for fit in verify_order_bounds(grid, sigma, noise.p, noise.K_R):
            fitted = "exact 0" if fit.exact_zero else f"{fit.fitted:.3f}"
            print(f"  {fit.quantity:16s} fitted {fitted:>8s}   predicted {fit.predicted:g}")
        csv_path = out_dir / f"steady_{spec.replace(':', '_')}.csv"
        code = odefilter_main(
            [
                "steady",
                "--sigma",
                repr(sigma),
                "--noise",
                spec,
                "--h-grid",
                "0.1:2:8",
                "--out",
                str(csv_path),
            ]
        )
        if code != 0:
            return code
        print(f"  wrote {csv_path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", type=pathlib.Path)
    parser.add_argument("--sigma", default=1.0, type=float)
    args = parser.parse_args()
    sys.exit(run(args.out_dir, args.sigma))
