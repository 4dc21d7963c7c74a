#!/usr/bin/env python3
"""Write one fixed set of odefilter outputs, so two checkouts can be compared with diff -r.

    PYTHONPATH=src python scripts/output_matrix.py OUT_DIR
    PYTHONPATH=src python scripts/output_matrix.py --against PARENT_SRC OUT_DIR

With ``--against``, the set is written twice, each time by a subprocess
that imports odefilter from one source: PARENT_SRC, a ``src`` directory
holding the other checkout's package, into OUT_DIR/parent, and this
checkout's ``src`` into OUT_DIR/change.  The two trees are then compared
file by file; the script lists each file that differs or is on one side
only, and exits 1 if there is any.

The set, each run's CSV (and SVG) plus its stderr and exit code:

* ``wpd`` fig1/fig2/fig3 and ``misalign`` figC/fig2, with SVG, under
  ``--init exact``, ``perturbed:1.0 --seed 3`` and ``perturbed:1e300``;
* the README examples;
* ``steady`` on the grid ``H0:2:12`` for sigma in {1, 50}, H0 in
  {0.1, 0.099738} and seven noise models;
* a ``steady`` orbit that cycles (sigma = 100, ``power:1:1``), a
  singular innovation (sigma = 1e-170, zero noise) in ``steady`` and in
  ``wpd``, a prior whose (A, Q) overflows (sigma = 1e200) in ``steady``
  and in ``solve``, a closed form that overflows (sigma = 1e100) in
  ``steady``, an infinite R (``const:inf``) in ``steady``, and a sweep
  with q = 0;
* more sweeps: fig2 on a factor-3 grid, whose meshes do not nest, an
  IOUP prior, and q = 5, the largest supported matrix size (linear with
  zero noise, and logistic with an IOUP prior), and a sweep that lists one
  noise model twice, so that identical passes share one stack, over two q;
* a per-step ``solve`` from ``perturbed:1e300``, whose covariance pass
  turns NaN and ends at a fixed point.

About 9 s on a 2-vCPU Xeon VM with OPENBLAS_NUM_THREADS=1.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

from odefilter.cli import main as odefilter_main

INITS = {
    "exact": ["--init", "exact"],
    "perturbed1": ["--init", "perturbed:1.0", "--seed", "3"],
    "perturbed1e300": ["--init", "perturbed:1e300"],
}

PRESETS = (
    ("wpd", "fig1"), ("wpd", "fig2"), ("wpd", "fig3"), ("misalign", "figC"), ("misalign", "fig2"),
)

README = {
    "readme-solve": (
        "solve --problem riccati --q 1 --sigma 3.1622776601683795 --h 0.1 --noise zero",
        False,
    ),
    "readme-wpd": (
        "wpd --problem logistic --q 1,2 --sigma 50 --noise zero,power:1:1 --h-grid 0.1:2:6",
        True,
    ),
    "readme-steady": ("steady --sigma 1 --noise power:1:1 --h-grid 0.1:2:8", False),
    "readme-misalign": ("misalign --preset figC", False),
}

STEADY_NOISES = (
    "zero", "const:0.25", "power:0.5:1", "power:1:1", "power:2:1", "power:3:1", "power:1:5000",
)

ERRORS = {
    "steady-cycle": ("steady --sigma 100 --noise power:1:1 --h-grid 0.1:2:12", False),
    "steady-singular": ("steady --sigma 1e-170 --noise zero --h-grid 0.1:2:12", False),
    "wpd-singular": ("wpd --problem logistic --sigma 1e-170 --h-grid 0.1:2:4", False),
    "steady-overflow": ("steady --sigma 1e200 --noise power:1:1 --h-grid 0.1:2:8", False),
    "solve-overflow": ("solve --problem logistic --sigma 1e200 --h 0.1", False),
    "steady-closed-overflow": ("steady --sigma 1e100 --noise power:1:1 --h-grid 0.1:2:8", False),
    "wpd-q-0": ("wpd --problem logistic --q 0 --h-grid 0.1:2:4", False),
    "steady-const-inf": ("steady --sigma 1 --noise const:inf --h-grid 0.1:2:8", False),
}

SWEEPS = {
    "wpd-fig2-factor3": ("wpd --preset fig2 --h-grid 0.1:3:4", True),
    "wpd-ioup": (
        "wpd --problem logistic --q 1,2 --prior ioup --theta 1 --noise zero,power:1:1 "
        "--h-grid 0.1:2:4",
        False,
    ),
    "wpd-linear-q5": ("wpd --problem linear --q 5 --sigma 1 --noise zero --h-grid 0.1:2:5", False),
    "wpd-ioup-q5": (
        "wpd --problem logistic --q 5 --sigma 50 --prior ioup --theta 1 "
        "--noise zero,power:5:1 --h-grid 0.1:2:5",
        False,
    ),
    "wpd-repeated-pass": (
        "wpd --problem logistic --q 1,2 --noise zero,zero,power:1:1 --h-grid 0.1:2:4",
        False,
    ),
}

DIVERGING = {
    "solve-perturbed-1e300": (
        "solve --problem logistic --q 1 --h 0.0125 --noise zero --init perturbed:1e300",
        False,
    ),
}


def runs() -> dict:
    """Output name -> (argv without --out/--svg, whether it writes an SVG)."""
    table = {}
    for command, preset in PRESETS:
        for init, flags in INITS.items():
            table[f"{command}-{preset}-{init}"] = ([command, "--preset", preset, *flags], True)
    for name, (text, svg) in {**README, **ERRORS, **SWEEPS, **DIVERGING}.items():
        table[name] = (text.split(), svg)
    for sigma in ("1", "50"):
        for h0 in ("0.1", "0.099738"):
            for noise in STEADY_NOISES:
                argv = ["steady", "--sigma", sigma, "--noise", noise, "--h-grid", f"{h0}:2:12"]
                table[f"steady-{sigma}-{h0}-{noise.replace(':', '_')}"] = (argv, False)
    return table


def run(out_dir: pathlib.Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (argv, svg) in runs().items():
        argv = argv + ["--out", str(out_dir / f"{name}.csv")]
        if svg:
            argv += ["--svg", str(out_dir / f"{name}.svg")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = odefilter_main(argv)
        (out_dir / f"{name}.stderr").write_text(f"{err.getvalue()}exit {code}\n", encoding="utf-8")
        print(f"[{name}] exit {code}")
    return 0


def differences(a: pathlib.Path, b: pathlib.Path) -> list:
    """The relative paths of the files that differ in bytes, or exist under one tree only."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(
        str(path)
        for path in files[0] | files[1]
        if path not in files[0] & files[1] or (a / path).read_bytes() != (b / path).read_bytes()
    )


def against(parent_src: pathlib.Path, out_dir: pathlib.Path) -> int:
    """Write the set from ``parent_src`` and from this checkout's src, and compare the two."""
    sides = {"parent": parent_src, "change": pathlib.Path(__file__).resolve().parents[1] / "src"}
    for side, src in sides.items():
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(src).resolve())}
        argv = [sys.executable, __file__, str(out_dir / side)]
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    differ = differences(out_dir / "parent", out_dir / "change")
    for path in differ:
        print(f"differs: {path}")
    print(f"{len(differ)} of the files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--against":
        sys.exit(against(pathlib.Path(sys.argv[2]), pathlib.Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} [--against PARENT_SRC] OUT_DIR")
    sys.exit(run(pathlib.Path(sys.argv[1])))
