#!/usr/bin/env python3
"""Time one benchmark workload on two odefilter sources, alternating in one process.

    python scripts/interleave.py PARENT_SRC CHANGE_SRC --workload W [--seed S] [--pairs N]

PARENT_SRC and CHANGE_SRC are ``src`` directories that each hold an
``odefilter`` package.  Each package is copied under its own name
(``odefilter_parent``, ``odefilter_change``) into a temporary directory and
imported from there, so both run in this one process.  The workload's CLI
calls are those of ``perfbench/workloads.py`` at the seed (default 0).
After one untimed pass per side, each pair times one pass per side, the
parent first in even pairs and the change first in odd ones.  Every pass
must write byte-equal CSVs on both sides, or the script exits 1.

It prints each side's median pass time with its quartiles, the median of
the per-pair ratios change/parent and the pairs the change ran faster.
Separate processes can time the same code further apart than the gain
being measured: min-of-40 ``steady`` timings of two checkouts whose steady
code differs by one ``try`` ranged 0.94-1.77x across processes, and read
0.98x interleaved.
"""

import argparse
import importlib
import importlib.util
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def one_pass(cli, calls, out: pathlib.Path) -> float:
    """Seconds to run the workload's calls once, each writing into ``out``."""
    start = time.perf_counter()
    for call in calls:
        argv = list(call.argv) + ["--out", str(out / call.out)]
        if call.svg:
            argv += ["--svg", str(out / call.out.replace(".csv", ".svg"))]
        if cli.main(argv) != 0:
            raise SystemExit(f"interleave: {' '.join(call.argv)} failed")
    return time.perf_counter() - start


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def same_csvs(calls, outs: dict) -> bool:
    return all(
        len({(outs[side] / call.out).read_bytes() for side in SIDES}) == 1 for call in calls
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="the parent's src directory")
    parser.add_argument("change", type=pathlib.Path, help="the change's src directory")
    parser.add_argument("--workload", required=True, help="fig1 | fig2 | steady")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as perfbench runs; read when numpy loads
    calls = load_workloads().build(args.workload, args.seed).calls
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        outs = {}
        for side, src in zip(SIDES, (args.parent, args.change)):
            shutil.copytree(src / "odefilter", tmp / f"odefilter_{side}")
            outs[side] = tmp / f"out_{side}"
            outs[side].mkdir()
        sys.path.insert(0, str(tmp))
        try:
            clis = {side: importlib.import_module(f"odefilter_{side}.cli") for side in SIDES}
            for side in SIDES:
                one_pass(clis[side], calls, outs[side])  # untimed
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    times[side].append(one_pass(clis[side], calls, outs[side]))
                if not same_csvs(calls, outs):
                    print("interleave: the two sides' CSVs differ", file=sys.stderr)
                    return 1
        finally:
            sys.path.remove(str(tmp))
            for name in [name for name in sys.modules if name.startswith("odefilter_")]:
                del sys.modules[name]
    print(f"{args.workload}, seed {args.seed}: {args.pairs} pairs, CSVs byte-equal")
    for side in SIDES:
        q1, q2, q3 = quartiles(times[side])
        print(f"{side}: median {q2:.4f} s (quartiles {q1:.4f}, {q3:.4f})")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"change/parent: median ratio {statistics.median(ratios):.3f}")
    print(f"change faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
