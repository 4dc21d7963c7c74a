"""Regenerate the stored reference outputs in ``perfbench/refs/``.

    python3 perfbench/make_refs.py [--workload NAME] [--seeds 0,1,...]

For each workload and seed this runs the workload's CLI calls once as the
program stands (the reference) and once per entry of ``VARIANTS``, each in a
fresh process.  Every variant computes the same arithmetic in another
float64 order: the covariance kernels rewritten (``Q + A (P A^T)`` instead
of ``A P A^T + Q``, the gain divided before the outer product instead of
after), or OpenBLAS forced onto the matrix kernels of another CPU family.
The OpenBLAS in numpy's x86-64 wheels selects among the SkylakeX, Haswell,
Sandybridge, Nehalem and Katmai kernels (``Prescott`` selects Katmai); the
variants force each of the last four.  The largest change any variant makes
to a value is what ``check.py`` turns into that value's tolerance.

Only run this when a change to the program is meant to change its outputs,
and say so where the change is recorded.  It takes about five minutes per
seed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import check
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Alternative float64 orders: (reorder the covariance kernels?, extra env).
VARIANTS = {
    "reordered": (True, {}),
    "haswell": (False, {"OPENBLAS_CORETYPE": "Haswell"}),
    "prescott": (False, {"OPENBLAS_CORETYPE": "Prescott"}),
    "sandybridge": (False, {"OPENBLAS_CORETYPE": "Sandybridge"}),
    "nehalem": (False, {"OPENBLAS_CORETYPE": "Nehalem"}),
}


def _reorder_kernels(filtering) -> None:
    np = filtering.np

    def predict_covariance(P, tm):
        P_pred = tm.Q + tm.A @ (P @ tm.A.T)
        return 0.5 * (P_pred + P_pred.T)

    def update_covariance(P_pred, R):
        beta = filtering.gain(P_pred, R)
        col = P_pred[:, 1]
        P = P_pred - np.outer(col / (P_pred[1, 1] + R), col)
        return filtering._psd_floor(P), beta

    filtering.predict_covariance = predict_covariance
    filtering.update_covariance = update_covariance


def emit(name: str, seed: int, reorder: bool, out: pathlib.Path) -> None:
    """Child process: run one workload's calls, CSVs into ``out``."""
    sys.path.insert(0, str(ROOT / "src"))
    from odefilter import cli, filtering

    if reorder:
        _reorder_kernels(filtering)
    out.mkdir(parents=True, exist_ok=True)
    for call in workloads.build(name, seed).calls:
        code = cli.main(list(call.argv) + ["--out", str(out / call.out)])
        if code != 0:
            raise SystemExit(f"{name}: {' '.join(call.argv)} exited {code}")


def _outputs(name: str, seed: int, variant: str, tmp: pathlib.Path) -> dict:
    reorder, extra = VARIANTS.get(variant, (False, {}))
    out = tmp / variant
    subprocess.run(
        [sys.executable, __file__, "--emit", name, str(seed), str(int(reorder)), str(out)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **extra},
        check=True,
    )
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out.glob("*.csv"))}


def _changes(ref_text: str, variant_texts: list) -> tuple:
    """The largest |ref - variant| of each value that is above the floors.

    Returns ({"row,column": change}, ratio).  ``ratio`` is the largest
    factor by which one variant's change exceeded all the others', over the
    values every variant moved above the floors: the headroom an order none
    of them tried would need, which ``check.MARGIN`` must cover.
    """
    ref_rows = check.parse(ref_text)
    alt_rows = [check.parse(text) for text in variant_texts]
    changes, ratio = {}, 0.0
    for k, ref in enumerate(ref_rows):
        for column, value in ref.items():
            a = check.number(value)
            if a is None or not math.isfinite(a):
                continue
            moved = []
            for rows in alt_rows:
                b = check.number(rows[k][column])
                if b is not None and math.isfinite(b):
                    moved.append(abs(a - b))
            least = max(check.RTOL * abs(a), check.floor(column, ref))
            if not moved or check.MARGIN * max(moved) <= least:
                continue
            changes[f"{k},{column}"] = float(f"{max(moved):.3g}")
            if len(moved) > 1 and min(moved) > least:
                for i, c in enumerate(moved):
                    ratio = max(ratio, c / max(moved[:i] + moved[i + 1:]))
    return changes, ratio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(workloads.SEEDS)))
    parser.add_argument("--emit", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:
        name, seed, reorder, out = args.emit
        emit(name, int(seed), reorder == "1", pathlib.Path(out))
        return 0

    tmp = ROOT / ".bench_build" / "perfbench" / "make_refs"
    failed = 0
    for name in args.workload or workloads.WORKLOADS:
        path = HERE / "refs" / f"{name}.json.gz"
        refs = json.loads(gzip.decompress(path.read_bytes())) if path.is_file() else {}
        for seed in (int(s) for s in args.seeds.split(",")):
            shutil.rmtree(tmp, ignore_errors=True)
            ref = _outputs(name, seed, "reference", tmp)
            alts = [_outputs(name, seed, variant, tmp) for variant in VARIANTS]
            refs[str(seed)], ratio = {}, 0.0
            for csv, text in ref.items():
                changes, r = _changes(text, [alt[csv] for alt in alts])
                refs[str(seed)][csv] = {"text": text, "change": changes}
                ratio = max(ratio, r)
            widened = sum(len(v["change"]) for v in refs[str(seed)].values())
            print(f"{name} seed {seed}: {widened} values wider than the floors; one variant's "
                  f"change was up to {ratio:.3g} x the others' (MARGIN {check.MARGIN:g})",
                  flush=True)
            # Each variant must pass the check its own change widened.
            kind = "steady" if name == "steady" else "wpd"
            for variant, alt in zip(VARIANTS, alts):
                for csv, text in alt.items():
                    label = f"{name} seed {seed} {variant} {csv}"
                    _, messages = check.check_csv(kind, text, refs[str(seed)][csv], False, label)
                    failed += len(messages)
                    for message in messages:
                        print("  VARIANT FAILS THE CHECK: " + message, flush=True)
            path.parent.mkdir(exist_ok=True)
            blob = json.dumps(refs, sort_keys=True, separators=(",", ":")).encode()
            path.write_bytes(gzip.compress(blob, mtime=0))
    shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
