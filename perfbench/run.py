"""The odefilter benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload fig1 --seed 0 --seconds 55 --trace 0

Run it from the root of a checkout; it runs the package from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones of a
traced pass.  The lines before it repeat the figures for a reader, with
quartiles, sample counts and the machine they were measured on.  The exit
code is 1 if any output check failed and 2 if the run could not be made.

``--smoke`` runs each workload on a short prefix of its grid; the
benchmark's own tests use it.  See README.md for why each workload is here.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracing
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

#: OpenBLAS would otherwise start one thread per CPU on top of the sweep
#: pool, for matrices of at most 6 x 6.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Every child process must end by then, so a run ends within 180 s.
CHILD_DEADLINE_S = 170.0


class RunError(Exception):
    """The benchmark could not be run; no result is printed."""


def _child(args: list, env: dict, deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before starting " + " ".join(args[:2]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise RunError(f"worker {' '.join(args[:2])} did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "threads": THREAD_ENV}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor() or "unknown"
    caches = []
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = ", ".join(caches) or "unknown"
    return info


def _check_outputs(workload, out: pathlib.Path, passes: list, smoke: bool) -> tuple:
    """(attempted, failed, messages) over every pass of the run."""
    ref = check.load(workload.name, workload.seed)
    kind = "steady" if workload.name == "steady" else "wpd"
    attempted = failed = 0
    messages = []
    for k, call in enumerate(workload.calls):
        path = out / call.out
        if path.is_file():
            cells, msgs = check.check_csv(
                kind, path.read_text(encoding="utf-8"), ref[call.out], smoke, call.out
            )
            messages += msgs
        else:
            cells = {}
            messages.append(f"{call.out}: not written")
        per_call = workload.cells // len(workload.calls)
        bad = sum(not ok for ok in cells.values()) + max(per_call - len(cells), 0)
        last = passes[-1]["digests"][call.out]
        for n, run in enumerate(passes):
            if run["codes"][k] != 0:
                messages.append(f"pass {n}: {' '.join(call.argv)} returned {run['codes'][k]}")
                failed += per_call
            elif run["digests"][call.out] != last:
                messages.append(f"pass {n}: {call.out} differs from the last pass")
                failed += per_call
            else:
                failed += min(bad, per_call)
            attempted += per_call
    for run in passes:
        messages += run["errors"]
    return attempted, failed, messages


def run(args) -> int:
    src = ROOT / "src"
    if not (src / "odefilter" / "__init__.py").is_file():
        raise RunError(f"no odefilter package under {src}; run from a checkout of the repository")
    deadline = time.monotonic() + CHILD_DEADLINE_S
    workload = workloads.build(args.workload, args.seed, args.smoke)
    out = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}

    spec = {
        "src": str(src),
        "out_dir": str(out),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    _child(["run", json.dumps(spec)], env, deadline)
    result = json.loads((out / "worker.json").read_text(encoding="utf-8"))
    passes = result["passes"]
    attempted, failed, messages = _check_outputs(workload, out, passes, args.smoke)

    machine = {**_machine(), **result["env"]}
    walls = [p["wall_s"] for p in passes]
    setups = result.get("setup_s", [])
    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracing.PER_LAYER[name][0]}
            for name, value in result["per_layer"].items()
        }
    else:
        wall_q = _quartiles(walls)
        setup_q = _quartiles(setups)
        values = {
            "setup_s": setup_q[1],
            "wall_s": wall_q[1],
            "steps_per_s": workload.steps / wall_q[1],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_rate": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}

    print(f"perfbench {workload.name}: seed {args.seed} (inputs of seed {workload.seed})"
          f"{', smoke grid' if args.smoke else ''}, {len(passes)} pass(es) of {workload.cells} "
          f"cells and {workload.steps} filter steps, trace {args.trace}")
    if args.trace:
        print(f"  untraced pass {walls[0]:.4f} s, traced pass {walls[1]:.4f} s; "
              f"spans in {out / 'trace.jsonl'}")
        for name, metric in metrics.items():
            print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
        for name in result["absent"]:
            print(f"  {name:32s} {'absent':>14s} (its wrapped name no longer exists)")
    else:
        print(f"  setup_s      {setup_q[1]:.4f} s   quartiles {setup_q[0]:.4f}..{setup_q[2]:.4f}"
              f", n = {len(setups)} fresh processes")
        print(f"  wall_s       {wall_q[1]:.4f} s   quartiles {wall_q[0]:.4f}..{wall_q[2]:.4f}"
              f", n = {len(walls)} passes")
        print(f"  steps_per_s  {values['steps_per_s']:.1f} 1/s")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"  fail_rate    {failed / attempted:.4f} ({failed} of {attempted} cells)")
    print("  machine: " + "; ".join(f"{k} {v}" for k, v in machine.items()))
    for message in messages[:20]:
        print("  CHECK FAILED: " + message.rstrip())
    record = {"args": vars(args), "machine": machine, "passes": passes, "setup_s": setups,
              "metrics": metrics, "check": messages}
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short grids, for the tests")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
