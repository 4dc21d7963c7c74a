"""One benchmark process: set-up probe, or the timed passes of one workload.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH`` set to
the checkout's ``src``; it is not meant to be run by hand.

    worker.py setup SRC PROBLEM...   time ``import odefilter`` + first get_problem
    worker.py run SPEC_JSON          run passes, write worker.json to the out dir
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import time
import traceback

import workloads

#: Set-up probes after each timed pass.  Spreading them over the run, rather
#: than timing them all at its start, lets the machine's speed drift act on
#: them as it acts on the passes.
SETUP_PER_PASS = 6


def _import_checked(src: pathlib.Path):
    import odefilter

    if src.resolve() not in pathlib.Path(odefilter.__file__).resolve().parents:
        raise SystemExit(f"odefilter was imported from {odefilter.__file__}, not from {src}")
    return odefilter


def setup(src: pathlib.Path, problems: list) -> None:
    t0 = time.perf_counter()
    odefilter = _import_checked(src)
    for name in problems:
        odefilter.get_problem(name)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _setup_probe(src: pathlib.Path, problems: tuple) -> float:
    """Set-up time of one fresh process (see ``setup``)."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", str(src), *problems],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)["setup_s"]


def _digest(path: pathlib.Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run(spec: dict) -> None:
    src = pathlib.Path(spec["src"])
    out = pathlib.Path(spec["out_dir"])
    workload = workloads.build(spec["workload"], spec["seed"], spec["smoke"])
    odefilter = _import_checked(src)
    from odefilter import cli

    # Set-up is measured by its own processes; pay it here before timing.
    for name in workload.problems:
        odefilter.get_problem(name)

    def one_pass(tracer=None) -> dict:
        codes, errors = [], []
        t0 = time.perf_counter()
        for call in workload.calls:
            argv = list(call.argv) + ["--out", str(out / call.out)]
            if call.svg:
                argv += ["--svg", str(out / call.out.replace(".csv", ".svg"))]
            span = tracer.open("cli.main", cell_root=True) if tracer else None
            if span:
                tracer.root = span.id
            try:
                codes.append(cli.main(argv))
            except Exception:  # a raising call fails its cells; the pass goes on
                codes.append(None)
                errors.append(traceback.format_exc())
            finally:
                if span:
                    tracer.close(span)
                    tracer.root = 0
        wall = time.perf_counter() - t0
        digests = {call.out: _digest(out / call.out) for call in workload.calls}
        return {"wall_s": wall, "codes": codes, "errors": errors, "digests": digests}

    result = {"passes": []}
    if spec["trace"]:
        import tracing

        result["passes"].append(one_pass())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = one_pass(tracer)
        finally:
            tracer.uninstall()
        result["passes"].append(traced)
        tracer.write(out / "trace.jsonl")
        written = [out / call.out for call in workload.calls]
        csv_bytes = sum(path.stat().st_size for path in written if path.is_file())
        overhead = traced["wall_s"] / result["passes"][0]["wall_s"] - 1.0
        result["per_layer"], result["absent"] = tracer.metrics(csv_bytes, overhead)
    else:
        _setup_probe(src, workload.problems)  # fills the bytecode cache; not timed
        result["setup_s"] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            result["passes"].append(one_pass())
            result["setup_s"] += [
                _setup_probe(src, workload.problems) for _ in range(SETUP_PER_PASS)
            ]
            elapsed = time.perf_counter() - start
            # Stop before one more pass and its probes would overrun.
            if elapsed + (time.perf_counter() - t0) > spec["seconds"]:
                break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _numpy_env()
    (out / "worker.json").write_text(json.dumps(result), encoding="utf-8")


def _numpy_env() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = blas.get("openblas configuration", "")
        blas = f"{blas.get('name')} {blas.get('version')} ({config})"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "blas": blas}


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(pathlib.Path(rest[0]), rest[1:])
    else:
        run(json.loads(rest[0]))
