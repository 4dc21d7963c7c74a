"""Every command line the benchmark, the scripts and the README send must parse.

Narrowing a subcommand's flags can turn one of these calls into an exit 1:
the benchmark would count failed operations and the figures would not be
written, while the other tests pass.  Each argv here goes through the
parser and the config merge, without running the command.
"""

import importlib.util
import pathlib
import re
import sys

import pytest

from odefilter import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def check_parses(argv) -> None:
    args = cli._build_parser().parse_args(list(argv))
    cli._config_from_args(args, cli.COMMANDS[args.command][2])


WORKLOADS = load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
BENCH_CASES = [
    (name, seed, smoke)
    for name in WORKLOADS.WORKLOADS
    for seed in range(WORKLOADS.SEEDS)
    for smoke in (False, True)
]


@pytest.mark.parametrize("name,seed,smoke", BENCH_CASES)
def test_benchmark_argvs_parse(name, seed, smoke):
    for call in WORKLOADS.build(name, seed, smoke).calls:
        # The flags perfbench/worker.py appends to every call.
        argv = list(call.argv) + ["--out", call.out]
        if call.svg:
            argv += ["--svg", call.out.replace(".csv", ".svg")]
        check_parses(argv)


def recorded_argvs(script: str, monkeypatch, tmp_path, *args) -> list:
    module = load(ROOT / "scripts" / script, "script_" + script.removesuffix(".py"))
    argvs = []

    def record(argv):
        argvs.append(argv)
        return 0

    monkeypatch.setattr(module, "odefilter_main", record)
    if hasattr(module, "verify_order_bounds"):
        monkeypatch.setattr(module, "verify_order_bounds", lambda *a: [])
    assert module.run(tmp_path, *args) == 0
    return argvs


@pytest.mark.parametrize("grid", ["0.1:2:8", "0.1:2:5"])
def test_reproduce_figures_argvs_parse(grid, monkeypatch, tmp_path, capsys):
    argvs = recorded_argvs("reproduce_figures.py", monkeypatch, tmp_path, grid)
    assert len(argvs) == 4
    for argv in argvs:
        check_parses(argv)


def test_steady_orders_argvs_parse(monkeypatch, tmp_path, capsys):
    argvs = recorded_argvs("steady_orders.py", monkeypatch, tmp_path, 1.0)
    assert len(argvs) == 4
    for argv in argvs:
        check_parses(argv)


def readme_argvs() -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
    return [line.split()[1:] for line in re.findall(r"^odefilter .*$", text, re.M)]


def test_readme_examples_parse():
    argvs = readme_argvs()
    assert [argv[0] for argv in argvs] == ["solve", "wpd", "steady", "misalign"]
    for argv in argvs:
        check_parses(argv)


def test_output_matrix_argvs_parse(monkeypatch, tmp_path, capsys):
    argvs = recorded_argvs("output_matrix.py", monkeypatch, tmp_path)
    # 5 presets x 3 starts, 4 README examples, 8 error runs, 5 more sweeps,
    # 1 diverging solve, 28 steady runs.
    assert len(argvs) == 15 + 4 + 8 + 5 + 1 + 28
    for argv in argvs:
        check_parses(argv)


def test_output_matrix_runs_the_readme_examples():
    module = load(ROOT / "scripts" / "output_matrix.py", "script_output_matrix")
    readme = []
    for argv in readme_argvs():
        # The matrix picks its own --out and --svg paths.
        drop = {i + k for i, arg in enumerate(argv) if arg in ("--out", "--svg") for k in (0, 1)}
        readme.append([arg for i, arg in enumerate(argv) if i not in drop])
    runs = module.runs()
    assert [runs[name][0] for name in module.README] == readme


def test_output_matrix_against_lists_the_files_that_differ(monkeypatch, tmp_path, capsys):
    # Two small trees stand in for the two sides' outputs: no solver runs.
    module = load(ROOT / "scripts" / "output_matrix.py", "script_output_matrix")
    trees = {
        "parent": {"same.csv": "a\n", "differ.csv": "1\n", "sub/parent-only.svg": "<svg/>"},
        "change": {"same.csv": "a\n", "differ.csv": "2\n", "change-only.stderr": "exit 0\n"},
    }

    sources = []

    def write_side(argv, env, check, stdout):
        side = pathlib.Path(argv[2])
        sources.append((side.name, env["PYTHONPATH"]))
        for name, text in trees[side.name].items():
            (side / name).parent.mkdir(parents=True, exist_ok=True)
            (side / name).write_text(text)

    monkeypatch.setattr(module.subprocess, "run", write_side)
    assert module.against(tmp_path / "parent_src", tmp_path / "out") == 1
    assert sources == [("parent", str(tmp_path / "parent_src")), ("change", str(ROOT / "src"))]
    listed = ["change-only.stderr", "differ.csv", str(pathlib.Path("sub/parent-only.svg"))]
    assert module.differences(tmp_path / "out" / "parent", tmp_path / "out" / "change") == listed
    assert [f"differs: {path}" for path in listed] == capsys.readouterr().out.splitlines()[:3]
    trees["change"] = trees["parent"]
    assert module.against(tmp_path / "parent_src", tmp_path / "again") == 0
