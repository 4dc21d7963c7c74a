"""``scripts/interleave.py``: one source against itself, and against a copy that prints otherwise."""

import importlib.util
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
STEADY = ["--workload", "steady", "--pairs", "2"]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "script_interleave", ROOT / "scripts" / "interleave.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_one_src_against_itself(capsys):
    src = str(ROOT / "src")
    assert load_script().main([src, src] + STEADY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "steady, seed 0: 2 pairs, CSVs byte-equal"
    assert [line.split(":")[0] for line in lines[1:4]] == ["parent", "change", "change/parent"]
    assert lines[4].startswith("change faster in ") and lines[4].endswith(" of 2 pairs")
    assert not [name for name in sys.modules if name.startswith("odefilter_")]


def test_csvs_that_differ_fail(tmp_path, capsys):
    # A copy that prints 16 significant digits in place of 17.
    shutil.copytree(ROOT / "src" / "odefilter", tmp_path / "odefilter")
    cli = tmp_path / "odefilter" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"%.17g"') == 2
    cli.write_text(text.replace('"%.17g"', '"%.16g"'), encoding="utf-8")
    assert load_script().main([str(ROOT / "src"), str(tmp_path)] + STEADY) == 1
    assert "CSVs differ" in capsys.readouterr().err
