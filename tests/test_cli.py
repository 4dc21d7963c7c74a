import csv
import dataclasses
import functools
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from oracles import full_pass_cells

from odefilter import cli, steady_state
from odefilter.cli import FIG3_KR_LADDER, _build_parser, main

SQRT10 = math.sqrt(10.0)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSolveCommand:
    def test_riccati_first_row_matches_worked_example(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            [
                "solve",
                "--problem",
                "riccati",
                "--q",
                "1",
                "--sigma",
                repr(SQRT10),
                "--h",
                "0.1",
                "--noise",
                "zero",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 10
        first = rows[0]
        assert float(first["t"]) == 0.1
        assert abs(float(first["m0_d0"]) - 305141 / 320000) < 1e-12
        assert abs(float(first["m1_d0"]) + 6859 / 16000) < 1e-12
        assert abs(float(first["sqrt_P00_d0"]) - math.sqrt(1 / 1200)) < 1e-12
        assert abs(float(first["residual_norm"]) - 1141 / 16000) < 1e-12

    def test_unknown_problem_exits_1(self, capsys):
        assert main(["solve", "--problem", "lorenz", "--h", "0.1"]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_logistic_row_count(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(
            ["solve", "--problem", "logistic", "--q", "1", "--h", "0.01", "--out", str(out)]
        )
        assert code == 0
        assert len(read_csv(out)) == 150

    def test_missing_h_exits_1(self, capsys):
        assert main(["solve", "--problem", "logistic"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_noise_exits_1(self, capsys):
        code = main(["solve", "--problem", "logistic", "--h", "0.1", "--noise", "gauss"])
        assert code == 1
        assert "noise" in capsys.readouterr().err

    def test_divergence_exits_2(self, tmp_path):
        # An absurd initialization envelope overflows the quadratic field
        # within a step or two; the partial trail is still emitted.
        out = tmp_path / "d.csv"
        code = main(
            [
                "solve",
                "--problem",
                "logistic",
                "--h",
                "0.1",
                "--init",
                "perturbed:1e300",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert len(read_csv(out)) < 15

    @pytest.mark.parametrize(
        "argv, steps",
        [
            ("--q 1 --h 0.0125 --noise zero --init perturbed:1e300", "0 of 120 steps (t = 0)"),
            ("--q 2 --h 0.01 --init perturbed:1e10", "6 of 150 steps (t = 0.06)"),
        ],
        ids=["at-once", "after-6-steps"],
    )
    def test_divergence_names_its_step(self, argv, steps, tmp_path, capsys):
        # One line on stderr, and the CSV keeps the steps completed.
        out = tmp_path / "d.csv"
        assert main(["solve", "--problem", "logistic", *argv.split(), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"odefilter: solve diverged after {steps}\n"
        assert len(read_csv(out)) == int(steps.split()[0])


#: Bad configurations, each caught in main as a ValueError, a LookupError or,
#: for sigma = 1e-170 with R = 0, a SingularInnovation.
CONFIG_ERRORS = {
    "ioup-no-theta": "solve --problem logistic --h 0.1 --prior ioup",
    "wpd-ioup-no-theta": "wpd --problem logistic --h-grid 0.1:2:4 --prior ioup",
    "sigma-0": "solve --problem logistic --h 0.1 --sigma 0",
    "steady-sigma-0": "steady --sigma 0 --h-grid 0.1:2:8",
    "init-not-a-number": "solve --problem logistic --h 0.1 --init perturbed:abc",
    "init-negative": "solve --problem logistic --h 0.1 --init perturbed:-1",
    "non-integer-mesh": "solve --problem logistic --h 0.4",
    "q-0": "solve --problem logistic --h 0.1 --q 0",
    "wpd-q-0": "wpd --problem logistic --q 0 --h-grid 0.1:2:4",
    "misalign-q-0": "misalign --problem logistic --q 0 --h-grid 0.1:2:4",
    "missing-derivative": "solve --problem logistic --h 0.1 --q 7",
    "wpd-bad-noise": "wpd --noise gauss --h-grid 0.1:2:4",
    "steady-bad-noise": "steady --noise gauss --h-grid 0.1:2:8",
    "steady-insufficient-grid": "steady --h-grid 0.1:2:4",
    "singular": "solve --problem logistic --q 1 --h 0.1 --sigma 1e-170",
    "wpd-singular": "wpd --problem logistic --q 1 --sigma 1e-170 --h-grid 0.1:2:4",
    "misalign-singular": "misalign --problem logistic --q 1 --sigma 1e-170 --h-grid 0.1:2:4",
    "steady-singular": "steady --sigma 1e-170 --noise zero --h-grid 0.1:2:8",
    "solve-overflow": "solve --problem logistic --h 0.1 --sigma 1e200",
    "wpd-overflow": "wpd --problem logistic --sigma 1e200 --h-grid 0.1:2:4",
    "steady-overflow": "steady --sigma 1e200 --h-grid 0.1:2:8",
    "steady-closed-overflow": "steady --sigma 1e100 --noise power:1:1 --h-grid 0.1:2:8",
    "steady-const-inf": "steady --sigma 1 --noise const:inf --h-grid 0.1:2:8",
}


Q_AT_LEAST_1 = "error: the solver requires q >= 1 (q = 0 models no derivative)"

#: The text of an error: the cell a singular innovation is named by, as the
#: CSV columns spell it, and the rule that q = 0 breaks.
ERROR_TEXT = {
    "q-0": Q_AT_LEAST_1,
    "wpd-q-0": Q_AT_LEAST_1,
    "misalign-q-0": Q_AT_LEAST_1,
    "wpd-singular": "error: problem = logistic, q = 1, p = inf, K_R = 0.0, h = 0.1: singular",
    "misalign-singular": "error: problem = logistic, q = 1, p = inf, K_R = 0.0, h = 0.1: singular",
    "steady-singular": "error: h = 0.1: singular",
    "steady-const-inf": "error: R must be finite, not inf at h = 0.1",
}


@pytest.mark.parametrize("name", list(CONFIG_ERRORS), ids=list(CONFIG_ERRORS))
def test_configuration_error_exits_1_without_traceback(name, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(CONFIG_ERRORS[name].split() + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("odefilter: error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    init = CONFIG_ERRORS[name].partition("--init ")[2]
    if init:
        assert f"bad init spec {init!r}; expected exact or perturbed:<K0>" in err
    assert ERROR_TEXT.get(name, "") in err


def test_three_calls_build_the_parser_once():
    _build_parser.cache_clear()
    for _ in range(3):
        assert main(["steady", "--noise", "zero", "--h-grid", "0.1:2:3"]) == 1
    assert _build_parser.cache_info().misses == 1


#: (value, its CSV text).
CSV_TEXT = [
    (True, "true"),
    (False, "false"),
    (np.True_, "True"),
    (0, "0"),
    (-7, "-7"),
    (np.int64(12), "12"),
    (0.1, "0.10000000000000001"),
    (np.float64(1 / 3), "0.33333333333333331"),
    (np.float32(0.1), "0.10000000149011612"),
    ("riccati", "riccati"),
    ("", ""),
    (math.nan, "nan"),
    (np.float64(math.nan), "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (-0.0, "-0"),
    (np.float64(-0.0), "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1e300, "1.0000000000000001e+300"),
]


@pytest.mark.parametrize("value, text", CSV_TEXT, ids=[repr(v) for v, _ in CSV_TEXT])
def test_csv_writer_formats_each_type(value, text, tmp_path):
    out = tmp_path / "values.csv"
    cli._write_csv(str(out), ["a", "b"], [[value, value]])
    assert out.read_bytes() == f"a,b\n{text},{text}\n".encode()


def test_exact_start_and_a_zero_width_perturbed_start_write_the_same_csv(tmp_path):
    paths = [tmp_path / "exact.csv", tmp_path / "perturbed.csv"]
    for path, init in zip(paths, ("exact", "perturbed:0")):
        assert main(["wpd", "--preset", "fig2", "--init", init, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("factor", [2.0, 3.0])
def test_exact_is_evaluated_once_per_cell_on_its_own_mesh(monkeypatch, tmp_path, factor):
    # Whether or not the meshes nest (a factor-2 grid's do; a factor-3
    # grid's mostly do not), each cell's error reads exact at its own times,
    # once: 2 problems x 2 noises x 4 step sizes.
    handed = []
    original = cli.get_problem

    def counted(name):
        problem = original(name)

        def exact(ts):
            handed.append((name, len(ts)))
            return problem.exact(ts)

        return dataclasses.replace(problem, exact=exact)

    monkeypatch.setattr(cli, "get_problem", counted)
    argv = ["wpd", "--preset", "fig2", "--h-grid", f"0.1:{factor}:4"]
    assert main(argv + ["--out", str(tmp_path / "fig2.csv")]) == 0
    hs = cli._h_values((0.1, factor, 4))
    expected = [(name, round(T / h) + 1) for name, T in (("logistic", 1.5), ("linear", 10.0))
                for h in hs] * 2
    assert sorted(handed) == sorted(expected)


class TestWpdCommand:
    def test_sweep_and_determinism(self, tmp_path):
        args = [
            "wpd",
            "--problem",
            "logistic",
            "--q",
            "1,2",
            "--sigma",
            "50.0",
            "--noise",
            "zero,power:1:1",
            "--h-grid",
            "0.1:2:4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv(a)
        assert len(rows) == 2 * 2 * 4
        for row in rows:
            assert int(row["n_evals"]) == round(float(row["T"]) / float(row["h"]))
            assert row["diverged"] == "false"

    def test_empty_grid_exits_1(self, capsys):
        assert main(["wpd", "--problem", "logistic", "--noise", "zero"]) == 1
        assert "h" in capsys.readouterr().err.lower()

    def test_too_small_grid_exits_1(self):
        assert (
            main(["wpd", "--problem", "logistic", "--noise", "zero", "--h-grid", "0.1:2:2"])
            == 1
        )

    def test_fig1_preset_constants(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["wpd", "--preset", "fig1", "--h-grid", "0.1:2:4", "--out", str(out)]) == 0
        rows = read_csv(out)
        sigma_by_problem = {row["problem"]: float(row["sigma"]) for row in rows}
        assert sigma_by_problem == {"logistic": 50.0, "linear": 1.0}
        assert {row["problem"] for row in rows} == {"logistic", "linear"}
        assert {int(row["q"]) for row in rows} == {1, 2, 3, 4}
        for row in rows:
            T = 1.5 if row["problem"] == "logistic" else 10.0
            assert float(row["T"]) == T
            p, K = float(row["p"]), float(row["K_R"])
            assert (math.isinf(p) and K == 0.0) or (p == float(row["q"]) and K == 1.0)

    def test_fig2_preset_constants(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["wpd", "--preset", "fig2", "--h-grid", "0.1:2:4", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(int(row["q"]) == 1 for row in rows)
        assert all(float(row["sigma"]) == 1.0 for row in rows)
        ks = {float(row["K_R"]) for row in rows}
        assert ks == {0.0, 5.00e3}
        assert all(float(row["final_std"]) > 0 for row in rows if float(row["K_R"]) > 0)

    def test_fig3_preset_constants(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["wpd", "--preset", "fig3", "--h-grid", "0.1:2:4", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(row["problem"] == "logistic" for row in rows)
        assert {float(row["K_R"]) for row in rows} == set(FIG3_KR_LADDER)
        assert all(float(row["p"]) == 0.5 for row in rows)
        assert 3.73e3 in {float(row["K_R"]) for row in rows}

    def test_svg_output_is_wellformed(self, tmp_path):
        out, svg = tmp_path / "w.csv", tmp_path / "w.svg"
        code = main(
            [
                "wpd",
                "--problem",
                "riccati",
                "--q",
                "1",
                "--sigma",
                repr(SQRT10),
                "--noise",
                "zero",
                "--h-grid",
                "0.1:2:4",
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) > 10


class TestSteadyCommand:
    def test_zero_noise_rows(self, tmp_path):
        out = tmp_path / "steady.csv"
        code = main(
            [
                "steady",
                "--sigma",
                "1.0",
                "--noise",
                "zero",
                "--h-grid",
                "0.1:2:8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        by_quantity = {}
        for row in rows:
            by_quantity.setdefault(row["quantity"], []).append(row)
        for row in by_quantity["beta0"]:
            assert float(row["closed_form"]) == pytest.approx(float(row["h"]) / 2, rel=1e-12)
        for row in by_quantity["beta1"]:
            assert float(row["closed_form"]) == 1.0
        for row in rows:
            assert float(row["discrepancy"]) < 1e-10
        for row in by_quantity["P11"]:
            assert row["flag"] == "exact_zero"

    def test_power_law_exponent_columns(self, tmp_path):
        out = tmp_path / "steady.csv"
        code = main(
            [
                "steady",
                "--sigma",
                "1.0",
                "--noise",
                "power:1:1",
                "--h-grid",
                "0.1:2:8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        predicted = {
            row["quantity"]: float(row["predicted_exponent"])
            for row in rows
            if row["predicted_exponent"] not in ("", "inf")
        }
        assert predicted == {
            "P11_pred": 1.0,
            "P11": 1.0,
            "P01": 2.0,
            "beta0": 1.0,
            "one_minus_beta1": 0.0,
        }
        for row in rows:
            if row["fitted_exponent"]:
                assert abs(float(row["fitted_exponent"]) - float(row["predicted_exponent"])) <= 0.15

    def test_small_grid_exits_1(self):
        assert main(["steady", "--noise", "zero", "--h-grid", "0.1:2:3"]) == 1

    def test_orbit_that_cycles_without_settling_exits_1(self, tmp_path, capsys):
        # At h = 0.1 the sigma = 100 orbit swings by 1.1e-13 on P11_pred ~ 1000
        # in an exact period-2 cycle, above orbit_limit's tol of 1e-13.
        out = tmp_path / "steady.csv"
        argv = ["steady", "--sigma", "100", "--noise", "power:1:1", "--h-grid", "0.1:2:8"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("odefilter: error: h = 0.1: orbit cycles with period 2 ")
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["power:1:1e300"])
    def test_orbit_that_never_settles_exits_1(self, noise, tmp_path, capsys, monkeypatch):
        # These orbits run out orbit_limit's max_steps without settling or
        # repeating; a small bound keeps the run short.  (An infinite R is
        # refused before any pass: see CONFIG_ERRORS["steady-const-inf"].)
        limit = functools.partial(steady_state.orbit_limit, max_steps=1000)
        monkeypatch.setattr(steady_state, "orbit_limit", limit)
        out = tmp_path / "steady.csv"
        argv = ["steady", "--sigma", "1", "--noise", noise, "--h-grid", "0.1:2:8"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "odefilter: error: h = 0.1: orbit did not settle within 1000 iterations\n"
        assert not out.exists()

    def test_other_runtime_errors_in_orbit_limit_escape(self, monkeypatch):
        # Only OrbitCycle and OrbitUnsettled are orbit outcomes to report as
        # a user error; any other RuntimeError is a fault in the program.
        def broken(*args, **kwargs):
            raise RuntimeError("fault inside orbit_limit")

        monkeypatch.setattr(steady_state, "orbit_limit", broken)
        with pytest.raises(RuntimeError, match="fault inside orbit_limit"):
            main(["steady", "--noise", "zero", "--h-grid", "0.1:2:8"])


class TestMisalignCommand:
    def test_riccati_sweep(self, tmp_path):
        out = tmp_path / "mis.csv"
        code = main(
            [
                "misalign",
                "--problem",
                "riccati",
                "--q",
                "1,2",
                "--sigma",
                repr(SQRT10),
                "--noise",
                "zero",
                "--h-grid",
                "0.1:2:5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 10
        for row in rows:
            assert float(row["delta1_final"]) >= 0.0

    def test_figC_preset(self, tmp_path):
        out = tmp_path / "figC.csv"
        code = main(["misalign", "--preset", "figC", "--h-grid", "0.1:2:4", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert all(row["problem"] == "riccati" for row in rows)
        assert {int(row["q"]) for row in rows} == {1, 2, 3, 4}
        assert all(float(row["sigma"]) == pytest.approx(SQRT10, rel=1e-15) for row in rows)


class TestPresetSlopes:
    """Desk-scale reruns of the figure presets, slopes fitted from the CSV."""

    def fit(self, rows, select, value_key="final_error"):
        pick = [(float(r["h"]), float(r[value_key])) for r in rows if select(r)]
        pick.sort(reverse=True)
        hs = [h for h, _ in pick][1:]  # drop the coarsest step
        vals = [v for _, v in pick][1:]
        return float(np.polyfit(np.log(hs), np.log(vals), 1)[0])

    def test_fig1_logistic_q1_zero_noise_slope(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["wpd", "--preset", "fig1", "--h-grid", "0.1:2:5", "--out", str(out)]) == 0
        rows = read_csv(out)
        slope = self.fit(
            rows,
            lambda r: r["problem"] == "logistic" and r["q"] == "1" and r["p"] == "inf",
        )
        assert slope >= 1.75

    def test_fig3_extreme_constant_degrades_rate(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["wpd", "--preset", "fig3", "--h-grid", "0.1:2:5", "--out", str(out)]) == 0
        rows = read_csv(out)
        base = self.fit(rows, lambda r: float(r["K_R"]) == 0.0)
        worst = self.fit(rows, lambda r: float(r["K_R"]) == 1e7)
        assert base - worst >= 0.5

    def test_figC_slope_grows_with_q(self, tmp_path):
        out = tmp_path / "figC.csv"
        assert main(["misalign", "--preset", "figC", "--h-grid", "0.1:2:5", "--out", str(out)]) == 0
        rows = read_csv(out)
        slope_q1 = self.fit(rows, lambda r: r["q"] == "1", value_key="delta1_final")
        slope_q2 = self.fit(rows, lambda r: r["q"] == "2", value_key="delta1_final")
        assert slope_q1 >= 1.75
        assert slope_q2 > slope_q1


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, "--preset", preset, "--h-grid", "0.1:2:4"] + init
        for cmd, preset in (("wpd", "fig1"), ("wpd", "fig2"), ("wpd", "fig3"), ("misalign", "figC"))
        for init in ([], ["--init", "perturbed:1.0", "--seed", "3"])
    ],
    ids=lambda argv: "-".join(argv[2:3] + argv[6:7]),
)
def test_preset_csv_equals_the_full_pass(argv, tmp_path, monkeypatch):
    """Each preset CSV is byte-identical to one written with the full-pass solve per cell."""
    out = tmp_path / "schedule.csv"
    assert main(argv + ["--out", str(out)]) == 0
    monkeypatch.setattr(cli, "solve_cells", full_pass_cells)
    expected = tmp_path / "full.csv"
    assert main(argv + ["--out", str(expected)]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_fig2_traced_peak_is_under_7_mb(tmp_path):
    """A fig2 sweep's traced allocations peak under 7.0 MB (about 6.1 MB; the test takes ~2 s).

    Gathering every cell's per-step arrays, which no row reads, peaked at 8.9 MB.
    """
    tracemalloc.start()
    try:
        assert main(["wpd", "--preset", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.0e6


#: The settings each subcommand reads, besides --config.
CELL = {"problem", "q", "prior", "theta", "sigma"}
READS = {
    "solve": CELL | {"h", "noise", "init", "seed", "out"},
    "wpd": CELL | {"h_grid", "noise", "init", "seed", "preset", "out", "svg"},
    "steady": {"sigma", "h_grid", "noise", "out"},
}
READS["misalign"] = READS["wpd"]

#: A valid, non-default value for every setting.
VALUES = {
    "problem": "riccati",
    "q": "2",
    "prior": "ioup",
    "theta": "0.5",
    "sigma": "2.0",
    "h": "0.1",
    "h_grid": "0.1:2:4",
    "noise": "power:1:1",
    "init": "perturbed:1.0",
    "seed": "3",
    "preset": "fig2",
    "out": "x.csv",
    "svg": "x.svg",
}

#: A run of each subcommand that succeeds with no further setting.
VALID = {
    "solve": ["solve", "--h", "0.1"],
    "wpd": ["wpd", "--h-grid", "0.1:2:4"],
    "misalign": ["misalign", "--h-grid", "0.1:2:4"],
    "steady": ["steady", "--h-grid", "0.1:2:8"],
}

UNREAD = [(cmd, key) for cmd in READS for key in sorted(set(VALUES) - READS[cmd])]

FIXED_BY_PRESET = ("problem", "q", "prior", "theta", "sigma", "noise")


def flag(key):
    return "--" + key.replace("_", "-")


def test_each_subcommand_has_only_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    slots = 0
    for name, parser in sub.choices.items():
        flags = {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config"} | {flag(key) for key in READS[name]}
        slots += len(flags)
    assert slots == 42


@pytest.mark.parametrize("cmd,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_unread_flag_exits_1(cmd, key, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = VALID[cmd] + [flag(key), VALUES[key], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"odefilter: error: unrecognized arguments: {flag(key)} {VALUES[key]}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd,key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_unread_config_key_exits_1(cmd, key, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"# unread setting\n{key} = {VALUES[key]}\n")
    out = tmp_path / "out.csv"
    assert main(VALID[cmd] + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"odefilter: error: config line 2: unknown key {key!r}\n"
    assert not out.exists()


PRESET_CASES = [(cmd, key) for cmd in ("wpd", "misalign") for key in FIXED_BY_PRESET]


@pytest.mark.parametrize("cmd,key", PRESET_CASES, ids=[f"{c}-{k}" for c, k in PRESET_CASES])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_preset_rejects_the_settings_it_fixes(cmd, key, source, tmp_path, capsys):
    preset = "fig2" if cmd == "wpd" else "figC"
    out = tmp_path / "out.csv"
    argv = [cmd, "--preset", preset, "--h-grid", "0.1:2:4", "--out", str(out)]
    if source == "flag":
        argv += [flag(key), VALUES[key]]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {VALUES[key]}\n")
        argv += ["--config", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        f"odefilter: error: preset {preset} fixes problem, q, prior, theta, sigma, noise; "
        f"drop {key}\n"
    )
    assert not out.exists()


def test_preset_accepts_the_defaults_of_the_settings_it_fixes(tmp_path):
    plain, defaults = tmp_path / "plain.csv", tmp_path / "defaults.csv"
    argv = ["wpd", "--preset", "fig2", "--h-grid", "0.1:2:4"]
    assert main(argv + ["--out", str(plain)]) == 0
    given = ["--problem", "logistic", "--q", "1", "--prior", "ibm", "--theta", "0"]
    given += ["--sigma", "1", "--noise", "zero"]
    assert main(argv + given + ["--out", str(defaults)]) == 0
    assert plain.read_bytes() == defaults.read_bytes()


class TestRunConfig:
    def run_both(self, tmp_path, argv, text, flags):
        """Run argv from a config file and from the equivalent flags; return both outputs."""
        path = tmp_path / "run.cfg"
        path.write_text(text.format(d=tmp_path))
        assert main(argv + ["--config", str(path)]) == 0
        file_out = (tmp_path / "file.csv").read_bytes()
        assert main(argv + flags + ["--out", str(tmp_path / "flags.csv")]) == 0
        return file_out, (tmp_path / "flags.csv").read_bytes()

    def test_solve_keys_match_their_flags(self, tmp_path):
        text = (
            "# every key solve reads\n"
            "problem = linear\n"
            "q = 2\n"
            "prior = ioup\n"
            "theta = 0.5\n"
            "sigma = 2.0\n"
            "h = 0.05\n"
            "noise = power:2:1\n"
            "init = perturbed:0.5\n"
            "seed = 7\n"
            "out = {d}/file.csv\n"
        )
        flags = "--problem linear --q 2 --prior ioup --theta 0.5 --sigma 2.0 --h 0.05"
        flags += " --noise power:2:1 --init perturbed:0.5 --seed 7"
        from_file, from_flags = self.run_both(tmp_path, ["solve"], text, flags.split())
        assert from_file == from_flags
        assert len(read_csv(tmp_path / "file.csv")) == 200

    def test_sweep_keys_match_their_flags(self, tmp_path):
        text = (
            "problem = riccati\n"
            "q = 1,2\n"
            "sigma = 3.0\n"
            "h_grid = 0.1:2:4\n"
            "noise = zero, power:1:1\n"
            "out = {d}/file.csv\n"
            "svg = {d}/file.svg\n"
        )
        flags = "--problem riccati --q 1,2 --sigma 3.0 --h-grid 0.1:2:4 --noise zero,power:1:1"
        from_file, from_flags = self.run_both(tmp_path, ["wpd"], text, flags.split())
        assert from_file == from_flags
        rows = read_csv(tmp_path / "file.csv")
        pairs = {(row["q"], row["p"]) for row in rows}
        assert pairs == {("1", "inf"), ("1", "1"), ("2", "inf"), ("2", "1")}
        assert ET.parse(tmp_path / "file.svg").getroot().tag.endswith("svg")

    def test_preset_key_matches_its_flag(self, tmp_path):
        text = "preset = figC\nh_grid = 0.1:2:4\nout = {d}/file.csv\n"
        flags = ["--preset", "figC", "--h-grid", "0.1:2:4"]
        from_file, from_flags = self.run_both(tmp_path, ["misalign"], text, flags)
        assert from_file == from_flags
        assert {row["problem"] for row in read_csv(tmp_path / "file.csv")} == {"riccati"}

    def test_blank_value_gives_the_default(self, tmp_path):
        text = "problem =\nq =\nsigma =\nnoise =\ninit =\nseed =\nh = 0.1\nout = {d}/file.csv\n"
        from_file, from_flags = self.run_both(tmp_path, ["solve"], text, ["--h", "0.1"])
        assert from_file == from_flags
        assert len(read_csv(tmp_path / "file.csv")) == 15  # logistic, T = 1.5

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("problem = logistic\nsigma = 50.0\nh = 0.1\n")
        out = tmp_path / "out.csv"
        code = main(
            [
                "solve",
                "--config",
                str(path),
                "--problem",
                "riccati",
                "--sigma",
                repr(SQRT10),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 10  # riccati horizon T=1 at the file's h=0.1

    def test_bad_config_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("problem riccati\n")
        assert main(["solve", "--config", str(path), "--h", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "odefilter: error: config line 1: expected 'key = value', got 'problem riccati'\n"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sigma = abc", "bad value for 'sigma': could not convert string to float: 'abc'"),
            ("q = 1,x", "bad value for 'q': expected comma-separated integers, got '1,x'"),
            ("seed = 1.5", "bad value for 'seed': invalid literal for int() with base 10: '1.5'"),
        ],
    )
    def test_bad_config_value_names_its_line_and_key(self, line, message, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"problem = riccati\n{line}\n")
        assert main(["solve", "--config", str(path), "--h", "0.1"]) == 1
        assert capsys.readouterr().err == f"odefilter: error: config line 2: {message}\n"

    def test_bad_q_flag_names_the_flag(self, capsys):
        assert main(["solve", "--q", "1,x", "--h", "0.1"]) == 1
        assert capsys.readouterr().err == (
            "odefilter: error: argument --q: expected comma-separated integers, got '1,x'\n"
        )

    def test_perturbed_init_flag(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(
            [
                "solve",
                "--problem",
                "logistic",
                "--h",
                "0.1",
                "--init",
                "perturbed:0.01",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(read_csv(out)) == 15
