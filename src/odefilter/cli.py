"""Command-line experiment harness.

Subcommands:

* ``solve``    - one filter run, per-step CSV trail
* ``wpd``      - work-precision sweeps over (h, q, noise) grids
* ``steady``   - steady-state closed forms vs orbit limits and h-orders
* ``misalign`` - derivative-misalignment convergence sweeps

Each subcommand takes only the settings it reads (``COMMANDS``), as flags
or as ``key = value`` lines of a ``--config`` file, both parsed by the one
parser ``SETTINGS`` gives each setting; flags override the file, a blank
value keeps the default, and any other setting is an error.  Named presets
(``fig1``, ``fig2``, ``fig3``, ``figC``) fix problem, q, prior, theta,
sigma and noise.  CSV is the canonical output (UTF-8, header row, 17
significant digits); SVG charts are best-effort extras.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import diagnostics, filtering, steady_state, svgchart
from .filtering import PerturbedInit, solve, solve_cells
from .noise import PowerLawNoise, parse_noise
from .priors import IBM, PriorSpec
from .problems import PROBLEMS, get_problem

__all__ = ["RunConfig", "main", "entrypoint"]

SIGMA_SQ10 = math.sqrt(10.0)

#: K_R ladder for the impermissible-noise sweep (endpoints and the center
#: constant are pinned; the intermediate rungs fill the decades between).
FIG3_KR_LADDER = (0.0, 1e0, 1e1, 1e2, 3.73e3, 1e4, 1e5, 1e6, 1e7)

DEFAULT_GRID = (0.1, 2.0, 8)


class CliError(Exception):
    """Configuration problem; reported on stderr with exit code 1."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; every field is a setting in ``SETTINGS``."""

    problem: str = "logistic"
    q: tuple = (1,)
    prior: str = IBM
    theta: float = 0.0
    sigma: float = 1.0
    h: Optional[float] = None
    h_grid: Optional[tuple] = None  # (h0, factor, count)
    noise: tuple = ("zero",)
    init: str = "exact"
    seed: int = 0
    preset: Optional[str] = None
    out: Optional[str] = None
    svg: Optional[str] = None

    def init_mode(self):
        if self.init == "exact":
            return PerturbedInit(0.0, seed=self.seed)
        if self.init.startswith("perturbed:"):
            with contextlib.suppress(ValueError):
                return PerturbedInit(k0=float(self.init.split(":", 1)[1]), seed=self.seed)
        raise CliError(f"bad init spec {self.init!r}; expected exact or perturbed:<K0>")


def _ints(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        # argparse names the flag, and _read_config the line and key.
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _names(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(","))


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"bad h-grid {text!r}; expected H0:FACTOR:COUNT")
    try:
        h0, factor, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad h-grid {text!r}: {exc}") from None
    if h0 <= 0 or factor <= 1 or count < 1:
        raise CliError(f"bad h-grid {text!r}; need H0 > 0, FACTOR > 1, COUNT >= 1")
    return (h0, factor, count)


def _h_values(h_grid: Optional[tuple]) -> list:
    """The geometric step-size grid ``h = H0 * FACTOR^-k``; [] for no grid."""
    if h_grid is None:
        return []
    h0, factor, count = h_grid
    return [h0 * factor**-k for k in range(count)]


#: RunConfig field -> (text parser, help).  Flags and config files share the parser.
SETTINGS = {
    "problem": (str, "problem name (logistic, linear, riccati)"),
    "q": (_ints, "derivative count, comma-separated for sweeps"),
    "prior": (str, "prior family: ibm | ioup"),
    "theta": (float, "IOUP drift (0 for IBM)"),
    "sigma": (float, "prior scale"),
    "h": (float, "single step size"),
    "h_grid": (_parse_grid, "H0:FACTOR:COUNT geometric grid"),
    "noise": (_names, "zero | const:<R> | power:<p>:<K_R>, comma-separated"),
    "init": (str, "exact | perturbed:<K0>"),
    "seed": (int, "seed for perturbed initialization"),
    "preset": (str, "fig1 | fig2 | fig3 | figC"),
    "out": (str, "CSV output path (default: stdout)"),
    "svg": (str, "optional SVG chart path"),
}

#: The settings a preset fixes.  They keep their defaults under a preset, so
#: its cells take the default prior, IBM with theta = 0.
PRESET_FIXED = ("problem", "q", "prior", "theta", "sigma", "noise")


def _check_problem(name: str) -> None:
    if name not in PROBLEMS:
        raise CliError(f"unknown problem {name!r}; known: {', '.join(sorted(PROBLEMS))}")


# ---------------------------------------------------------------------------
# one solver run


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One (problem, prior, noise, h) cell of a sweep."""

    problem: str
    prior: PriorSpec
    noise: PowerLawNoise
    h: float

    def sort_key(self):
        return (self.problem, self.prior.q, -self.noise.p, self.noise.K_R, -self.h)


def _execute(spec: RunSpec, problem, mode: PerturbedInit, stack) -> dict:
    """The CSV row of one sweep cell; ``stack`` is the sweep's ``solve_cells`` run."""
    try:
        traj = solve(problem, spec.prior, spec.h, spec.noise, mode, stack=stack)
    except filtering.SingularInnovation as exc:
        raise CliError(
            f"problem = {spec.problem}, q = {spec.prior.q}, p = {spec.noise.p!r}, "
            f"K_R = {spec.noise.K_R!r}, h = {spec.h!r}: {exc}"
        ) from None
    row = {
        "problem": spec.problem,
        "q": spec.prior.q,
        "p": spec.noise.p,
        "K_R": spec.noise.K_R,
        "sigma": spec.prior.sigma,
        "T": problem.T,
        "h": spec.h,
        "n_evals": round(problem.T / spec.h),
        "diverged": traj.diverged,
        "final_error": math.nan,
        "max_error": math.nan,
        "final_std": math.nan,
        "delta1_final": math.nan,
    }
    if not traj.diverged:
        errs = diagnostics.global_error(traj, problem)
        widths = diagnostics.credible_width(traj).widths
        row["final_error"] = float(errs.norms0[-1])
        row["max_error"] = errs.max_eps0
        row["final_std"] = float(np.linalg.norm(widths[-1:], axis=1)[0])
        at_T = diagnostics.misalignment(traj, problem, 1, at=slice(-1, None))
        row["delta1_final"] = float(at_T[0])
    return row


# ---------------------------------------------------------------------------
# presets


def _preset_cells(name: str) -> list:
    """(problem, q, sigma, noise spec) of every cell of a named preset."""
    if name == "fig1":
        return [
            (prob, q, sigma, noise)
            for prob, sigma in (("logistic", 50.0), ("linear", 1.0))
            for q in (1, 2, 3, 4)
            for noise in ("zero", f"power:{q}:1")
        ]
    if name == "fig2":
        return [
            (prob, 1, 1.0, noise)
            for prob in ("logistic", "linear")
            for noise in ("zero", "power:1:5000.0")
        ]
    if name == "fig3":
        return [("logistic", 1, 1.0, f"power:0.5:{K_R!r}") for K_R in FIG3_KR_LADDER]
    if name == "figC":
        return [("riccati", q, SIGMA_SQ10, "zero") for q in (1, 2, 3, 4)]
    raise CliError(f"unknown preset {name!r}; known: fig1, fig2, fig3, figC")


# ---------------------------------------------------------------------------
# CSV helpers


#: The CSV text of a value, by the first class of its type (in MRO order) listed here.
_FORMAT = {
    bool: lambda value: "true" if value else "false",
    int: "%d".__mod__,
    np.integer: "%d".__mod__,
    float: "%.17g".__mod__,
    np.floating: "%.17g".__mod__,
    object: str,
}


@functools.cache
def _formatter(kind: type):
    """The ``_FORMAT`` entry of a value type."""
    return next(_FORMAT[base] for base in kind.__mro__ if base in _FORMAT)


def _write_csv(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_formatter(type(v))(v) for v in row) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.h is None:
        raise CliError("solve needs a single --h")
    if len(cfg.q) != 1 or len(cfg.noise) != 1:
        raise CliError("solve takes a single q and a single noise model")
    _check_problem(cfg.problem)
    problem = get_problem(cfg.problem)
    prior = PriorSpec(q=cfg.q[0], kind=cfg.prior, theta=cfg.theta, sigma=cfg.sigma)
    traj = solve(problem, prior, cfg.h, parse_noise(cfg.noise[0]), cfg.init_mode())
    q, d = traj.q, traj.d
    header = ["t"]
    header += [f"m{i}_d{j}" for j in range(d) for i in range(q + 1)]
    header += [f"sqrt_P00_d{j}" for j in range(d)]
    header += ["residual_norm"]
    std = np.sqrt(np.maximum(traj.P00_post, 0.0))
    table = np.column_stack(
        (
            traj.times()[1:],
            traj.m_post.transpose(0, 2, 1).reshape(len(traj.m_post), d * (q + 1)),
            np.repeat(std[:, None], d, axis=1),
            traj.residual_norms(),
        )
    )
    _write_csv(cfg.out, header, table.tolist())
    if not traj.diverged:
        return 0
    n, steps, t = len(traj.m_post), round(problem.T / cfg.h), traj.times()[-1]
    print(f"odefilter: solve diverged after {n} of {steps} steps (t = {t:g})", file=sys.stderr)
    return 2


_SWEEP_HEAD = ("problem", "q", "p", "K_R", "sigma", "T", "h", "n_evals")
WPD_COLUMNS = _SWEEP_HEAD + ("final_error", "max_error", "final_std", "delta1_final", "diverged")
MISALIGN_COLUMNS = _SWEEP_HEAD + ("delta1_final", "diverged")

#: sweep command -> (least grid size, CSV columns, charted column, its y label)
SWEEPS = {
    "wpd": (4, WPD_COLUMNS, "final_error", "global error at T"),
    "misalign": (2, MISALIGN_COLUMNS, "delta1_final", "final misalignment delta1(T)"),
}


def cmd_sweep(command: str, cfg: RunConfig) -> int:
    """``wpd`` or ``misalign``: the preset's cells or q x noise, crossed with the grid."""
    min_grid, columns, value_key, ylabel = SWEEPS[command]
    grid = _h_values(cfg.h_grid or (DEFAULT_GRID if cfg.preset else None))
    if not grid:
        raise CliError("no step sizes given; use --h-grid")
    if cfg.preset:
        cells = _preset_cells(cfg.preset)
        given = [key for key in PRESET_FIXED if getattr(cfg, key) != getattr(RunConfig, key)]
        if given:
            raise CliError(
                f"preset {cfg.preset} fixes {', '.join(PRESET_FIXED)}; drop {', '.join(given)}"
            )
    else:
        _check_problem(cfg.problem)
        cells = [(cfg.problem, q, cfg.sigma, noise) for q in cfg.q for noise in cfg.noise]
    if len(grid) < min_grid:
        raise CliError(f"{command} needs an h-grid with at least {min_grid} step sizes")
    specs = []
    for problem, q, sigma, noise in cells:
        prior = PriorSpec(q=q, kind=cfg.prior, theta=cfg.theta, sigma=sigma)
        model = parse_noise(noise)
        specs += [RunSpec(problem, prior, model, h) for h in grid]
    specs.sort(key=RunSpec.sort_key)
    mode = cfg.init_mode()
    problems = {name: get_problem(name) for name in {s.problem for s in specs}}
    # One solve_cells run for the whole sweep, whose cells solve hands out in
    # turn; the sort keeps each (problem, q) stack's cells together, and a
    # stack's arrays are freed once its rows are made.
    stack = solve_cells([(problems[s.problem], s.prior, s.h, s.noise, mode) for s in specs])
    rows = [_execute(spec, problems[spec.problem], mode, stack) for spec in specs]
    _write_csv(cfg.out, columns, [[row[c] for c in columns] for row in rows])
    if cfg.svg:
        _render_wpd_svg(cfg.svg, rows, value_key, ylabel)
    return 0


#: (quantity, its verify_order_bounds name or None); 1 - beta1 is one_minus_beta1.
STEADY_QUANTITIES = (
    ("P11_pred", "P11_pred"),
    ("P11", "P11"),
    ("P01_pred", None),
    ("P01", "abs_P01"),
    ("beta0", "abs_beta0"),
    ("beta1", None),
    ("one_minus_beta1", "one_minus_beta1"),
)

STEADY_COLUMNS = (
    "h", "quantity", "closed_form", "orbit_limit", "discrepancy",
    "max_value", "predicted_exponent", "fitted_exponent", "flag",
)


def _steady_value(state: steady_state.SteadyState, quantity: str) -> float:
    if quantity == "one_minus_beta1":
        return 1.0 - state.beta1
    return getattr(state, quantity)


def cmd_steady(cfg: RunConfig) -> int:
    grid = _h_values(cfg.h_grid)
    if len(grid) < 4:
        raise CliError("steady needs an h-grid with at least 4 step sizes")
    if len(cfg.noise) != 1:
        raise CliError("steady takes a single noise model")
    model = parse_noise(cfg.noise[0])
    # One stacked pass from zero, over the longest mesh, serves bounds and orbits.
    prefixes = steady_state.order_bound_prefixes(grid, cfg.sigma, model.p, model.K_R)
    bounds = steady_state.verify_order_bounds(
        grid, cfg.sigma, model.p, model.K_R, prefixes=prefixes
    )
    bound_by_name = {fit.quantity: fit for fit in bounds}
    rows = []
    for k, (h, prefix) in enumerate(zip(grid, prefixes)):
        R = model.evaluate(h)
        cf = steady_state.closed_form(h, cfg.sigma, R)
        try:
            orbit = steady_state.orbit_limit(h, cfg.sigma, R, prefix=prefix)
        except (steady_state.OrbitCycle, steady_state.OrbitUnsettled) as exc:
            raise CliError(f"h = {h!r}: {exc}") from None
        for name, bound_name in STEADY_QUANTITIES:
            closed, limit = _steady_value(cf, name), _steady_value(orbit, name)
            max_value = predicted = fitted = flag = ""
            if bound_name is not None:
                fit = bound_by_name[bound_name]
                max_value = fit.max_values[k]
                predicted = "inf" if math.isinf(fit.predicted) else fit.predicted
                if fit.exact_zero:
                    flag = "exact_zero"
                elif fit.fitted is not None:
                    fitted = fit.fitted
            rows.append(
                [h, name, closed, limit, abs(closed - limit), max_value, predicted, fitted, flag]
            )
    _write_csv(cfg.out, STEADY_COLUMNS, rows)
    return 0


def _render_wpd_svg(path: str, rows: Sequence[dict], value_key: str, ylabel: str) -> None:
    groups = {}
    for row in rows:
        key = (row["problem"], row["q"], row["p"], row["K_R"])
        groups.setdefault(key, []).append(row)
    series = []
    max_q = 1
    for (problem, q, p, K_R), group in sorted(groups.items(), key=str):
        max_q = max(max_q, q)
        label = f"{problem} q={q} " + ("R=0" if K_R == 0 or math.isinf(p) else f"R={K_R:g}h^{p:g}")
        xs = [row["n_evals"] for row in group]
        series.append(
            svgchart.Series(label=label, x=xs, y=[row[value_key] for row in group])
        )
        stds = [row["final_std"] for row in group]
        if value_key == "final_error" and all(s > 0 for s in stds):
            series.append(
                svgchart.Series(label=label + " (std)", x=xs, y=stds, dashed=True)
            )
    svgchart.render_loglog(
        path,
        series,
        guide_slopes=[-k for k in range(1, max_q + 2)],
        xlabel="# evaluations of f",
        ylabel=ylabel,
    )


# ---------------------------------------------------------------------------
# argument parsing

_CELL_KEYS = ("problem", "q", "prior", "theta", "sigma")
_SWEEP_KEYS = _CELL_KEYS + ("h_grid", "noise", "init", "seed", "preset", "out", "svg")

#: command -> (handler, help, the settings it reads)
COMMANDS = {
    "solve": (
        cmd_solve,
        "run the filter once and emit the per-step trail",
        _CELL_KEYS + ("h", "noise", "init", "seed", "out"),
    ),
    "wpd": (
        functools.partial(cmd_sweep, "wpd"),
        "work-precision sweep over (h, q, noise)",
        _SWEEP_KEYS,
    ),
    "steady": (
        cmd_steady,
        "steady-state closed forms, orbit limits, and h-orders",
        ("sigma", "h_grid", "noise", "out"),
    ),
    "misalign": (
        functools.partial(cmd_sweep, "misalign"),
        "derivative-misalignment convergence sweep",
        _SWEEP_KEYS,
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@functools.cache  # one parser per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="odefilter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # --h is not --h-grid
        p.add_argument("--config", help="key = value config file; flags override it")
        for key in keys:
            parse, text = SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=parse, help=text)
    return parser


def _read_config(path: str, keys: Sequence[str]) -> dict:
    """The settings a ``key = value`` file gives; a blank value is left out."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in keys:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        if value:
            try:
                values[key] = SETTINGS[key][0](value)
            except (CliError, ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def _config_from_args(args: argparse.Namespace, keys: Sequence[str]) -> RunConfig:
    values = _read_config(args.config, keys) if args.config else {}
    for key in keys:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return RunConfig(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a configuration error prints one line and returns 1.

    The package rejects a bad value with a ValueError (NonIntegerMesh,
    InsufficientGrid, a bad noise spec or prior), a LookupError (an
    unknown problem, MissingDerivative) or a SingularInnovation (a cell
    whose innovation variance P_pred[1, 1] + R is 0, as for a tiny sigma
    with R = 0); this is the one place any of them is caught (a sweep
    names the cell of a singular innovation first).
    """
    try:
        args = _build_parser().parse_args(argv)
        handler, _, keys = COMMANDS[args.command]
        return handler(_config_from_args(args, keys))
    except (CliError, ValueError, LookupError, filtering.SingularInnovation) as exc:
        print(f"odefilter: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
