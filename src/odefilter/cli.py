"""Command-line experiment harness.

Subcommands:

* ``solve``    - one filter run, per-step CSV trail
* ``wpd``      - work-precision sweeps over (h, q, noise) grids
* ``steady``   - steady-state closed forms vs orbit limits and h-orders
* ``misalign`` - derivative-misalignment convergence sweeps

Named presets (``fig1``, ``fig2``, ``fig3``, ``figC``) pin the benchmark
constants; everything else is explicit configuration, either from flags
or from a key = value config file (flags override the file).  CSV is the
canonical output (UTF-8, header row, 17 significant digits); SVG charts
are best-effort extras.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import diagnostics, steady_state, svgchart
from .filtering import ExactInit, PerturbedInit, solve
from .noise import parse_noise
from .priors import IBM, IOUP, PriorSpec
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
    """Flat run configuration; round-trips losslessly through text."""

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

    def to_text(self) -> str:
        lines = ["# odefilter run configuration"]
        for field in dataclasses.fields(self):
            lines.append(f"{field.name} = {_format_value(getattr(self, field.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {field.name: field for field in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise CliError(f"config line {lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, value.strip())
        return cls(**values)

    def h_values(self) -> list:
        """The step-size grid: explicit grid wins over a single h."""
        if self.h_grid is not None:
            h0, factor, count = self.h_grid
            return [h0 * factor**-k for k in range(count)]
        if self.h is not None:
            return [self.h]
        return []

    def prior_spec(self, q: int) -> PriorSpec:
        return PriorSpec(q=q, kind=self.prior, theta=self.theta, sigma=self.sigma)

    def init_mode(self):
        if self.init == "exact":
            return ExactInit()
        if self.init.startswith("perturbed:"):
            with contextlib.suppress(ValueError):
                return PerturbedInit(k0=float(self.init.split(":", 1)[1]), seed=self.seed)
        raise CliError(f"bad init spec {self.init!r}; expected exact or perturbed:<K0>")


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        if value and isinstance(value[0], float):  # h_grid
            return f"{value[0]!r}:{value[1]!r}:{value[2]}"
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str):
    if text == "":
        return None
    if key == "q":
        return tuple(int(part) for part in text.split(","))
    if key == "noise":
        return tuple(part.strip() for part in text.split(","))
    if key == "h_grid":
        return _parse_grid(text)
    if key in ("theta", "sigma", "h"):
        return float(text)
    if key == "seed":
        return int(text)
    return text


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


# ---------------------------------------------------------------------------
# one solver run


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One (problem, q, noise, h) cell of a sweep."""

    problem: str
    q: int
    prior: str
    theta: float
    sigma: float
    noise_spec: str
    h: float

    def sort_key(self):
        model = parse_noise(self.noise_spec)
        return (self.problem, self.q, -model.p, model.K_R, -self.h)


def _execute(spec: RunSpec, cfg: RunConfig) -> dict:
    problem = get_problem(spec.problem)
    prior = PriorSpec(q=spec.q, kind=spec.prior, theta=spec.theta, sigma=spec.sigma)
    model = parse_noise(spec.noise_spec)
    traj = solve(problem, prior, spec.h, model, cfg.init_mode())
    n_evals = round(problem.T / spec.h)
    row = {
        "problem": spec.problem,
        "q": spec.q,
        "p": model.p,
        "K_R": model.K_R,
        "sigma": spec.sigma,
        "T": problem.T,
        "h": spec.h,
        "n_evals": n_evals,
        "diverged": traj.diverged,
        "final_error": math.nan,
        "max_error": math.nan,
        "final_std": math.nan,
        "delta1_final": math.nan,
        "max_std": math.nan,
    }
    if not traj.diverged:
        errs = diagnostics.global_error(traj, problem)
        widths = diagnostics.credible_width(traj).widths
        std_norms = np.linalg.norm(widths, axis=1)
        row["final_error"] = float(errs.eps0_norms()[-1])
        row["max_error"] = errs.max_eps0
        row["final_std"] = float(std_norms[-1])
        row["max_std"] = float(std_norms.max())
        row["delta1_final"] = float(diagnostics.misalignment(traj, problem, 1)[-1])
    return row


def _run_sweep(specs: Sequence[RunSpec], cfg: RunConfig) -> list:
    """Run every spec in turn; rows come back in deterministic sort order."""
    return [_execute(spec, cfg) for spec in sorted(specs, key=RunSpec.sort_key)]


# ---------------------------------------------------------------------------
# presets


def _preset_runs(cfg: RunConfig) -> list:
    grid = cfg.h_values() or [
        DEFAULT_GRID[0] * DEFAULT_GRID[1] ** -k for k in range(DEFAULT_GRID[2])
    ]
    name = cfg.preset
    specs = []
    if name == "fig1":
        for prob, sigma in (("logistic", 50.0), ("linear", 1.0)):
            for q in (1, 2, 3, 4):
                for noise_spec in ("zero", f"power:{q}:1"):
                    specs += [
                        RunSpec(prob, q, IBM, 0.0, sigma, noise_spec, h) for h in grid
                    ]
    elif name == "fig2":
        for prob in ("logistic", "linear"):
            for noise_spec in ("zero", "power:1:5000.0"):
                specs += [RunSpec(prob, 1, IBM, 0.0, 1.0, noise_spec, h) for h in grid]
    elif name == "fig3":
        for K_R in FIG3_KR_LADDER:
            spec = f"power:0.5:{K_R!r}"
            specs += [RunSpec("logistic", 1, IBM, 0.0, 1.0, spec, h) for h in grid]
    elif name == "figC":
        for q in (1, 2, 3, 4):
            specs += [RunSpec("riccati", q, IBM, 0.0, SIGMA_SQ10, "zero", h) for h in grid]
    else:
        raise CliError(f"unknown preset {name!r}; known: fig1, fig2, fig3, figC")
    return specs


def _cross_product_runs(cfg: RunConfig) -> list:
    grid = cfg.h_values()
    if not grid:
        raise CliError("no step sizes given; use --h or --h-grid")
    if cfg.problem not in PROBLEMS:
        raise CliError(f"unknown problem {cfg.problem!r}; known: {', '.join(sorted(PROBLEMS))}")
    specs = []
    for q in cfg.q:
        for noise_spec in cfg.noise:
            specs += [
                RunSpec(cfg.problem, q, cfg.prior, cfg.theta, cfg.sigma, noise_spec, h)
                for h in grid
            ]
    return specs


# ---------------------------------------------------------------------------
# CSV helpers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Optional[str], header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
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
    if cfg.problem not in PROBLEMS:
        raise CliError(f"unknown problem {cfg.problem!r}; known: {', '.join(sorted(PROBLEMS))}")
    problem = get_problem(cfg.problem)
    model = parse_noise(cfg.noise[0])
    traj = solve(problem, cfg.prior_spec(cfg.q[0]), cfg.h, model, cfg.init_mode())
    q, d = traj.q, traj.d
    header = ["t"]
    header += [f"m{i}_d{j}" for j in range(d) for i in range(q + 1)]
    header += [f"sqrt_P00_d{j}" for j in range(d)]
    header += ["residual_norm"]
    std = np.sqrt(np.maximum(traj.P_post[:, 0, 0], 0.0))
    table = np.column_stack(
        (
            traj.times()[1:],
            traj.m_post.transpose(0, 2, 1).reshape(len(traj.y), d * (q + 1)),
            np.repeat(std[:, None], d, axis=1),
            traj.residual_norms(),
        )
    )
    _write_csv(cfg.out, header, table.tolist())
    return 2 if traj.diverged else 0


WPD_COLUMNS = (
    "problem",
    "q",
    "p",
    "K_R",
    "sigma",
    "T",
    "h",
    "n_evals",
    "final_error",
    "max_error",
    "final_std",
    "delta1_final",
    "diverged",
)


def cmd_wpd(cfg: RunConfig) -> int:
    specs = _preset_runs(cfg) if cfg.preset else _cross_product_runs(cfg)
    if len({s.h for s in specs}) < 4:
        raise CliError("wpd needs an h-grid with at least 4 step sizes")
    rows = _run_sweep(specs, cfg)
    _write_csv(cfg.out, WPD_COLUMNS, [[row[c] for c in WPD_COLUMNS] for row in rows])
    if cfg.svg:
        _render_wpd_svg(cfg.svg, rows, value_key="final_error", ylabel="global error at T")
    return 0


def cmd_misalign(cfg: RunConfig) -> int:
    specs = _preset_runs(cfg) if cfg.preset else _cross_product_runs(cfg)
    if len({s.h for s in specs}) < 2:
        raise CliError("misalign needs an h-grid")
    rows = _run_sweep(specs, cfg)
    columns = ("problem", "q", "p", "K_R", "sigma", "T", "h", "n_evals", "delta1_final", "diverged")
    _write_csv(cfg.out, columns, [[row[c] for c in columns] for row in rows])
    if cfg.svg:
        _render_wpd_svg(
            cfg.svg, rows, value_key="delta1_final", ylabel="final misalignment delta1(T)"
        )
    return 0


STEADY_QUANTITIES = (
    ("P11_pred", "P11_pred"),
    ("P11", "P11"),
    ("P01_pred", None),
    ("P01", "abs_P01"),
    ("beta0", "abs_beta0"),
    ("beta1", None),
    ("one_minus_beta1", "one_minus_beta1"),
)


def cmd_steady(cfg: RunConfig) -> int:
    grid = cfg.h_values()
    if len(grid) < 4:
        raise CliError("steady needs an h-grid with at least 4 step sizes")
    if len(cfg.noise) != 1:
        raise CliError("steady takes a single noise model")
    model = parse_noise(cfg.noise[0])
    bounds = steady_state.verify_order_bounds(grid, cfg.sigma, model.p, model.K_R)
    bound_by_name = {fit.quantity: fit for fit in bounds}
    rows = []
    for k, h in enumerate(grid):
        R = model.evaluate(h)
        cf = steady_state.closed_form(h, cfg.sigma, R)
        try:
            orbit = steady_state.orbit_limit(h, cfg.sigma, R)
        except steady_state.OrbitCycle as exc:
            raise CliError(f"h = {h!r}: {exc}") from None
        values = {
            "P11_pred": (cf.P11_pred, orbit.P11_pred),
            "P11": (cf.P11, orbit.P11),
            "P01_pred": (cf.P01_pred, orbit.P01_pred),
            "P01": (cf.P01, orbit.P01),
            "beta0": (cf.beta0, orbit.beta0),
            "beta1": (cf.beta1, orbit.beta1),
            "one_minus_beta1": (1.0 - cf.beta1, 1.0 - orbit.beta1),
        }
        for name, bound_name in STEADY_QUANTITIES:
            closed, orbit_value = values[name]
            row = {
                "h": h,
                "quantity": name,
                "closed_form": closed,
                "orbit_limit": orbit_value,
                "discrepancy": abs(closed - orbit_value),
                "max_value": "",
                "predicted_exponent": "",
                "fitted_exponent": "",
                "flag": "",
            }
            if bound_name is not None:
                fit = bound_by_name[bound_name]
                row["max_value"] = fit.max_values[k]
                row["predicted_exponent"] = (
                    "inf" if math.isinf(fit.predicted) else fit.predicted
                )
                if fit.exact_zero:
                    row["flag"] = "exact_zero"
                elif fit.fitted is not None:
                    row["fitted_exponent"] = fit.fitted
            rows.append(row)
    columns = (
        "h",
        "quantity",
        "closed_form",
        "orbit_limit",
        "discrepancy",
        "max_value",
        "predicted_exponent",
        "fitted_exponent",
        "flag",
    )
    _write_csv(cfg.out, columns, [[row[c] for c in columns] for row in rows])
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="odefilter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the filter once and emit the per-step trail"),
        ("wpd", "work-precision sweep over (h, q, noise)"),
        ("steady", "steady-state closed forms, orbit limits, and h-orders"),
        ("misalign", "derivative-misalignment convergence sweep"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--problem", help="problem name (logistic, linear, riccati)")
        p.add_argument("--q", help="derivative count, comma-separated for sweeps")
        p.add_argument("--prior", choices=[IBM, IOUP], help="prior family")
        p.add_argument("--theta", type=float, help="IOUP drift (0 for IBM)")
        p.add_argument("--sigma", type=float, help="prior scale")
        p.add_argument("--h", type=float, help="single step size")
        p.add_argument("--h-grid", dest="h_grid", help="H0:FACTOR:COUNT geometric grid")
        p.add_argument("--noise", help="zero | const:<R> | power:<p>:<K_R>, comma-separated")
        p.add_argument("--init", help="exact | perturbed:<K0>")
        p.add_argument("--seed", type=int, help="seed for perturbed initialization")
        p.add_argument("--preset", help="fig1 | fig2 | fig3 | figC")
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--svg", help="optional SVG chart path")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = RunConfig.from_text(fh.read())
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from None
    else:
        cfg = RunConfig()
    overrides = {}
    for key in ("problem", "prior", "init", "preset", "out", "svg"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    for key in ("theta", "sigma", "h"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = float(value)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.q is not None:
        try:
            overrides["q"] = tuple(int(part) for part in args.q.split(","))
        except ValueError:
            raise CliError(f"bad --q value {args.q!r}") from None
    if args.noise is not None:
        overrides["noise"] = tuple(part.strip() for part in args.noise.split(","))
    if args.h_grid is not None:
        overrides["h_grid"] = _parse_grid(args.h_grid)
    return dataclasses.replace(cfg, **overrides)


COMMANDS = {
    "solve": cmd_solve,
    "wpd": cmd_wpd,
    "steady": cmd_steady,
    "misalign": cmd_misalign,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; a configuration error prints one line and returns 1.

    The package rejects a bad value with a ValueError (NonIntegerMesh,
    InsufficientGrid, a bad noise spec or prior) or a LookupError (an
    unknown problem, MissingDerivative); this is the one place either is
    caught.
    """
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        return COMMANDS[args.command](cfg)
    except (CliError, ValueError, LookupError) as exc:
        print(f"odefilter: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
