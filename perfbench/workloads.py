"""The benchmark's workloads: the odefilter command lines each one runs.

A workload is a list of CLI calls (``odefilter.cli.main`` argv, as the
README documents them) that make one *pass*.  The calls depend only on the
workload name and the seed, so the same seed always gives the same inputs.

Seeds: references are stored for seeds ``0 .. SEEDS - 1``; any other seed is
reduced modulo ``SEEDS``.  Seed 0 runs the presets exactly as published
(exact initialization, ``0.1`` at the top of every grid).  Any other seed
runs the same ``fig1``/``fig2`` cells from a seeded perturbed start
(``--init perturbed:K0 --seed s``) and moves the top of the ``steady`` grid
by up to 0.5%: enough to change every value it prints, too little to change
the amount of work, which the grid fixes.
"""

from __future__ import annotations

import dataclasses
import random

WORKLOADS = ("fig1", "fig2", "steady")

#: Seeds with stored reference outputs; other seeds are reduced modulo this.
SEEDS = 10

#: Initial perturbation scale for seeds other than 0.  At K0 = 1 the
#: perturbed starts still converge on every cell of both presets.
K0 = 1.0

#: Horizons of the packaged problems (``odefilter.problems``); a cell runs
#: round(T / h) filter steps.  The benchmark's tests check the step counts
#: against the ``n_evals`` column of the references.
HORIZON = {"logistic": 1.5, "linear": 10.0}

#: ``verify_order_bounds`` runs each orbit over [0, 1].
STEADY_T = 1.0

#: The noise models ``scripts/steady_orders.py`` sweeps.
STEADY_NOISES = ("power:1:1", "power:2:1", "power:3:1", "zero")

#: (H0, FACTOR, COUNT) per workload: the published grid and the smoke grid.
#: The smoke grid's step sizes are the first ones of the full grid, so the
#: smoke rows are checked against the same references.
GRIDS = {
    "fig1": ((0.1, 2.0, 8), (0.1, 2.0, 4)),
    "fig2": ((0.1, 2.0, 8), (0.1, 2.0, 4)),
    "steady": ((0.1, 2.0, 12), (0.1, 2.0, 8)),
}


@dataclasses.dataclass(frozen=True)
class Call:
    """One ``odefilter`` invocation; the runner appends ``--out``/``--svg``."""

    argv: tuple
    out: str  # CSV file name
    svg: bool = False


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int  # the reduced seed
    calls: tuple
    problems: tuple  # problems whose first get_problem counts as set-up
    cells: int  # cells one pass attempts
    steps: int  # filter steps one pass runs, fixed by the inputs


def grid_values(h0: float, factor: float, count: int) -> list:
    """The CLI's geometric grid ``h = H0 * FACTOR^-k``, computed the same way."""
    return [h0 * factor**-k for k in range(count)]


def _wpd_cells(name: str) -> list:
    """(problem, q, noise) of every preset cell row, before the h grid."""
    if name == "fig1":
        return [
            (prob, q, noise)
            for prob in ("logistic", "linear")
            for q in (1, 2, 3, 4)
            for noise in ("zero", f"power:{q}:1")
        ]
    return [
        (prob, 1, noise)
        for prob in ("logistic", "linear")
        for noise in ("zero", "power:1:5000")
    ]


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    seed %= SEEDS
    h0, factor, count = GRIDS[name][1 if smoke else 0]
    if name == "steady":
        if seed:
            h0 = round(h0 * random.Random(seed).uniform(0.995, 1.005), 7)
        grid = f"{h0!r}:{factor!r}:{count}"
        calls = tuple(
            Call(
                argv=("steady", "--sigma", "1", "--noise", noise, "--h-grid", grid),
                out=f"steady_{noise.replace(':', '_')}.csv",
            )
            for noise in STEADY_NOISES
        )
        hs = grid_values(h0, factor, count)
        steps = len(STEADY_NOISES) * sum(round(STEADY_T / h) for h in hs)
        return Workload(name, seed, calls, (), len(STEADY_NOISES) * count, steps)
    argv = ("wpd", "--preset", name, "--h-grid", f"{h0!r}:{factor!r}:{count}")
    if seed:
        argv += ("--init", f"perturbed:{K0!r}", "--seed", str(seed))
    hs = grid_values(h0, factor, count)
    cells = _wpd_cells(name)
    steps = sum(round(HORIZON[prob] / h) for prob, _, _ in cells for h in hs)
    return Workload(
        name,
        seed,
        (Call(argv=argv, out=f"{name}.csv", svg=True),),
        ("logistic", "linear"),
        len(cells) * count,
        steps,
    )
