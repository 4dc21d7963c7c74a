"""Output checks: each workload's CSVs against the stored references.

Rows are matched by their key columns and every other column is compared by
name.  Text and flag columns (``diverged``, ``flag``, exponents printed as
``inf``) must match exactly; so must non-finite values.  A number ``x`` with
reference ``r`` passes when ``|x - r| <= tolerance(c, r, column, row)``:

    max(min(MARGIN * c, CAP * |r|), KEEP * c, RTOL * |r|, floor(column, row))

where ``c`` is the largest change that computing the same arithmetic in
another float64 order made to that very value (``make_refs.py`` measures it
with a rewritten covariance kernel and with OpenBLAS on other CPUs' matrix
kernels; ``c`` is 0 where no variant moved the value above the floors).

Why this width: another order moves a well-conditioned value by about 1e-14
relative, but the q = 3..4 cells are ill-conditioned (cond(P_pred) reaches
1e36, and the eigenvalue floor in the covariance update clips or not by a
hair), and their errors and standard deviations move by up to 10% at the
roundoff floor.  One constant tolerance would either fail on another CPU or
wave real changes through in the well-conditioned cells, so each value gets
a width measured from reorderings.  ``MARGIN`` allows for an order that none
of the variants tried; ``CAP`` keeps that headroom from admitting a change of
a quarter of the value or more, so doubling or halving any value is caught
unless reordering alone moves it by over ``CAP / KEEP`` of itself.  The only
such values are roundoff residues: the ``max_value`` of a quantity that is
exactly zero, and a ``steady`` discrepancy, which is a difference of nearly
equal numbers.

``steady`` is also checked against itself: the closed form and the orbit
limit of every quantity must agree to ``CONSISTENCY_ATOL``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import pathlib

REFS = pathlib.Path(__file__).resolve().parent / "refs"

#: Headroom over the measured reordering change of each value.  Among the
#: values all the variants moved above the floors, one variant's change was
#: at most 60.4 times the largest of the others' (``make_refs.py`` prints this
#: ratio); MARGIN is twice that, rounded up.
MARGIN = 125.0

#: Most a value may move, as a share of itself, through MARGIN's headroom.
CAP = 0.25

#: A value may always move by this multiple of its measured change.
KEEP = 2.0

#: Relative floor: 100 times the largest relative change reordering caused in
#: the well-conditioned cells (2e-14), rounded up.
RTOL = 1e-12

#: Absolute floors for quantities that sit at the float64 roundoff level.
#: Errors and misalignments of O(1) solutions bottom out near 1e-15 and moved
#: by up to 8e-16 under reordering.  A fitted exponent is an O(1) slope; fits
#: of an exactly flat series return +-3e-17 instead of 0.  A discrepancy is a
#: difference of two nearly equal numbers, so it is compared on their scale.
ABS_FLOOR = {
    "final_error": 1e-13,
    "max_error": 1e-13,
    "delta1_final": 1e-13,
    "fitted_exponent": 1e-12,
}

#: |closed_form - orbit_limit| bound: the package's own steady-state test
#: uses it, and orbit_limit stops once successive iterates move by < 1e-13.
CONSISTENCY_ATOL = 1e-12

#: Key columns per output kind; the cell is the key without ``quantity``.
KEYS = {"wpd": ("problem", "q", "p", "K_R", "h"), "steady": ("h", "quantity")}

#: Columns whose value depends on the whole h grid, not just the row.
GRID_DEPENDENT = {"fitted_exponent"}

#: A steady quantity whose closed form is exactly 0 leaves a roundoff residue
#: along its orbit (1e-33 where the quantities are 0.1), or exactly 0 in
#: another order of the arithmetic.  Its max_value is compared on the scale
#: of the largest quantity at the same h, and the columns that describe how
#: the residue decays are not compared.
RESIDUE_COLUMNS = {"fitted_exponent", "flag"}


def parse(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def number(text: str):
    """The float a CSV field holds, or None for text, flags and blanks."""
    if text in ("", "true", "false"):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def floor(column: str, row: dict) -> float:
    if column == "discrepancy":
        scale = max(abs(number(row["closed_form"]) or 0.0), abs(number(row["orbit_limit"]) or 0.0))
        return RTOL * scale
    return ABS_FLOOR.get(column, 0.0)


def tolerance(change: float, r: float, column: str, row: dict) -> float:
    """How far a value with reference r and measured change may move."""
    headroom = min(MARGIN * change, CAP * abs(r))
    return max(headroom, KEEP * change, RTOL * abs(r), floor(column, row))


def load(workload: str, seed: int) -> dict:
    """{csv name: {"text": reference CSV, "change": {"row,column": change}}}"""
    path = REFS / f"{workload}.json.gz"
    refs = json.loads(gzip.decompress(path.read_bytes()))
    return refs[str(seed)]


def _same(text: str, ref_text: str, tol) -> bool:
    """Whether text matches ref_text; tol(r) is the width for a number r."""
    x, r = number(text), number(ref_text)
    if x is None or r is None or not (math.isfinite(x) and math.isfinite(r)):
        both_nan = x is not None and r is not None and math.isnan(x) and math.isnan(r)
        return text == ref_text or both_nan
    return abs(x - r) <= tol(r)


def check_csv(kind: str, text: str, ref: dict, smoke: bool, label: str) -> tuple:
    """Compare one CSV against its reference.

    Returns ({cell: ok}, messages).  A cell is a wpd row, or one h of a
    steady table (all its quantities).  In smoke mode the output covers a
    prefix of the reference grid, so missing rows and grid-dependent
    columns are not held against it.
    """
    keys = KEYS[kind]
    ref_rows = parse(ref["text"])
    index = {tuple(row[k] for k in keys): i for i, row in enumerate(ref_rows)}
    cells, messages = {}, []
    scale = {}  # steady: the largest |closed form| at each h
    if kind == "steady":
        for row in ref_rows:
            size = abs(number(row["closed_form"]) or 0.0)
            scale[row["h"]] = max(scale.get(row["h"], 0.0), size)

    def fail(cell, message):
        if cells.get(cell, True):
            messages.append(f"{label} {'/'.join(cell)}: {message}")
        cells[cell] = False

    for row in parse(text):
        key = tuple(row.get(k, "") for k in keys)
        cell = key[:1] + key[2:] if kind == "steady" else key
        cells.setdefault(cell, True)
        k = index.get(key)
        if k is None:
            fail(cell, "row not in the reference")
            continue
        ref_row = ref_rows[k]
        residue = kind == "steady" and number(ref_row["closed_form"]) == 0.0
        for column, ref_text in ref_row.items():
            if smoke and column in GRID_DEPENDENT or residue and column in RESIDUE_COLUMNS:
                continue
            change = ref["change"].get(f"{k},{column}", 0.0)
            least = RTOL * scale[ref_row["h"]] if residue and column == "max_value" else 0.0

            def tol(r):
                return max(tolerance(change, r, column, ref_row), least)

            value = row.get(column)
            if value is None or not _same(value, ref_text, tol):
                fail(cell, f"{column} = {value} (reference {ref_text})")
        if kind == "steady":
            closed, orbit = number(row.get("closed_form", "")), number(row.get("orbit_limit", ""))
            if closed is None or orbit is None or not abs(closed - orbit) <= CONSISTENCY_ATOL:
                fail(cell, f"closed form {closed} and orbit limit {orbit} disagree")
    if not smoke:
        for ref_row in ref_rows:
            key = tuple(ref_row[k] for k in keys)
            cell = key[:1] + key[2:] if kind == "steady" else key
            if cell not in cells:
                fail(cell, "missing from the output")
    return cells, messages
