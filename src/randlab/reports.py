"""Deterministic report rendering: CSV and fixed-width text.

Each emitter returns a string whose bytes depend only on its arguments.
Set-valued fields join their members with '|' to keep one CSV cell per
field; measures render as exact dyadics.  Artifact references are bare
file names so reports compare byte-for-byte across output directories.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from .bitstring import BitString
from .cylinders import CylinderSet
from .dyadic import Dyadic


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([render_field(v) for v in row])
    return buf.getvalue()


def render_field(v: object) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (BitString, Dyadic)):
        return str(v)
    if isinstance(v, CylinderSet):
        return "|".join(str(s) for s in v.strings)
    if isinstance(v, (tuple, list)):
        return "|".join(render_field(x) for x in v)
    if v is None:
        return "-"
    return str(v)


def text_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width table; widths derive from content, so output is stable."""
    cells = [[render_field(v) for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def line(vals: Sequence[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(vals, widths)).rstrip()
    out = [line(list(header)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


# Conclusion-matrix labels.  Desk-scale runs witness, they never prove, so
# each positive label is the hedged form and the default is unresolved.
MIN_PAIR = "min-pair-witnessed"
MAY_COMPUTE = "may-compute-witnessed"
COMPUTES = "computes-witnessed"
UNRESOLVED = "unresolved"

ROWS = ("kg-class-member", "w2r-class-member", "selector-pair")
COLS = ("coded-payload", "configured-comeager-target", "partner-functional")


class Cell(NamedTuple):
    label: str
    artifacts: Tuple[str, ...] = ()
    note: str = ""


class InteractionReport:
    def __init__(self) -> None:
        self.cells: Dict[Tuple[str, str], Cell] = {}

    def cell(self, row: str, col: str) -> Cell:
        return self.cells.get((row, col), Cell(UNRESOLVED))

    def set_cell(self, row: str, col: str, cell: Cell) -> None:
        if row not in ROWS or col not in COLS:
            raise ValueError(f"unknown matrix position ({row}, {col})")
        if cell.label != UNRESOLVED and not cell.artifacts:
            raise ValueError("a resolved cell must cite at least one artifact")
        self.cells[(row, col)] = cell

    def render(self) -> str:
        rows = []
        for r in ROWS:
            rows.append([r] + [self.cell(r, c).label for c in COLS])
        out = [text_table(["notion"] + list(COLS), rows)]
        cited = [(r, c, self.cell(r, c)) for r in ROWS for c in COLS
                 if self.cell(r, c).label != UNRESOLVED]
        if cited:
            out.append("witnesses:\n")
            for r, c, cell in cited:
                line = f"  ({r}, {c}): {cell.label} <- {', '.join(cell.artifacts)}"
                if cell.note:
                    line += f"  [{cell.note}]"
                out.append(line + "\n")
        return "".join(out)


class RunFact(NamedTuple):
    """One completed experiment, reduced to what the matrix consumes."""

    name: str
    kind: str
    failed_at: Optional[str]  # the first failed check, None when all hold
    artifacts: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def emit_interaction_report(runs: Sequence[RunFact]) -> InteractionReport:
    """Aggregate completed runs into the hedged conclusion matrix.

    A cell is resolved only by a fully successful run of the matching kind;
    everything else stays unresolved.  No cell ever claims more than a
    desk-scale witness.
    """
    rep = InteractionReport()
    for run in runs:
        if not run.ok:
            continue
        if run.kind in ("kg_roundtrip", "kg_sweep"):
            rep.set_cell("kg-class-member", "coded-payload",
                         Cell(COMPUTES, run.artifacts, "exact decode on every compared member"))
        elif run.kind == "w2r":
            rep.set_cell("w2r-class-member", "coded-payload",
                         Cell(COMPUTES, run.artifacts, "stage-limit decode matches the payload stream"))
        elif run.kind == "w2r_hitting":
            rep.set_cell("w2r-class-member", "configured-comeager-target",
                         Cell(MAY_COMPUTE, run.artifacts, "decoded output inside every configured dense open"))
        elif run.kind in ("minpair_sweep", "minpair_case"):
            rep.set_cell("selector-pair", "partner-functional",
                         Cell(MIN_PAIR, run.artifacts, "consistent-with only; desk scale proves nothing infinite"))
    return rep
