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
    # The exact types a report cell holds first; bool is not int here.
    t = type(v)
    if t is int or t is str:
        return str(v)
    if t is tuple or t is list:
        return "|".join([render_field(x) for x in v])
    if t is BitString:
        return v.bits or "^"
    if t is CylinderSet:
        return "|".join([b or "^" for b in v.bits])
    # bool, Dyadic, tuple/list subclasses (NamedTuples), None, enums and the rest.
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, Dyadic):
        return str(v)
    if isinstance(v, (tuple, list)):
        return "|".join(render_field(x) for x in v)
    if v is None:
        return "-"
    return str(v)


# Conclusion-matrix labels.  Desk-scale runs witness, they never prove, so
# each positive label is the hedged form and the default is unresolved.
MIN_PAIR = "min-pair-witnessed"
MAY_COMPUTE = "may-compute-witnessed"
COMPUTES = "computes-witnessed"
UNRESOLVED = "unresolved"

ROWS = ("kg-class-member", "w2r-class-member", "selector-pair")
COLS = ("coded-payload", "configured-comeager-target", "partner-functional")


# The experiment kinds whose clean runs witness a matrix cell:
# kind -> (row, column, label, note).
WITNESSES = {kind: cell for kinds, cell in (
    (("kg_roundtrip", "kg_sweep"),
     ("kg-class-member", "coded-payload", COMPUTES, "exact decode on every compared member")),
    (("w2r",),
     ("w2r-class-member", "coded-payload", COMPUTES, "stage-limit decode matches the payload stream")),
    (("w2r_hitting",),
     ("w2r-class-member", "configured-comeager-target", MAY_COMPUTE,
      "decoded output inside every configured dense open")),
    (("minpair_sweep", "minpair_case"),
     ("selector-pair", "partner-functional", MIN_PAIR,
      "consistent-with only; desk scale proves nothing infinite")),
) for kind in kinds}


class RunFact(NamedTuple):
    """One completed experiment, reduced to what the matrix consumes."""

    name: str
    kind: str
    failed_at: Optional[str]  # the first failed check, None when all hold
    artifacts: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed_at is None


def interaction_text(runs: Sequence[RunFact]) -> str:
    """The hedged conclusion matrix over completed runs, as fixed-width text.

    A cell is resolved only by a fully successful run of a kind in
    `WITNESSES`, the last such run citing its artifacts; everything else
    stays unresolved.  No cell ever claims more than a desk-scale witness.
    """
    cells: Dict[Tuple[str, str], Tuple[str, str, Tuple[str, ...]]] = {}
    for run in runs:
        if run.ok and run.kind in WITNESSES:
            row, col, label, note = WITNESSES[run.kind]
            if not run.artifacts:
                raise ValueError(f"{run.name}: a resolved cell must cite at least one artifact")
            cells[row, col] = (label, note, run.artifacts)
    table = [("notion",) + COLS]
    table += [(r,) + tuple(cells[r, c][0] if (r, c) in cells else UNRESOLVED for c in COLS)
              for r in ROWS]
    widths = [max(len(row[i]) for row in table) for i in range(len(COLS) + 1)]
    table.insert(1, tuple("-" * w for w in widths))
    out = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n" for row in table]
    cited = [(r, c) for r in ROWS for c in COLS if (r, c) in cells]
    if cited:
        out.append("witnesses:\n")
    for r, c in cited:
        label, note, artifacts = cells[r, c]
        out.append(f"  ({r}, {c}): {label} <- {', '.join(artifacts)}  [{note}]\n")
    return "".join(out)
