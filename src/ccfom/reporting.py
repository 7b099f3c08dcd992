"""CSV/report/SVG serialization for runs and verification results.

CSV schema v1: a ``# ccfom-csv v1`` version line, ``# key = value`` metadata
comments sufficient to reproduce the run, a header row, then one data row
per certificate index k.  Residual columns use the convention
residual = LHS - RHS of the checked inequality, so a check passes when the
residual is <= its tolerance.  Numbers carry 17 significant digits, making
the file bit-stable across repeated runs and lossless to re-parse.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Optional

import numpy as np

from .certificates import CHAIN_CHECKS, Check, CheckTable
from .config import fmt, parse_config_text
from .errors import ConfigError
from .methods import MethodTrace, method_spec
from .problems import ProblemInstance
from .tolerances import Tolerances

__all__ = [
    "CSV_VERSION_LINE",
    "RUN_COLUMNS",
    "CONJECTURE_COLUMNS",
    "fmt",
    "fmt_column",
    "Table",
    "check_summary",
    "build_rows",
    "format_rows",
    "open_csv",
    "write_csv",
    "read_csv",
    "write_report",
    "Series",
    "render_convergence_svg",
]

CSV_VERSION_LINE = "# ccfom-csv v1"

RUN_COLUMNS = [
    "k",
    "f_xk",
    "lhs_k",
    "cert_k",
    "vacuous_flag",
    "mu_k",
    "theta_k",
    "theorem_bound_k",
    "residual_chain_max",
    "residual_induction",
    "verdict",
]

CONJECTURE_COLUMNS = RUN_COLUMNS + ["psi", "psi_xk", "conj_margin_k"]


def fmt_column(values) -> list[str]:
    """``[fmt(v) for v in values]``, a whole numeric array at a time.

    ``"{:.17g}"`` spells NaN of either sign as ``nan`` and the infinities as
    ``inf``/``-inf``, so the float path is byte-equal to :func:`fmt`.
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind == "f":
            return list(map("{:.17g}".format, values.tolist()))
        if kind in "iub":
            return list(map(str, values.astype(np.int64).tolist()))
        if kind == "U":
            return values.tolist()
    return [fmt(v) for v in values]


class Table(Sequence):
    """CSV rows stored as one array (or list, or tuple) per column.

    Indexing and iteration give a row as a ``{column: value}`` dict;
    :func:`format_rows` formats it a chunk of rows at a time, and
    :func:`read_csv` returns one of text columns.
    """

    def __init__(self, columns: dict[str, Sequence]):
        self.columns = columns
        self._len = len(next(iter(columns.values()))) if columns else 0

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> dict:
        if not -self._len <= i < self._len:
            raise IndexError(i)
        return {name: col[i] for name, col in self.columns.items()}


@dataclass
class RunRows:
    """Assembled per-k CSV rows plus the report lines that accompany them.

    ``gap_series`` and ``bound_series`` run over the records k = start..K
    (None when the reference value, resp. the distance, is unavailable).
    The report text is formatted the first time ``report_lines`` is read,
    from the check table; a caller that writes no report formats none.
    """

    rows: Table
    has_failure: bool
    gap_series: Optional[np.ndarray]
    bound_series: Optional[np.ndarray]
    _format_report: Callable[[], list[str]] = field(repr=False)

    @cached_property
    def report_lines(self) -> list[str]:
        return self._format_report()


def _sparse_lines(n: int, flags: np.ndarray, lines: list[str]) -> list[str]:
    """A column of report lines: ``lines`` at the flagged records, "" elsewhere."""
    out = [""] * n
    for i, line in zip(np.flatnonzero(flags).tolist(), lines):
        out[i] = line
    return out


# The checks printed only where they fail, with the quantity their residual is.
_FAIL_LINES = {
    "suboptimality bound": "gap - bound",
    "monotone descent": "f(x_k) - f(x_k-1)",
    "g_ball": "||z_k|| - G(1+eps)",
}


def _title(name: str) -> str:
    """The title of a check in the summary and on the records it covers."""
    if name in CHAIN_CHECKS:
        return f"chain {name}"
    if name in _FAIL_LINES or name in ("induction step", "mu closed form"):
        return name
    return f"identity {name}"


def check_summary(title: str, ks: np.ndarray, check: Check) -> tuple[str, Optional[int]]:
    """The summary line of one check over the records ``ks``, and the index of its worst record.

    The line gives the number of records the check applies to, how many
    fail and the first failing k, and the largest residual/tol
    (-margin/tol) over the applicable records with its k.  A NaN ratio (a
    NaN margin, which fails) ranks as the worst; ties go to the smallest k.
    A check that applies nowhere gets "not applicable" and no worst record.
    """
    at = np.flatnonzero(check.applicable)
    if not at.size:
        return f"{title}: not applicable", None
    margin, tol = check.margin[at], check.tol[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where((margin == 0) & (tol == 0), 0.0, -margin / tol)
    i = int(np.argmax(ratio))  # the first NaN if there is one, else the first maximum
    failed = np.flatnonzero(check.failed)
    first = f" (first at k={ks[failed[0]]})" if failed.size else ""
    line = (f"{title}: {at.size} applicable, {failed.size} failing{first}, "
            f"worst residual/tol {fmt(ratio[i])} at k={ks[at[i]]}")
    return line, int(at[i])


def build_rows(
    trace: MethodTrace,
    p: ProblemInstance,
    ver: CheckTable,
    tol: Optional[Tolerances] = None,
) -> RunRows:
    """Lay out a verified run as CSV rows and a summary-first report.

    Every column, verdict and report state is read from the check table
    ``ver``; ``tol`` is not read (the table holds every tolerance) and is
    accepted so that four-argument calls keep working.  After the header
    the report gives the record counts and one :func:`check_summary` line
    per check, in table order, then itemises, in k order, only the records
    that fail, are vacuous, or are some check's worst.  An itemised record
    lists each check in table order: the bound, descent and G-ball checks
    only where they fail, the chain links always (a link that does not
    apply is "skipped (vacuous)"), and the other checks where they apply;
    a vacuous record's note comes before its G-ball line.  The text is
    formatted when ``report_lines`` is first read.
    """
    cert = ver.certificate
    start = cert.start_index
    ks = ver.ks
    theta = trace.theta if method_spec(trace.method).momentum else cert.theta
    rows = Table({
        "k": ks,
        "f_xk": ver.values["f_xk"],
        "lhs_k": ver.values["lhs_k"],
        "cert_k": ver.values["cert_k"],
        "vacuous_flag": ver.vacuous.astype(np.int64),
        "mu_k": cert.mu[start:],
        "theta_k": theta[start:],
        "theorem_bound_k": ver.values["theorem_bound_k"],
        "residual_chain_max": ver.residual(*CHAIN_CHECKS),
        "residual_induction": ver.residual("induction step"),
        "verdict": ver.verdicts,
    })

    def format_report() -> list[str]:
        itemised = ver.record_failed | ver.vacuous
        summary = []
        for name, check in ver.checks.items():
            line, worst = check_summary(_title(name), ks, check)
            summary.append(line)
            if worst is not None:
                itemised[worst] = True
        at = np.flatnonzero(itemised)
        n = at.size
        vacuous = ver.vacuous[at]
        pre = [f"k={k}: " for k in ks[at].tolist()]
        columns = []
        for name, full in ver.checks.items():
            check = Check(*(a[at] for a in full))
            if name == "g_ball":  # the vacuous-record note, between the links and g_ball
                columns.append(_sparse_lines(n, vacuous, [
                    f"{pre[j]}VACUOUS record: dual vector left dom(f*), certificate is -inf"
                    for j in np.flatnonzero(vacuous).tolist()
                ]))
            failed = check.failed
            if name in _FAIL_LINES:
                i = np.flatnonzero(failed)
                columns.append(_sparse_lines(n, failed, [
                    f"{pre[j]}FAIL {name}: {_FAIL_LINES[name]} = {r} > tol {t}"
                    for j, r, t in zip(i.tolist(), fmt_column(-check.margin[i]),
                                       fmt_column(check.tol[i]))
                ]))
                continue
            title = _title(name)
            states = np.where(failed, "FAIL",
                              np.where(check.applicable, "pass", "skipped (vacuous)"))
            column = [
                f"{a}{title}: residual={r} tol={t} {c}"
                for a, r, t, c in zip(pre, fmt_column(-check.margin), fmt_column(check.tol),
                                      states.tolist())
            ]
            if name not in CHAIN_CHECKS:  # listed only where they apply
                for j in np.flatnonzero(~check.applicable).tolist():
                    column[j] = ""
            columns.append(column)

        lines = [f"reference point: {p.solution_provenance}"]
        if ver.reference is not None:
            line = f"reference value: {fmt(ver.reference)}"
            if ver.distance is not None:
                line += f"  distance from x0: {fmt(ver.distance)}"
            lines.append(line)
        else:
            lines.append("reference value unavailable; closed-form bound checks skipped")
        lines.append(
            f"records k={ks[0]}..{ks[-1]}: {ks.size} checked, "
            f"{int(ver.record_failed.sum())} FAIL, {int(ver.vacuous.sum())} VACUOUS, "
            f"{n} itemised below (failing, vacuous or a check's worst)"
        )
        lines += summary
        lines += [line for group in zip(*columns) for line in group if line]
        return lines

    return RunRows(
        rows=rows,
        has_failure=not ver.all_pass,
        gap_series=ver.values["gap"] if ver.reference is not None else None,
        bound_series=ver.values["theorem_bound_k"] if ver.distance is not None else None,
        _format_report=format_report,
    )


# Data rows are formatted and written this many at a time.
_CSV_CHUNK_ROWS = 4096

# The conversion of a numeric column's cells, by dtype kind: floats to 17
# significant digits, spelt as fmt spells them ("%.17g" writes NaN of either
# sign as nan, the infinities as inf and -inf), integers and booleans as
# integers.  Any other column is text.
_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _numeric(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in _CELL_FORMATS


def _quote(text: str) -> str:
    """A text cell as the csv module writes it: quoted, its quotes doubled, when it
    holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column) -> list:
    """The values that fill a column's slot of the row template."""
    if _numeric(column):
        return column.tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind == "U":
        texts = column.tolist()
    else:
        texts = [fmt(v) for v in column]
    quoted = {text: _quote(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def format_rows(columns: Sequence[str], rows: Table) -> Iterator[Iterator[str]]:
    """The data rows of ``rows`` as CSV lines, in chunks of ``_CSV_CHUNK_ROWS``, each
    line from one ``%`` template: a numeric column's conversion from
    ``_CELL_FORMATS``, text cells quoted as by ``csv.writer``.  A chunk is an
    iterator over its lines; a caller that writes it twice makes it a list."""
    data = [rows.columns[c] for c in columns]
    template = ",".join(
        _CELL_FORMATS[col.dtype.kind] if _numeric(col) else "%s" for col in data
    ) + "\n"
    for lo in range(0, len(rows), _CSV_CHUNK_ROWS):
        chunk = [_cells(col[lo : lo + _CSV_CHUNK_ROWS]) for col in data]
        yield map(template.__mod__, zip(*chunk))


@contextmanager
def open_csv(path, meta: dict[str, str], columns: Sequence[str]):
    """Write a schema-v1 CSV's version line, metadata and header, then yield
    ``write(lines, prefix=())``, which appends rows from :func:`format_rows`, each
    behind the cells ``prefix`` (before each row, not each text line: a quoted
    cell may hold a newline).  A multi-part CSV is written as such blocks."""
    with open(path, "w") as out:
        out.write("".join([CSV_VERSION_LINE + "\n", *(f"# {k} = {v}\n" for k, v in meta.items()),
                           ",".join(map(_quote, columns)) + "\n"]))

        def write(lines: Iterable[str], prefix: Sequence = ()):
            lead = "".join(_quote(fmt(v)) + "," for v in prefix)
            out.write("".join(map(lead.__add__, lines)))

        yield write


def write_csv(path, meta: dict[str, str], columns: Sequence[str], rows: Table):
    """Write ``rows`` as a schema-v1 CSV, a chunk of rows at a time: the file's
    text never exists whole in memory."""
    with open_csv(path, meta, columns) as write:
        for lines in format_rows(columns, rows):
            write(lines)


def read_csv(path) -> tuple[dict[str, str], list[str], Table]:
    """Parse a schema-v1 CSV back into (metadata, columns, a Table of text columns)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_VERSION_LINE:
        raise ConfigError(f"{path} is not a ccfom-csv v1 file")
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    try:
        meta = parse_config_text("\n".join(line[1:] for line in lines[1:i]))
    except ConfigError as exc:
        raise ConfigError(f"{path} metadata {exc}") from None
    if i >= len(lines) or not lines[i].strip():
        raise ConfigError(f"{path} has no header row")
    reader = csv.reader(lines[i:])
    columns = [c.strip() for c in next(reader)]
    rows = [vals for vals in reader if vals]
    for vals in rows:
        if len(vals) != len(columns):
            raise ConfigError(f"{path}: row has {len(vals)} fields, header has {len(columns)}")
    cells = zip(*rows) if rows else [()] * len(columns)
    return meta, columns, Table(dict(zip(columns, cells)))


def write_report(path, header: Sequence[str], lines: Sequence[str]):
    body = list(header) + list(lines)
    Path(path).write_text("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# SVG convergence plots


@dataclass(frozen=True)
class Series:
    label: str
    ks: np.ndarray
    values: np.ndarray
    dashed: bool = False


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
_VIEW_W, _VIEW_H = 800, 600
_MARGIN = 70.0


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(lo), math.floor(hi) + 1))


def render_convergence_svg(path, series: list[Series], title: str = "suboptimality vs k"):
    """Log-log polyline plot, 800x600, no plotting dependency.

    Nonpositive values cannot be drawn on log axes and are dropped from the
    polylines; a series with no positive finite points is skipped.
    """
    cleaned = []
    for s in series:
        ks = np.asarray(s.ks, dtype=float)
        vs = np.asarray(s.values, dtype=float)
        keep = (ks >= 1) & np.isfinite(vs) & (vs > 0)
        if np.any(keep):
            cleaned.append((s.label, np.log10(ks[keep]), np.log10(vs[keep]), s.dashed))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<text x="{_VIEW_W / 2}" y="28" text-anchor="middle" font-size="16">{title}</text>',
    ]
    if cleaned:
        x_lo = min(float(x.min()) for _, x, _, _ in cleaned)
        x_hi = max(float(x.max()) for _, x, _, _ in cleaned)
        y_lo = min(float(y.min()) for _, _, y, _ in cleaned)
        y_hi = max(float(y.max()) for _, _, y, _ in cleaned)
        if x_hi - x_lo < 1e-12:
            x_hi = x_lo + 1.0
        if y_hi - y_lo < 1e-12:
            y_hi = y_lo + 1.0

        def sx(x):
            return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_VIEW_W - 2 * _MARGIN)

        def sy(y):
            return _VIEW_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_VIEW_H - 2 * _MARGIN)

        axis_y = _VIEW_H - _MARGIN
        parts.append(
            f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_VIEW_W - _MARGIN}" y2="{axis_y}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{axis_y}" stroke="black"/>'
        )
        for d in _decades(x_lo, x_hi):
            if x_lo <= d <= x_hi:
                px = sx(d)
                parts.append(
                    f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" y2="{_MARGIN}" '
                    f'stroke="#dddddd"/>'
                )
                parts.append(
                    f'<text x="{px:.2f}" y="{axis_y + 20}" text-anchor="middle" '
                    f'font-size="12">1e{d}</text>'
                )
        for d in _decades(y_lo, y_hi):
            if y_lo <= d <= y_hi:
                py = sy(d)
                parts.append(
                    f'<line x1="{_MARGIN}" y1="{py:.2f}" x2="{_VIEW_W - _MARGIN}" y2="{py:.2f}" '
                    f'stroke="#dddddd"/>'
                )
                parts.append(
                    f'<text x="{_MARGIN - 8}" y="{py + 4:.2f}" text-anchor="end" '
                    f'font-size="12">1e{d}</text>'
                )
        parts.append(
            f'<text x="{_VIEW_W / 2}" y="{_VIEW_H - 18}" text-anchor="middle" font-size="13">k</text>'
        )
        for idx, (label, xs, ys, dashed) in enumerate(cleaned):
            color = _PALETTE[idx % len(_PALETTE)]
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(xs, ys))
            dash = ' stroke-dasharray="7,4"' if dashed else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
            )
            ly = _MARGIN + 16 + 16 * idx
            parts.append(
                f'<text x="{_VIEW_W - _MARGIN - 6}" y="{ly}" text-anchor="end" '
                f'font-size="12" fill="{color}">{label}{" (bound)" if dashed else ""}</text>'
            )
    else:
        parts.append(
            f'<text x="{_VIEW_W / 2}" y="{_VIEW_H / 2}" text-anchor="middle" '
            f'font-size="14">no positive values to plot</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
