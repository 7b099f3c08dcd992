"""CSV/report/SVG serialization for runs, verification results and conjecture probes.

CSV schema v1: a ``# ccfom-csv v1`` version line, ``# key = value`` metadata
comments sufficient to reproduce the run, a header row, then one data row
per certificate index k.  Residual columns use the convention
residual = LHS - RHS of the checked inequality, so a check passes when the
residual is <= its tolerance.  Numbers carry 17 significant digits, making
the file bit-stable across repeated runs and lossless to re-parse.  They are
spelt exactly as "%.17g" spells them, by a vectorised kernel that turns each
chunk of rows into one byte grid; a value whose rounding the kernel cannot
certify is spelt by "%.17g" itself (see :mod:`ccfom.cells`).  Read back,
each cell is text as the csv module splits it, or, for ``ccfom verify``, the
whole data block is one ``np.loadtxt`` call that converts each column to its
dtype, a file it cannot read going to the csv module.

Every output (CSV, report, SVG) that already exists is rewritten in place and
cut to its new length when its writer exits, by an error too, so it holds
what a fresh file would.  Only a process killed mid-rewrite leaves the old
file's tail behind the new bytes; ``ccfom verify`` rejects such a CSV, since
its rows no longer reproduce.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from collections.abc import Callable, Iterator, Sequence
from typing import Optional, TextIO

import numpy as np

from . import cells, methods
from .certificates import CHAIN_CHECKS, IDENTITY_CHECKS, INDUCTION_CHECKS, Check, CheckTable
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
    "Table",
    "check_summary",
    "summary_first",
    "build_rows",
    "conjecture_rows",
    "conjecture_report",
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


class Table(Sequence):
    """CSV rows stored as one array (or list, or tuple) per column.

    Indexing and iteration give a row as a ``{column: value}`` dict;
    :func:`format_rows` formats it a chunk of rows at a time, and
    :func:`read_csv` returns one of text or typed columns.
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
    """Assembled per-k CSV rows, the check table they were laid out from,
    and the report lines that accompany them.

    The report text is formatted the first time ``report_lines`` is read,
    from the check table; a caller that writes no report formats none.
    """

    rows: Table
    table: CheckTable
    _format_report: Callable[[], list[str]] = field(repr=False)

    @property
    def has_failure(self) -> bool:
        return not self.table.all_pass

    @cached_property
    def report_lines(self) -> list[str]:
        return self._format_report()


_VACUOUS_NOTE = "VACUOUS record: dual vector left dom(f*), certificate is -inf"


def _title(name: str) -> str:
    """The title of a check in the summary and on the records it covers."""
    if name in CHAIN_CHECKS:
        return f"chain {name}"
    if name in IDENTITY_CHECKS:
        return f"identity {name}"
    return name


def _where(ks: np.ndarray, instance: Optional[np.ndarray], i: int) -> str:
    """The label of record i: its k, behind its instance when records span several."""
    return f"k={ks[i]}" if instance is None else f"instance {instance[i]} k={ks[i]}"


def check_summary(
    title: str, ks: np.ndarray, check: Check, instance: Optional[np.ndarray] = None
) -> tuple[str, Optional[int]]:
    """The summary line of one check over the records ``ks``, and the index of its worst record.

    The line gives the number of records the check applies to, how many
    fail and the first failing record, and the largest residual/tol
    (-margin/tol) over the applicable records with its record.  A NaN ratio
    (a NaN margin, which fails) ranks as the worst; ties go to the first
    record.  A check that applies nowhere gets "not applicable" and no worst
    record.  A record is named by its k, behind its ``instance`` when given;
    only the first failing and the worst records are named.
    """
    at = np.flatnonzero(check.applicable)
    if not at.size:
        return f"{title}: not applicable", None
    margin, tol = check.margin[at], check.tol[at]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where((margin == 0) & (tol == 0), 0.0, -margin / tol)
    i = int(np.argmax(ratio))  # the first NaN if there is one, else the first maximum
    failed = np.flatnonzero(check.failed)
    first = f" (first at {_where(ks, instance, failed[0])})" if failed.size else ""
    line = (f"{title}: {at.size} applicable, {failed.size} failing{first}, "
            f"worst residual/tol {fmt(ratio[i])} at {_where(ks, instance, at[i])}")
    return line, int(at[i])


def summary_first(
    checks: dict[str, Check],
    ks: np.ndarray,
    failed: np.ndarray,
    vacuous: np.ndarray,
    words: tuple[str, str] = ("FAIL", "failing"),
    instance: Optional[np.ndarray] = None,
) -> list[str]:
    """A report body, summary first: the record counts, one :func:`check_summary`
    line per check (titled by its key), then the itemised records in record
    order: those ``failed`` (counted as ``words[0]``), vacuous, or some check's
    worst.

    An itemised record is a ``VACUOUS record`` note if it is vacuous, then one
    ``<title>: residual=… tol=… pass|<words[0]>`` line for each check that
    applies there, in table order; each line is behind the record's label.
    """
    itemised = failed | vacuous
    summary = []
    for title, check in checks.items():
        line, worst = check_summary(title, ks, check, instance)
        summary.append(line)
        if worst is not None:
            itemised[worst] = True
    at = np.flatnonzero(itemised)
    span = (f"k={ks[0]}..{ks[-1]}" if instance is None
            else f"instance {instance[0]}..{instance[-1]}, k={ks.min()}..{ks.max()}")
    whose = "a check's worst" if len(checks) > 1 else "the worst"
    lines = [
        f"records {span}: {ks.size} checked, {int(failed.sum())} {words[0]}, "
        f"{int(vacuous.sum())} VACUOUS, {at.size} itemised below ({words[1]}, vacuous or {whose})",
        *summary,
    ]
    columns = [(title, (-check.margin[at]).tolist(), check.tol[at].tolist(),
                check.failed[at].tolist(), check.applicable[at].tolist())
               for title, check in checks.items()]
    for j, (i, note) in enumerate(zip(at.tolist(), vacuous[at].tolist())):
        where = _where(ks, instance, i)
        if note:
            lines.append(f"{where}: {_VACUOUS_NOTE}")
        for title, residual, tol, fails, applies in columns:
            if applies[j]:
                lines.append(f"{where}: {title}: residual={fmt(residual[j])} tol={fmt(tol[j])} "
                             f"{words[0] if fails[j] else 'pass'}")
    return lines


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
    the report is the :func:`summary_first` body of the table's checks, in
    table order, each titled by :func:`_title`.  The text is formatted when
    ``report_lines`` is first read.
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
        "residual_induction": ver.residual(*INDUCTION_CHECKS),
        "verdict": ver.verdicts,
    })

    def format_report() -> list[str]:
        lines = [f"reference point: {p.solution_provenance}"]
        if ver.reference is not None:
            line = f"reference value: {fmt(ver.reference)}"
            if ver.distance is not None:
                line += f"  distance from x0: {fmt(ver.distance)}"
            lines.append(line)
        else:
            lines.append("reference value unavailable; closed-form bound checks skipped")
        checks = {_title(name): check for name, check in ver.checks.items()}
        return lines + summary_first(checks, ks, ver.record_failed, ver.vacuous)

    return RunRows(rows=rows, table=ver, _format_report=format_report)


def conjecture_rows(cp, trace: MethodTrace, cert, result) -> Table:
    """The CSV rows of one conjecture probe: a composite ``cp`` and the
    (trace, certificate, result) of :func:`ccfom.proxprobe.probe_instance`."""
    ks = result.ks
    n = ks.size
    verdicts = np.where(
        result.vacuous, "VACUOUS", np.where(result.violated, "CONJ-VIOLATION", "CONJ-OK")
    )
    return Table({
        "k": ks,
        "f_xk": result.f_values,
        "lhs_k": result.f_values,
        "cert_k": result.conjectured,
        "vacuous_flag": result.vacuous.astype(np.int64),
        "mu_k": cert.mu[ks],
        "theta_k": trace.theta[ks],
        "theorem_bound_k": np.full(n, math.nan),
        "residual_chain_max": -result.margins,
        "residual_induction": np.full(n, math.nan),
        "verdict": verdicts,
        "psi": np.full(n, cp.psi.label),
        "psi_xk": result.psi_values,
        "conj_margin_k": result.margins,
    })


def conjecture_report(results: Sequence, suite: bool = False) -> list[str]:
    """The report body of the conjecture probe results ``results``, summary first.

    The :func:`summary_first` body over every result's records, with one
    ``conjecture margin`` check over the non-vacuous ones; a record is
    labelled ``instance i k=…`` in a ``suite``.  The last line, which the
    CLI also prints, gives the instance, record and violation counts.
    """
    ks, margins, tols, vacuous = (
        np.concatenate([getattr(r, name) for r in results])
        for name in ("ks", "margins", "tolerances", "vacuous")
    )
    check = Check(margins, tols, ~vacuous)
    violated = check.failed
    instance = np.repeat(np.arange(len(results)), [r.ks.size for r in results]) if suite else None

    n = len(results)
    return summary_first({"conjecture margin": check}, ks, violated, vacuous,
                         ("VIOLATION", "violating"), instance) + [
        f"CONJECTURE probe: {n} instance{'' if n == 1 else 's'}, {ks.size} iterations checked, "
        f"{int(violated.sum())} violations found"
    ]


# ---------------------------------------------------------------------------
# CSV cells: a chunk of rows as one byte grid (see ccfom.cells)


def _quote(text: str) -> str:
    """A text cell as the csv module writes it: quoted, its quotes doubled, when it
    holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell_bytes(text: str) -> bytes:
    """A text cell's bytes as the csv module writes them; a NUL, which the grid
    drops, is refused."""
    if "\0" in text:
        raise ValueError(f"a CSV cell cannot hold a NUL character: {text!r}")
    return _quote(text).encode()


def _slots(column) -> np.ndarray:
    """A column's cells as (n, w) NUL-padded bytes: floats as "%.17g" spells them,
    integers and booleans as integers, any other column as fmt's text, quoted
    once per distinct value."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        return cells.float_slots(column)
    if kind in "iub":
        return cells.int_slots(column)
    texts = column if kind == "U" else np.array([fmt(v) for v in column], dtype=object)
    if len(texts) and (texts == texts[0]).all():  # a constant column, such as all-PASS verdicts
        slot = cells.byte_slots([_cell_bytes(texts[0])])
        return np.broadcast_to(slot, (len(texts), slot.shape[1]))
    distinct, code = np.unique(texts, return_inverse=True)
    return cells.byte_slots([_cell_bytes(text) for text in distinct.tolist()])[code]


def format_rows(columns: Sequence[str], rows: Table) -> Iterator[np.ndarray]:
    """The data rows of ``rows``, in chunks of ``methods._BLOCK_SIZE``, each chunk one
    byte grid for ``write`` of :func:`open_csv`; a chunk may be written more
    than once.

    A cell is a NUL-padded slot followed by its comma or newline.  Float cells
    are spelt as "%.17g" spells them.  The kernel spells zeros, NaN, the
    infinities and every value whose 17-digit rounding it can certify; fmt
    spells the rest (exact and near ties, values next to a power of ten, |x|
    outside 1e-280..1e281).  Integer and boolean cells are integers; any
    other column is fmt's text, quoted as csv.writer quotes it.
    """
    data = [rows.columns[c] for c in columns]
    block = methods._BLOCK_SIZE
    for lo in range(0, len(rows), block):
        yield cells.grid([_slots(col[lo : lo + block]) for col in data])


def _untruncated(path, flags: int) -> int:
    """``os.open`` as ``open`` calls it, but keeping an existing file's blocks."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut(out: TextIO, length: int):
    """End a file that was ``length`` bytes long at the position written to, the
    buffered text included."""
    try:
        out.flush()
    finally:
        fd = out.fileno()
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if end < length:
            os.ftruncate(fd, end)


@contextmanager
def _rewritten(path) -> Iterator[TextIO]:
    """``open(path, "w")`` for every output: a text file, created 0o666 & ~umask.

    An existing file is written over in place and, when the writer exits by
    an error too, cut at the position reached if it was longer, so it holds
    what a truncating open would have left; the writer's error is the one
    raised.  Unlike
    freeing the old blocks first (``O_TRUNC``), this keeps ext4 with
    ``discard`` from discarding blocks that the same bytes fill again.  A
    process killed mid-write leaves the old file's tail behind the new bytes.
    Only a regular file is cut: ``ftruncate`` fails on ``/dev/null``.
    """
    with open(path, "w", opener=_untruncated) as out:
        old = os.fstat(out.fileno())
        length = old.st_size if stat.S_ISREG(old.st_mode) else 0
        try:
            yield out
        except BaseException:
            if length:
                with suppress(OSError):
                    _cut(out, length)
            raise
        if length:
            _cut(out, length)


@contextmanager
def open_csv(path, meta: dict[str, str], columns: Sequence[str]):
    """Write a schema-v1 CSV's version line, metadata and header, then yield
    ``write(grid, prefix=())``, which appends a chunk from :func:`format_rows`
    behind the cells ``prefix``, as constant leading columns of its grid (so
    before each row, not each text line: a quoted cell may hold a newline).  A
    multi-part CSV is written as such blocks."""
    with _rewritten(path) as out:
        out.write("".join([CSV_VERSION_LINE + "\n", *(f"# {k} = {v}\n" for k, v in meta.items()),
                           ",".join(map(_quote, columns)) + "\n"]))

        def write(grid: np.ndarray, prefix: Sequence = ()):
            if prefix:
                lead = np.frombuffer(b"".join(_cell_bytes(fmt(v)) + b"," for v in prefix), np.uint8)
                grid = np.concatenate([np.broadcast_to(lead, (len(grid), lead.size)), grid], axis=1)
            out.write(cells.grid_text(grid))

        yield write


def write_csv(path, meta: dict[str, str], columns: Sequence[str], rows: Table):
    """Write ``rows`` as a schema-v1 CSV, a chunk of rows at a time: the file's
    text never exists whole in memory."""
    with open_csv(path, meta, columns) as write:
        for grid in format_rows(columns, rows):
            write(grid)

def read_csv(path, dtypes: Optional[dict] = None) -> tuple[dict[str, str], list[str], Table]:
    """Parse a schema-v1 CSV back into (metadata, columns, a Table).

    Each column is a tuple of its cells' text, as the csv module reads them.
    Given ``dtypes`` (column -> dtype, in the header's order), a file with
    that header, at least one data line and no quote is read by one
    ``np.loadtxt`` call instead, each column an array of its dtype.  Its
    converter accepts a subset of what ``int()`` and ``float()`` accept (a
    signed ASCII integer, or what ``PyOS_string_to_double`` reads, around
    whitespace), with the same values; a file it refuses, or reads with a
    warning, is read as text, whose errors are the file's errors.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
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
    try:
        reader = csv.reader(lines[i:])
        columns = [c.strip() for c in next(reader)]
        # with no quote each line is a row, and with none over the csv
        # module's field limit the csv module would raise no error
        if (dtypes and columns == list(dtypes) and i + 1 < len(lines) and '"' not in text
                and max(map(len, lines)) <= csv.field_size_limit()):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    data = np.loadtxt(lines[i + 1 :], dtype=list(dtypes.items()), delimiter=",",
                                      comments=None, ndmin=1)
                return meta, columns, Table({c: data[c] for c in columns})
            except (ValueError, Warning):
                pass
        rows = [vals for vals in reader if vals]
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise ConfigError(f"{path}: {exc}") from None
    for vals in rows:
        if len(vals) != len(columns):
            raise ConfigError(f"{path}: row has {len(vals)} fields, header has {len(columns)}")
    data = zip(*rows) if rows else [()] * len(columns)
    return meta, columns, Table(dict(zip(columns, data)))


def write_report(path, header: Sequence[str], lines: Sequence[str]):
    with _rewritten(path) as out:
        out.write("\n".join([*header, *lines]) + "\n")


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


def render_convergence_svg(path, series: list[Series]):
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
        f'<text x="{_VIEW_W / 2}" y="28" text-anchor="middle" font-size="16">suboptimality vs k</text>',
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
    with _rewritten(path) as out:
        out.write("\n".join(parts) + "\n")
