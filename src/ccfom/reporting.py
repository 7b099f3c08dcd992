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
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .certificates import VerificationResult, theorem_bound, reference_value
from .errors import ConfigError
from .methods import MethodTrace, method_spec
from .problems import ProblemInstance
from .tolerances import Tolerances

__all__ = [
    "CSV_VERSION_LINE",
    "RUN_COLUMNS",
    "CONJECTURE_COLUMNS",
    "fmt",
    "build_rows",
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


def fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


@dataclass
class RunRows:
    """Assembled per-k CSV rows plus the report lines that accompany them."""

    rows: list[dict]
    report_lines: list[str]
    has_failure: bool
    gap_series: Optional[np.ndarray]
    bound_series: Optional[np.ndarray]


def build_rows(
    trace: MethodTrace,
    p: ProblemInstance,
    ver: VerificationResult,
    tol: Tolerances,
) -> RunRows:
    """Turn a verified run into CSV rows and itemized report lines.

    Adds the closed-form suboptimality-bound check (skipped, never faked,
    when the reference distance is unavailable) and, for methods whose
    descent is monotone, the monotone-descent check.
    """
    spec = method_spec(trace.method)
    chain = ver.chain
    cert = ver.certificate
    x0 = trace.x[0]
    K = trace.horizon
    start = cert.start_index
    f_ref = reference_value(p, x0)
    dist = p.distance_to_solution(x0)

    bounds = np.full(K + 1, math.nan)
    if dist is not None:
        for k in range(start, K + 1):
            b = theorem_bound(p, x0, trace.method, k, schedule=trace.t)
            bounds[k] = math.nan if b is None else b

    f_all = np.empty(K + 1)
    f_all[start:] = chain.f_values
    if start > 0:
        f_all[0] = p.value(trace.x[0])
    gaps = None
    if f_ref is not None:
        gaps = (np.minimum.accumulate(f_all) if spec.running_min_gap else f_all) - f_ref

    induction_by_k = {rec.k: rec for rec in ver.inductions}
    lines: list[str] = []
    rows: list[dict] = []
    any_fail = False

    lines.append(f"reference point: {p.solution_provenance}")
    if f_ref is not None:
        lines.append(f"reference value: {fmt(f_ref)}  distance from x0: {fmt(dist)}")
    else:
        lines.append("reference value unavailable; closed-form bound checks skipped")

    for i, k in enumerate(chain.ks):
        verdict = chain.verdicts[i]
        rec = induction_by_k.get(int(k))
        residual_induction = math.nan if rec is None else -rec.margin
        if rec is not None and rec.verdict == "FAIL":
            verdict = "FAIL"

        bound_k = bounds[k]
        if gaps is not None and not math.isnan(bound_k):
            gap = gaps[k]
            btol = tol.bound(gap, bound_k)
            if gap - bound_k > btol:
                verdict = "FAIL"
                lines.append(
                    f"k={k}: FAIL suboptimality bound: gap - bound = {fmt(gap - bound_k)} "
                    f"> tol {fmt(btol)}"
                )

        if spec.monotone and k >= 1:
            descent = f_all[k] - f_all[k - 1]
            if descent > tol.eps_abs:
                verdict = "FAIL"
                lines.append(
                    f"k={k}: FAIL monotone descent: f(x_k) - f(x_k-1) = {fmt(descent)} "
                    f"> tol {fmt(tol.eps_abs)}"
                )

        if verdict == "FAIL":
            any_fail = True

        theta_k = trace.theta[k] if spec.momentum else cert.theta[k]
        rows.append(
            {
                "k": int(k),
                "f_xk": f_all[k],
                "lhs_k": chain.lhs_values[i],
                "cert_k": chain.certificate_values[i],
                "vacuous_flag": int(chain.vacuous[i]),
                "mu_k": chain.mu[i],
                "theta_k": theta_k,
                "theorem_bound_k": bound_k,
                "residual_chain_max": chain.residual_max[i],
                "residual_induction": residual_induction,
                "verdict": verdict,
            }
        )

        for name in ("certificate", "quad_min", "fenchel", "end_to_end"):
            m = chain.margins[name][i]
            t = chain.margin_tols[name][i]
            state = "skipped (vacuous)" if math.isnan(m) else (
                "FAIL" if m < -t else "pass"
            )
            lines.append(
                f"k={k}: chain {name}: residual={fmt(-m if not math.isnan(m) else m)} "
                f"tol={fmt(t)} {state}"
            )
        if chain.vacuous[i]:
            lines.append(
                f"k={k}: VACUOUS record: dual vector left dom(f*), certificate is -inf"
            )
        if rec is not None:
            lines.append(
                f"k={k}: induction step: residual={fmt(-rec.margin)} tol={fmt(rec.tolerance)} "
                f"{'FAIL' if rec.margin < -rec.tolerance else 'pass'}"
            )
            for name, r in rec.identity_residuals.items():
                it = rec.identity_tols[name]
                lines.append(
                    f"k={k}: identity {name}: residual={fmt(r)} tol={fmt(it)} "
                    f"{'FAIL' if r > it else 'pass'}"
                )
        mu_res = ver.mu_residuals[k]
        lines.append(
            f"k={k}: mu closed form: residual={fmt(mu_res)} tol={fmt(tol.eps_rel)} "
            f"{'FAIL' if mu_res > tol.eps_rel else 'pass'}"
        )
        if mu_res > tol.eps_rel:
            any_fail = True
            rows[-1]["verdict"] = "FAIL"

    return RunRows(
        rows=rows,
        report_lines=lines,
        has_failure=any_fail,
        gap_series=gaps,
        bound_series=bounds if dist is not None else None,
    )


def write_csv(path, meta: dict[str, str], columns: Sequence[str], rows: list[dict]):
    buf = io.StringIO()
    buf.write(CSV_VERSION_LINE + "\n")
    for key, val in meta.items():
        buf.write(f"# {key} = {val}\n")
    writer = csv.writer(buf, lineterminator="\n")  # quotes fields with commas
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(row[c]) for c in columns])
    Path(path).write_text(buf.getvalue())


def read_csv(path) -> tuple[dict[str, str], list[str], list[dict[str, str]]]:
    """Parse a schema-v1 CSV back into (metadata, columns, text rows)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_VERSION_LINE:
        raise ConfigError(f"{path} is not a ccfom-csv v1 file")
    meta: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
        i += 1
    if i >= len(lines) or not lines[i].strip():
        raise ConfigError(f"{path} has no header row")
    reader = csv.reader(lines[i:])
    columns = [c.strip() for c in next(reader)]
    rows = []
    for vals in reader:
        if not vals:
            continue
        if len(vals) != len(columns):
            raise ConfigError(f"{path}: row has {len(vals)} fields, header has {len(columns)}")
        rows.append(dict(zip(columns, vals)))
    return meta, columns, rows


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
