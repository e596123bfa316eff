"""Artifact writers: CSV, JSON and SVG outputs with reproducible formatting.

All floats are written with 17 significant digits (round-trip exact for
IEEE doubles), CSV uses LF line endings and a header row, JSON is UTF-8
with sorted keys. This module is the one owner of the JSON format: the
JSON writers take dicts and dataclass instances (a report, a grid) alike.
Two runs with identical seeds therefore produce byte-identical numeric
payloads.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .grids import GridFunction, direction_cosine, sup_norm


def fmt(x) -> str:
    """17-significant-digit decimal formatting for reals."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _jsonable(obj):
    """The JSON value of ``obj``; a dataclass instance is the dict of its fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, GridFunction):
        return {"sup": float(np.abs(obj.values).max())}
    return obj


def write_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="\n")


def write_jsonl(path, records) -> None:
    lines = [json.dumps(_jsonable(r), sort_keys=True) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_grid_function(path, u: GridFunction) -> None:
    header = ["x", "value"] if u.grid.dim == 1 else ["x", "y", "value"]
    write_csv(path, header, (tuple(x) + (v,) for x, v in zip(u.grid.coords(), u.values)))


def write_branch(path, branch, phi) -> None:
    header = ["t", "d", "sup_norm", "min_u", "max_u", "regime_tags", "eigdir_cosine"]
    rows = ((p.t, p.d, sup_norm(p.u), p.u.min(), p.u.max(), "|".join(sorted(p.regime_tags)),
             direction_cosine(p.u, phi)) for p in branch.points)
    write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# SVG bifurcation diagram (no plotting dependency)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round tick values covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        out.append(round(v, 12))
        v += step
    return out or [lo, hi]


def svg_diagram(path, curves: list[tuple[str, list[tuple[float, float]]]],
                markers: list[tuple[str, float]] | None = None,
                title: str = "solution set") -> None:
    """Polyline diagram of branches in the (t, d) plane.

    curves: list of (label, [(t, d), ...]); markers: list of (label, t)
    drawn as vertical dashed lines (fold / critical parameters).
    """
    W, H = 720, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    pts_all = [p for _, c in curves for p in c]
    if not pts_all:
        pts_all = [(0.0, 0.0), (1.0, 1.0)]
    xs = [p[0] for p in pts_all] + [m[1] for m in (markers or [])]
    ys = [p[1] for p in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    padx = 0.05 * (x_hi - x_lo)
    pady = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - padx, x_hi + padx
    y_lo, y_hi = y_lo - pady, y_hi + pady

    def X(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (W - ml - mr)

    def Y(y):
        return H - mb - (y - y_lo) / (y_hi - y_lo) * (H - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes box
    parts.append(f'<rect x="{ml}" y="{mt}" width="{W - ml - mr}" height="{H - mt - mb}" '
                 'fill="none" stroke="#333" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{X(tx):.2f}" y1="{H - mb}" x2="{X(tx):.2f}" '
                     f'y2="{H - mb + 5}" stroke="#333"/>')
        parts.append(f'<text x="{X(tx):.2f}" y="{H - mb + 18}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml - 5}" y1="{Y(ty):.2f}" x2="{ml}" y2="{Y(ty):.2f}" '
                     'stroke="#333"/>')
        parts.append(f'<text x="{ml - 8}" y="{Y(ty) + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{ty:g}</text>')
    parts.append(f'<text x="{W / 2:.1f}" y="{H - 12}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">t</text>')
    parts.append(f'<text x="18" y="{H / 2:.1f}" text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {H / 2:.1f})">'
                 'd</text>')
    for i, (label, curve) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{X(x):.2f},{Y(y):.2f}" for x, y in curve)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{W - mr - 8}" y="{mt + 18 + 16 * i}" text-anchor="end" '
                     f'font-size="12" font-family="sans-serif" fill="{color}">'
                     f'{label}</text>')
    for label, tx in markers or []:
        parts.append(f'<line x1="{X(tx):.2f}" y1="{mt}" x2="{X(tx):.2f}" y2="{H - mb}" '
                     'stroke="#888" stroke-width="1" stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{X(tx) + 4:.2f}" y="{mt + 14}" font-size="11" '
                     f'font-family="sans-serif" fill="#555">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
