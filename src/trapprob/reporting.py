"""Machine-readable outputs: CSV tables, JSON run manifests, and
self-contained SVG line plots.

CSV floats use a fixed 12-significant-digit decimal format and a fixed
line terminator so that identical runs produce byte-identical files on any
platform; timestamps live only in the manifest.
"""

import json
import math

FLOAT_FORMAT = "%.12g"

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

# svg_lineplot's canvas (width, height) in pixels and its y-axis range
SVG_SIZE = (720, 480)
SVG_Y_RANGE = (0.0, 1.0)


def format_cell(value):
    """Stable scalar formatting: bools as 0/1, floats at 12 significant
    digits, None as the empty field."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def write_csv(path, header, rows):
    """Write rows (sequences of scalars) under a header line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def write_manifest(path, manifest):
    """Write a run manifest, or any JSON-serialisable value, with sorted
    keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ticks_log(lo, hi):
    return [10.0**k for k in range(math.ceil(math.log10(lo) - 1e-9), math.floor(math.log10(hi) + 1e-9) + 1)]


def svg_lineplot(path, series, title="", xlabel="t", ylabel=""):
    """Minimal log-x line plot.

    ``series`` is a list of dicts with keys ``x``, ``y`` (sequences),
    ``label``, optional ``color`` and ``dash``.  Non-finite points are
    dropped; y-values are clipped to ``SVG_Y_RANGE``.  No external plotting
    dependency: output is a single self-contained SVG document.
    """
    width, height = SVG_SIZE
    ml, mr, mt, mb = 70, 160, 40, 50
    iw, ih = width - ml - mr, height - mt - mb
    y_lo, y_hi = SVG_Y_RANGE

    xs_all = [x for s in series for x in s["x"] if x > 0.0 and math.isfinite(x)]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi <= x_lo:
        x_hi = x_lo * 10.0
    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)

    def px(x):
        return ml + (math.log10(x) - lx_lo) / (lx_hi - lx_lo) * iw

    def py(y):
        y = min(y_hi, max(y_lo, y))
        return mt + (y_hi - y) / (y_hi - y_lo) * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{iw}" height="{ih}" fill="none" stroke="black"/>',
        f'<text x="{ml + iw / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{ml + iw / 2:.1f}" y="{height - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{mt + ih / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ih / 2:.1f})">{ylabel}</text>',
    ]
    for tick in _ticks_log(x_lo, x_hi):
        tx = px(tick)
        out.append(f'<line x1="{tx:.2f}" y1="{mt + ih}" x2="{tx:.2f}" y2="{mt + ih + 5}" stroke="black"/>')
        exp = round(math.log10(tick))
        out.append(f'<text x="{tx:.2f}" y="{mt + ih + 18}" text-anchor="middle">1e{exp}</text>')
    n_yticks = 5
    for i in range(n_yticks + 1):
        yv = y_lo + (y_hi - y_lo) * i / n_yticks
        ty = py(yv)
        out.append(f'<line x1="{ml - 5}" y1="{ty:.2f}" x2="{ml}" y2="{ty:.2f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{ty + 4:.2f}" text-anchor="end">{yv:.1f}</text>')
        out.append(
            f'<line x1="{ml}" y1="{ty:.2f}" x2="{ml + iw}" y2="{ty:.2f}" stroke="#dddddd" stroke-width="0.5"/>'
        )

    legend_y = mt + 10
    for idx, s in enumerate(series):
        color = s.get("color", PALETTE[idx % len(PALETTE)])
        dash = s.get("dash")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        pts = [
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(s["x"], s["y"])
            if x > 0.0 and math.isfinite(x) and math.isfinite(y)
        ]
        if pts:
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash_attr}/>'
            )
        lx = ml + iw + 10
        out.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        out.append(f'<text x="{lx + 28}" y="{legend_y + 4}">{s["label"]}</text>')
        legend_y += 16

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
