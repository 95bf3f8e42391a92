"""Standalone SVG rendering of the determinant figure.

The emitted document is a pure function of the figure geometry and caption:
no timestamps, no environment-dependent metadata, so identical inputs yield
byte-identical output. The viewBox covers the column-sum rectangle with 5%
padding on every side, in data units; geometry lives in a y-flipped group so
the mathematical orientation (y up) is preserved. Because the two axes carry
very different scales, strokes use non-scaling widths and text/arrowheads
are sized in device pixels and mapped back through the axis scales.
"""

from __future__ import annotations

import math
from html import escape

from .association import FigureModel

WIDTH_PX = 720.0
HEIGHT_PX = 540.0
PAD = 0.05


def _num(v: float) -> str:
    text = format(float(v), ".6g")
    return "0" if text == "-0" else text


def _arrowhead(tip, sx: float, sy: float) -> str | None:
    """Arrowhead polygon points for a vector from the origin to ``tip``.

    Built in pixel space (12px long, 8px wide) and mapped back to data
    units so the head looks right under anisotropic axis scaling.
    """
    px, py = tip[0] * sx, tip[1] * sy
    length = math.hypot(px, py)
    if length == 0:
        return None
    ux, uy = px / length, py / length
    nx, ny = -uy, ux
    base_x, base_y = px - 12 * ux, py - 12 * uy
    pts_px = [
        (px, py),
        (base_x + 4 * nx, base_y + 4 * ny),
        (base_x - 4 * nx, base_y - 4 * ny),
    ]
    return " ".join(f"{_num(x / sx)},{_num(y / sy)}" for x, y in pts_px)


def render_determinant_svg(fig: FigureModel, caption: tuple[str, ...] = ()) -> str:
    """Render the parallelogram-in-rectangle picture as a standalone SVG."""
    w, h = fig.rect
    if fig.rect_area == 0:
        raise ValueError("rectangle has zero area; nothing to draw")
    sx = WIDTH_PX / ((1 + 2 * PAD) * w)
    sy = HEIGHT_PX / ((1 + 2 * PAD) * h)
    view = f"{_num(-PAD * w)} {_num(-PAD * h)} {_num((1 + 2 * PAD) * w)} {_num((1 + 2 * PAD) * h)}"
    poly = " ".join(f"{x},{y}" for x, y in fig.polygon)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_num(WIDTH_PX)}" '
        f'height="{_num(HEIGHT_PX)}" viewBox="{view}" preserveAspectRatio="none">',
        f'<g transform="matrix(1 0 0 -1 0 {_num(h)})">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#fbfbf8" stroke="#55514b" '
        'stroke-width="1.5" vector-effect="non-scaling-stroke"/>',
        f'<polygon points="{poly}" fill="#7b9ec9" fill-opacity="0.55" stroke="#2b4a73" '
        'stroke-width="1.5" vector-effect="non-scaling-stroke"/>',
    ]
    for vec in (fig.v1, fig.v2):
        lines.append(
            f'<line x1="0" y1="0" x2="{vec[0]}" y2="{vec[1]}" stroke="#a03b32" '
            'stroke-width="1.5" vector-effect="non-scaling-stroke"/>'
        )
        head = _arrowhead(vec, sx, sy)
        if head:
            lines.append(f'<polygon points="{head}" fill="#a03b32"/>')
    lines.append("</g>")

    if caption:
        lines.append(
            f'<text transform="translate({_num(0.98 * w)} {_num(h)}) '
            f'scale({_num(1 / sx)} {_num(1 / sy)})" text-anchor="end" '
            'font-family="Menlo, Consolas, monospace" font-size="13" fill="#27241f">'
        )
        offsets = [-16 * (len(caption) - 1 - i) - 10 for i in range(len(caption))]
        for text, dy in zip(caption, offsets):
            lines.append(f'<tspan x="-8" y="{dy}">{escape(text, quote=False)}</tspan>')
        lines.append("</text>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
