"""Deterministic SVG rendering of two-dimensional parliaments.

Coordinates are scaled by the common denominator of all vertices so the
lattice grid stays exact; output is byte-identical for fixed input and
options.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .parliament import Parliament
from .polytopes import convex_polygon

_FILLS = (
    "#f6d46a", "#7ab8e6", "#e68a7a", "#8fd49a", "#c49ae6",
    "#e6c47a", "#7ae6d4", "#b8b8b8",
)
_MARKS = ("circle", "square", "diamond", "triangle", "pentagon", "cross")
_CELL = 48  # pixels per lattice unit
_MARGIN = 36


@dataclass(frozen=True)
class SvgOptions:
    wall_segments: tuple = ()  # optional restriction segments to overlay


def _marker(kind, x, y, s, color):
    if kind == "circle":
        return f'<circle cx="{x}" cy="{y}" r="{s}" class="mark" stroke="{color}"/>'
    if kind == "square":
        return (
            f'<rect x="{x - s}" y="{y - s}" width="{2 * s}" height="{2 * s}" '
            f'class="mark" stroke="{color}"/>'
        )
    if kind == "diamond":
        pts = f"{x},{y - s} {x + s},{y} {x},{y + s} {x - s},{y}"
        return f'<polygon points="{pts}" class="mark" stroke="{color}"/>'
    if kind == "triangle":
        pts = f"{x},{y - s} {x + s},{y + s} {x - s},{y + s}"
        return f'<polygon points="{pts}" class="mark" stroke="{color}"/>'
    if kind == "pentagon":
        pts = (
            f"{x},{y - s} {x + s},{y - s // 3} {x + (2 * s) // 3},{y + s} "
            f"{x - (2 * s) // 3},{y + s} {x - s},{y - s // 3}"
        )
        return f'<polygon points="{pts}" class="mark" stroke="{color}"/>'
    return (
        f'<path d="M {x - s} {y - s} L {x + s} {y + s} M {x - s} {y + s} '
        f'L {x + s} {y - s}" class="mark" stroke="{color}"/>'
    )


def render_svg(parl: Parliament, options: SvgOptions | None = None) -> str:
    if parl.fan.dim != 2:
        raise ValueError("SVG rendering is only defined for surfaces (d = 2)")
    opts = options or SvgOptions()

    vertex_sets = [e.polytope.vertices() for e in parl.entries]
    points = [v for vs in vertex_sets for v in vs]
    points += [tuple(Fraction(x) for x in m.character) for m in parl.marks]
    for seg in opts.wall_segments:
        points.append(tuple(Fraction(x) for x in seg.character_sigma))
        points.append(tuple(Fraction(x) for x in seg.character_sigma_prime))
    if not points:
        points = [(Fraction(0), Fraction(0))]
    denom = lcm(*(x.denominator for p in points for x in p), 1)
    xs = [x * denom for x, _ in points]
    ys = [y * denom for _, y in points]
    x0, x1 = min(xs) - denom, max(xs) + denom
    y0, y1 = min(ys) - denom, max(ys) + denom
    unit = Fraction(_CELL, denom)

    def px(x):
        return _MARGIN + int((Fraction(x) * denom - x0) * unit)

    def py(y):
        return _MARGIN + int((y1 - Fraction(y) * denom) * unit)

    width = px(Fraction(x1, denom)) + _MARGIN
    height = py(Fraction(y0, denom)) + _MARGIN

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>"
        ".grid{stroke:#dddddd;stroke-width:1}"
        ".axis{stroke:#888888;stroke-width:1}"
        ".poly{fill-opacity:0.45;stroke:#333333;stroke-width:1.5}"
        ".mark{fill:#ffffff;stroke-width:2}"
        ".seg{stroke:#cc2222;stroke-width:3}"
        ".lbl{font:14px sans-serif;fill:#222222}"
        "</style>",
    ]
    gx0, gx1 = -(-x0 // denom), x1 // denom
    gy0, gy1 = -(-y0 // denom), y1 // denom
    for gx in range(int(gx0), int(gx1) + 1):
        out.append(
            f'<line x1="{px(gx)}" y1="{py(Fraction(y0, denom))}" '
            f'x2="{px(gx)}" y2="{py(Fraction(y1, denom))}" '
            f'class="{"axis" if gx == 0 else "grid"}"/>'
        )
    for gy in range(int(gy0), int(gy1) + 1):
        out.append(
            f'<line x1="{px(Fraction(x0, denom))}" y1="{py(gy)}" '
            f'x2="{px(Fraction(x1, denom))}" y2="{py(gy)}" '
            f'class="{"axis" if gy == 0 else "grid"}"/>'
        )
    for entry, verts in zip(parl.entries, vertex_sets):
        fill = _FILLS[entry.index % len(_FILLS)]
        if not verts:
            out.append(
                f'<text x="{_MARGIN}" y="{_MARGIN + 16 * (entry.index + 1)}" '
                f'class="lbl">e{entry.index}: empty polytope</text>'
            )
            continue
        hull = convex_polygon(verts)
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in hull)
        out.append(f'<polygon points="{pts}" class="poly" fill="{fill}"/>')
        lx, ly = hull[0]
        out.append(
            f'<text x="{px(lx) + 4}" y="{py(ly) - 4}" class="lbl">e{entry.index}</text>'
        )
    for seg in opts.wall_segments:
        (ax, ay), (bx, by) = seg.character_sigma, seg.character_sigma_prime
        out.append(
            f'<line x1="{px(ax)}" y1="{py(ay)}" x2="{px(bx)}" y2="{py(by)}" class="seg"/>'
        )
    for mark in sorted(parl.marks, key=lambda m: (m.cone_index, m.character)):
        kind = _MARKS[mark.cone_index % len(_MARKS)]
        color = "#%02x%02x%02x" % (
            60 + 40 * (mark.cone_index % 5),
            40,
            160 - 25 * (mark.cone_index % 5),
        )
        out.append(_marker(kind, px(mark.character[0]), py(mark.character[1]), 6, color))
    out.append("</svg>")
    return "\n".join(out) + "\n"
