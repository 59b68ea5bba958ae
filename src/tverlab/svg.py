"""SVG rendering of planar configurations with partitions and constraints.

Points are labeled dots; the hulls of a selected record's blocks are drawn
as filled polygons, constraint edges as dashed segments, and Tverberg
points as small circles.  Rational coordinates are converted to decimal
only here, at the presentation boundary.
"""

from fractions import Fraction

from .errors import UnsupportedDimension
from .geometry import PointConfiguration, orientation

SIZE = 480  # width and height of the drawing, in px
PALETTE = ["#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66", "#77bedb"]


def _hull_order(points):
    """Vertices of conv(points), counterclockwise from the least one.

    A Tverberg block in the plane has at most three points, in general
    position since `render` classifies the configuration first: one or
    two points come back as given, and a triangle's order is one
    orientation sign."""
    if len(points) < 3:
        return list(points)
    a, b, c = sorted(points)
    return [a, b, c] if orientation([a, b, c], 2) > 0 else [a, c, b]


def render_svg(config: PointConfiguration, records=(), graph=None) -> str:
    if config.d != 2:
        raise UnsupportedDimension("rendering supports d=2 only")
    xs = [Fraction(p[0]) for p in config.points]
    ys = [Fraction(p[1]) for p in config.points]
    margin = 30
    span_x = max(xs) - min(xs) or Fraction(1)
    span_y = max(ys) - min(ys) or Fraction(1)
    scale = min(
        Fraction(SIZE - 2 * margin) / span_x, Fraction(SIZE - 2 * margin) / span_y
    )

    def sx(p):
        return float(margin + (Fraction(p[0]) - min(xs)) * scale)

    def sy(p):
        return float(SIZE - margin - (Fraction(p[1]) - min(ys)) * scale)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    ]
    for idx, record in enumerate(records):
        color = PALETTE[idx % len(PALETTE)]
        for blk in record.partition:
            pts = [config.points[i] for i in blk]
            hull = _hull_order(pts)
            coords = " ".join(f"{sx(p):.2f},{sy(p):.2f}" for p in hull)
            if len(hull) >= 3:
                out.append(
                    f'<polygon points="{coords}" fill="{color}" fill-opacity="0.12" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
            elif len(hull) == 2:
                a, b = hull
                out.append(
                    f'<line x1="{sx(a):.2f}" y1="{sy(a):.2f}" x2="{sx(b):.2f}" '
                    f'y2="{sy(b):.2f}" stroke="{color}" stroke-width="1.5"/>'
                )
    if graph is not None:
        for a, b in sorted(graph.edges):
            pa, pb = config.points[a], config.points[b]
            out.append(
                f'<line x1="{sx(pa):.2f}" y1="{sy(pa):.2f}" x2="{sx(pb):.2f}" '
                f'y2="{sy(pb):.2f}" stroke="#333" stroke-width="1.5" '
                f'stroke-dasharray="6,4"/>'
            )
    for record in records:
        tp = record.point
        out.append(
            f'<circle cx="{sx(tp):.2f}" cy="{sy(tp):.2f}" r="7" fill="none" '
            f'stroke="#d62728" stroke-width="1.5"/>'
        )
    for label, p in enumerate(config.points):
        out.append(
            f'<circle cx="{sx(p):.2f}" cy="{sy(p):.2f}" r="3" fill="#111"/>'
        )
        out.append(
            f'<text x="{sx(p) + 6:.2f}" y="{sy(p) - 6:.2f}" font-size="12" '
            f'font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
