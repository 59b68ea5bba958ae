"""Exact, human-writable point-configuration files.

Format:

    # comment lines start with '#'
    d=2 q=3
    0 0
    4 0
    2/1 4
    ...

The first non-comment line declares the parameters; every following line is
one point, coordinates whitespace-separated, each an integer or `p/q`
fraction.  Labels are assigned 0..N in file order.
"""

from fractions import Fraction

from .errors import ParseError
from .geometry import PointConfiguration

MIN_D, MIN_Q = 1, 2  # the smallest dimension and number of blocks accepted


def _parse_scalar(token, lineno):
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate {token!r}", lineno) from exc


def parse_configuration(text) -> PointConfiguration:
    d = q = None
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if d is None:
            tokens = line.split()
            parts = dict(kv.split("=", 1) for kv in tokens if "=" in kv)
            if len(tokens) != 2 or set(parts) != {"d", "q"}:
                raise ParseError("header must be 'd=<int> q=<int>'", lineno)
            try:
                d, q = int(parts["d"]), int(parts["q"])
            except ValueError as exc:
                raise ParseError("non-integer d or q", lineno) from exc
            if d < MIN_D or q < MIN_Q:
                raise ParseError(f"need d >= {MIN_D} and q >= {MIN_Q}", lineno)
            continue
        coords = tuple(_parse_scalar(tok, lineno) for tok in line.split())
        if len(coords) != d:
            raise ParseError(f"expected {d} coordinates, got {len(coords)}", lineno)
        points.append(coords)
    if d is None:
        raise ParseError("missing 'd=<int> q=<int>' header")
    return PointConfiguration(d, q, tuple(points))


def format_scalar(value):
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
