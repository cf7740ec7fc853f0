"""Renderers for Auslander-Reiten quivers.

The layout convention follows the usual pictures: co-diagonals run left
to right, module length grows upward, so a coordinate (i, j) sits at
abscissa 2i + j and height j.  Highlighted vertices are the encircled
ones; the translation is drawn dotted.  Output is deterministic.

Every format is written straight from the series: the vertices from its
rows (row-major, as ``all_modules``) or its diagonals (sorted), the
arrows and the translation from the generators of ``nakayama.ar``.  No
quiver is built, and the short strings of the output are joined a batch
at a time, so that memory stays within a small multiple of the output.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import islice

from . import ar
from .kupisch import Coord, KupischSeries


class RenderSpec(namedtuple("RenderSpec", "format highlight labels",
                            defaults=("ascii", (), "coords"))):
    """What render writes: the format, the vertices to encircle and the
    label mode."""

    __slots__ = ()
    format: str  # ascii | dot | tikz | json
    highlight: Sequence[Coord]
    labels: str  # coords | dims | none


# the label of the module (i, j) in each mode, a format string of i, j
_LABELS = {"coords": "({0},{1})", "dims": "{1}", "none": "*"}

#: The most bytes an ascii render writes, checked before a row is listed.
#: Each line is padded out to its row's last module, so the text grows
#: with rows times diagonals, not with the modules: the series
#: 600,599,...,2,2^59400,1 (a 2.3 kB argument, 299,100 modules) would
#: take 431 MB.  10^8 is about the json text of the 1.1M modules that
#: CI renders at scale (101 MB), and far above the largest ascii render
#: of the tests, the golden files and the CI (172 kB, lambda_mh(400, 40)).
MAX_ASCII_BYTES = 10**8


def render(K: KupischSeries, spec: RenderSpec = RenderSpec()) -> str:
    """The AR quiver of K in the spec's format, label mode and highlights."""
    bad = [h for h in spec.highlight if not K.exists(h)]
    if bad:
        raise ValueError(f"highlighted vertices not in the quiver: {bad}")
    emit, label = _FORMATS.get(spec.format), _LABELS.get(spec.labels)
    if emit is None:
        raise ValueError(f"unknown format {spec.format!r}")
    if label is None:
        raise ValueError(f"unknown labels {spec.labels!r}")
    return emit(K, spec, label, set(spec.highlight))


def _join(sep: str, strings, size: int = 1024) -> str:
    """sep.join(strings), a batch at a time: only one batch of the short
    strings is alive at once."""
    it, out = iter(strings), []
    while batch := list(islice(it, size)):
        out.append(sep.join(batch))
    return sep.join(out)


def _ascii(K: KupischSeries, spec: RenderSpec, label: str, high) -> str:
    # the last module (s - j, j) of each row j, s the largest co-diagonal
    # with u(s) >= j, from one pass down the co-diagonals
    u, last = K._u, []
    for s in range(K.m + 1, 1, -1):
        last += [s] * (u[s] - len(last))
    ends = [(s - j, j) for j, s in enumerate(last, 1)]
    # a label is longest at the largest i of its row
    lens = [len(label.format(*x)) for x in ends]
    width = 1 + max(lens + [len(label.format(*x)) + 2 for x in high])
    # a line ends with its last label, at column (2i + j - 2) * width / 2:
    # the modules of a row are width apart, so no label overlaps the next
    size = sum((2 * i + j - 2) * width // 2 + n + 1
               + (2 if (i, j) in high else 0)
               for (i, j), n in zip(ends, lens))
    if size > MAX_ASCII_BYTES:
        raise ValueError(f"the ascii quiver would take {size} bytes, more "
                         f"than MAX_ASCII_BYTES = {MAX_ASCII_BYTES}")
    rows = list(K._rows())
    lines = []
    for j, row in reversed(rows):
        parts, end = [], 0
        for s in row:
            text = label.format(s - j, j)
            if high and (s - j, j) in high:
                text = f"[{text}]"
            col = (2 * s - j - 2) * width // 2
            parts.append(" " * (col - end) + text)
            end = col + len(text)
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"


def _dot(K: KupischSeries, spec: RenderSpec, label: str, high) -> str:
    vertex = '  m_{0}_{1} [label="' + label + '"{2}];\n'
    return "".join((
        "digraph ar {\n  rankdir=LR;\n",
        _join("", (vertex.format(s - j, j, ", peripheries=2"
                                 if high and (s - j, j) in high else "")
                   for j, row in K._rows() for s in row)),
        _join("", (f"  m_{a[0]}_{a[1]} -> m_{b[0]}_{b[1]};\n"
                   for a, b in ar._arrows(K))),
        _join("", (f"  m_{x[0]}_{x[1]} -> m_{y[0]}_{y[1]} [style=dotted];\n"
                   for x, y in ar._translation(K))),
        "}\n"))


def _tikz(K: KupischSeries, spec: RenderSpec, label: str, high) -> str:
    node = "\\node[{3}] (m_{0}_{1}) at ({2},{1}) {{$" + label + "$}};\n"
    v = K._v
    return "".join((
        "\\begin{tikzpicture}[scale=0.7]\n",
        _join("", (node.format(i, j, 2 * i + j - 2,
                               "circle, draw, inner sep=1pt"
                               if high and (i, j) in high
                               else "inner sep=1pt")
                   for i in range(1, K.m + 1) for j in range(1, v[i] + 1))),
        _join("", (f"\\draw[->] (m_{a[0]}_{a[1]}) -- (m_{b[0]}_{b[1]});\n"
                   for a, b in ar._arrows(K))),
        _join("", (f"\\draw[loosely dotted] (m_{y[0]}_{y[1]}) -- "
                   f"(m_{x[0]}_{x[1]});\n" for x, y in ar._translation(K))),
        "\\end{tikzpicture}\n"))


def _json(K: KupischSeries, spec: RenderSpec, label: str, high) -> str:
    """The bytes of json.dumps(..., sort_keys=True) of the quiver's
    to_json() with the sorted highlight, written without the dict."""
    import json  # on the first json render only: see the README
    return "".join((
        '{"arrows": [',
        _join(", ", (f"[[{a[0]}, {a[1]}], [{b[0]}, {b[1]}]]"
                     for a, b in ar._arrows(K))),
        '], "highlight": ',
        json.dumps(sorted([list(h) for h in spec.highlight])),
        ', "tau": [',
        _join(", ", (f"[[{x[0]}, {x[1]}], [{y[0]}, {y[1]}]]"
                     for x, y in ar._translation(K))),
        '], "vertices": [',
        _join(", ", (f"[{s - j}, {j}]" for j, row in K._rows() for s in row)),
        "]}"))


_FORMATS = {"ascii": _ascii, "dot": _dot, "tikz": _tikz, "json": _json}
