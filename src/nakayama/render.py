"""Renderers for Auslander-Reiten quivers.

The layout convention follows the usual pictures: co-diagonals run left
to right, module length grows upward, so a coordinate (i, j) sits at
abscissa 2i + j and height j.  Highlighted vertices are the encircled
ones; the translation is drawn dotted.  Output is deterministic.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .ar import ARQuiver
from .kupisch import Coord


class RenderSpec(NamedTuple):
    format: str = "ascii"  # ascii | dot | tikz | json
    highlight: Sequence[Coord] = ()
    labels: str = "coords"  # coords | dims | none


def _label(x: Coord, labels: str) -> str:
    if labels == "coords":
        return f"({x[0]},{x[1]})"
    if labels == "dims":
        return str(x[1])
    return "*"


def render(gamma: ARQuiver, spec: RenderSpec = RenderSpec()) -> str:
    if spec.highlight:  # the vertex set only when there is one to test
        vset = set(gamma.vertices)
        bad = [h for h in spec.highlight if h not in vset]
        if bad:
            raise ValueError(f"highlighted vertices not in the quiver: {bad}")
    if spec.format == "ascii":
        return _render_ascii(gamma, spec)
    if spec.format == "dot":
        return _render_dot(gamma, spec)
    if spec.format == "tikz":
        return _render_tikz(gamma, spec)
    if spec.format == "json":
        import json
        data = gamma.to_json()
        data["highlight"] = sorted([list(h) for h in spec.highlight])
        return json.dumps(data, sort_keys=True)
    raise ValueError(f"unknown format {spec.format!r}")


def _render_ascii(gamma: ARQuiver, spec: RenderSpec) -> str:
    high = set(spec.highlight)
    cells, rows = {}, {}  # rows: the vertices of each length
    for x in gamma.vertices:
        text = _label(x, spec.labels)
        if x in high:
            text = f"[{text}]"
        cells[x] = text
        rows.setdefault(x[1], []).append(x)
    width = max(len(t) for t in cells.values()) + 1
    lines = []
    for j in range(max(rows), 0, -1):
        parts, end = [], 0  # a cell that overlaps the row follows its end
        for x in sorted(rows.get(j, ())):
            col = max(end, (2 * x[0] + x[1] - 2) * width // 2)
            parts.append(" " * (col - end) + cells[x])
            end = col + len(cells[x])
        lines.append("".join(parts).rstrip())
    return "\n".join(lines) + "\n"


def _node_id(x: Coord) -> str:
    return f"m_{x[0]}_{x[1]}"


def _render_dot(gamma: ARQuiver, spec: RenderSpec) -> str:
    high = set(spec.highlight)
    out = ["digraph ar {", "  rankdir=LR;"]
    for x in gamma.vertices:
        attrs = [f'label="{_label(x, spec.labels)}"']
        if x in high:
            attrs.append("peripheries=2")
        out.append(f'  {_node_id(x)} [{", ".join(attrs)}];')
    for a, b in gamma.arrows:
        out.append(f"  {_node_id(a)} -> {_node_id(b)};")
    for x, tx in sorted(gamma.translation.items()):
        out.append(f"  {_node_id(x)} -> {_node_id(tx)} [style=dotted];")
    out.append("}")
    return "\n".join(out) + "\n"


def _render_tikz(gamma: ARQuiver, spec: RenderSpec) -> str:
    high = set(spec.highlight)
    out = ["\\begin{tikzpicture}[scale=0.7]"]
    for x in sorted(gamma.vertices):
        style = "circle, draw, inner sep=1pt" if x in high else "inner sep=1pt"
        px, py = 2 * x[0] + x[1] - 2, x[1]
        out.append(
            f"\\node[{style}] ({_node_id(x)}) at ({px},{py}) "
            f"{{${_label(x, spec.labels)}$}};")
    for a, b in gamma.arrows:
        out.append(f"\\draw[->] ({_node_id(a)}) -- ({_node_id(b)});")
    for x, tx in sorted(gamma.translation.items()):
        out.append(
            f"\\draw[loosely dotted] ({_node_id(tx)}) -- ({_node_id(x)});")
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"
