import json
import re

import pytest

from nakayama.ar import ARQuiver, ar_quiver
from nakayama.cluster import check_nct
from nakayama.kupisch import KupischSeries, lambda_mh
from nakayama.render import RenderSpec, render

from oracles import all_series, render_ascii_oracle


def test_single_vertex():
    g = ar_quiver(KupischSeries([1]))
    out = render(g, RenderSpec(format="ascii"))
    assert out.strip() == "(1,1)"


def test_ascii_highlight_counts():
    K = lambda_mh(9, 4)
    cand = check_nct(K, 2).candidate
    out = render(ar_quiver(K), RenderSpec(format="ascii", highlight=cand))
    assert out.count("(") - out.count("[(") == 30 - len(cand)
    assert out.count("[(") == len(cand)


def test_deterministic():
    K = lambda_mh(9, 4)
    g = ar_quiver(K)
    for fmt in ("ascii", "dot", "tikz", "json"):
        spec = RenderSpec(format=fmt, highlight=((1, 1), (2, 4)))
        assert render(g, spec) == render(ar_quiver(K), spec)


def test_dot_round_trip():
    K = lambda_mh(9, 4)
    g = ar_quiver(K)
    out = render(g, RenderSpec(format="dot"))
    assert out.startswith("digraph")
    nodes = re.findall(r"^\s*(m_\d+_\d+)\s*\[", out, re.MULTILINE)
    edges = re.findall(r"(m_\d+_\d+)\s*->\s*(m_\d+_\d+)\s*(\[style=dotted\])?;",
                       out)
    assert len(nodes) == len(g.vertices)
    plain = [e for e in edges if not e[2]]
    dotted = [e for e in edges if e[2]]
    assert len(plain) == len(g.arrows)
    assert len(dotted) == len(g.translation)


def test_json_format():
    g = ar_quiver(lambda_mh(3, 2))
    data = json.loads(render(g, RenderSpec(format="json",
                                           highlight=((1, 1),))))
    assert data["highlight"] == [[1, 1]]
    assert len(data["vertices"]) == 5


def test_labels_modes():
    g = ar_quiver(lambda_mh(3, 2))
    dims = render(g, RenderSpec(format="ascii", labels="dims"))
    assert "(1,1)" not in dims and "2" in dims
    bare = render(g, RenderSpec(format="ascii", labels="none"))
    assert bare.count("*") == 5


def test_highlight_outside_quiver():
    g = ar_quiver(lambda_mh(3, 2))
    with pytest.raises(ValueError):
        render(g, RenderSpec(highlight=((9, 9),)))


def test_unknown_format_refused():
    with pytest.raises(ValueError, match="unknown format 'svg'"):
        render(ar_quiver(lambda_mh(3, 2)), RenderSpec(format="svg"))


def test_no_highlight_iterates_the_vertices_once():
    # with nothing highlighted, render builds no vertex set: each format
    # reads the vertices in one pass
    reads = []

    class Vertices(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    g = ar_quiver(lambda_mh(4, 2))
    g = g._replace(vertices=Vertices(g.vertices))
    for fmt in ("ascii", "dot", "tikz", "json"):
        reads.clear()
        render(g, RenderSpec(format=fmt))
        assert len(reads) == 1, fmt


def test_tikz_smoke():
    out = render(ar_quiver(lambda_mh(4, 2)), RenderSpec(format="tikz"))
    assert out.startswith("\\begin{tikzpicture}")
    assert out.rstrip().endswith("\\end{tikzpicture}")
    assert out.count("\\draw[->]") == len(ar_quiver(lambda_mh(4, 2)).arrows)


def test_ascii_buckets_rows_in_one_pass():
    # equal to the per-row scan on every series with m <= 6, in each
    # label mode, with and without highlights
    compared = 0
    for m in range(1, 7):
        for K in all_series(m):
            g = ar_quiver(K)
            for labels in ("coords", "dims", "none"):
                for high in ((), K.projectives(), g.vertices[::3]):
                    spec = RenderSpec(highlight=tuple(high), labels=labels)
                    assert render(g, spec) == render_ascii_oracle(g, spec)
                    compared += 1
    assert compared == 65 * 9


def test_ascii_of_a_hand_built_quiver():
    # unsorted vertices, a repeated one whose cell overlaps its twin, and
    # a length with none: that row prints empty
    g = ARQuiver(((3, 1), (1, 3), (2, 1), (1, 1), (2, 1)), (), {})
    for high in ((), ((1, 3),)):
        spec = RenderSpec(highlight=high)
        out = render(g, spec)
        assert out == render_ascii_oracle(g, spec)
        assert out.splitlines()[1] == ""
