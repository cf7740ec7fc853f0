import json
import random
import re
import tracemalloc

import pytest

from nakayama.ar import ar_quiver
from nakayama.cluster import check_nct
from nakayama.kupisch import KupischSeries, lambda_mh
from nakayama.render import RenderSpec, render

from oracles import all_series, random_series, render_ascii_oracle, \
    render_oracle


def test_single_vertex():
    out = render(KupischSeries([1]), RenderSpec(format="ascii"))
    assert out.strip() == "(1,1)"


def test_ascii_highlight_counts():
    K = lambda_mh(9, 4)
    cand = check_nct(K, 2).candidate
    out = render(K, RenderSpec(format="ascii", highlight=cand))
    assert out.count("(") - out.count("[(") == 30 - len(cand)
    assert out.count("[(") == len(cand)


def test_deterministic():
    K = lambda_mh(9, 4)
    for fmt in ("ascii", "dot", "tikz", "json"):
        spec = RenderSpec(format=fmt, highlight=((1, 1), (2, 4)))
        assert render(K, spec) == render(lambda_mh(9, 4), spec)


def test_dot_round_trip():
    K = lambda_mh(9, 4)
    g = ar_quiver(K)
    out = render(K, RenderSpec(format="dot"))
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
    data = json.loads(render(lambda_mh(3, 2), RenderSpec(
        format="json", highlight=((1, 1),))))
    assert data["highlight"] == [[1, 1]]
    assert len(data["vertices"]) == 5


def test_labels_modes():
    K = lambda_mh(3, 2)
    dims = render(K, RenderSpec(format="ascii", labels="dims"))
    assert "(1,1)" not in dims and "2" in dims
    bare = render(K, RenderSpec(format="ascii", labels="none"))
    assert bare.count("*") == 5


def test_highlight_outside_quiver():
    # a highlight that names no module, or is no pair of integers, is
    # refused under one message, before the format is read
    K = lambda_mh(3, 2)
    for bad in ((9, 9), None, (1,), "ab", (1, 1, 1)):
        for fmt in ("ascii", "svg"):
            with pytest.raises(ValueError) as exc:
                render(K, RenderSpec(format=fmt, highlight=((1, 1), bad)))
            assert str(exc.value) == \
                f"highlighted vertices not in the quiver: {[bad]}"


def test_unknown_format_refused():
    with pytest.raises(ValueError, match="unknown format 'svg'"):
        render(lambda_mh(3, 2), RenderSpec(format="svg"))


def test_unknown_labels_refused():
    # a mode that is none of coords, dims and none is refused, not drawn
    # as "none"
    for fmt in ("ascii", "dot", "tikz", "json"):
        with pytest.raises(ValueError, match="unknown labels 'Dims'"):
            render(lambda_mh(3, 2), RenderSpec(format=fmt, labels="Dims"))


def test_no_highlight_iterates_the_vertices_once(monkeypatch):
    # render builds no quiver and lists no module: each format reads the
    # rows of the series at most once, and never ar_quiver or all_modules
    def refuse(*args):
        raise AssertionError("render built the quiver or its vertex list")

    reads = []
    rows = KupischSeries._rows
    monkeypatch.setattr("nakayama.ar.ar_quiver", refuse)
    monkeypatch.setattr(KupischSeries, "all_modules", refuse)
    monkeypatch.setattr(KupischSeries, "_rows",
                        lambda K: reads.append(1) or rows(K))
    K = lambda_mh(4, 2)
    for fmt in ("ascii", "dot", "tikz", "json"):
        for high in ((), ((1, 1), (3, 2))):
            reads.clear()
            render(K, RenderSpec(format=fmt, highlight=high))
            assert len(reads) == (fmt != "tikz"), fmt


def test_tikz_smoke():
    out = render(lambda_mh(4, 2), RenderSpec(format="tikz"))
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
                    assert render(K, spec) == render_ascii_oracle(g, spec)
                    compared += 1
    assert compared == 65 * 9


def test_render_matches_the_quiver_renderers():
    # the series path gives the bytes of the ARQuiver emitters it replaced,
    # in every format and label mode, with and without a seeded highlight:
    # every series with m <= 6 and 30 seeded series up to m = 80
    rng = random.Random(30)
    series = [K for m in range(1, 7) for K in all_series(m)]
    series += [random_series(rng, 80) for _ in range(30)]
    compared = 0
    for K in series:
        g = ar_quiver(K)
        high = tuple(rng.sample(g.vertices, (len(g.vertices) + 7) // 8))
        for fmt in ("ascii", "dot", "tikz", "json"):
            for labels in ("coords", "dims", "none"):
                for spec in (RenderSpec(fmt, (), labels),
                             RenderSpec(fmt, high, labels)):
                    assert render(K, spec) == render_oracle(g, spec), \
                        (K, spec)
                    compared += 1
    assert compared == (65 + 30) * 24


@pytest.mark.parametrize("fmt", ["ascii", "dot", "tikz", "json"])
def test_render_peak_memory_is_a_small_multiple_of_the_output(fmt):
    # no quiver and no list of one string per line: the traced peak stays
    # within 6 times the output (a built quiver took 7.4 to 72 times).
    # The output spans many batches of the join, and keeps its bytes
    K = lambda_mh(400, 40)
    spec = RenderSpec(format=fmt, highlight=((1, 1), (361, 40)))
    render(K, spec)  # the first json render imports json
    tracemalloc.start()
    try:
        out = render(K, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * len(out), (peak, len(out))
    same = out == render_oracle(ar_quiver(K), spec)  # no diff of 2 MB
    assert same
