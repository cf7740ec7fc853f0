"""The README's quick tour runs as printed, with the values its comments
show."""

from pathlib import Path

from nakayama import parse_series

README = Path(__file__).resolve().parent.parent / "README.md"

# expression -> the value that its comment in the tour prints
PRINTED = {
    "check_nct(B, 2).ok": False,
    "check_nct(g.result, 2).ok": True,
    "format_series(K)": "2^3,3^5,5^8,4,3,2,1",
    "cert.kupisch.entries": (2,) * 5 + (3,) * 5 + (2,) * 6 + (1,),
}


def test_readme_quick_tour():
    tour = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(tour, ns)
    assert ns["g"].result == parse_series("5,5,4^7,3,2,1")
    assert ns["cert"].gldim == 14 and ns["cert"].verdict.ok
    seen = set()
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        if code.strip() in PRINTED:
            value = PRINTED[code.strip()]
            assert eval(code, ns) == value, code
            assert comment.strip().startswith(repr(value)), line
            seen.add(code.strip())
    assert seen == set(PRINTED)
