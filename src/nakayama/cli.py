"""Command-line front end.

Exit codes: 0 for a passing check, 1 for a failing check, 2 for usage
or input errors.  Kupisch series are written in run-length syntax, e.g.
``2^6,3^13,2^3,1``, and every integer is ASCII decimal with an optional
``-``.  ``--json`` switches to machine-readable output.  ``validate``,
``ar-quiver`` and ``check-nct`` run in batch mode on ``--kupisch -``,
one series per non-blank line of stdin: a line that fails with an input
error (no series, or an ``ar-quiver`` that lacks a ``--highlight``
vertex) gets one error record, the batch goes on, and the exit code is
the worst one.  The other commands refuse ``-`` by name.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import abutments, ar, tilting
from .cluster import check_fractured, check_nct, classify_sides, \
    complete_slice
from .gluing import check_glue, glue
from .kupisch import KupischError, KupischSeries, _decimal, \
    coord_from_json, format_series, parse_series
from .ndgen import construct, supported
from .render import RenderSpec, render
from .tilting import Fracture, Fracturing, is_fracture


#: The most fractures `fractures --height` lists.  There are Catalan(h)
#: fractures of height h, so a larger h is refused before any is built.
MAX_FRACTURES = 10**5


class CliError(ValueError):
    pass


def _series_arg(text: str, option: str = "") -> KupischSeries:
    """The series that `text` writes.  The value of an `option` may not be
    `-`; a batch line passes no option."""
    text = text.strip()
    if option and text == "-":
        raise CliError(f"{option} - reads a batch from stdin only for "
                       f"validate, ar-quiver and check-nct")
    try:
        if text.startswith("{"):
            return KupischSeries.from_json(json.loads(text))
        return parse_series(text)
    except (ValueError, RecursionError) as exc:  # JSON nested too deep
        raise CliError(f"bad Kupisch series {text!r}: {exc}") from exc


def _batch(args, job) -> int:
    """Run `job` on the text of --kupisch or, for `-`, on each non-blank
    line of stdin.  A line whose job raises ValueError gets one error
    record and the batch goes on; returns the worst exit code."""
    texts = ((t for t in map(str.strip, sys.stdin) if t)
             if args.kupisch == "-" else (args.kupisch,))
    worst = 0
    for text in texts:
        try:
            worst = max(worst, job(text))
        except ValueError as exc:
            _emit_error(exc, args.json)
            worst = 2
    return worst


def _json_arg(option: str, text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"bad {option} {text!r}: {exc}") from exc


def _coords_from_json(data):
    if not isinstance(data, list):
        raise CliError(f"bad coordinate list {data!r}: expected [[i, j], ...]")
    return [coord_from_json(c) for c in data]


def _fracture_from_json(K: KupischSeries, data) -> Fracture:
    if not (isinstance(data, dict) and "side" in data and "coords" in data
            and type(data.get("height")) is int):
        raise CliError(f"bad fracture {data!r}: expected "
                       '{"side": ..., "height": <int>, "coords": ...}')
    coords = _coords_from_json(data["coords"])
    return is_fracture(K, data["side"], data["height"], coords)


def _emit(payload: dict, as_json: bool, text: str = ""):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def _emit_error(exc: Exception, as_json: bool):
    """The error record of an input: on stdout with --json, else on stderr."""
    if as_json:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)


def _emit_verdict(args, K: KupischSeries, verdict, **extra) -> int:
    """A check's verdict and exit code.  Only the --json record, with the
    `extra` keys, reads every failure; the text line takes the first."""
    if args.json:
        _emit({**verdict.to_json(), **extra}, True)
    else:
        print(f"{format_series(K)} n={args.n}: " + ("ok" if verdict.ok else
              f"not ok ({next(verdict.stream())['detail']})"))
    return 0 if verdict.ok else 1


def cmd_validate(args) -> int:
    def job(text):
        try:
            K = _series_arg(text)
        except CliError as exc:
            if not isinstance(exc.__cause__, KupischError):
                raise
            violation = exc.__cause__.violation
            _emit({"ok": False, "violation": violation}, args.json,
                  f"invalid: {violation}")
            return 2
        _emit({"ok": True, "kupisch": list(K.entries)},
              args.json, f"valid: {format_series(K)} (m = {K.m})")
        return 0
    return _batch(args, job)


def cmd_ar_quiver(args) -> int:
    highlight = (_coords_from_json(_json_arg("--highlight", args.highlight))
                 if args.highlight else ())
    spec = RenderSpec(format="json" if args.json else args.format,
                      highlight=tuple(highlight), labels=args.labels)

    def job(text):
        sys.stdout.write(render(_series_arg(text), spec)
                         + ("\n" if args.json else ""))
        return 0
    return _batch(args, job)


def cmd_check_nct(args) -> int:
    ar._check_order(args.n)  # before a line of stdin is read

    def job(text):
        K = _series_arg(text)
        return _emit_verdict(args, K, check_nct(K, args.n),
                             kupisch=list(K.entries), n=args.n)
    return _batch(args, job)


def cmd_check_fractured(args) -> int:
    K = _series_arg(args.kupisch, "--kupisch")
    if args.fracturing:
        data = _json_arg("--fracturing", args.fracturing)
        if not isinstance(data, dict):
            raise CliError(f"bad fracturing {data!r}: expected "
                           '{"TL": ..., "TR": ...}')
        F = Fracturing(_fracture_from_json(K, data.get("TL")),
                       _fracture_from_json(K, data.get("TR")))
    else:
        F = tilting.projective_injective_fracturing(K)
    candidate = (_coords_from_json(_json_arg("--candidate", args.candidate))
                 if args.candidate else None)
    verdict = check_fractured(K, args.n, F, candidate=candidate)
    sides = ({"sides": classify_sides(K, F, verdict)}
             if args.json and verdict.ok else {})
    return _emit_verdict(args, K, verdict, fracturing=F.to_json(), **sides)


def cmd_glue(args) -> int:
    B = _series_arg(args.b, "--b")
    A = _series_arg(args.a, "--a")
    g = glue(B, A, args.height)
    ok, checks, text = True, {}, format_series(g.result)
    if args.check:
        inv, dis = check_glue(g)
        ok = inv.ok and dis.ok
        checks = {"invariants_ok": inv.ok, "dispatch_ok": dis.ok}
        if not ok:
            text = f"glue failed: {inv.failure or dis.failure}"
    # the phi/psi tables cover every module: built for --json only
    _emit(dict(g.to_json(), **checks) if args.json else {}, args.json, text)
    return 0 if ok else 1


def cmd_construct_nd(args) -> int:
    if not supported(args.n, args.d):
        _emit({"supported": False, "n": args.n, "d": args.d},
              args.json, f"pair ({args.n},{args.d}) not supported")
        return 2
    cert = construct(args.n, args.d)
    if args.emit == "kupisch":
        _emit({"kupisch": list(cert.kupisch.entries)}, args.json,
              format_series(cert.kupisch))
    elif args.emit == "quiver":
        spec = RenderSpec(format="json" if args.json else "ascii",
                          highlight=cert.verdict.candidate)
        sys.stdout.write(render(cert.kupisch, spec))
        if args.json:
            sys.stdout.write("\n")
    else:
        _emit(cert.to_json(), args.json,
              f"({args.n},{args.d}): {format_series(cert.kupisch)} "
              f"gldim={cert.gldim} ok={cert.verdict.ok}")
    return 0


def cmd_complete_slice(args) -> int:
    try:
        indices = [_decimal(t) for t in args.slice.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --slice {args.slice!r}: expected integers "
                       "i_1,...,i_h") from exc
    coords = tilting.slice_from_indices(indices)
    K, F, verdict, trace = complete_slice(args.h, coords, args.n, args.side)
    payload = {
        "kupisch": list(K.entries),
        "fracturing": F.to_json(),
        "verdict": verdict.to_json(),
        "sides": classify_sides(K, F, verdict),
        "trace": [step.to_json() for step in trace],
    }
    _emit(payload, args.json,
          f"{format_series(K)} ({args.side} {args.n}-cluster-tilting)")
    return 0


def cmd_fractures(args) -> int:
    if args.side is not None and args.height is None:
        raise CliError(f"--side {args.side} needs --height")
    if args.height is not None and args.side is None:
        raise CliError(f"--height {args.height} needs --side")
    K = _series_arg(args.kupisch, "--kupisch")
    left = sorted(abutments.left_abutment_heights(K))
    right = sorted(abutments.right_abutment_heights(K))
    payload = {
        "kupisch": list(K.entries),
        "left_heights": left,
        "right_heights": right,
        "abutments": [abutments.abutment_to_json(side, h, K)
                      for side, heights in (("left", left), ("right", right))
                      for h in heights],
    }
    lines = [f"left heights:  {left}", f"right heights: {right}"]
    if args.side is not None:
        h = args.height
        s = abutments._check_abutment(K, args.side, h)  # the footing's shift
        if math.comb(2 * h, h) // (h + 1) > MAX_FRACTURES:
            raise CliError(f"--height {h} has Catalan({h}) fractures, more "
                           f"than MAX_FRACTURES = {MAX_FRACTURES}")
        fnd = abutments.foundation(K, args.side, h)
        fractures = []
        # enumerate_tilting yields tilting modules only: no re-validation
        for cand in tilting.enumerate_tilting(h):
            back = tuple(sorted((i + s, j) for i, j in cand))
            fractures.append(Fracture(args.side, h, back).to_json())
        payload["foundation"] = [list(x) for x in fnd]
        payload["fractures"] = fractures
        lines.append(f"foundation:    {fnd}")
        lines.append(f"{len(fractures)} fractures of height {h}")
        for fr in fractures:
            lines.append(f"  level {fr['level']}: {fr['coords']}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nakayama",
        description="Representation theory of acyclic Nakayama algebras: "
                    "AR quivers, gluing, fractures and n-cluster-tilting.")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")

    def command(name, func, summary, batch=None):
        """A subcommand; `batch` (True or False) adds --kupisch."""
        sp = sub.add_parser(name, parents=[common], help=summary)
        sp.set_defaults(func=func)
        if batch is not None:
            sp.add_argument("--kupisch", required=True,
                            help="series like 2,3,3,1 or 2^6,3^13,1"
                                 + ("; - for stdin" if batch else ""))
        return sp

    command("validate", cmd_validate, "validate a Kupisch series", batch=True)

    sp = command("ar-quiver", cmd_ar_quiver, "render the AR quiver",
                 batch=True)
    sp.add_argument("--format", default="ascii",
                    choices=["ascii", "dot", "tikz", "json"])
    sp.add_argument("--labels", default="coords",
                    choices=["coords", "dims", "none"])
    sp.add_argument("--highlight", help="JSON list of [i,j] to encircle")

    sp = command("check-nct", cmd_check_nct, "n-cluster-tilting check",
                 batch=True)
    sp.add_argument("--n", type=_decimal, required=True)

    sp = command("check-fractured", cmd_check_fractured,
                 "fractured subcategory check", batch=False)
    sp.add_argument("--n", type=_decimal, required=True)
    sp.add_argument("--fracturing",
                    help='JSON {"TL": {...}, "TR": {...}}; defaults to the '
                         "projective/injective fracturing")
    sp.add_argument("--candidate",
                    help="JSON list of [i,j]: re-verify this candidate "
                         "instead of generating one")

    sp = command("glue", cmd_glue, "glue two series along an abutment")
    sp.add_argument("--b", required=True, help="series providing the right abutment")
    sp.add_argument("--a", required=True, help="series providing the left abutment")
    sp.add_argument("--height", type=_decimal, required=True)
    sp.add_argument("--check", action="store_true",
                    help="also verify the gluing invariants")

    sp = command("construct-nd", cmd_construct_nd,
                 "certified algebra for a supported (n, d)")
    sp.add_argument("--n", type=_decimal, required=True)
    sp.add_argument("--d", type=_decimal, required=True)
    sp.add_argument("--emit", default="certificate",
                    choices=["quiver", "kupisch", "certificate"])

    sp = command("complete-slice", cmd_complete_slice,
                 "complete a slice into a one-sided cluster-tilting algebra")
    sp.add_argument("--h", type=_decimal, required=True)
    sp.add_argument("--slice", required=True,
                    help="index sequence i_1,...,i_h, e.g. 2,2,1,1,1")
    sp.add_argument("--n", type=_decimal, required=True)
    sp.add_argument("--side", required=True, choices=["left", "right"])

    sp = command("fractures", cmd_fractures,
                 "list abutment heights and enumerate fractures", batch=False)
    sp.add_argument("--side", choices=["left", "right"])
    sp.add_argument("--height", type=_decimal)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        _emit_error(exc, args.json)
        return 2


if __name__ == "__main__":
    sys.exit(main())
