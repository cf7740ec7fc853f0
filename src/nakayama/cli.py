"""Command-line front end.

Exit codes: 0 for a passing check, 1 for a failing check, 2 for usage
or input errors.  Kupisch series are written in run-length syntax, e.g.
``2^6,3^13,2^3,1``.  For ``validate``, ``ar-quiver`` and
``check-nct``, ``--kupisch -`` reads one series per line from stdin in
batch mode, where a line that is not a series, or whose ``ar-quiver``
lacks a ``--highlight`` vertex, gets an error record and the batch goes
on; the other commands refuse ``-`` by name.  ``--json`` switches to
machine-readable output.
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
from .kupisch import KupischError, KupischSeries, coord_from_json, \
    format_series, parse_series
from .ndgen import construct, supported
from .render import RenderSpec, render
from .tilting import Fracture, Fracturing, is_fracture


#: The most fractures `fractures --height` lists.  There are Catalan(h)
#: fractures of height h, so a larger h is refused before any is built.
MAX_FRACTURES = 10**5


class CliError(Exception):
    pass


def _series_arg(text: str) -> KupischSeries:
    text = text.strip()
    try:
        if text.startswith("{"):
            return KupischSeries.from_json(json.loads(text))
        return parse_series(text)
    except (ValueError, KeyError) as exc:
        raise CliError(f"bad Kupisch series {text!r}: {exc}") from exc


def _one_series(text: str, option: str = "--kupisch") -> KupischSeries:
    """The series of a command that takes one: `-` is refused by name."""
    if text.strip() == "-":
        raise CliError(f"{option} - reads a batch from stdin only for "
                       f"validate, ar-quiver and check-nct")
    return _series_arg(text)


def _series_inputs(arg: str):
    if arg == "-":
        for line in sys.stdin:
            line = line.strip()
            if line:
                yield line
    else:
        yield arg


def _json_arg(option: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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


def _verdict_line(K: KupischSeries, n: int, verdict) -> str:
    """The text line of a check: the first failure record only."""
    return f"{format_series(K)} n={n}: " + ("ok" if verdict.ok else
        f"not ok ({next(verdict.stream())['detail']})")


def cmd_validate(args) -> int:
    worst = 0
    for text in _series_inputs(args.kupisch):
        try:
            K = _series_arg(text)
        except CliError as exc:
            if isinstance(exc.__cause__, KupischError):
                _emit({"ok": False, "violation": exc.__cause__.violation},
                      args.json, f"invalid: {exc.__cause__.violation}")
            else:  # one bad line of a batch does not end the batch
                _emit_error(exc, args.json)
            worst = 2
            continue
        _emit({"ok": True, "kupisch": list(K.entries)},
              args.json, f"valid: {format_series(K)} (m = {K.m})")
    return worst


def cmd_ar_quiver(args) -> int:
    highlight = (_coords_from_json(_json_arg("--highlight", args.highlight))
                 if args.highlight else ())
    spec = RenderSpec(format="json" if args.json else args.format,
                      highlight=tuple(highlight), labels=args.labels)
    worst = 0
    for text in _series_inputs(args.kupisch):
        try:
            K = _series_arg(text)
            out = render(ar.ar_quiver(K), spec)
        except (CliError, ValueError) as exc:  # the batch goes on
            _emit_error(exc, args.json)
            worst = 2
            continue
        sys.stdout.write(out + ("\n" if args.json else ""))
    return worst


def cmd_check_nct(args) -> int:
    worst = 0
    for text in _series_inputs(args.kupisch):
        try:
            K = _series_arg(text)
        except CliError as exc:  # one bad line does not end the batch
            _emit_error(exc, args.json)
            worst = 2
            continue
        verdict = check_nct(K, args.n)
        if args.json:  # only --json reads every failure record
            _emit({**verdict.to_json(), "kupisch": list(K.entries),
                   "n": args.n}, True)
        else:
            print(_verdict_line(K, args.n, verdict))
        worst = max(worst, 0 if verdict.ok else 1)
    return worst


def cmd_check_fractured(args) -> int:
    K = _one_series(args.kupisch)
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
    if args.json:
        payload = verdict.to_json()
        payload["fracturing"] = F.to_json()
        if verdict.ok:
            payload["sides"] = classify_sides(F, verdict)
        _emit(payload, True)
    else:
        print(_verdict_line(K, args.n, verdict))
    return 0 if verdict.ok else 1


def cmd_glue(args) -> int:
    B = _one_series(args.b, "--b")
    A = _one_series(args.a, "--a")
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
        sys.stdout.write(render(ar.ar_quiver(cert.kupisch), spec))
        if args.json:
            sys.stdout.write("\n")
    else:
        _emit(cert.to_json(), args.json,
              f"({args.n},{args.d}): {format_series(cert.kupisch)} "
              f"gldim={cert.gldim} ok={cert.verdict.ok}")
    return 0


def cmd_complete_slice(args) -> int:
    try:
        indices = [int(t) for t in args.slice.split(",")]
    except ValueError as exc:
        raise CliError(f"bad --slice {args.slice!r}: expected integers "
                       "i_1,...,i_h") from exc
    coords = tilting.slice_from_indices(indices)
    K, F, verdict, trace = complete_slice(args.h, coords, args.n, args.side)
    payload = {
        "kupisch": list(K.entries),
        "fracturing": F.to_json(),
        "verdict": verdict.to_json(),
        "sides": classify_sides(F, verdict),
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
    K = _one_series(args.kupisch)
    payload = {
        "kupisch": list(K.entries),
        "left_heights": sorted(abutments.left_abutment_heights(K)),
        "right_heights": sorted(abutments.right_abutment_heights(K)),
        "abutments": [abutments.abutment_to_json(side, h, K)
                      for side, heights in
                      (("left", abutments.left_abutment_heights(K)),
                       ("right", abutments.right_abutment_heights(K)))
                      for h in sorted(heights)],
    }
    lines = [f"left heights:  {payload['left_heights']}",
             f"right heights: {payload['right_heights']}"]
    if args.side is not None:
        fnd = abutments.foundation(K, args.side, args.height)
        h = args.height
        if math.comb(2 * h, h) // (h + 1) > MAX_FRACTURES:
            raise CliError(f"--height {h} has Catalan({h}) fractures, more "
                           f"than MAX_FRACTURES = {MAX_FRACTURES}")
        fractures = []
        # enumerate_tilting yields tilting modules only: no re-validation
        for cand in tilting.enumerate_tilting(args.height):
            back = sorted(abutments.footing_from_ka(K, args.side,
                                                    args.height, c)
                          for c in cand)
            fractures.append(tilting._fracture(K, args.side, args.height,
                                               back).to_json())
        payload["foundation"] = [list(x) for x in fnd]
        payload["fractures"] = fractures
        lines.append(f"foundation:    {fnd}")
        lines.append(f"{len(fractures)} fractures of height {args.height}")
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

    def series_opt(sp, batch):
        sp.add_argument("--kupisch", required=True,
                        help="series like 2,3,3,1 or 2^6,3^13,1"
                             + ("; - for stdin" if batch else ""))
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")

    sp = sub.add_parser("validate", help="validate a Kupisch series")
    series_opt(sp, batch=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("ar-quiver", help="render the AR quiver")
    series_opt(sp, batch=True)
    sp.add_argument("--format", default="ascii",
                    choices=["ascii", "dot", "tikz", "json"])
    sp.add_argument("--labels", default="coords",
                    choices=["coords", "dims", "none"])
    sp.add_argument("--highlight", help="JSON list of [i,j] to encircle")
    sp.set_defaults(func=cmd_ar_quiver)

    sp = sub.add_parser("check-nct", help="n-cluster-tilting check")
    series_opt(sp, batch=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_check_nct)

    sp = sub.add_parser("check-fractured", help="fractured subcategory check")
    series_opt(sp, batch=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--fracturing",
                    help='JSON {"TL": {...}, "TR": {...}}; defaults to the '
                         "projective/injective fracturing")
    sp.add_argument("--candidate",
                    help="JSON list of [i,j]: re-verify this candidate "
                         "instead of generating one")
    sp.set_defaults(func=cmd_check_fractured)

    sp = sub.add_parser("glue", help="glue two series along an abutment")
    sp.add_argument("--b", required=True, help="series providing the right abutment")
    sp.add_argument("--a", required=True, help="series providing the left abutment")
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="also verify the gluing invariants")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_glue)

    sp = sub.add_parser("construct-nd",
                        help="certified algebra for a supported (n, d)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--emit", default="certificate",
                    choices=["quiver", "kupisch", "certificate"])
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_construct_nd)

    sp = sub.add_parser("complete-slice",
                        help="complete a slice into a one-sided "
                             "cluster-tilting algebra")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--slice", required=True,
                    help="index sequence i_1,...,i_h, e.g. 2,2,1,1,1")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--side", required=True, choices=["left", "right"])
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_complete_slice)

    sp = sub.add_parser("fractures",
                        help="list abutment heights and enumerate fractures")
    series_opt(sp, batch=False)
    sp.add_argument("--side", choices=["left", "right"])
    sp.add_argument("--height", type=int)
    sp.set_defaults(func=cmd_fractures)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError) as exc:
        _emit_error(exc, getattr(args, "json", False))
        return 2


if __name__ == "__main__":
    sys.exit(main())
