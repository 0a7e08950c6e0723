"""Command-line front end: exact counts, series, and the verification drivers.

All output is exact (integers, fractions, Laurent text); JSON is emitted
with sorted keys so identical requests give identical bytes, except for the
timing field, which --deterministic suppresses.  Exit codes: 0 success or
identity verified, 1 identity violated, 2 input error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time

from .arcs import (ArcConstraint, ArcError, BudgetExceeded, CountPlan, PolySystem,
                   check_padic, igusa_coeffs)
from .castling import (BFunction, CastlingDatum, castle_bfunction, castle_igusa,
                       castle_local_zeta, castle_milnor, castle_spectrum,
                       castle_zeta, check_pair, verify_castling)
from .fixtures import CASTLING_FIXTURES, castling_fixture
from .motive import parse_laurent, RationalMotive
from .polynomials import parse_poly, parse_system
from .resolution import (ResolutionDatum, hsp_of_f, milnor_fiber,
                         zeta_from_resolution)
from .series import RationalSeries
from .spectrum import parse_spectrum

# every arczeta input error and json.JSONDecodeError is a ValueError;
# BudgetExceeded is not, and exits 3 before these are caught
_INPUT_ERRORS = (KeyError, OSError, ValueError)

DEFAULT_BUDGET = 10 ** 9


def _emit(payload, args, t0):
    if not args.deterministic:
        payload = dict(payload)
        payload["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in _plain_lines(payload, ""):
            print(line)


def _plain_lines(value, prefix):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _plain_lines(value[k], prefix + str(k) + ".")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _plain_lines(v, prefix + "%d." % i)
    else:
        yield "%s %s" % (prefix.rstrip("."), value)


def _system(args):
    if args.poly and args.polys:
        raise ArcError("give --poly or --polys, not both")
    if not (args.poly or args.polys):
        raise ArcError("need --poly or --polys")
    texts = [args.poly] if args.poly else [p.strip() for p in args.polys.split(";")]
    return PolySystem(parse_system(texts))


def _leading(args, sys_):
    """--leading, by default 'one' for one polynomial and 'any' for a system."""
    return args.leading or ("one" if sys_.l == 1 else "any")


def _multi_index(text):
    return tuple(int(x) for x in text.split(","))


def _series_input(args, nvars):
    if args.series and args.datum:
        raise ArcError("give --series or --datum, not both")
    if args.series:
        return RationalSeries.parse(args.series, nvars)
    if args.datum:
        return zeta_from_resolution(ResolutionDatum.load(args.datum))
    raise ArcError("need --series or --datum")


# -- subcommand bodies -------------------------------------------------------


def _cmd_count(args, t0):
    sys_ = _system(args)
    n = _multi_index(args.n)
    plan = CountPlan(sys_, args.q, ArcConstraint.parse(args.constraint), [n],
                     min_order=1, budget=args.budget)
    chosen = plan.count(n, _leading(args, sys_), args.threads)
    one, all_ = plan.counts()[n]
    _emit({
        "q": args.q,
        "n": list(n),
        "count_leading_one": one if sys_.l == 1 else None,
        "count_all": all_,
        "coeff": "%d/%d" % (chosen, args.q ** (sum(n) * sys_.r)),
    }, args, t0)
    return 0


def _cmd_zeta_count(args, t0):
    sys_ = _system(args)
    plan = CountPlan(sys_, args.q, ArcConstraint.parse(args.constraint),
                     args.order, min_order=1, budget=args.budget)
    leading = _leading(args, sys_)
    series = plan.series(leading, args.threads)
    _emit({
        "q": args.q,
        "order": args.order,
        "leading": leading,
        "coefficients": {",".join(map(str, n)): str(c)
                         for n, c in sorted(series.coeffs.items())},
    }, args, t0)
    return 0


def _cmd_zeta_resolution(args, t0):
    if args.q is not None and args.expand is None:
        raise ArcError("--q specializes an expansion: give --expand with it")
    datum = ResolutionDatum.load(args.datum)
    series = zeta_from_resolution(datum)
    payload = {"series": str(series), "valid_q": datum.valid_q}
    if args.expand is not None:
        expansion = series.expand(args.expand)
        if args.q is not None:
            expansion = expansion.specialize(args.q)
        payload["expansion"] = {
            ",".join(map(str, n)): str(c)
            for n, c in sorted(expansion.coeffs.items())}
        payload["expansion_order"] = args.expand
    _emit(payload, args, t0)
    return 0


def _cmd_milnor(args, t0):
    datum = ResolutionDatum.load(args.datum)
    counting, spectrum = milnor_fiber(datum)
    _emit({
        "counting": str(counting),
        "spectrum": str(spectrum) if spectrum is not None else None,
        "valid_q": datum.valid_q,
    }, args, t0)
    return 0


def _cmd_hsp(args, t0):
    datum = ResolutionDatum.load(args.datum)
    _emit({
        "hsp": str(hsp_of_f(datum, args.dim)),
        "dim": args.dim,
        "valid_q": datum.valid_q,
    }, args, t0)
    return 0


def _cmd_castle_series(args, t0):
    c = CastlingDatum.load(args.castling)
    Z = _series_input(args, c.l)
    out = args.transfer(Z, c)
    _emit({"input": str(Z), "output": str(out)}, args, t0)
    return 0


def _cmd_castle_milnor(args, t0):
    c = CastlingDatum.load(args.castling)
    value = RationalMotive(parse_laurent(args.value))
    if args.spectrum:
        counting, out_spec = castle_milnor((value, parse_spectrum(args.spectrum)), c)
    else:
        counting, out_spec = castle_milnor(value, c), None
    _emit({
        "counting": str(counting),
        "spectrum": str(out_spec) if out_spec is not None else None,
    }, args, t0)
    return 0


def _cmd_castle_spectrum(args, t0):
    c = CastlingDatum.load(args.castling)
    _emit({"spectrum": str(castle_spectrum(parse_spectrum(args.spectrum), c))},
          args, t0)
    return 0


def _cmd_castle_bfun(args, t0):
    c = CastlingDatum.load(args.castling)
    out = castle_bfunction(BFunction.from_roots(args.roots.split(",")), c)
    _emit(out.to_json(), args, t0)
    return 0


def _cmd_castle_igusa(args, t0):
    c = CastlingDatum.load(args.castling)
    texts = [args.poly] + ([args.partner] if args.partner else [])
    polys = [parse_poly(text, c.m * r) for text, r in zip(texts, (c.r1, c.r2))]
    for f in polys:  # igusa_coeffs lifts to order + 1; its limits, then the pair
        check_padic(f, args.p, args.order + 1)
    check_pair(c, *([f] for f in polys), transfer="p-adic")
    series = castle_igusa(igusa_coeffs(polys[0], args.p, args.order), args.p, c)
    payload = {
        "p": args.p,
        "order": args.order,
        "coefficients": {str(n[0]): str(v)
                         for n, v in sorted(series.coeffs.items())},
    }
    if args.partner:
        payload["partner_matches"] = series == igusa_coeffs(polys[1], args.p, args.order)
    _emit(payload, args, t0)
    return 0 if payload.get("partner_matches", True) else 1


def _cmd_verify(args, t0):
    given = (args.castling, args.polys1, args.polys2)
    if args.fixture and any(given) or not args.fixture and not all(given):
        raise ArcError("need --fixture alone, or --castling with --polys1/--polys2")
    if args.fixture:
        polys1, polys2, c = castling_fixture(args.fixture)
    else:
        c = CastlingDatum.load(args.castling)
        polys1 = parse_system([p.strip() for p in args.polys1.split(";")],
                              c.m * c.r1)
        polys2 = parse_system([p.strip() for p in args.polys2.split(";")],
                              c.m * c.r2)
    report = verify_castling(PolySystem(polys1), PolySystem(polys2), c, args.q,
                             args.order, args.threads, args.budget)
    _emit(report, args, t0)
    return 0 if report["all_equal"] else 1


# -- argument wiring ---------------------------------------------------------


def _add_common(p):
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timing field for byte-identical output")


def _add_system(p):
    p.add_argument("--poly")
    p.add_argument("--polys", help="semicolon-separated for several invariants")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--leading", choices=("one", "any"),
                   help="leading coefficients 1, or any nonzero (default: one "
                        "for one polynomial, any for a system)")
    p.add_argument("--constraint", default="none",
                   help="none | origin | full-rank:m,r")


def _add_counting(p):
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="refuse requests whose estimated enumeration exceeds this")


def build_parser():
    top = argparse.ArgumentParser(
        prog="arczeta",
        description="Exact zeta-series counts, resolutions and castling transfers.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="count arcs with prescribed orders")
    _add_system(p)
    p.add_argument("--n", required=True, help="order multi-index, e.g. 3 or 1,2")
    _add_counting(p)
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("zeta-count", help="zeta coefficients from counts")
    _add_system(p)
    p.add_argument("--order", type=int, required=True)
    _add_counting(p)
    _add_common(p)
    p.set_defaults(func=_cmd_zeta_count)

    p = sub.add_parser("zeta-resolution", help="zeta series from resolution data")
    p.add_argument("--datum", required=True)
    p.add_argument("--expand", type=int)
    p.add_argument("--q", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_zeta_resolution)

    p = sub.add_parser("milnor", help="virtual Milnor fiber from resolution data")
    p.add_argument("--datum", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_milnor)

    p = sub.add_parser("hsp", help="Hodge spectrum from resolution data")
    p.add_argument("--datum", required=True)
    p.add_argument("--dim", type=int, required=True,
                   help="ambient dimension (fixes the sign)")
    _add_common(p)
    p.set_defaults(func=_cmd_hsp)

    for name, transfer in (("castle-zeta", castle_zeta),
                           ("castle-local", castle_local_zeta)):
        p = sub.add_parser(name, help="transfer a zeta series to the partner")
        p.add_argument("--castling", required=True)
        p.add_argument("--series",
                       help="series in the text form these commands print")
        p.add_argument("--datum", help="resolution datum to build the series")
        _add_common(p)
        p.set_defaults(func=_cmd_castle_series, transfer=transfer)

    p = sub.add_parser("castle-milnor", help="transfer a Milnor fiber class")
    p.add_argument("--castling", required=True)
    p.add_argument("--value", required=True, help="Laurent text, e.g. 'L + 1'")
    p.add_argument("--spectrum", help="optional spectrum channel")
    _add_common(p)
    p.set_defaults(func=_cmd_castle_milnor)

    p = sub.add_parser("castle-spectrum", help="transfer a Hodge spectrum")
    p.add_argument("--castling", required=True)
    p.add_argument("--spectrum", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_castle_spectrum)

    p = sub.add_parser("castle-bfun", help="transfer b-function roots")
    p.add_argument("--castling", required=True)
    p.add_argument("--roots", required=True, help="comma-separated rationals")
    _add_common(p)
    p.set_defaults(func=_cmd_castle_bfun)

    p = sub.add_parser("castle-igusa", help="transfer a p-adic zeta series")
    p.add_argument("--castling", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--partner", help="partner polynomial to compare against")
    _add_common(p)
    p.set_defaults(func=_cmd_castle_igusa)

    p = sub.add_parser("verify", help="count both castling partners and compare")
    p.add_argument("--fixture", choices=CASTLING_FIXTURES)
    p.add_argument("--castling")
    p.add_argument("--polys1")
    p.add_argument("--polys2")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_counting(p)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None):
    t0 = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact numbers are printed whatever their length; callers keep their limit
    limit = _sys.get_int_max_str_digits()
    _sys.set_int_max_str_digits(0)
    try:
        return args.func(args, t0)
    except BudgetExceeded as exc:
        print("refused: %s" % exc, file=_sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=_sys.stderr)
        return 2
    finally:
        _sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
