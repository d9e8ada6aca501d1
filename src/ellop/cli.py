"""Command line surface.

Symbolic subcommands emit deterministic JSON or CSV; numeric subcommands
print at 15 significant digits.  Exit codes: 0 success, 1 verification
mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .rationals import Rat
from .poly import MultiPoly
from .elliptic import EllipticElement
from .operators import (
    GlobalEllipticOperator,
    IndexData,
    VerificationError,
    _rational_roots,
    cyclic_L0,
    find_commuting,
    homogeneous_integrable,
    indicial_coefficients,
    third_order_from_gaps,
)
from .locus3 import (
    _CURVES,
    _j_text,
    constraints_for,
    reconstruct_in_q,
    scan_grid,
    solved_branch,
    valid_r,
)
from .lattice import make_lattice
from .oracle import LOOP_TOL, PathError, _pair, _sig15, elliptic_evaluator, monodromy_matrix
from .cm import (
    CMConfig2,
    CMConfig3,
    Cryst3Config,
    cm3_residuals,
    cryst3_grad_H,
    cryst3_residuals,
    finite_gap_residuals,
    inozemtsev_gradient,
    newton_critical,
    pinned_cm3_system,
)
from . import acceptance


def _max_abs(values) -> float:
    """Largest magnitude, to 15 digits; 0.0 for no values."""
    return _sig15(max((abs(v) for v in values), default=0.0))


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"not a finite complex number: {text!r}")
    return z


def _parse_clist(text: str):
    return [_parse_complex(t) for t in text.split(";") if t.strip()]


def _parse_ilist(text: str):
    return [int(t) for t in text.split(",") if t.strip()]


#: the keys each kind of operator spec reads
_OPERATOR_KEYS = {"second": {"a"}, "third": {"q", "r", "c", "e"},
                  "cyclic": {"n", "indices", "curve"}}


def _parse_operator(spec: str):
    """Operator mini-language -> (GlobalEllipticOperator, numeric values).

    second:a=-2            order 2, d^2 + a*P
    third:q=2,r=2,c=-3,e=3 the third order gap family at numeric (c, e)
    cyclic:n=4,indices=-1|1|2|4,curve=lemniscatic

    A value that is not an exact rational is taken as a complex number.  A
    key that the kind does not read (_OPERATOR_KEYS) is an error.
    """
    try:
        kind, _, body = spec.partition(":")
        kv = {}
        for chunk in body.split(","):
            if not chunk:
                continue
            k, _, v = chunk.partition("=")
            k = k.strip()
            if kind in _OPERATOR_KEYS and k not in _OPERATOR_KEYS[kind]:
                raise ValueError(f"unknown key {k!r}")
            kv[k] = v.strip()
        if kind == "second":
            try:
                a, vals = _rat_arg(kv["a"]), {}
            except argparse.ArgumentTypeError:
                a, vals = MultiPoly.var("a"), {"a": _parse_complex(kv["a"])}
            return GlobalEllipticOperator(2, {2: EllipticElement([0, a])}), vals
        if kind == "third":
            q, r = int(kv["q"]), int(kv["r"])
            op = third_order_from_gaps(q, r)
            vals = {}
            subs = {}
            for name in ("c", "e"):
                text = kv.get(name, "0")
                try:
                    subs[name] = MultiPoly.const(_rat_arg(text))
                except argparse.ArgumentTypeError:
                    vals[name] = _parse_complex(text)
            if subs:
                op = op.substitute(subs)
            return op, vals
        if kind == "cyclic":
            n = int(kv["n"])
            idx = IndexData(tuple(Rat(int(v)) for v in kv["indices"].split("|")))
            curve = {"generic": "generic", "equianharmonic": "g2=0",
                     "lemniscatic": "g3=0"}[kv.get("curve", "generic")]
            return cyclic_L0(n, idx, curve), {}
    except (KeyError, ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad operator spec {spec!r}: {exc}")
    raise argparse.ArgumentTypeError(f"unknown operator kind in {spec!r}")


def _rat_arg(text: str) -> Rat:
    """An integer or p/q as an exact rational; also an argparse type."""
    try:
        if "/" in text:
            n, d = text.split("/")
            return Rat(int(n), int(d))
        return Rat(int(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


_INDICIAL_MAX_N = 6             # the highest order with a --bN option
_SCAN_MAX = 1000                # the most values of q a locus or jtable run takes


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ellop",
                                description="exact and numeric finite-gap "
                                            "operator engine")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for all randomized paths (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("indicial", help="roots of the indicial polynomial")
    s.add_argument("--n", type=int, required=True)
    for i in range(2, _INDICIAL_MAX_N + 1):
        s.add_argument(f"--b{i}", type=_rat_arg, default=Rat(0))

    s = sub.add_parser("homog-check",
                       help="can these indices carry an integrable "
                            "homogeneous operator?")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--indices", required=True, help="comma-separated integers")

    s = sub.add_parser("constraints", help="integrability conditions for gaps")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--r", type=int, required=True)

    s = sub.add_parser("locus", help="branch scan over q for a fixed r")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--q-max", type=int, default=None,
                   help=f"largest q (default r + 9); at most {_SCAN_MAX} values "
                        f"of q, so at most r + {3 * _SCAN_MAX - 1}")
    s.add_argument("--curve", choices=tuple(_CURVES), default="generic")

    s = sub.add_parser("reconstruct",
                       help="locus quantity as a rational function of q")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--quantity", required=True)

    s = sub.add_parser("jtable", help="CSV of branch j-invariants")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--count", type=int, default=5,
                   help=f"rows, for q = r, r + 3, ... (default 5); at most "
                        f"{_SCAN_MAX} values of q")

    s = sub.add_parser("commute", help="search for a commuting operator")
    s.add_argument("--operator", required=True)
    s.add_argument("--order", type=int, required=True)

    s = sub.add_parser("cm2-residuals", help="finite-gap residuals, order 2")
    s.add_argument("--tau", type=_parse_complex, default=1j)
    s.add_argument("--points", required=True, help="semicolon-separated")
    s.add_argument("--mults", required=True, help="comma-separated")

    s = sub.add_parser("cm3-crit", help="cubic critical system residuals "
                                        "or a Newton solve")
    s.add_argument("--tau", type=_parse_complex, default=1j)
    s.add_argument("--points", required=True)
    s.add_argument("--momenta", required=True)
    s.add_argument("--c", type=_parse_complex, required=True)
    s.add_argument("--solve", action="store_true",
                   help="Newton with z1 pinned; unknowns z2.., p.., c")

    s = sub.add_parser("cryst3-crit", help="symmetric third order residuals")
    s.add_argument("--points", required=True)
    s.add_argument("--momenta", required=True)
    s.add_argument("--alphas", required=True)
    s.add_argument("--betas", required=True)

    s = sub.add_parser("inozemtsev-grad", help="gradient of the even "
                                               "double-pole potential")
    s.add_argument("--tau", type=_parse_complex, default=1j)
    s.add_argument("--points", required=True)
    s.add_argument("--ms", required=True, help="four semicolon-separated values")

    s = sub.add_parser("monodromy", help="loop transport around the pole")
    s.add_argument("--operator", required=True)
    s.add_argument("--lambda", dest="lam", type=_parse_complex, required=True)
    s.add_argument("--tau", type=_parse_complex, default=1j)
    s.add_argument("--radius", type=float, default=0.2,
                   help="fraction of the shortest period, below 1")
    s.add_argument("--tol", type=float, default=LOOP_TOL)

    sub.add_parser("verify-paper", help="run the full verification suite")
    return p


def _cmd_indicial(args) -> int:
    n = args.n
    if n < 2:
        raise ValueError("order must be at least 2")
    if n > _INDICIAL_MAX_N:
        raise ValueError(f"order must be at most {_INDICIAL_MAX_N}: "
                         f"only --b2 .. --b{_INDICIAL_MAX_N} exist")
    bs = {i: getattr(args, f"b{i}") for i in range(2, n + 1)}
    roots = _rational_roots(indicial_coefficients(n, bs))
    print(json.dumps({"n": n,
                      "roots": sorted(str(rt) for rt in roots)}))
    return 0


def _cmd_homog_check(args) -> int:
    if args.n < 2:
        raise ValueError("order must be at least 2")
    idx = IndexData(tuple(Rat(v) for v in _parse_ilist(args.indices)))
    ok, reason = homogeneous_integrable(idx, args.n)
    print(json.dumps({"integrable": ok, "reason": reason}))
    return 0


def _cmd_constraints(args) -> int:
    cs = constraints_for(args.q, args.r)
    print(cs.to_json())
    return 0


def _cmd_locus(args) -> int:
    if not valid_r(args.r):
        raise ValueError(f"r={args.r} does not occur (must be positive, not "
                         "divisible by 3)")
    offset = 9 if args.q_max is None else args.q_max - args.r
    if offset // 3 >= _SCAN_MAX:
        raise ValueError(f"--q-max {args.q_max} asks for {offset // 3 + 1} values "
                         f"of q; at most {_SCAN_MAX} are allowed")
    report = scan_grid([args.r], q_offset=offset, curve=args.curve)
    sys.stdout.write(report.to_csv())
    return 0


def _cmd_reconstruct(args) -> int:
    fn = reconstruct_in_q(args.r, args.quantity)
    print(json.dumps({"r": args.r, "quantity": args.quantity,
                      "value": fn.text()}))
    return 0


def _cmd_jtable(args) -> int:
    if args.count > _SCAN_MAX:
        raise ValueError(f"--count {args.count} asks for {args.count} values "
                         f"of q; at most {_SCAN_MAX} are allowed")
    rows = ["q,j"]
    for k in range(args.count):
        q = args.r + 3 * k
        rows.append(f"{q},{_j_text(solved_branch(q, args.r))}")
    print("\n".join(rows))
    return 0


def _cmd_commute(args) -> int:
    op, vals = _parse_operator(args.operator)
    if vals:
        raise ValueError("commute requires an exact operator (no numeric parameters)")
    M = find_commuting(op, args.order)
    if M is None:
        print(json.dumps({"found": False}))
        return 0
    print(json.dumps({
        "found": True,
        "operator": {str(k): v.text() for k, v in sorted(M.items())},
    }))
    return 0


def _cmd_cm2(args) -> int:
    lat = make_lattice(args.tau)
    cfg = CMConfig2(_parse_clist(args.points), _parse_ilist(args.mults))
    res = finite_gap_residuals(cfg, lat)
    print(json.dumps({"residuals": [_pair(v) for v in res],
                      "max_abs": _max_abs(res)}))
    return 0


def _cmd_cm3(args) -> int:
    lat = make_lattice(args.tau)
    cfg = CMConfig3(_parse_clist(args.points), _parse_clist(args.momenta), args.c)
    if not args.solve:
        res = cm3_residuals(cfg, lat)
        print(json.dumps({"residuals": [_pair(v) for v in res],
                          "max_abs": _max_abs(res)}))
        return 0
    out = newton_critical(*pinned_cm3_system(cfg, lat))
    print(json.dumps({
        "success": out.success,
        "residual_norm": out.residual_norm,
        "iterations": out.iterations,
        "jacobian_rank": out.jacobian_rank,
        "least_squares": out.used_least_squares,
        "solution": [_pair(v) for v in out.solution],
        "trace": out.trace,
    }))
    return 0 if out.success else 1


def _cmd_cryst3(args) -> int:
    cfg = Cryst3Config(_parse_clist(args.points), _parse_clist(args.momenta),
                       _parse_clist(args.alphas), _parse_clist(args.betas))
    res = cryst3_residuals(cfg)
    grd = cryst3_grad_H(cfg)
    print(json.dumps({
        "residuals": [_pair(v) for v in res],
        "gradient": [_pair(v) for v in grd],
        "agreement": _max_abs(a - b for a, b in zip(res, grd)),
    }))
    return 0


def _cmd_inozemtsev(args) -> int:
    lat = make_lattice(args.tau)
    g = inozemtsev_gradient(_parse_clist(args.points),
                            _parse_clist(args.ms), lat)
    print(json.dumps({"gradient": [_pair(v) for v in g],
                      "max_abs": _max_abs(g)}))
    return 0


def _cmd_monodromy(args) -> int:
    # from one shortest period on, the loop meets or encloses other lattice
    # points; the oracle rejects radii <= 0, nan and inf itself
    if 1 <= args.radius < math.inf:
        raise ValueError(f"loop radius must be below 1 shortest period, "
                         f"got {args.radius}")
    op, vals = _parse_operator(args.operator)
    lat = make_lattice(args.tau)
    ev = elliptic_evaluator(op, vals, lat)
    rep = monodromy_matrix(ev, op.n, 0, args.radius * lat.shortest,
                           args.lam, args.tol, lat.mu)
    print(rep.to_json())
    return 0


def _cmd_verify(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


_DISPATCH = {
    "indicial": _cmd_indicial,
    "homog-check": _cmd_homog_check,
    "constraints": _cmd_constraints,
    "locus": _cmd_locus,
    "reconstruct": _cmd_reconstruct,
    "jtable": _cmd_jtable,
    "commute": _cmd_commute,
    "cm2-residuals": _cmd_cm2,
    "cm3-crit": _cmd_cm3,
    "cryst3-crit": _cmd_cryst3,
    "inozemtsev-grad": _cmd_inozemtsev,
    "monodromy": _cmd_monodromy,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, argparse.ArgumentTypeError,
            PathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
