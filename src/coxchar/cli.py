"""Command-line surface.

Subcommands: info, char, fs, table, verify, torsion, check-all.
Machine output is JSON on stdout with sorted keys and a schema_version
field, so identical inputs give byte-identical documents; runtimes and
progress go to stderr.  Exit codes: 0 success, 2 usage or parse error,
3 theorem-violation or internal diagnostic, 4 resource-cap refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from itertools import product as iproduct

from . import __version__
from .character import (
    _fs_sign,
    char_at_coxeter,
    coxeter_lift_order,
    fs_indicator,
    rho_central_character,
    verify_principal_cocharacter,
)
from .errors import CapExceeded, InternalCheckError, TheoremViolation
from .oracle import DEFAULT_WEYL_CAP, char_at_coxeter_oracle
from .rootdata import build
from .torsion import classify_regular_orbits, duality_report
from .weyl import duality_involution

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIAGNOSTIC = 3
EXIT_CAP = 4


def _emit(payload: dict) -> None:
    payload["schema_version"] = SCHEMA_VERSION
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_info(args) -> int:
    rd = build(args.type)
    payload = {
        "type": rd.type_string,
        "rank": rd.rank,
        "num_positive_roots": rd.num_positive_roots,
        "coxeter_numbers": list(rd.coxeter_numbers),
        "weyl_order": rd.weyl_order,
        "center_invariant_factors": list(rd.center.invariant_factors),
        "rho_central_character": rho_central_character(rd).as_dict(),
        "coxeter_lift": [r.as_dict() for r in coxeter_lift_order(rd)],
        "principal_cocharacter": [r.as_dict() for r in verify_principal_cocharacter(rd)],
    }
    _emit(payload)
    return EXIT_OK


def cmd_char(args) -> int:
    rd = build(args.type)
    lam = tuple(args.coords)
    report = char_at_coxeter(rd, lam)  # refuses a wrong rank or a negative coordinate
    payload = {
        "type": rd.type_string,
        "lambda": list(lam),
        "char": report.as_dict(),
    }
    if args.oracle:
        oracle_value = char_at_coxeter_oracle(rd, lam, cap=args.weyl_cap)
        payload["oracle_value"] = oracle_value
        payload["agrees"] = oracle_value == report.value
        if not payload["agrees"]:
            _emit(payload)
            print("fast path and oracle disagree", file=sys.stderr)
            return EXIT_DIAGNOSTIC
    _emit(payload)
    return EXIT_OK


def cmd_fs(args) -> int:
    rd = build(args.type)
    lam = rd.validate_weight(args.coords, dominant=True)  # refused before any walk
    dual = duality_involution(rd, lam)
    _emit(
        {
            "type": rd.type_string,
            "lambda": list(lam),
            "fs_indicator": _fs_sign(rd, lam, dual),
            "self_dual": dual == lam,
            "dual_highest_weight": list(dual),
        }
    )
    return EXIT_OK


def _iter_box(rank: int, max_coord: int):
    return iproduct(range(max_coord + 1), repeat=rank)


def _check_max_coord(max_coord: int) -> None:
    # an empty box would check nothing and still report success
    if max_coord < 0:
        raise ValueError("--max-coord must be >= 0")


def cmd_table(args) -> int:
    _check_max_coord(args.max_coord)
    rd = build(args.type)
    rows = []
    for lam in _iter_box(rd.rank, args.max_coord):
        rows.append(
            {
                "lambda": list(lam),
                "value": char_at_coxeter(rd, lam).value,
                "fs": fs_indicator(rd, lam),
            }
        )
    if args.format == "json":
        _emit({"type": rd.type_string, "max_coord": args.max_coord, "rows": rows})
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lambda", "value", "fs"])
        for row in rows:
            writer.writerow([" ".join(str(c) for c in row["lambda"]), row["value"], row["fs"]])
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _disagreements(rd, lambdas, weyl_cap: int) -> list[dict]:
    """The weights on which the fast path and the oracle disagree."""
    out = []
    for lam in lambdas:
        fast = char_at_coxeter(rd, lam).value
        slow = char_at_coxeter_oracle(rd, lam, cap=weyl_cap)
        if fast != slow:
            out.append({"lambda": list(lam), "fast": fast, "oracle": slow})
    return out


def cmd_verify(args) -> int:
    _check_max_coord(args.max_coord)
    if args.random is not None and args.random < 1:
        raise ValueError("--random must be >= 1")
    rd = build(args.type)
    if args.random is not None:
        rng = random.Random(args.seed)  # Mersenne Twister; documented, reproducible
        lambdas = [
            tuple(rng.randint(0, args.max_coord) for _ in range(rd.rank))
            for _ in range(args.random)
        ]
        mode = {"mode": "random", "count": args.random, "seed": args.seed}
    else:
        lambdas = list(_iter_box(rd.rank, args.max_coord))
        mode = {"mode": "box", "max_coord": args.max_coord}
    started = time.monotonic()
    disagreements = _disagreements(rd, lambdas, args.weyl_cap)
    checked = len(lambdas)
    runtime = time.monotonic() - started
    print(f"verify {rd.type_string}: {checked} weights in {runtime:.2f}s", file=sys.stderr)
    _emit(
        {
            "type": rd.type_string,
            **mode,
            "max_coord": args.max_coord,
            "checked": checked,
            "agreements": checked - len(disagreements),
            "disagreements": disagreements,
        }
    )
    return EXIT_OK if not disagreements else EXIT_DIAGNOSTIC


def cmd_torsion(args) -> int:
    rd = build(args.type)
    rep = duality_report(rd, args.n)
    orbits = classify_regular_orbits(rd, args.n)
    _emit({"duality": rep.as_dict(), "orbits": orbits.as_dict()})
    return EXIT_OK if rep.passed else EXIT_DIAGNOSTIC


DEFAULT_BATTERY = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2", "F4"]


def cmd_check_all(args) -> int:
    """Run the verification battery over a list of types."""
    _check_max_coord(args.max_coord)
    types = args.types or DEFAULT_BATTERY
    started = time.monotonic()
    results = []
    failures = 0
    for t in types:
        rd = build(t)
        entry: dict = {"type": t}
        try:
            entry["principal_cocharacter_ok"] = all(
                r.passed for r in verify_principal_cocharacter(rd)
            )
            coxeter_lift_order(rd)  # raises if the equivalence fails
            entry["lift_order_biconditional_ok"] = True
            if rd.is_simple:
                orbits = classify_regular_orbits(rd, rd.factors[0].coxeter_number)
                entry["unique_regular_orbit_ok"] = (
                    orbits.regular_orbits_with_image_order_n == 1
                    and orbits.rho_in_distinguished_orbit
                )
            dual = duality_report(rd, 2, trials=100)
            entry["torsion_duality_ok"] = dual.passed
            box = _iter_box(rd.rank, args.max_coord)
            try:
                entry["oracle_agreement_ok"] = not _disagreements(rd, box, args.weyl_cap)
            except CapExceeded:
                pass  # the oracle refuses this type: the check is not run
            ok = all(v for k, v in entry.items() if k.endswith("_ok"))
        except (TheoremViolation, InternalCheckError) as exc:
            entry["error"] = str(exc)
            ok = False
        entry["passed"] = ok
        failures += 0 if ok else 1
        print(f"check-all {t}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
        results.append(entry)
    runtime = time.monotonic() - started
    print(f"check-all: {len(types) - failures}/{len(types)} passed in {runtime:.2f}s",
          file=sys.stderr)
    _emit({"results": results, "all_passed": failures == 0})
    return EXIT_OK if failures == 0 else EXIT_DIAGNOSTIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxchar",
        description=(
            "Exact character values of irreducible representations of simply "
            "connected semisimple groups at the Coxeter conjugacy class."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="root datum summary for a Cartan type")
    p.add_argument("type", help='Cartan type, e.g. "A2", "E8", "A1xB3"')
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("char", help="character value at the Coxeter class")
    p.add_argument("type")
    p.add_argument("coords", nargs="+", type=int, help="highest-weight coordinates")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exact Weyl-sum oracle and compare")
    p.add_argument("--weyl-cap", type=int, default=DEFAULT_WEYL_CAP,
                   help="refuse oracle sums over Weyl groups larger than this")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("fs", help="Frobenius-Schur indicator (+1/-1/0)")
    p.add_argument("type")
    p.add_argument("coords", nargs="+", type=int)
    p.set_defaults(func=cmd_fs)

    p = sub.add_parser("table", help="character and indicator table over a coordinate box")
    p.add_argument("type")
    p.add_argument("--max-coord", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="fast path against the oracle")
    p.add_argument("type")
    p.add_argument("--max-coord", type=int, default=3,
                   help="coordinate bound (box sweep, or random coordinate range)")
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="check N random dominant weights instead of the full box")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weyl-cap", type=int, default=DEFAULT_WEYL_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("torsion", help="torsion duality and regular-orbit census at level n")
    p.add_argument("type")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("check-all", help="verification battery over a list of types")
    p.add_argument("types", nargs="*", help=f"default: {' '.join(DEFAULT_BATTERY)}")
    p.add_argument("--max-coord", type=int, default=2)
    p.add_argument("--weyl-cap", type=int, default=DEFAULT_WEYL_CAP)
    p.set_defaults(func=cmd_check_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("refused: out of memory; lower --weyl-cap or use the fast path", file=sys.stderr)
        return EXIT_CAP
    except (TheoremViolation, InternalCheckError) as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        if exc.witness:
            print(json.dumps(exc.witness, sort_keys=True), file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
