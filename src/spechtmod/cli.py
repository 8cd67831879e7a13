r"""Command-line driver: parse, orchestrate, emit JSON/CSV reports.

Subcommands:

  fock    --p P --n N                 canonical basis table for (n, p)
  rank    --p P --mu MU --tau TAU     one eigenspace Gram report
  verify  --p P --n N [--jobs J]      full conjecture verification
  oracle  --p P --tau TAU             brute-force dim D(tau)

Partitions are written as comma-separated parts with optional exponent
shorthand, e.g. ``3,2`` or ``2,1^3``.  All output is deterministic: the same
configuration produces byte-identical reports, and --jobs only changes the
amount of parallelism, never the content.  Exit status: 0 on success (and all
checks passing), 1 when a verification check or the nonnegativity finding
fails, 2 on invalid input.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .fock import LaurentPoly, llt_canonical, nmat_at_one
from .partitions import check_partition, is_p_restricted
from .ranks import gram_report
from .verify import conjecture_check, gram_oracle_dimD

_INT64_MAX = 2 ** 63 - 1


def _jint(x: int):
    """Integers that may overflow 64-bit JSON consumers become strings."""
    return x if abs(x) <= _INT64_MAX else str(x)


def parse_partition(text: str) -> tuple:
    """Parse '3,2' or exponent shorthand '2,1^3' into a partition tuple."""
    parts = []
    for token in text.split(","):
        token = token.strip()
        if "^" in token:
            base, _, exp = token.partition("^")
            count = int(exp)
            if count < 1:
                raise ValueError(f"exponent below 1 in partition {text!r}")
            parts.extend([int(base)] * count)
        elif token:
            parts.append(int(token))
        else:
            raise ValueError(f"empty component in partition {text!r}")
    return check_partition(tuple(parts))


def partition_str(lam) -> str:
    return ",".join(str(a) for a in lam)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _poly_json(f: LaurentPoly) -> dict:
    return {str(e): _jint(f.coeffs[e]) for e in sorted(f.coeffs)}


def _tableau_json(t) -> list:
    return [list(row) for row in t.rows]


def seminormal_vector_json(v) -> dict:
    """Shape string plus one {tableau, numerator, denominator} per term."""
    return {
        "shape": partition_str(v.shape),
        "terms": [{"tableau": _tableau_json(t),
                   "numerator": _jint(v.coeffs[t].numerator),
                   "denominator": _jint(v.coeffs[t].denominator)}
                  for t in v.support()],
    }


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_fock(args) -> int:
    table = llt_canonical(args.n, args.p)
    pos = {mu: k for k, mu in enumerate(table.order)}
    keys = sorted([(mu, mu) for mu in table.order] + list(table.nmat),
                  key=lambda key: (pos[key[1]], pos[key[0]]))
    nmat_entries = [{"lam": partition_str(lam), "mu": partition_str(mu),
                     "poly": _poly_json(table.nmat_entry(lam, mu))}
                    for lam, mu in keys]
    doc = {
        "command": "fock",
        "p": args.p,
        "n": args.n,
        "order": [partition_str(mu) for mu in table.order],
        "A": {partition_str(mu): {partition_str(lam): _poly_json(c)
                                  for lam, c in sorted(
                                      table.A[mu].terms.items())}
              for mu in table.order},
        "G": {partition_str(mu): {partition_str(lam): _poly_json(c)
                                  for lam, c in sorted(
                                      table.G[mu].terms.items())}
              for mu in table.order},
        "nmat": nmat_entries,
        "nmat1": [[_jint(x) for x in row] for row in nmat_at_one(table)],
    }
    _emit(_dump(doc), args.output)
    return 0


def _cmd_rank(args) -> int:
    rep = gram_report(args.mu, args.tau, args.p, allow_large=args.allow_large)
    doc = {
        "command": "rank",
        "mu": partition_str(rep.mu),
        "tau": partition_str(rep.tau),
        "p": rep.p,
        "basis_size_before_symmetrization":
            rep.basis_size_before_symmetrization,
        "basis_size": rep.basis_size,
        "basis": [seminormal_vector_json(v) for v in rep.basis],
        "gram": [[_frac_str(x) for x in row] for row in rep.gram],
        "gram_mod_p": [list(row) for row in rep.gram_mod_p],
        "rank": rep.rank,
    }
    _emit(_dump(doc), args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.n >= args.p * args.p and not args.outside_region:
        print(f"n = {args.n} is outside the stated region n < p^2 = "
              f"{args.p * args.p}; pass --outside-region to run anyway",
              file=sys.stderr)
        return 2
    report = conjecture_check(args.n, args.p, jobs=args.jobs)
    violations = report.nonnegativity_violations()
    ok = report.overall and not violations
    rows, cols, body = report.decomposition_matrix()
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["tau\\mu"] + [partition_str(mu) for mu in cols])
        for tau, line in zip(rows, body):
            writer.writerow([partition_str(tau)] + [_jint(d) for d in line])
        _emit(buf.getvalue(), args.output)
        return 0 if ok else 1
    doc = {
        "command": "verify",
        "p": report.p,
        "n": report.n,
        "outside_region": report.outside_region,
        "order": [partition_str(mu) for mu in report.order],
        "nmat1": [[_jint(x) for x in row] for row in report.nmat1],
        "amat": [[_jint(x) for x in row] for row in report.amat],
        "mmat": [[None if x is None else _jint(x) for x in row]
                 for row in report.mmat],
        "checks": [{"mu": partition_str(mu), "tau": partition_str(tau),
                    "lhs": rec["lhs"], "expected": rec["expected"],
                    "pass": rec["pass"]}
                   for (mu, tau), rec in report.checks.items()],
        "overall": report.overall,
        "nonnegativity_violations": [
            {"lam": partition_str(lam), "mu": partition_str(mu),
             "value": _jint(v)} for lam, mu, v in violations],
        "decomposition": {
            "rows": [partition_str(tau) for tau in rows],
            "cols": [partition_str(mu) for mu in cols],
            "entries": [[_jint(d) for d in line] for line in body],
        },
    }
    _emit(_dump(doc), args.output)
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    dim = gram_oracle_dimD(args.tau, args.p, allow_large=args.allow_large)
    doc = {
        "command": "oracle",
        "tau": partition_str(args.tau),
        "p": args.p,
        "dim_D": _jint(dim),
    }
    _emit(_dump(doc), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spechtmod",
        description="Canonical bases, seminormal forms, and mod-p "
                    "decomposition numbers for symmetric groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, n=False, mu=False, tau=False, jobs=False, large=False):
        sp.add_argument("--p", type=int, required=True,
                        help="odd prime (p >= 3)")
        if n:
            sp.add_argument("--n", type=int, required=True,
                            help="degree of the symmetric group")
        if mu:
            sp.add_argument("--mu", type=str, required=True,
                            help="p-restricted partition, e.g. 2,1^3")
        if tau:
            sp.add_argument("--tau", type=str, required=True,
                            help="partition, e.g. 2,2,1")
        if jobs:
            sp.add_argument("--jobs", type=int,
                            default=os.environ.get("SPECHTMOD_JOBS", "1"),
                            help="worker processes, at most one per CPU "
                                 "(default: $SPECHTMOD_JOBS or 1)")
        if large:
            sp.add_argument("--allow-large", action="store_true",
                            help="lift the enumeration size guards")
        sp.add_argument("--output", type=str, default=None,
                        help="output path (default: stdout)")
        sp.add_argument("--format", choices=["json", "csv"], default="json",
                        help="report format (csv: verify only)")

    sp = sub.add_parser("fock", help="canonical basis table")
    common(sp, n=True)
    sp.set_defaults(func=_cmd_fock)

    sp = sub.add_parser("rank", help="eigenspace Gram report for (mu, tau)")
    common(sp, mu=True, tau=True, large=True)
    sp.set_defaults(func=_cmd_rank)

    sp = sub.add_parser("verify", help="conjecture verification for (n, p)")
    common(sp, n=True, jobs=True)
    sp.add_argument("--outside-region", action="store_true",
                    help="acknowledge n >= p^2 and run anyway")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force dim D(tau)")
    common(sp, tau=True, large=True)
    sp.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not _is_prime(args.p) or args.p < 3:
        print(f"--p must be an odd prime, got {args.p}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "n", None) is not None and args.n < 0:
            raise ValueError(f"--n must be nonnegative, got {args.n}")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        for attr in ("mu", "tau"):
            if getattr(args, attr, None) is not None:
                setattr(args, attr, parse_partition(getattr(args, attr)))
        if args.command == "rank" and sum(args.mu) != sum(args.tau):
            raise ValueError(f"|mu| = {sum(args.mu)} != |tau| = {sum(args.tau)}")
        if args.format == "csv" and args.command != "verify":
            raise ValueError("csv format is available for verify only")
        if args.command in ("rank", "oracle"):
            shape = args.mu if args.command == "rank" else args.tau
            if not is_p_restricted(shape, args.p):
                raise ValueError(
                    f"{partition_str(shape)} is not {args.p}-restricted")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
