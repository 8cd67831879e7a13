r"""Command-line driver: parse, orchestrate, emit JSON/CSV reports.

Subcommands:

  fock    --p P --n N                 canonical basis table for (n, p)
  rank    --p P --mu MU --tau TAU     one eigenspace Gram report
  verify  --p P --n N [--jobs J]      full conjecture verification
  oracle  --p P --tau TAU             brute-force dim D(tau)

Partitions are written as comma-separated parts with optional exponent
shorthand, e.g. ``3,2`` or ``2,1^3``.  All output is deterministic: the same
configuration produces byte-identical reports, and --jobs only changes the
amount of parallelism, never the content.  JSON reports are streamed to the
destination in batches, with exactly the bytes of
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, so the text
of a large report is never held in memory whole; everything in it is
computed before the first byte is written.  Each of the N^2 check records
of ``verify`` is joined from the text of its head (expected, lhs), the name
of mu and its tail (pass, tau), each built once; the records of one mu are
one join, and a passing column reuses one list of parts.  Every table of
the report (``nmat1``, ``amat``, ``mmat``, the check lhs, the decomposition)
is held as its entries other than 0 and written row by row from them: the
zeros between them are one repeated piece of text.  The Laurent polynomials
of ``fock`` (A(mu), G(mu) and n(lam, mu)) are handed to the writer as they
are, and the text of each distinct polynomial is built once per indent; the
text of each partition is built once.
Exit status: 0 on success (and all checks passing), 1 when a verification
check or the nonnegativity finding fails, 2 on invalid input (an
``--output`` path that cannot be opened included).  When an identity fails,
``verify`` names the first failing (mu, tau) in check order on stderr, with
its lhs and expected value.
"""

import argparse
import operator
import os
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from .fock import LaurentPoly, SparseRows, llt_canonical, nmat_at_one
from .partitions import check_partition, is_p_restricted
from .ranks import gram_report
from .tableaux import _CLASS_CAP, check_class_cap
from .verify import (_ORACLE_CAP, check_oracle_cap, check_record,
                     conjecture_check, gram_oracle_dimD)

_INT64_MAX = 2 ** 63 - 1
_P_LIMIT = 2 ** 31          # --p is trial-divided, so it is bounded first


def _jint(x: int):
    """Integers that may overflow 64-bit JSON consumers become strings."""
    return x if abs(x) <= _INT64_MAX else str(x)


def _runs(text: str) -> list:
    """The (part, count) runs of '3,2' or exponent shorthand '2,1^3', as
    written and not expanded, less any trailing runs of 0 (which
    ``check_partition`` drops)."""
    runs = []
    for token in text.split(","):
        token = token.strip()
        if "^" in token:
            base, _, exp = token.partition("^")
            count = int(exp)
            if count < 1:
                raise ValueError(f"exponent below 1 in partition {text!r}")
            runs.append((int(base), count))
        elif token:
            runs.append((int(token), 1))
        else:
            raise ValueError(f"empty component in partition {text!r}")
    while runs and runs[-1][0] == 0:
        runs.pop()
    return runs


def _parts(runs) -> tuple:
    """The parts of the runs, checked by ``check_partition``."""
    return check_partition(tuple(chain.from_iterable(
        repeat(base, count) for base, count in runs)))


def _runs_text(runs, sep=",") -> str:
    """A partition named by its runs: a run of c > 1 parts b is b^c."""
    return sep.join(f"{b}^{c}" if c > 1 else str(b) for b, c in runs)


def _partition(text: str, cap: int):
    """(runs, parts, name) of a ``--mu`` or ``--tau`` value.  One with at
    most ``cap`` parts is listed by ``_parts`` and named by
    ``partition_str``.  A longer one is checked from its runs and named by
    them; it is never listed, and its parts are None."""
    runs = _runs(text)
    if sum(count for _, count in runs) <= cap:
        parts = _parts(runs)
        return runs, parts, partition_str(parts)
    bases = [base for base, _ in runs]
    if min(bases) <= 0:
        raise ValueError("partition parts must be positive: "
                         f"({_runs_text(runs, ', ')})")
    if any(map(operator.lt, bases, bases[1:])):
        raise ValueError("partition parts must be weakly decreasing: "
                         f"({_runs_text(runs, ', ')})")
    return runs, None, _runs_text(runs)


def partition_str(lam) -> str:
    return ",".join(str(a) for a in lam)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class _Names(dict):
    """partition -> its text, each built on its first read."""

    def __missing__(self, lam):
        text = self[lam] = partition_str(lam)
        return text


def seminormal_vector_json(v) -> dict:
    """Shape string plus one {tableau, numerator, denominator} per term."""
    return {
        "shape": partition_str(v.shape),
        "terms": [{"tableau": t.rows, "numerator": _jint(c.numerator),
                   "denominator": _jint(c.denominator)}
                  for t, c in sorted(v.coeffs.items())],
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


_BUDGET = 1 << 16   # characters of text held before one write call

# JSON text of each scalar type; a value of any other type is a container
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _not_scalar(value):
    raise TypeError(f"{type(value).__name__} in a check record is not a JSON "
                    "scalar")


def _int_text(value: int) -> str:
    """The JSON text of ``_jint(value)``."""
    return (int.__repr__(value) if abs(value) <= _INT64_MAX
            else encode_basestring_ascii(str(value)))


def _int_list_text(pairs, size: int, pad: str) -> str:
    """The JSON text, at indent ``pad``, of a list of ``size`` entries given
    those other than 0 as (column, value) pairs by ascending column; None is
    written as null, and an int outside int64 as a string, as ``_jint``
    does."""
    if not size:
        return "[]"
    sep = "," + pad + "  "
    zero, pieces, at = "0" + sep, [], 0
    for k, value in pairs:
        pieces.append(zero * (k - at))
        pieces.append(("null" if value is None else _int_text(value)) + sep)
        at = k + 1
    pieces.append(zero * (size - at))
    return "[" + sep[1:] + "".join(pieces)[:-len(sep)] + pad + "]"


class CheckRecords:
    """The ``checks`` list of a verify report: ``checks`` is the checks
    ``Grid`` of ``conjecture_check`` (the lhs rows of each mu, read through
    ``check_record``), ``names`` the text of each partition.
    ``_write_json`` writes one object per item, with the keys expected, lhs,
    mu, pass and tau."""
    __slots__ = ("checks", "names")

    def __init__(self, checks, names):
        self.checks, self.names = checks, names


def _write_json(obj, fh) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` to fh.

    Handles dicts with str keys, lists, tuples and generators (written as
    lists), ``SparseRows`` (a list of lists), ``CheckRecords``,
    ``LaurentPoly``, str, int, bool and None; anything else raises
    TypeError.  An int inside a list obeys the int64 rule of ``_jint``; an
    int in an object, a check record included, is written as it is.  Each
    row of a ``SparseRows`` is written by ``_int_list_text`` from its stored
    entries.  A ``LaurentPoly`` is the object {str(e): _jint(c)} over its
    terms c q^e, keys in string order; the text of each distinct polynomial
    is built once per indent and kept for the rest of the call.  The text
    goes out in one write call whenever more than ``_BUDGET`` characters
    are held, so what is held stays under that plus one piece, whatever N
    is.

    A check record is ``head(expected, lhs) + name(mu) + tail(pass, tau)``,
    and each head and tail is built once, keyed by its values and their
    types (so ``True`` and ``1`` stay apart).  The checks ``Grid`` is read
    by its stored lhs rows, one mu at a time: a unit column (every identity
    of mu passing) is one join on the name of mu of a list of parts built
    once, patched around the diagonal; its pieces come from the records
    ``check_record`` gives off and on the diagonal.  Other columns are
    written record by record."""
    out = []
    held = 0            # characters in out
    polys = {}          # (indent, polynomial) -> its text

    def put(text):
        nonlocal held
        out.append(text)
        held += len(text)
        if held > _BUDGET:
            fh.write("".join(out))
            out.clear()
            held = 0

    def write_checks(obj, pad):
        inner = pad + "  "
        field = "," + inner + '  "'
        heads, tails = {}, {}

        def text(value):
            return _SCALARS.get(type(value), _not_scalar)(value)

        def name(mu):
            return encode_basestring_ascii(obj.names[mu])

        def head(rec):
            key = (type(rec["expected"]), rec["expected"], type(rec["lhs"]),
                   rec["lhs"])
            if key not in heads:
                heads[key] = ("{" + field[1:] + 'expected": '
                              + text(rec["expected"]) + field + 'lhs": '
                              + text(rec["lhs"]) + field + 'mu": ')
            return heads[key]

        def tail(rec, tau):
            key = (type(rec["pass"]), rec["pass"], tau)
            if key not in tails:
                tails[key] = (field + 'pass": ' + text(rec["pass"]) + field
                              + 'tau": ' + name(tau) + inner + "}")
            return tails[key]

        def joints(before, after):
            # the text between the names of mu in records k-1 and k
            return [tail(before, tau) + "," + inner + head(after)
                    for tau in cols[:-1]]

        checks, sep = obj.checks, "[" + inner
        cols, glue = checks.col_keys, None
        for i, (mu, row) in enumerate(zip(checks.row_keys, checks.rows.rows)):
            if row == {i: 1} and type(row[i]) is int:
                if glue is None:    # piece k ends record k-1, starts k
                    off, on = check_record(1, 0, 0), check_record(0, 0, 1)
                    glue = ([head(off)] + joints(off, off)
                            + [tail(off, cols[-1])])
                    starts = [head(on)] + joints(off, on)
                    ends = joints(on, off) + [tail(on, cols[-1])]
                kept = glue[i], glue[i + 1]
                glue[i], glue[i + 1] = starts[i], ends[i]
                put(sep + name(mu).join(glue))
                glue[i], glue[i + 1] = kept
                sep = "," + inner
            else:
                for j, tau in enumerate(cols):
                    rec = check_record(i, j, row.get(j, 0))
                    put(sep + head(rec) + name(mu) + tail(rec, tau))
                    sep = "," + inner
        put(pad + "]" if sep[0] == "," else "[]")

    def poly_text(f, pad):
        key = (pad, frozenset(f.coeffs.items()))
        if key not in polys:
            sep = "," + pad + '  "'
            # '"' sorts before '-' and every digit: the entries sort as keys
            polys[key] = ("{" + sep[1:] + sep.join(sorted(
                f'{e}": {_int_text(c)}' for e, c in f.coeffs.items()))
                + pad + "}") if f.coeffs else "{}"
        return polys[key]

    def walk(obj, pad):
        inner = pad + "  "
        kind = type(obj)
        if kind is CheckRecords:
            write_checks(obj, pad)
            return
        if kind is LaurentPoly:
            put(poly_text(obj, pad))
            return
        if kind is SparseRows:
            sep = "[" + inner
            for row in obj.rows:
                put(sep + _int_list_text(row.items(), obj.size, inner))
                sep = "," + inner
            put(pad + "]" if obj.rows else "[]")
            return
        if kind is dict:
            items = [(encode_basestring_ascii(k) + ": ", obj[k])
                     for k in sorted(obj)]
            brackets = "{}"
        elif kind is list or kind is tuple or kind is GeneratorType:
            items = (("", _jint(x) if type(x) is int else x) for x in obj)
            brackets = "[]"
        else:
            raise TypeError(f"{kind.__name__} is not JSON serializable here")
        sep = brackets[0] + inner
        for prefix, value in items:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                put(sep + prefix + scalar(value))
            elif type(value) is LaurentPoly:
                put(sep + prefix + poly_text(value, inner))
            else:
                put(sep + prefix)
                walk(value, inner)
            sep = "," + inner
        if sep[0] == ",":
            put(pad + brackets[1])
        else:           # nothing was written: "{}" or "[]"
            put(brackets)

    scalar = _SCALARS.get(type(obj))
    if scalar is None:
        walk(obj, "\n")
    else:
        out.append(scalar(obj))
    out.append("\n")
    fh.write("".join(out))


def _emit(path, write) -> None:
    """Open the destination (stdout for None or '-') once; ``write(fh)``."""
    if path is None or path == "-":
        write(sys.stdout)
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        write(fh)


def _cmd_fock(args) -> int:
    check_class_cap(args.n)     # the same bound as verify, before any listing
    table = llt_canonical(args.n, args.p)
    pos = {mu: k for k, mu in enumerate(table.order)}
    keys = sorted([(mu, mu) for mu in table.order] + list(table.nmat),
                  key=lambda key: (pos[key[1]], pos[key[0]]))
    names, one = _Names(), LaurentPoly.one()

    def terms(v):
        return {names[lam]: c for lam, c in v.terms.items()}

    doc = {
        "command": "fock",
        "p": args.p,
        "n": args.n,
        "order": [names[mu] for mu in table.order],
        "A": {names[mu]: terms(table.A[mu]) for mu in table.order},
        "G": {names[mu]: terms(table.G[mu]) for mu in table.order},
        "nmat": ({"lam": names[lam], "mu": names[mu],
                  "poly": one if lam == mu else table.nmat[lam, mu]}
                 for lam, mu in keys),
        "nmat1": nmat_at_one(table),
    }
    _emit(args.output, lambda fh: _write_json(doc, fh))
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
        "gram_mod_p": rep.gram_mod_p,
        "rank": rep.rank,
    }
    _emit(args.output, lambda fh: _write_json(doc, fh))
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
    if not report.overall:
        for (mu, tau), rec in report.checks.items():
            if rec["pass"] is False:
                print(f"identity fails at mu={partition_str(mu)}, "
                      f"tau={partition_str(tau)}: lhs {rec['lhs']}, "
                      f"expected {rec['expected']}", file=sys.stderr)
                break
    rows, cols, body = report.decomposition_matrix()
    names = {mu: partition_str(mu) for mu in report.order}
    if args.format == "csv":
        import csv

        def write_csv(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["tau\\mu"] + [names[mu] for mu in cols])
            writer.writerows([partition_str(tau), *line]
                             for tau, line in zip(rows, body))
        _emit(args.output, write_csv)
        return 0 if ok else 1
    doc = {
        "command": "verify",
        "p": report.p,
        "n": report.n,
        "outside_region": report.outside_region,
        "order": [names[mu] for mu in report.order],
        "nmat1": report.nmat1,
        "amat": report.amat,
        "mmat": report.mmat,
        "checks": CheckRecords(report.checks, names),
        "overall": report.overall,
        "nonnegativity_violations": [
            {"lam": names[lam], "mu": names[mu], "value": _jint(v)}
            for lam, mu, v in violations],
        "decomposition": {
            "rows": [partition_str(tau) for tau in rows],
            "cols": [names[mu] for mu in cols],
            "entries": body,
        },
    }
    _emit(args.output, lambda fh: _write_json(doc, fh))
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    dim = gram_oracle_dimD(args.tau, args.p, allow_large=args.allow_large)
    doc = {
        "command": "oracle",
        "tau": partition_str(args.tau),
        "p": args.p,
        "dim_D": _jint(dim),
    }
    _emit(args.output, lambda fh: _write_json(doc, fh))
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
    if args.p >= _P_LIMIT:
        print(f"--p must be below 2^31, got {args.p}", file=sys.stderr)
        return 2
    if not _is_prime(args.p) or args.p < 3:
        print(f"--p must be an odd prime, got {args.p}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "n", None) is not None and args.n < 0:
            raise ValueError(f"--n must be nonnegative, got {args.n}")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        cap = (float("inf") if getattr(args, "allow_large", True) else
               _CLASS_CAP if args.command == "rank" else _ORACLE_CAP)
        given = [(attr, *_partition(getattr(args, attr), cap))
                 for attr in ("mu", "tau") if hasattr(args, attr)]
        sizes = [sum(base * count for base, count in runs)
                 for _, runs, _, _ in given]
        if args.command == "rank" and sizes[0] != sizes[1]:
            raise ValueError(f"|mu| = {sizes[0]} != |tau| = {sizes[1]}")
        if args.format == "csv" and args.command != "verify":
            raise ValueError("csv format is available for verify only")
        if given:
            # an unlisted partition has more parts, so more size, than the
            # cap allows: the cap check refuses it before its parts are read
            _, runs, _, name = given[0]     # mu for rank, tau for oracle
            if not is_p_restricted([base for base, _ in runs], args.p):
                raise ValueError(f"{name} is not {args.p}-restricted")
            (check_class_cap if args.command == "rank" else check_oracle_cap)(
                sizes[0], args.allow_large)
            for attr, _, parts, _ in given:
                setattr(args, attr, parts)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
