"""Command-line frontend.

Subcommands: intervals, poset, classify, phi, inverse, realize, census,
verify, render.  Exit codes: 0 success / all checks match, 1 usage or input
error (including a census or verify run that would compare nothing), 2
verification mismatch, 3 enumeration cap exceeded.  Diagnostics go to
standard error; all payload output is deterministic for fixed inputs.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ._lines import read_pairs
from .bijection import phi, phi_inverse
from .census import (Family, IdentityCheck, REALIZE_CAP, check_identities,
                     check_images, compare_with_bfile, load_bfile, realize,
                     run_census)
from .perm import all_intervals, is_block_wise_simple, is_simple, \
    parse_permutation
from .polygon import CapExceeded, Dissection, is_diagonal, parse_dissection_text, \
    write_dissection_text
from .poset import format_interval, hasse_edges, is_tree, poset_of, \
    write_poset_text
from .render import dissection_to_svg, poset_to_dot


def _sorted_by_size(intervals) -> list[tuple[int, int]]:
    return sorted(intervals, key=lambda v: (v[1] - v[0], v[0]))


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_intervals(args) -> int:
    p = parse_permutation(args.perm)
    print(" ".join(format_interval(v)
                   for v in _sorted_by_size(all_intervals(p))))
    return 0


def _cmd_poset(args) -> int:
    P = poset_of(parse_permutation(args.perm))
    print(f"n {P.n}")
    print("intervals " + " ".join(format_interval(v)
                                  for v in _sorted_by_size(P.intervals)))
    for parent, child in hasse_edges(P):
        print(f"{format_interval(parent)} -> {format_interval(child)}")
    return 0


def _cmd_classify(args) -> int:
    p = parse_permutation(args.perm)
    flags = (is_simple(p), is_block_wise_simple(p), is_tree(poset_of(p)))
    print("simple: {}, block-wise simple: {}, tree poset: {}".format(
        *(str(flag).lower() for flag in flags)))
    return 0


def _cmd_phi(args) -> int:
    D = phi(poset_of(parse_permutation(args.perm)))
    sys.stdout.write(write_dissection_text(D))
    return 0


def _parse_chord(m: int, token: str) -> tuple[int, int]:
    sep = "," if "," in token else "-"
    parts = token.split(sep)
    if len(parts) != 2:
        raise ValueError(f"chord {token!r} is not of the form u,v")
    u, v = sorted((int(parts[0]), int(parts[1])))
    if not is_diagonal(m, u, v):
        raise ValueError(f"{{{u},{v}}} is not a diagonal of the {m}-gon")
    return (u, v)


def _cmd_inverse(args) -> int:
    diagonals = frozenset(_parse_chord(args.m, tok) for tok in args.chords)
    P = phi_inverse(Dissection(args.m, diagonals))
    sys.stdout.write(write_poset_text(P))
    return 0


def _cmd_realize(args) -> int:
    header, intervals = read_pairs(_read_text(args.intervals), "n")
    if header is not None and header[1] != args.n:
        raise ValueError(f"line {header[0]}: header order {header[1]} "
                         f"does not match --n {args.n}")
    try:
        witness = realize(intervals, args.n, cap=args.cap)
    except RecursionError:  # the prefix search recurses once per position
        raise ValueError(f"order {args.n} is too deep for the prefix search "
                         f"(recursion limit {sys.getrecursionlimit()})") \
            from None
    print(str(witness) if witness is not None else "none")
    return 0


def _cmd_census(args) -> int:
    family = Family(args.clazz)
    pairs = None if args.oeis is None else load_bfile(_read_text(args.oeis))
    report = run_census(family, args.max_n, min_n=args.min_n)
    if not report.rows:
        raise ValueError(f"no {family.value} order to compare "
                         f"up to --max-n {args.max_n}")
    texts = [report.to_text()]
    mismatch = not report.all_match()
    if pairs is not None:
        counts = {row.n: row.poset_count for row in report.rows}
        comparison = compare_with_bfile(counts, pairs, args.offset)
        if all(row[3] is None for row in comparison.rows):
            raise ValueError(f"no census order aligns with a b-file index "
                             f"at --offset {args.offset}")
        texts.append(comparison.to_text())
        mismatch = mismatch or not comparison.all_match()
    sys.stdout.write("".join(texts))
    if args.out is not None:
        _write_text(args.out, report.to_json())
    return 2 if mismatch else 0


def _print_check(n: int, check: IdentityCheck) -> bool:
    verdict = "pass" if check.passed else f"FAIL ({check.counterexample})"
    print(f"n={n} {check.name}: {verdict}")
    return check.passed


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError("verify needs --max-n of at least 1 to check anything")
    all_pass = True
    for n in range(1, args.max_n + 1):
        checks = check_identities(n, cap=args.max_n)
        checks += [check_images(n, family, cap=args.max_n) for family in Family]
        for check in checks:
            all_pass = _print_check(n, check) and all_pass
    return 0 if all_pass else 2


def _cmd_render(args) -> int:
    if args.poset is not None:
        if args.format != "dot":
            raise ValueError("poset rendering emits dot text; use --format dot")
        text = poset_to_dot(poset_of(parse_permutation(args.poset)))
    else:
        if args.format != "svg":
            raise ValueError("polygon rendering emits svg; use --format svg")
        text = dissection_to_svg(parse_dissection_text(_read_text(args.polygon)))
    _write_text(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyposet", description="Interval posets of permutations, "
        "polygon dissections, and the chord correspondence")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intervals", help="print all intervals of a permutation")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("poset", help="print the interval set and Hasse edges")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("classify",
                       help="print simple / block-wise simple / tree flags")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("phi", help="print the chord image of the interval poset")
    p.add_argument("perm")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("inverse",
                       help="print the interval family of a dissection")
    p.add_argument("m", type=int)
    p.add_argument("chords", nargs="*", metavar="u,v")
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("realize",
                       help="print the lexicographically least permutation "
                            "with this interval set, or none")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--intervals", required=True,
                   help="file of 'lo hi' lines ('-' for stdin)")
    p.add_argument("--cap", type=int, default=REALIZE_CAP)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("census",
                       help="compare distinct-poset and dissection counts")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--min-n", type=int, default=None, dest="min_n")
    p.add_argument("--class", choices=[f.value for f in Family],
                   default=Family.ALL.value, dest="clazz")
    p.add_argument("--oeis", default=None, help="b-file to compare against")
    p.add_argument("--offset", type=int, default=0,
                   help="sequence index k maps to order n = k + offset")
    p.add_argument("--out", default=None, help="write the report as JSON")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify",
                       help="run identity checks and image-property checks; "
                            "--max-n authorizes the full workload")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="emit a Hasse diagram or chord figure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--poset", metavar="PERM")
    group.add_argument("--polygon", metavar="FILE",
                       help="dissection text file ('-' for stdin)")
    p.add_argument("--format", choices=["dot", "svg"], required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
