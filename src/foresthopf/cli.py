"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 an identity check failed,
2 usage, parse, file or value error (including degree bounds), 3 singular
input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (ParseError, BoundExceededError, SingularAtomError,
                     MagnitudeTieError)
from .words import Word, all_words, parse_letters
from .perms import Perm
from .forests import OrderedForest, PlainForest, enumerate_heap_ordered
from .hopf import get_structure, hopf_axiom_sweep, STRUCTURES
from .morphisms import (theta, theta_inverse_table, t_sigma,
                        t_sigma_decorated, square_check, DEFAULT_BOUND)
from .characters import (PolyPath, iter_int_word, iter_int_tree, chen_check,
                         validate_character)
from .fourier import (TrigPath, chi, chi_character, rough_path_J,
                      j_chen_check, sector_sweep)
from .report import RunReport


def _lincomb_json(lc):
    return [{"basis": str(b), "coeff": str(c)} for b, c in lc.sorted_items()]


def _emit_value(args, text, payload):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _sweep(check, degree, cases):
    """What check returns on each of cases(n), n = 0..degree, that
    fails it: the counterexamples, in order."""
    return [bad for n in range(degree + 1) for case in cases(n)
            for bad in [check(case)] if bad]


def _finish_report(args, report):
    print(report.to_json() if args.json else report.render_text())
    return report.exit_code


def cmd_theta(args):
    forest = OrderedForest.parse(args.forest)
    value = theta(forest)
    _emit_value(args, str(value), {"command": "theta",
                                   "input": str(forest),
                                   "terms": _lincomb_json(value)})
    return 0


def cmd_theta_inv(args):
    if args.matrix:
        if args.degree is None:
            raise ParseError("--matrix requires --degree")
        table = theta_inverse_table(args.degree, args.bound)
        print(table.to_json())
        return 0
    if args.perm is None:
        raise ParseError("give a permutation or --matrix")
    sigma = Perm.parse(args.perm)
    value = t_sigma(sigma.inverse(), args.bound)
    _emit_value(args, str(value), {"command": "theta-inv",
                                   "input": str(sigma),
                                   "terms": _lincomb_json(value)})
    return 0


def cmd_tsigma(args):
    sigma = Perm.parse(args.perm)
    if args.dec is not None:
        letters = parse_letters(args.dec)
        value = t_sigma_decorated(sigma, letters, args.bound)
    else:
        value = t_sigma(sigma, args.bound)
    _emit_value(args, str(value), {"command": "tsigma",
                                   "input": str(sigma),
                                   "dec": args.dec,
                                   "terms": _lincomb_json(value)})
    return 0


def cmd_hopf_check(args):
    H = get_structure(args.structure, args.d)
    report = RunReport(f"hopf-check {args.structure}")
    report.run(f"hopf axioms for {args.structure} up to degree {args.degree}"
               f" (d={args.d})",
               lambda: hopf_axiom_sweep(H, args.degree))
    return _finish_report(args, report)


def cmd_square_check(args):
    report = RunReport("square-check")
    report.run(f"word projection square up to degree {args.degree}"
               f" (d={args.d})",
               lambda: _sweep(square_check, args.degree,
                              lambda n: enumerate_heap_ordered(n, args.d)))
    return _finish_report(args, report)


def cmd_iterint(args):
    with open(args.path) as fh:
        path = PolyPath.parse(fh.read())
    if args.tree:
        forest = PlainForest.parse(args.target)
        value = iter_int_tree(path, forest)
        label = str(forest)
    else:
        word = Word.parse(args.target)
        value = iter_int_word(path, word)
        label = str(word)
    _emit_value(args, str(value), {"command": "iterint",
                                   "input": label,
                                   "value": str(value)})
    return 0


def cmd_chen_check(args):
    with open(args.path) as fh:
        path = PolyPath.parse(fh.read())
    report = RunReport("chen-check")
    report.run(f"Chen identity in (t,u,s) up to length {args.degree}",
               lambda: _sweep(lambda w: chen_check(path, w), args.degree,
                              lambda n: all_words(n, path.d)))
    return _finish_report(args, report)


def cmd_fno(args):
    with open(args.path) as fh:
        path = TrigPath.parse(fh.read())
    if args.mode == "chi":
        word = Word.parse(args.word)
        value = chi(path, word, bound=args.bound)
        _emit_value(args, str(value), {"command": "fno chi",
                                       "input": str(word),
                                       "value": str(value)})
        return 0
    if args.mode == "j":
        word = Word.parse(args.word)
        jc, jf = rough_path_J(path, word, bound=args.bound)
        agree = jc == jf
        text = (f"character route: {jc}\n"
                f"forest route:    {jf}\n"
                f"routes {'agree' if agree else 'DISAGREE'}")
        _emit_value(args, text, {"command": "fno j",
                                 "input": str(word),
                                 "character_route": str(jc),
                                 "forest_route": str(jf),
                                 "agree": agree})
        return 0 if agree else 1
    return _fno_verify(args, path)


def _fno_verify(args, path):
    report = RunReport("fno verify")

    def j_routes(w):
        jc, jf = rough_path_J(path, w, bound=args.bound)
        return None if jc == jf else f"J routes disagree on {w}"

    def words(n):
        return all_words(n, path.d)

    report.run(f"chi multiplicative up to total length {args.degree}",
               lambda: validate_character(
                   chi_character(path, bound=args.bound), args.degree))
    report.run(f"J character route = forest route up to length {args.jlen}",
               lambda: _sweep(j_routes, args.jlen, words))
    report.run(f"J Chen identity in (t,u,s) up to length {args.jlen}",
               lambda: _sweep(lambda w: j_chen_check(path, w, args.bound),
                              args.jlen, words))
    report.run(f"sector identities on {args.cases} random measures"
               f" (seed {args.seed})",
               lambda: sector_sweep(args.cases, 4, args.seed))
    return _finish_report(args, report)


def cmd_enumerate(args):
    forests = enumerate_heap_ordered(args.n, args.d)
    if args.json:
        print(json.dumps({"command": "enumerate", "n": args.n, "d": args.d,
                          "count": len(forests),
                          "forests": [str(f) for f in forests]}, indent=2))
    else:
        for f in forests:
            print(f)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="foresthopf",
        description="Exact Hopf-algebra computations on decorated forests, "
                    "permutations and words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="structured output")

    p = sub.add_parser("theta", help="linear extensions of an ordered forest")
    p.add_argument("forest", help="ordered forest, e.g. '1:1[2:1]|3:2'")
    add_json(p)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("theta-inv",
                       help="preimage of a permutation, or the full matrix")
    p.add_argument("perm", nargs="?", help="permutation, e.g. 231")
    p.add_argument("--matrix", action="store_true",
                   help="emit the degree matrix and its inverse as JSON")
    p.add_argument("--degree", type=int, help="degree for --matrix")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    add_json(p)
    p.set_defaults(fn=cmd_theta_inv)

    p = sub.add_parser("tsigma", help="the inverse element T^sigma")
    p.add_argument("perm", help="permutation, e.g. 231")
    p.add_argument("--dec", help="decoration word, e.g. abc")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    add_json(p)
    p.set_defaults(fn=cmd_tsigma)

    p = sub.add_parser("hopf-check", help="brute-force Hopf axiom sweep")
    p.add_argument("structure", choices=sorted(STRUCTURES))
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--d", type=int, default=1, help="number of decorations")
    add_json(p)
    p.set_defaults(fn=cmd_hopf_check)

    p = sub.add_parser("square-check",
                       help="decorated extensions against word projection")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    add_json(p)
    p.set_defaults(fn=cmd_square_check)

    p = sub.add_parser("iterint", help="exact iterated integral of a "
                                       "polynomial path")
    p.add_argument("target", help="word (default) or plain forest")
    p.add_argument("--path", required=True, help="path component file")
    p.add_argument("--tree", action="store_true",
                   help="read the target as a plain forest")
    add_json(p)
    p.set_defaults(fn=cmd_iterint)

    p = sub.add_parser("chen-check", help="symbolic Chen identity")
    p.add_argument("--path", required=True, help="path component file")
    p.add_argument("--degree", type=int, default=3, help="max word length")
    add_json(p)
    p.set_defaults(fn=cmd_chen_check)

    p = sub.add_parser("fno", help="Fourier normal ordering")
    p.add_argument("mode", choices=("chi", "j", "verify"))
    p.add_argument("word", nargs="?", help="word for chi / j")
    p.add_argument("--path", required=True, help="trigonometric path file")
    p.add_argument("--degree", type=int, default=4,
                   help="total length for the character check")
    p.add_argument("--jlen", type=int, default=3, help="max length for J")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=20260816)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    add_json(p)
    p.set_defaults(fn=cmd_fno)

    p = sub.add_parser("enumerate", help="heap-ordered forests of a degree")
    p.add_argument("n", type=int)
    p.add_argument("--d", type=int, default=1)
    add_json(p)
    p.set_defaults(fn=cmd_enumerate)

    return parser


# (argument, its name on the command line, least value it may take):
# degrees and lengths count from 0; alphabets need at least one letter,
# and a sweep over no random case would pass without checking anything
_LOWER_LIMITS = (("degree", "--degree", 0), ("n", "n", 0),
                 ("jlen", "--jlen", 0), ("cases", "--cases", 1),
                 ("d", "--d", 1))


def _check_limits(args):
    for attr, name, least in _LOWER_LIMITS:
        value = getattr(args, attr, None)
        if value is not None and value < least:
            raise ParseError(f"{name} must be at least {least}, got {value}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        if args.command == "fno" and args.mode in ("chi", "j") \
                and args.word is None:
            raise ParseError(f"fno {args.mode} needs a word")
        return args.fn(args)
    except (ParseError, BoundExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularAtomError, MagnitudeTieError) as exc:
        print(f"singular input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
