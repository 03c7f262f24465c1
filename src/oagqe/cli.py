"""Command-line front end.

Subcommands: eliminate (quantifier elimination to family union form),
spine (list auxiliary-sort points of a model), check (differential test of
the eliminator against direct evaluation), eval (evaluate a formula at an
assignment), piecewise (piecewise-linear decomposition of a graph formula).

Exit codes: 0 success, 1 input error (a usage error such as an unknown
flag included) or detected mismatch, 2 resource limit, 3 unknown
evaluation outcome.
"""

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .eliminate import qe_driver
from .evaluate import evaluate, evaluator, family_evaluator
from .models import (
    LexModel, parse_model, sample_element, spine as model_spine,
)
from .normal import ResourceLimit
from .piecewise import (
    FunctionalityError, decompose, verify_decomposition,
)
from .sexpr import parse_formula, print_formula, print_sort
from .syntax import SORT_G, free_vars, sort_ac, sort_ae, sort_aep

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2
EXIT_UNKNOWN = 3


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error: argparse would exit with
    status 2, which here means a resource limit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError("%s: %s" % (self.prog, message))


def _load_model(path: str) -> LexModel:
    if path is None:
        raise InputError("--model is required for this subcommand")
    try:
        with open(path) as fh:
            return parse_model(fh.read())
    except OSError as e:
        raise InputError("cannot read model file: %s" % e)
    except ValueError as e:
        raise InputError("bad model file %s: %s" % (path, e))


def _load_formula(spec: str):
    if spec is None:
        raise InputError("--formula is required for this subcommand")
    text = spec
    if not spec.lstrip().startswith("(") and os.path.exists(spec):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as e:
            raise InputError("cannot read formula file: %s" % e)
    return parse_formula(text)


def _parse_sort_spec(spec: str):
    for prefix, mk in (("ep", sort_aep), ("c", sort_ac), ("e", sort_ae)):
        if spec.startswith(prefix) and spec[len(prefix):].isdigit():
            return mk(int(spec[len(prefix):]))
    raise InputError("bad sort spec %r (want e.g. c2, e3, ep2)" % spec)


def _parse_point(model: LexModel, text: str):
    try:
        coords = [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InputError("bad coordinates %r" % text)
    if len(coords) != model.rank:
        raise InputError("expected %d coordinates, got %d"
                         % (model.rank, len(coords)))
    try:
        return model.element(coords)
    except ValueError as e:
        raise InputError(str(e))


def _parse_spine_point(model: LexModel, sort, text: str):
    """The spine point of sort whose id, as `oagqe spine` prints it, is
    text."""

    for pt in model_spine(model, sort):
        if pt.class_id == text:
            return pt
    raise InputError("%r is not a spine point of %s (see oagqe spine)"
                     % (text, print_sort(sort)))


def cmd_eliminate(args) -> int:
    f = _load_formula(args.formula)
    t0 = time.time()
    fuf = qe_driver(f, max_branches=args.max_branches)
    dt = time.time() - t0
    if args.trace:
        print("input: %s" % print_formula(f), file=sys.stderr)
        print("%d clauses in %.2fs" % (len(fuf.clauses), dt),
              file=sys.stderr)
    problems = fuf.well_formed()
    if problems:
        raise AssertionError("malformed output: %s" % "; ".join(problems))
    if args.json:
        doc = {"schema": 1, "clauses": []}
        for cl in fuf.clauses:
            doc["clauses"].append({
                "params": [[n, print_sort(s)] for n, s in cl.theta],
                "guard": print_formula(cl.xi),
                "literals": [[print_formula(a), pol] for a, pol in cl.psi],
            })
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if not fuf.clauses:
            print("false")
        for i, cl in enumerate(fuf.clauses):
            print("clause %d: %s" % (i, print_formula(cl.to_formula())))
    return EXIT_OK


def cmd_spine(args) -> int:
    model = _load_model(args.model)
    specs = args.sorts or ["c2"]
    lines = []
    for spec in specs:
        sort = _parse_sort_spec(spec)
        for pt in model_spine(model, sort):
            lines.append("%s %s" % (print_sort(sort), pt.class_id))
    for line in sorted(lines):
        print(line)
    return EXIT_OK


def _sample_assignment(model, rng, fv):
    asg = {}
    for v, s in sorted(fv.items()):
        if s is None or s.is_main:
            asg[v] = sample_element(model, rng, 6, (1, 2, 3))
        else:
            pts = model_spine(model, s)
            if not pts:
                return None
            asg[v] = rng.choice(pts)
    return asg


def cmd_check(args) -> int:
    f = _load_formula(args.formula)
    model = _load_model(args.model)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("OAGQE_SEED") or 0)
    rng = random.Random(seed)
    fv = free_vars(f, {})
    t0 = time.time()
    fuf = qe_driver(f, max_branches=args.max_branches)
    output_ev = family_evaluator(model, fuf)
    input_ev = evaluator(model, f)
    t1 = time.time()
    mismatches = unknown = done = 0
    for _ in range(args.samples):
        asg = _sample_assignment(model, rng, fv)
        if asg is None:
            continue
        r1 = input_ev(asg)
        vals = output_ev(asg)
        if any(v is True for v in vals):
            r2 = True
        elif all(v is False for v in vals):
            r2 = False
        else:
            r2 = None
        done += 1
        if r1 is None or r2 is None:
            unknown += 1
        elif r1 != r2:
            mismatches += 1
            print("mismatch at %s: input %s, output %s"
                  % (sorted(asg.items()), r1, r2))
    t2 = time.time()
    rate = 100.0 * unknown / done if done else 0.0
    print("samples %d  mismatches %d  unknown %.1f%%  qe %.2fs  eval %.2fs"
          % (done, mismatches, rate, t1 - t0, t2 - t1))
    return EXIT_INPUT if mismatches else EXIT_OK


def cmd_eval(args) -> int:
    f = _load_formula(args.formula)
    model = _load_model(args.model)
    fv = free_vars(f, {})
    asg = {}
    for item in args.assign:
        if "=" not in item:
            raise InputError("assignment %r is not name=value" % item)
        name, text = item.split("=", 1)
        sort = fv.get(name, SORT_G)
        if sort is None:
            raise InputError("auxiliary variable %s has no declared sort"
                             % name)
        asg[name] = (_parse_point(model, text) if sort.is_main
                     else _parse_spine_point(model, sort, text))
    missing = [v for v in fv if v not in asg]
    if missing:
        raise InputError("unassigned variables: %s"
                         % ", ".join(sorted(missing)))
    r = evaluate(model, asg, f)
    if r is None:
        print("unknown")
        return EXIT_UNKNOWN
    print("true" if r else "false")
    return EXIT_OK


def cmd_piecewise(args) -> int:
    f = _load_formula(args.formula)
    model = _load_model(args.model)
    fv = free_vars(f, {})
    value = args.value
    if value not in fv:
        raise InputError("value variable %r not free in the formula" % value)
    arg_names = (args.func_args.split(",") if args.func_args
                 else sorted(v for v in fv if v != value))
    ps = decompose(model, f, value, arg_names)
    report = verify_decomposition(model, f, ps, args.box)
    doc = ps.to_json()
    doc["schema"] = 1
    doc["verified_points"] = report.points
    doc["violations"] = list(report.violations)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for i, p in enumerate(ps.pieces):
            print("piece %d: value (%s%+d)/%d  where %s"
                  % (i, " + ".join("%d*%s" % (r, x)
                                   for r, x in zip(p.coeffs, ps.args)),
                     p.offset, p.denom, print_formula(p.guard)))
        print("verified %d points, %d violations"
              % (report.points, len(report.violations)))
    return EXIT_OK if report.ok else EXIT_INPUT


def nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("%d is negative" % n)
    return n


# the options of the subcommands; each subcommand takes the ones it reads
FLAGS = {
    "--formula": {"help": "s-expression or file path"},
    "--model": {"help": "model description file"},
    "--box": {"type": nonnegative, "default": 8,
              "help": "radius of the verification box"},
    "--samples": {"type": nonnegative, "default": 100},
    "--seed": {"type": int, "default": None,
               "help": "rng seed (fallback: OAGQE_SEED)"},
    "--trace": {"action": "store_true"},
    "--max-branches": {"type": nonnegative, "default": 200000},
    "--json": {"action": "store_true"},
}


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="oagqe", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, run, about, *flags):
        p = sub.add_parser(name, help=about)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(run=run)
        return p

    add("eliminate", cmd_eliminate, "rewrite to family union form",
        "--formula", "--max-branches", "--trace", "--json")
    p = add("spine", cmd_spine, "list auxiliary spine points", "--model")
    p.add_argument("sorts", nargs="*", help="sort specs like c2 e3 ep2")
    add("check", cmd_check, "differential test against evaluation",
        "--formula", "--model", "--samples", "--seed", "--max-branches")
    p = add("eval", cmd_eval, "evaluate at an assignment",
            "--formula", "--model")
    p.add_argument("assign", nargs="*", metavar="name=value",
                   help="coordinates of a main variable, least significant "
                        "first, or the spine point id (as spine prints it) "
                        "of a declared auxiliary variable")
    p = add("piecewise", cmd_piecewise, "piecewise-linear decomposition",
            "--formula", "--model", "--box", "--json")
    p.add_argument("--value", default="y", help="value variable of the graph")
    p.add_argument("--func-args", default=None,
                   help="comma-separated argument variables, in order")
    return ap


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.run(args)
    except (InputError, FunctionalityError, ValueError) as e:
        # a ParseError is a ValueError too
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimit as e:
        print("resource limit: %s" % e, file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
