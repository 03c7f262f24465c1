"""Piecewise-linear decomposition of definable functions.

A quantifier-free formula in one value variable and a tuple of argument
variables, read as the graph of a function, is split into finitely many
linear pieces: on each piece the value is (sum of r_i x_i + b) / s with
integer data.  Candidate values come from equalities and from bounded
offsets above lower bounds (below upper bounds); the offset never needs to
exceed R*m0 + 1 where R clears the value coefficients and m0 is the least
common modulus of the congruence constraints.

The extraction itself reasons over the integers (trivial spine, discrete
quotient): constant comparisons are folded with that reading.  Verification
is exact in whatever model it is given.  The functionality check and the
verification build one evaluator for each formula they evaluate (the graph
and every guard) per call: the formula is compiled once into a tree of
closures that is called at every grid point.  Its memos keep the values of
nodes over fewer variables than the formula has, such as a literal over x
alone asked at one point for many values, and are dropped with the
evaluator when the call returns.  Each call also builds the model element
of each grid coordinate once, on first use.  The functionality check asks
the graph at the sampled values of each point and needs exactly one to
hold; that value witnesses the point's projection, so no main-sort
quantifier is decided.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

# evaluate stays a name of this module: perfbench/tracing.py wraps
# piecewise.evaluate when it traces a run.
from .evaluate import evaluate, evaluator
from .normal import dnf_disjoint_tree
from .eliminate import _cong_m0, _gather, _scale_records
from .sexpr import parse_formula, print_formula
from .syntax import (
    FALSE, TRUE, Atom, Bottom, Formula, LinTerm, MainRel, conj, disj,
    main_rel, neg, rebuild,
)


class FunctionalityError(ValueError):
    """The formula does not define a function on the sampled points."""


@dataclass(frozen=True)
class LinearPiece:
    """One cell of the decomposition: where guard holds,
    value = (sum of coeffs * args + offset) / denom."""

    guard: Formula
    coeffs: tuple
    denom: int
    offset: int

    def value_at(self, point: Sequence[int]) -> Optional[int]:
        """The function value at an integer point, None if not integral."""

        num = sum(r * x for r, x in zip(self.coeffs, point)) + self.offset
        if num % self.denom:
            return None
        return num // self.denom


@dataclass(frozen=True)
class PieceSet:
    """A full decomposition: argument names, value variable, ordered pieces
    with pairwise-disjoint guards."""

    args: tuple
    value_var: str
    pieces: tuple

    def to_json(self) -> dict:
        return {
            "args": list(self.args),
            "value": self.value_var,
            "pieces": [
                {"guard": print_formula(p.guard),
                 "coeffs": list(p.coeffs),
                 "denom": p.denom,
                 "offset": p.offset}
                for p in self.pieces
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "PieceSet":
        pieces = tuple(
            LinearPiece(parse_formula(d["guard"]), tuple(d["coeffs"]),
                        int(d["denom"]), int(d["offset"]))
            for d in data["pieces"]
        )
        return PieceSet(tuple(data["args"]), data["value"], pieces)


def _fold_lit(a: Formula) -> Formula:
    """a read over the integers (discrete quotients, minimal positive one):
    where `main_rel` leaves equal sides, lt holds and eq and cong fail."""

    if isinstance(a, MainRel) and a.lhs == a.rhs:
        return TRUE if a.op == "lt" else FALSE
    return a


def _subst_records(records, t_c: LinTerm, d_c: int) -> list:
    """Guard literals obtained by substituting the candidate value
    t_c + d_c for the scaled variable in every record, folded over the
    integers."""

    out = []
    for kind, rec in records:
        if kind in ("lo", "up"):
            # lo < value for a strict lower bound and not value < lo for a
            # weak one; an upper bound the same with the sides swapped
            if (kind == "lo") == rec.strict:
                a = main_rel("lt", rec.c, t_c, d_c - rec.k, rec.aux)
            else:
                a = main_rel("lt", t_c, rec.c, rec.k - d_c, rec.aux)
            pol = rec.strict
        elif kind in ("eq", "ne"):
            a = main_rel("eq", t_c, rec.c, rec.k - d_c, rec.aux)
            pol = kind == "eq"
        else:
            # Over the integers the class groups are trivial, so a bracket
            # congruence is a plain one at the stored gcd modulus.
            a = main_rel("cong", t_c, rec.c, rec.k - d_c, rec.aux, rec.m)
            pol = rec.pol
        a = _fold_lit(a)
        out.append(a if pol else neg(a))
    return out


def _normalize_value(coeffs, denom: int, offset: int):
    g = denom
    for c in coeffs:
        g = math.gcd(g, c)
    g = math.gcd(g, offset)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        denom //= g
        offset //= g
    return coeffs, denom, offset


def _clause_candidates(var: str, lits, args):
    """(value, guard) pairs for one clause: value = (coeffs, denom, offset),
    guard a formula over the arguments, never false."""

    xfree, raws = _gather(var, lits)
    if not raws:
        return []
    lowers, uppers, eqs, nes, congs, R = _scale_records(raws)
    records = ([("lo", b) for b in lowers] + [("up", b) for b in uppers] +
               [("eq", e) for e in eqs] + [("ne", e) for e in nes] +
               [("cong", c) for c in congs])
    if eqs:
        cands = [(e.c, e.k) for e in eqs]
    else:
        dmax = R * _cong_m0(congs) + 1
        cands = []
        for b in lowers:
            for d in range(1 if b.strict else 0, dmax + 1):
                cands.append((b.c, b.k + d))
        for b in uppers:
            for d in range(1 if b.strict else 0, dmax + 1):
                cands.append((b.c, b.k - d))
    free = [a if pol else neg(a) for a, pol in xfree]
    out = []
    for t_c, d_c in cands:
        extra = t_c.vars() - set(args)
        if extra:
            raise ValueError("value depends on non-argument variables: %s"
                             % ", ".join(sorted(extra)))
        guard = conj(free + _subst_records(records, t_c, d_c))
        if isinstance(guard, Bottom):
            continue
        coeffs = tuple(t_c.coeff(x) for x in args)
        out.append((_normalize_value(coeffs, R, d_c), guard))
    return out


def _sample_points(n: int, box: int):
    """The integer points of [-box, box]^n, the last coordinate fastest."""

    return itertools.product(range(-box, box + 1), repeat=n)


def decompose(model, formula: Formula, value_var: str, args,
              *, check_box: int = 4) -> PieceSet:
    """Piecewise-linear decomposition of the function whose graph is the
    given quantifier-free formula.

    The model, when given, is used for a sampled functionality check over
    the box of the given radius: each sampled argument tuple must admit
    exactly one value.  Guards of the returned pieces are made pairwise
    disjoint in order of discovery.
    """

    if check_box < 0:
        raise ValueError("negative box radius %d" % check_box)
    args = tuple(args)
    # the caller may have built the formula with raw connectives; the
    # splitter needs the smart constructors' form
    formula = rebuild(formula, lambda a: a)
    clauses = dnf_disjoint_tree(formula)
    for cl in clauses:
        for u, _ in cl:
            if not isinstance(u, Atom):
                raise ValueError("quantifier-free formula required, found %r"
                                 % (u,))
    merged = {}
    for cl in clauses:
        for value, g in _clause_candidates(value_var, cl, args):
            if g not in merged.setdefault(value, []):
                merged[value].append(g)
    if not merged:
        raise FunctionalityError("no bounded candidate values: the formula "
                                 "does not pin the value variable")
    if model is not None:
        _check_function(model, formula, value_var, args, merged, check_box)
    pieces = []
    prior = []
    for value, guards in merged.items():
        g = guards[0] if len(guards) == 1 else disj(guards)
        full = conj([g] + [neg(h) for h in prior])
        prior.append(g)
        if isinstance(full, Bottom):
            continue
        coeffs, denom, offset = value
        pieces.append(LinearPiece(full, coeffs, denom, offset))
    return PieceSet(args, value_var, tuple(pieces))


class _Elements(dict):
    """Integer v -> model.element([v]), each built on first use."""

    def __init__(self, model):
        self.model = model

    def __missing__(self, v: int):
        e = self[v] = self.model.element([v])
        return e


def _check_function(model, formula, value_var, args, merged, box):
    # the graph is quantifier-free, so graph(asg) is exact; a sampled value
    # at which it holds is a witness of Exists value. graph
    graph = evaluator(model, formula)
    element = _Elements(model)
    for point in _sample_points(len(args), box):
        asg = {x: element[v] for x, v in zip(args, point)}
        found = set()
        for (coeffs, denom, offset), _ in merged.items():
            num = sum(r * v for r, v in zip(coeffs, point)) + offset
            if num % denom:
                continue
            found.add(num // denom)
        for y in range(-box, box + 1):
            found.add(y)
        sats = set()
        for y in sorted(found):
            asg[value_var] = element[y]
            if graph(asg) is True:
                sats.add(y)
        del asg[value_var]
        if len(sats) != 1:
            raise FunctionalityError(
                "argument point %r admits %d sampled values"
                % (point, len(sats)))


@dataclass(frozen=True)
class VerifyReport:
    points: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_decomposition(model, formula: Formula, ps: PieceSet,
                         box: int) -> VerifyReport:
    """Exhaustive check of a decomposition over the box of the given radius.

    At every argument point exactly one guard must hold, the piece's value
    must be integral, and the graph formula must hold at it.  Violations are
    collected, not raised."""

    if box < 0:
        raise ValueError("negative box radius %d" % box)
    guards = [evaluator(model, p.guard) for p in ps.pieces]
    graph = evaluator(model, formula)
    element = _Elements(model)
    violations = []
    points = 0
    for point in _sample_points(len(ps.args), box):
        points += 1
        asg = {x: element[v] for x, v in zip(ps.args, point)}
        live = [p for p, guard in zip(ps.pieces, guards)
                if guard(asg) is True]
        if len(live) != 1:
            violations.append({"point": point, "kind": "cover",
                               "count": len(live)})
            continue
        piece = live[0]
        y = piece.value_at(point)
        if y is None:
            violations.append({"point": point, "kind": "nonintegral"})
            continue
        asg[ps.value_var] = element[y]
        if graph(asg) is not True:
            violations.append({"point": point, "kind": "value", "value": y})
    return VerifyReport(points, tuple(violations))
