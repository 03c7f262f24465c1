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
verification compile each formula they evaluate (the graph and every guard)
once per call and reuse it at every grid point.
"""

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
    Atom, Bottom, Exists, Formula, LinTerm, MainRel, Not, SORT_G,
    conj, disj, neg,
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


def _fold_lit(a: Atom, pol: bool):
    """Decide a literal whose two sides differ by a constant offset only,
    reading the anchor as a discrete quotient with minimal positive one.
    Returns True, False, or None when the literal stays symbolic."""

    if not isinstance(a, MainRel):
        return None
    if not (a.lhs - a.rhs).is_zero():
        return None
    if a.op == "lt":
        val = a.k >= 1
    elif a.op == "eq":
        val = a.k == 0
    elif a.op == "cong":
        val = a.k % a.m == 0
    else:
        val = True
    return val if pol else not val


def _subst_records(records, t_c: LinTerm, d_c: int):
    """Guard literals obtained by substituting the candidate value
    t_c + d_c for the scaled variable in every record.  Returns a list of
    formulas, or None when some literal folds to false."""

    out = []
    for kind, rec in records:
        if kind == "lo":
            if rec.strict:
                a, pol = MainRel("lt", rec.c, t_c, d_c - rec.k, rec.aux), True
            else:
                a, pol = MainRel("lt", t_c, rec.c, rec.k - d_c, rec.aux), False
        elif kind == "up":
            if rec.strict:
                a, pol = MainRel("lt", t_c, rec.c, rec.k - d_c, rec.aux), True
            else:
                a, pol = MainRel("lt", rec.c, t_c, d_c - rec.k, rec.aux), False
        elif kind == "eq":
            a, pol = MainRel("eq", t_c, rec.c, rec.k - d_c, rec.aux), True
        elif kind == "ne":
            a, pol = MainRel("eq", t_c, rec.c, rec.k - d_c, rec.aux), False
        else:
            # Over the integers the class groups are trivial, so a bracket
            # congruence is a plain one at the stored gcd modulus.
            a = MainRel("cong", t_c, rec.c, (rec.k - d_c) % rec.m, rec.aux,
                        m=rec.m)
            pol = rec.pol
        dec = _fold_lit(a, pol)
        if dec is False:
            return None
        if dec is None:
            out.append(a if pol else Not(a))
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
    guard a list of formulas over the arguments."""

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
    free = [a if pol else Not(a) for a, pol in xfree]
    out = []
    for t_c, d_c in cands:
        extra = t_c.vars() - set(args)
        if extra:
            raise ValueError("value depends on non-argument variables: %s"
                             % ", ".join(sorted(extra)))
        guard = _subst_records(records, t_c, d_c)
        if guard is None:
            continue
        coeffs = tuple(t_c.coeff(x) for x in args)
        out.append((_normalize_value(coeffs, R, d_c), free + guard))
    return out


def _sample_points(n: int, box: int):
    if n == 0:
        yield ()
        return
    for rest in _sample_points(n - 1, box):
        for v in range(-box, box + 1):
            yield rest + (v,)


def decompose(model, formula: Formula, value_var: str, args,
              *, check_box: int = 4, dnf_cap: int = 4096) -> PieceSet:
    """Piecewise-linear decomposition of the function whose graph is the
    given quantifier-free formula.

    The model, when given, is used for a sampled functionality check over
    the box of the given radius: each sampled argument tuple must admit
    exactly one value.  Guards of the returned pieces are made pairwise
    disjoint in order of discovery.
    """

    args = tuple(args)
    clauses = dnf_disjoint_tree(formula, cap=dnf_cap)
    for cl in clauses:
        for u, _ in cl:
            if not isinstance(u, Atom):
                raise ValueError("quantifier-free formula required, found %r"
                                 % (u,))
    merged = {}
    for cl in clauses:
        for value, guard in _clause_candidates(value_var, cl, args):
            g = conj(guard)
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


def _check_function(model, formula, value_var, args, merged, box):
    graph = evaluator(model, formula)
    total = evaluator(model, Exists(value_var, SORT_G, formula))
    for point in _sample_points(len(args), box):
        asg = {x: model.element([v]) for x, v in zip(args, point)}
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
            asg[value_var] = model.element([y])
            if graph(asg) is True:
                sats.add(y)
        del asg[value_var]
        if len(sats) != 1 or total(asg) is not True:
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

    guards = [evaluator(model, p.guard) for p in ps.pieces]
    graph = evaluator(model, formula)
    violations = []
    points = 0
    for point in _sample_points(len(ps.args), box):
        points += 1
        asg = {x: model.element([v]) for x, v in zip(ps.args, point)}
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
        asg[ps.value_var] = model.element([y])
        if graph(asg) is not True:
            violations.append({"point": point, "kind": "value", "value": y})
    return VerifyReport(points, tuple(violations))
