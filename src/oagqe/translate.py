"""Bridges between the two atom languages, and dimension chains.

The anchored relations (lhs <>_a rhs + k) are re-expressed through the
canonical maps and the dotted predicates (`qe_atom_to_syn`), and a
quantifier-free formula over those is brought back into family union form
over anchored relations (`syn_qf_to_qe_fuf`).  `dim_chain_formula` spells
out the quotient dimensions of the eliminator's counting condition as
auxiliary formulas.  The eliminator scales coefficients and splits moduli
into prime powers on its own records.  Every rewrite here is a pointwise
equivalence, checked by sampling in the test suite.

Auxiliary comparisons come from `syntax.aux_le`, `aux_lt` and `aux_asymp`,
which fold at the sort minima, and canonical-map images from
`syntax.can_image`, which folds the image of the zero term to its sort's
minimum.  So a relation anchored at a minimum, as is every plain relation
in `syn_qf_to_qe_fuf`, or one between equal sides, translates with no
canonical-map image: no theta parameter to extract, and no pin of three
units for the final case split to branch on.  That split decides only the
main-sort atoms, through the auxiliary blocks that hold them; what a
branch leaves once none is live is auxiliary and joins the clause's guard.
"""

from __future__ import annotations

import math

from .models import TOPG, prime_power_parts
from .normal import (
    FamilyUnionForm, FUClause, ResourceLimit, dnf_disjoint_tree,
    extract_can_terms, hoist_main_units, unit_involves_main,
)
from .syntax import (
    AC, AEP, FALSE, TRUE, Atom, AuxTerm, AuxVar, Bottom, CongDot, DimFloor,
    DimSucc, Discr, DPred, EqDot, Exists, Forall, Formula, Fresh, LinTerm,
    MainRel, Not, PlainRel, Sc, Se, SortMin, SuccPlus, aux_asymp, aux_le,
    aux_lt, aux_term_sort, can_image, conj, disj, implies, neg, rebuild,
    sort_ac,
)

DIM_ELL_CAP = 8


# ---------------------------------------------------------------------------
# Small builders

def canc_term(m: int, t: LinTerm) -> AuxTerm:
    """The canonical map of exponent m, as a prime power when possible."""

    parts = prime_power_parts(m)
    if len(parts) == 1:
        p, r = parts[0]
        return can_image(Sc(p, r, t))
    return can_image(Sc(m, 1, t))


def plain_eq0(t: LinTerm) -> Formula:
    z = LinTerm.zero()
    return conj([neg(PlainRel("lt", t, z)), neg(PlainRel("lt", z, t))])


# ---------------------------------------------------------------------------
# Discreteness on arbitrary sorts

def discr_lift(term: AuxTerm, fresh: Fresh) -> Formula:
    """Discreteness of the quotient at any auxiliary point, phrased through
    the coordinate sorts when the point lives elsewhere."""

    sort = aux_term_sort(term)
    if sort is not None and sort.kind == AC:
        return Discr(term)
    name = fresh("d")
    v = AuxVar(name, sort_ac(2))
    return Exists(name, sort_ac(2), conj([aux_asymp(v, term), Discr(v)]))


# ---------------------------------------------------------------------------
# Anchored atoms through the canonical maps

def qe_atom_to_syn(a: Atom, fresh: Fresh) -> Formula:
    """An anchored relation re-expressed without anchored relations: only
    plain relations, dotted predicates, and comparisons of canonical-map
    images.  Atoms of other kinds pass through unchanged."""

    if not isinstance(a, MainRel):
        return a
    t = a.lhs - a.rhs
    eta = a.aux
    if a.op == "eq":
        return _eq_translate(eta, t, a.k, fresh)
    if a.op == "lt":
        return _lt_translate(eta, a.lhs, a.rhs, a.k, fresh)
    if a.op == "cong":
        return _cong_translate(eta, t, a.k, a.m, fresh)
    return _congb_translate(eta, t, a.m, a.mp)


def _eq_zero(eta: AuxTerm, t: LinTerm, fresh: Fresh) -> Formula:
    sort = aux_term_sort(eta)
    if sort is None:
        raise ValueError("anchor sort unknown; declare the variable")
    if sort.kind == AEP:
        n = sort.n
        name = fresh("q")
        v = AuxVar(name, sort_ac(n))
        below = Forall(name, sort_ac(n),
                       implies(aux_le(eta, v), aux_lt(can_image(Se(n, t)), v)))
        return disj([plain_eq0(t), below])
    return disj([aux_lt(can_image(Se(sort.n, t)), eta), plain_eq0(t)])


def _by_discr(eta: AuxTerm, fresh: Fresh, dense: Formula,
              disc: Formula) -> Formula:
    """dense where the quotient at eta is dense, disc where it is discrete,
    through one discreteness witness for both cases."""

    d = discr_lift(eta, fresh)
    return disj([conj([neg(d), dense]), conj([d, disc])])


def _eq_step(eta: AuxTerm, t: LinTerm, k: int) -> Formula:
    """t is k least positive steps at eta, a discrete quotient."""

    return conj([aux_asymp(eta, can_image(Se(2, t))), EqDot(k, t)])


def _eq_translate(eta, t, k, fresh) -> Formula:
    if k == 0:
        return _eq_zero(eta, t, fresh)
    return _by_discr(eta, fresh, _eq_zero(eta, t, fresh), _eq_step(eta, t, k))


def _cong_zero(eta: AuxTerm, t: LinTerm, m: int) -> Formula:
    if m == 1:
        return TRUE
    below = conj([aux_lt(can_image(Sc(p, r, t)), eta)
                  for p, r in prime_power_parts(m)])
    return disj([below, PlainRel("cong", t, LinTerm.zero(), m=m)])


def _cong_translate(eta, t, k, m, fresh) -> Formula:
    k = k % m
    if k == 0:
        return _cong_zero(eta, t, m)
    return _by_discr(eta, fresh, _cong_zero(eta, t, m),
                     conj([aux_asymp(eta, canc_term(m, t)),
                           CongDot(m, k, t)]))


def _congb_translate(eta, t, m, mp) -> Formula:
    rs = dict(prime_power_parts(math.gcd(m, mp)))
    parts = []
    for p, s in prime_power_parts(mp):
        r = rs.get(p)
        if r is None:
            continue
        piece = disj([
            _cong_zero(eta, t, p ** r),
            conj([aux_asymp(eta, can_image(Sc(p, r, t))), DPred(p, r, s, t)]),
        ])
        parts.append(piece)
    return conj(parts)


def _lt_translate(eta, lhs, rhs, k, fresh) -> Formula:
    t = lhs - rhs
    zero = _eq_zero(eta, t, fresh)
    base = conj([PlainRel("lt", lhs, rhs), neg(zero)])
    if k == 0:
        return base
    if k > 0:
        recipe = disj([base, zero] + [_eq_step(eta, t, i)
                                      for i in range(1, k)])
    else:
        recipe = conj([base] + [neg(_eq_step(eta, t, i))
                                for i in range(k, 0)])
    return _by_discr(eta, fresh, base, recipe)


# ---------------------------------------------------------------------------
# The reverse direction: plain and dotted atoms into anchored family form

def _syn_atom_rewrite(a: Atom) -> Formula:
    """An atom of the restricted language as anchored relations, or the
    constant it decides: a relation between equal sides at offset 0, or a
    dotted predicate of the zero term, which lies in every group."""

    if isinstance(a, PlainRel):
        a = MainRel(a.op, a.lhs, a.rhs, 0, SortMin(sort_ac(2)), m=a.m)
    if isinstance(a, MainRel):
        if a.lhs == a.rhs and a.k == 0:
            return FALSE if a.op == "lt" else TRUE
        return a
    z = LinTerm.zero()
    if isinstance(a, (EqDot, DPred)) and a.t == z:
        return FALSE
    if isinstance(a, EqDot):
        e = Se(2, a.t)
        return conj([Discr(e), MainRel("eq", a.t, z, a.k, e)])
    if isinstance(a, CongDot):
        c = canc_term(a.m, a.t)
        return conj([Discr(c), MainRel("cong", a.t, z, a.k, c, m=a.m)])
    if isinstance(a, DPred):
        c = Sc(a.p, a.r, a.t)
        return conj([
            MainRel("congb", a.t, z, 0, c, m=a.p ** a.r, mp=a.p ** a.s),
            neg(MainRel("cong", a.t, z, 0, c, m=a.p ** a.r)),
        ])
    return a


def _pin_formula(var: AuxVar, term: AuxTerm) -> Formula:
    """var equals the canonical-map image `term`, written with anchored
    relations at var only."""

    t, z = term.arg, LinTerm.zero()
    if isinstance(term, Sc):
        m = term.p ** term.r
        at_var = MainRel("cong", t, z, 0, var, m=m)
        above = MainRel("congb", t, z, 0, var, m=m, mp=m)
    elif isinstance(term, Se):
        at_var = MainRel("eq", t, z, 0, var)
        above = MainRel("eq", t, z, 0, SuccPlus(var))
    else:
        raise TypeError("not a canonical-map image: %r" % (term,))
    hit = conj([neg(at_var), above])
    bottom = conj([aux_le(var, SortMin(aux_term_sort(term))), at_var])
    return disj([hit, bottom])


def syn_qf_to_qe_fuf(f: Formula, fresh: Fresh,
                     cap: int = 4096) -> FamilyUnionForm:
    """A formula over plain and dotted atoms without main-sort quantifiers,
    brought into family union form over anchored relations.

    Plain relations are anchored at the bottom coordinate class, dotted
    predicates are unfolded through their canonical-map image, the images
    are pulled out into parameters pinned by anchored relations, and the
    matrix is case-split into pairwise-disjoint clauses over every unit in
    order of first occurrence, through the auxiliary blocks that hold
    main-sort atoms.  A branch ends once no main-sort unit is live; its
    auxiliary literals and what is left of the matrix there form the
    guard.  The parameter names come from fresh, which must reserve every
    name of f.
    """

    g = rebuild(f, _syn_atom_rewrite)
    g, extracted = extract_can_terms(g, fresh)
    theta = tuple((name, sort) for name, sort, _ in extracted)
    pins = [_pin_formula(AuxVar(name, sort), term)
            for name, sort, term in extracted]
    matrix = conj(pins + [g])
    units = hoist_main_units(matrix)
    involves: dict = {}
    main = {u for u in units if unit_involves_main(u, involves)}

    clauses = []
    for row in dnf_disjoint_tree(matrix, cap, units, main):
        xi_parts = []
        psi = []
        for u, pol in row:
            if u in main:
                psi.append((u, pol))
            else:
                xi_parts.append(u if pol else neg(u))
        clauses.append(FUClause(theta, conj(xi_parts), tuple(psi)))
    return FamilyUnionForm(tuple(clauses))


# ---------------------------------------------------------------------------
# Dimension chains

def _compositions(total: int, n: int):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def _dim_levels(p: int, beta: AuxTerm, s_hi, s_lo, ell: int) -> Formula:
    """dim of (bracket level s_lo)/(bracket level s_hi) at beta equals ell;
    s_hi may be None for the group at beta itself."""

    if s_hi is None:
        if s_lo is None:
            return TRUE if ell == 0 else FALSE
        return DimFloor(p, s_lo, ell, beta)
    if s_lo is None or s_lo > s_hi:
        raise ValueError("levels out of order")
    steps = list(range(s_lo, s_hi))
    if not steps:
        return TRUE if ell == 0 else FALSE
    return disj([
        conj([DimSucc(p, s, l, beta) for s, l in zip(steps, split)])
        for split in _compositions(ell, len(steps))
    ])


def _dim_same_class(p, alpha, s_hi, s_lo, ell, fresh) -> Formula:
    """Quotient of two bracket levels over the same class, anchored through
    a coordinate-sort point when one exists."""

    name = fresh("b")
    v = AuxVar(name, sort_ac(p))
    with_point = Exists(name, sort_ac(p), conj([
        aux_asymp(v, alpha), _dim_levels(p, v, s_hi, s_lo, ell)]))
    no_point = conj([
        Not(Exists(name, sort_ac(p), aux_asymp(v, alpha))),
        TRUE if ell == 0 else FALSE,
    ])
    return disj([with_point, no_point])


def dim_chain_formula(p: int, lower, upper, ell: int,
                      fresh: Fresh) -> Formula:
    """Pure-auxiliary formula: the chain condition holds and the p-quotient
    dimension between the two bracket groups equals ell.

    lower is (aux term, s) with s in N>=1 or None for the group itself;
    upper is the same or TOPG for the whole group.
    """

    if ell < 0 or ell > DIM_ELL_CAP:
        raise ResourceLimit("dimension target %d out of range" % ell)
    a1, s1 = lower
    if upper == TOPG:
        a2, s2, top = None, None, True
    else:
        a2, s2, top = upper[0], upper[1], False
    for s in (s1, s2):
        if s is not None and s < 1:
            raise ValueError("bracket level must be >= 1 or None")

    branches = []
    if not top:
        # same archimedean class needs level s1 at least level s2
        if s1 is None and s2 is None:
            branches.append(conj([aux_asymp(a1, a2),
                                  TRUE if ell == 0 else FALSE]))
        elif s2 is not None and (s1 is None or s1 >= s2):
            branches.append(conj([
                aux_asymp(a1, a2),
                _dim_same_class(p, a1, s1, s2, ell, fresh),
            ]))

    if not top and isinstance(aux_lt(a1, a2), Bottom):
        return disj(branches)  # no chain runs from a1 up to a2
    # a1 strictly below a2 (or below the whole group)
    for k in range(ell + 2):
        names = [fresh("b") for _ in range(k)]
        betas = [AuxVar(n, sort_ac(p)) for n in names]
        order = []
        prev = a1
        for b in betas:
            order.append(aux_lt(prev, b))
            prev = b
        if not top:
            order.append(aux_lt(prev, a2))
        gname = fresh("g")
        gv = AuxVar(gname, sort_ac(p))
        between = conj([aux_lt(a1, gv)] +
                       ([aux_lt(gv, a2)] if not top else []))
        exact = Forall(gname, sort_ac(p), implies(
            between, disj([aux_asymp(gv, b) for b in betas])))

        pieces = []  # dimension contributions along the chain
        pieces.append(lambda l, a1=a1, s1=s1: _dim_same_class(
            p, a1, s1, 1, l, fresh))
        for b in betas:
            pieces.append(lambda l, b=b: DimFloor(p, 1, l, b))
        if top or s2 is None:
            pieces.append(lambda l: TRUE if l == 0 else FALSE)
        else:
            pieces.append(lambda l, a2=a2, s2=s2: _dim_same_class(
                p, a2, None, s2, l, fresh))

        dim_split = disj([
            conj([piece(l) for piece, l in zip(pieces, split)])
            for split in _compositions(ell, len(pieces))
        ])
        core = conj(order + [exact, dim_split])
        for n in reversed(names):
            core = Exists(n, sort_ac(p), core)
        branches.append(core)
    return disj(branches)
