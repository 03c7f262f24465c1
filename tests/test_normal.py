"""Boolean skeleton passes and family union form."""

import random

import pytest

from conftest import (
    AUX_FREE, FIXTURE_MODELS, aux_assignment, main_assignment, rand_bool,
    rand_mixed_atom, rand_syn_atom,
)
from oagqe.evaluate import evaluate
from oagqe.models import IntComp, LexModel
from oagqe.normal import (
    FamilyUnionForm, FUClause, ResourceLimit, ShannonSplitter,
    atom_involves_main, boolean_units, dnf_disjoint_tree, hoist_main_units,
    inline_defined_params, to_family_union,
)
from oagqe.syntax import (
    FALSE, TRUE, And, Atom, AuxLe, AuxVar, Bottom, Discr, Exists, Forall,
    LinTerm, MainRel, Not, Or, PlainRel, SORT_G, Sc, Sort, SortMin, Top,
    atoms_of, conj, disj, free_vars, has_main_quantifier, neg, rebuild,
    sort_ac, subformulas,
)

ZZ = LexModel((IntComp(), IntComp()))
BOT = SortMin(sort_ac(2))
zero = LinTerm.zero()


def atom(i):
    return PlainRel("lt", zero, LinTerm.var("y%d" % i))


def rand_skeleton(rng, depth):
    if depth == 0:
        return atom(rng.randint(1, 5))
    c = rng.randint(0, 2)
    if c == 0:
        return neg(rand_skeleton(rng, depth - 1))
    args = [rand_skeleton(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return conj(args) if c == 1 else disj(args)


def test_boolean_units_order_and_dedup():
    f = conj([disj([atom(2), atom(1)]), Not(atom(2)), atom(3)])
    assert boolean_units(f) == [atom(2), atom(1), atom(3)]
    # a quantified block is opaque: one unit, not its atoms
    q = Exists("x", SORT_G, MainRel("lt", zero, LinTerm.var("x"), 0, BOT))
    assert boolean_units(conj([q, atom(1)])) == [q, atom(1)]


def test_splitter_cofactors_fold_constants():
    f = conj([disj([atom(1), atom(2)]), atom(3)])
    sp = ShannonSplitter(boolean_units(f))
    assert sp.cofactor(f, 0, True) == atom(3)
    assert sp.cofactor(sp.cofactor(f, 0, False), 1, False) is FALSE
    assert sp.cofactor(f, 2, True) == disj([atom(1), atom(2)])
    # a subtree without the split unit is its own cofactor
    g = atom(3)
    assert sp.cofactor(g, 0, True) is g
    assert sp.split(f) == (0, atom(3), conj([atom(2), atom(3)]))
    assert sp.split(atom(3))[0] == 2
    assert sp.split(TRUE) == ()
    # units outside the list are opaque leaves
    assert ShannonSplitter([atom(1)]).cofactor(atom(4), 0, True) == atom(4)


def _clause_truth(clause, val):
    return all(val[u] is b for u, b in clause)


def _skeleton_truth(f, val):
    if isinstance(f, (Top, Bottom)):
        return isinstance(f, Top)
    if isinstance(f, Not):
        return not _skeleton_truth(f.arg, val)
    if isinstance(f, And):
        return all(_skeleton_truth(g, val) for g in f.args)
    if isinstance(f, Or):
        return any(_skeleton_truth(g, val) for g in f.args)
    return val[f]


def truth_table(f, **kwargs):
    """The clauses of to_family_union over main atoms only, as unit lists."""

    fuf = to_family_union(f, **kwargs)
    assert all(cl.xi is TRUE and cl.theta == () for cl in fuf.clauses)
    return [list(cl.psi) for cl in fuf.clauses]


@pytest.mark.parametrize("dnf,kwargs", [
    (truth_table, {"cap_atoms": 5}),
    (dnf_disjoint_tree, {}),
])
def test_dnf_cover_and_disjoint(dnf, kwargs):
    rng = random.Random(7)
    for _ in range(40):
        f = rand_skeleton(rng, rng.randint(1, 3))
        units = boolean_units(f)
        clauses = dnf(f, **kwargs)
        for _ in range(20):
            val = {u: rng.random() < 0.5 for u in units}
            sat = [cl for cl in clauses if _clause_truth(cl, val)]
            assert len(sat) <= 1, "two clauses satisfied at once"
            assert bool(sat) == _skeleton_truth(f, val)


def test_dnf_tree_emits_short_clauses():
    f = disj([atom(1), conj([atom(2), atom(3)])])
    clauses = dnf_disjoint_tree(f)
    # the first branch decides the formula after a single unit
    assert min(len(cl) for cl in clauses) == 1
    with pytest.raises(ResourceLimit):
        dnf_disjoint_tree(disj([atom(i) for i in range(1, 6)]), cap=2)
    with pytest.raises(ResourceLimit):
        to_family_union(conj([atom(i) for i in range(1, 6)]), cap_atoms=4)


# The disjoint normal form as it was before the splitter: every node
# recomputes its live units and rewrites the whole remainder.  Kept as the
# reference that the splitter must reproduce clause for clause.

def _ref_replace_units(f, val, memo=None):
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, (Top, Bottom)):
        out = f
    elif isinstance(f, Not):
        out = neg(_ref_replace_units(f.arg, val, memo))
    elif isinstance(f, And):
        out = conj(_ref_replace_units(g, val, memo) for g in f.args)
    elif isinstance(f, Or):
        out = disj(_ref_replace_units(g, val, memo) for g in f.args)
    else:
        out = val.get(f, f)
    memo[id(f)] = (f, out)
    return out


def _ref_dnf_disjoint_tree(f, cap=4096):
    units = boolean_units(f)
    f = _ref_replace_units(f, {u: u for u in units})
    clauses = []
    stack = [(f, 0, [])]
    while stack:
        g, i, lits = stack.pop()
        if isinstance(g, Bottom):
            continue
        if isinstance(g, Top):
            clauses.append(lits)
            if len(clauses) > cap:
                raise ResourceLimit("disjoint clause cap exceeded")
            continue
        live = {id(x) for x in boolean_units(g)}
        while i < len(units) and id(units[i]) not in live:
            i += 1
        if i >= len(units):
            raise AssertionError("skeleton did not fully evaluate")
        u = units[i]
        for pol in (False, True):
            h = _ref_replace_units(g, {u: TRUE if pol else FALSE})
            stack.append((h, i + 1, lits + [(u, pol)]))
    return clauses


def _block(rng):
    a = AuxVar("a", sort_ac(2))
    body = conj([Discr(a), atom(rng.randint(1, 6))])
    return (Exists if rng.random() < 0.5 else Forall)("a", sort_ac(2), body)


def rand_shared_skeleton(rng):
    """A skeleton over six atoms and quantified blocks whose nodes are
    drawn from a growing pool, so subformulas recur by identity and by
    value.  Some connectives are built raw: nested, single-argument or
    holding constants."""

    pool = [atom(i) for i in range(1, 7)] + [_block(rng) for _ in range(2)]
    for _ in range(rng.randint(4, 16)):
        # draw mostly from the upper half of the pool, so the nodes nest
        parts = [pool[rng.randint(len(pool) // 2, len(pool) - 1)]
                 if rng.random() < 0.7 else rng.choice(pool)
                 for _ in range(rng.choice([1, 2, 2, 3]))]
        if rng.random() < 0.1:
            parts.append(rng.choice([TRUE, FALSE]))
        c = rng.randint(0, 3)
        if c == 0:
            node = conj(parts)
        elif c == 1:
            node = disj(parts)
        else:
            node = (And if c == 2 else Or)(tuple(parts))
        if rng.random() < 0.25:
            node = neg(node) if rng.random() < 0.5 else Not(node)
        pool.append(node)
    return pool[-1]


def test_dnf_tree_matches_reference():
    rng = random.Random(11)
    sizes = []
    for _ in range(200):
        # the splitter takes formulas built by the smart constructors, so a
        # raw skeleton is first rebuilt, as decompose rebuilds its input
        f = rebuild(rand_shared_skeleton(rng), lambda a: a)
        want = _ref_dnf_disjoint_tree(f)
        assert dnf_disjoint_tree(f) == want, f
        n = len(want)
        sizes.append(n)
        dnf_disjoint_tree(f, cap=n)
        if n:
            with pytest.raises(ResourceLimit):
                dnf_disjoint_tree(f, cap=n - 1)
    # the draw reaches trees of some size and unsatisfiable skeletons
    assert max(sizes) >= 8 and 0 in sizes


def test_hoist_main_units_equivalence(rng):
    a = AuxVar("a", sort_ac(2))
    plain = PlainRel("lt", zero, LinTerm.var("y"))
    f = Exists("a", sort_ac(2), conj([Discr(a), plain]))
    g = hoist_main_units(f)
    # no main atom is left under the auxiliary quantifier
    for u in boolean_units(g):
        if isinstance(u, Exists):
            assert not any(atom_involves_main(p) for p in atoms_of(u.body))
    for v in (-2, 0, 3):
        asg = {"y": ZZ.element([v, 0])}
        assert evaluate(ZZ, asg, f) == evaluate(ZZ, asg, g)


def test_hoist_is_linear_when_first_atom_decides():
    a = AuxVar("a", sort_ac(2))
    ms = [PlainRel("lt", zero, LinTerm.var("y%d" % i)) for i in range(10)]
    body = disj([conj([ms[0], Discr(a)]),
                 conj([neg(ms[0]), disj(ms[1:] + [neg(Discr(a))])])])
    f = Exists("a", sort_ac(2), body)
    g = hoist_main_units(f)
    # a chain of if-then-else nodes, one per atom, not a 2^10-row table
    assert len(list(subformulas(g))) <= 6 * len(ms)
    for u in boolean_units(g):
        if isinstance(u, Exists):
            assert not any(atom_involves_main(p) for p in atoms_of(u.body))
    rng = random.Random(3)
    for model in FIXTURE_MODELS[:3]:
        for _ in range(3):
            asg = main_assignment(model, rng, ["y%d" % i for i in range(10)])
            assert evaluate(model, asg, f) == evaluate(model, asg, g)


def _rand_block(rng):
    a = AuxVar("a", sort_ac(2))
    aux = [Discr(a), AuxLe(a, AUX_FREE[0]), AuxLe(SortMin(sort_ac(2)), a)]

    def leaf(r):
        return r.choice(aux) if r.random() < 0.4 else rand_syn_atom(r)

    body = rand_bool(rng, rng.randint(1, 3), leaf)
    return (Exists if rng.random() < 0.5 else Forall)("a", sort_ac(2), body)


def test_hoist_random_blocks_agree_with_evaluate():
    rng = random.Random(5)
    decided = 0
    for trial in range(40):
        f = rand_bool(rng, rng.randint(0, 1), _rand_block)
        g = hoist_main_units(f)
        for u in boolean_units(g):
            if not isinstance(u, Atom):
                assert not any(atom_involves_main(p) for p in atoms_of(u))
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        for _ in range(3):
            asg = main_assignment(model, rng, ["x", "y", "z"])
            asg.update(aux_assignment(model, rng) or {})
            want, got = evaluate(model, asg, f), evaluate(model, asg, g)
            if want is not None and got is not None:
                decided += 1
                assert want == got, (f, model, asg)
    assert decided >= 100


def test_hoist_rejects_bound_dependence():
    a = AuxVar("a", sort_ac(2))
    f = Exists("a", sort_ac(2),
               MainRel("lt", zero, LinTerm.var("y"), 0, a))
    with pytest.raises(ValueError):
        hoist_main_units(f)


def test_hoist_cap():
    plains = [PlainRel("lt", zero, LinTerm.var("y%d" % i))
              for i in range(12)]
    a = AuxVar("a", sort_ac(2))
    f = Exists("a", sort_ac(2), conj([Discr(a)] + plains))
    with pytest.raises(ResourceLimit):
        hoist_main_units(f, cap=4)


def test_well_formed_flags_problems():
    a = AuxVar("a", sort_ac(2))
    guard_main = FUClause((), PlainRel("lt", zero, LinTerm.var("y")), ())
    assert FamilyUnionForm((guard_main,)).well_formed()
    dup = FUClause((("a", sort_ac(2)), ("a", sort_ac(3))), TRUE, ())
    assert FamilyUnionForm((dup,)).well_formed()
    mainp = FUClause((("a", SORT_G),), TRUE, ())
    assert FamilyUnionForm((mainp,)).well_formed()
    qlit = FUClause((), TRUE, ((Exists("x", SORT_G, PlainRel(
        "lt", zero, LinTerm.var("x"))), True),))
    assert FamilyUnionForm((qlit,)).well_formed()
    ok = FUClause((("a", sort_ac(2)),), Discr(a),
                  ((MainRel("lt", zero, LinTerm.var("y"), 0, a), True),))
    assert FamilyUnionForm((ok,)).well_formed() == []


def _ref_well_formed(fuf):
    """FamilyUnionForm.well_formed as it was before guard facts were
    shared: three walks of each clause's guard."""

    problems = []
    for i, cl in enumerate(fuf.clauses):
        names = [n for n, _ in cl.theta]
        if len(set(names)) != len(names):
            problems.append("clause %d: duplicate parameter names" % i)
        for s in (s for _, s in cl.theta):
            if not isinstance(s, Sort) or s.is_main:
                problems.append("clause %d: non-aux parameter sort" % i)
        if has_main_quantifier(cl.xi):
            problems.append("clause %d: main quantifier in guard" % i)
        for a in atoms_of(cl.xi):
            if atom_involves_main(a):
                problems.append(
                    "clause %d: guard atom touches the main sort" % i)
                break
        for v, s in free_vars(cl.xi).items():
            if s is not None and s.is_main:
                problems.append(
                    "clause %d: main variable %s in guard" % (i, v))
        for a, pol in cl.psi:
            if not isinstance(a, Atom):
                problems.append("clause %d: non-atomic literal" % i)
            elif has_main_quantifier(a):
                problems.append("clause %d: quantified literal" % i)
    return problems


def test_well_formed_matches_reference():
    rng = random.Random(13)
    b, y = AuxVar("b", sort_ac(2)), AuxVar("y", sort_ac(3))
    extra = [Discr(b), Discr(y), AuxLe(b, y), Discr(AuxVar("u")),
             AuxLe(AuxVar("g", SORT_G), b), Discr(AuxVar("b", SORT_G)),
             Discr(Sc(2, 1, LinTerm.var("y"))),
             Exists("b", sort_ac(2), AuxLe(b, y)),
             Forall("y", sort_ac(3), Discr(y)),
             Exists("x", SORT_G, PlainRel("lt", zero, LinTerm.var("x")))]

    def leaf(r):
        return r.choice(extra) if r.random() < 0.5 else rand_mixed_atom(r)

    shared = [rand_bool(rng, 2, leaf) for _ in range(6)]
    # y first as an auxiliary variable, then in a main-sort term
    shared.append(conj([Discr(y), PlainRel("lt", zero, LinTerm.var("y"))]))
    problems = 0
    for _ in range(60):
        clauses = []
        for _ in range(rng.randint(1, 4)):
            xi = conj([rng.choice(shared) for _ in range(rng.randint(0, 3))])
            theta = tuple(rng.choice([("t", sort_ac(2)), ("t", SORT_G),
                                      ("s", sort_ac(2))])
                          for _ in range(rng.randint(0, 2)))
            psi = tuple((rng.choice(shared), True)
                        for _ in range(rng.randint(0, 2)))
            clauses.append(FUClause(theta, xi, psi))
        fuf = FamilyUnionForm(tuple(clauses))
        want = _ref_well_formed(fuf)
        assert fuf.well_formed() == want
        problems += len(want)
    assert problems >= 100


def test_inline_defined_params():
    v = AuxVar("v", sort_ac(2))
    t = Sc(2, 1, LinTerm.var("y"))
    body = conj([AuxLe(v, t), AuxLe(t, v), Discr(v)])
    f = Exists("v", sort_ac(2), body)
    assert inline_defined_params(f) == Discr(t)
    # without the two-sided pin the quantifier stays
    g = Exists("v", sort_ac(2), conj([AuxLe(v, t), Discr(v)]))
    assert isinstance(inline_defined_params(g), Exists)


def test_to_family_union_rejects_main_quantifier():
    f = Exists("x", SORT_G, PlainRel("lt", zero, LinTerm.var("x")))
    with pytest.raises(ValueError):
        to_family_union(f)


def test_to_family_union_cap():
    plains = [PlainRel("cong", LinTerm.var("y"), zero, m=m)
              for m in range(2, 9)]
    with pytest.raises(ResourceLimit):
        to_family_union(conj(plains), cap_atoms=3)


def test_to_family_union_equivalence(rng):
    for trial in range(30):
        f = rand_bool(rng, rng.randint(1, 2), rand_syn_atom)
        try:
            fuf = to_family_union(f)
        except ResourceLimit:
            continue
        assert fuf.well_formed() == []
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        for _ in range(4):
            asg = main_assignment(model, rng, ["x", "y", "z"])
            want = evaluate(model, asg, f)
            vals = [evaluate(model, asg, cl.to_formula())
                    for cl in fuf.clauses]
            got = (True if any(v is True for v in vals)
                   else (False if all(v is False for v in vals) else None))
            if want is not None and got is not None:
                assert want == got, (f, model, asg)
            # instantiated clauses must stay mutually exclusive
            assert sum(1 for v in vals if v is True) <= 1


# The truth table that to_family_union built before it took its clauses
# from the splitter's leaves: every main atom in every row, in lexicographic
# order with true first, a row prefix whose remainder is false not extended.
# Kept to bound the clause count of the leaves.

def _ref_truth_table_rows(f, units):
    sp = ShannonSplitter(units)
    rows = []

    def go(xi, row):
        if isinstance(xi, Bottom):
            return
        if len(row) == len(units):
            rows.append(row)
            return
        for b in (True, False):
            go(sp.cofactor(xi, len(row), b), row + (b,))

    go(f, ())
    return rows


def _main_and_aux_leaf(rng):
    a1 = AUX_FREE[0]
    if rng.random() < 0.3:
        return rng.choice([Discr(a1), AuxLe(BOT, a1), AuxLe(a1, BOT)])
    return atom(rng.randint(1, 6))


def test_to_family_union_clauses_are_branches():
    # no canonical-map image, so no parameter and no pin: psi is the branch
    rng = random.Random(19)
    fewer = 0
    for _ in range(60):
        f = rand_bool(rng, rng.randint(1, 4), _main_and_aux_leaf)
        units = [u for u in boolean_units(f) if atom_involves_main(u)]
        fuf = to_family_union(f)
        sp = ShannonSplitter(units)
        for cl in fuf.clauses:
            assert cl.theta == ()
            g = f
            for u, pol in cl.psi:
                i, hi, lo = sp.split(g)
                assert units[i] == u
                g = hi if pol else lo
            assert sp.split(g) == () and cl.xi == g
        rows = _ref_truth_table_rows(f, units)
        assert len(fuf.clauses) <= len(rows)
        fewer += len(fuf.clauses) < len(rows)
    assert fewer >= 10


def _can_leaf(rng):
    """A restricted-language atom, or an auxiliary atom over a
    canonical-map image of a main term (which becomes a parameter)."""

    if rng.random() < 0.3:
        s = Sc(2, 1, LinTerm.var(rng.choice(["y", "z"])))
        return rng.choice([Discr(s), AuxLe(s, AUX_FREE[0])])
    return rand_syn_atom(rng)


def test_to_family_union_psi_is_branch_then_pins():
    rng = random.Random(23)
    pinned = 0
    for _ in range(40):
        f = rand_bool(rng, rng.randint(1, 2), _can_leaf)
        try:
            fuf = to_family_union(f)
        except ResourceLimit:
            continue
        branches = []
        for cl in fuf.clauses:
            n = len(cl.psi) - 2 * len(cl.theta)
            names = {name for name, _ in cl.theta}
            for a, pol in cl.psi[n:]:
                assert pol and isinstance(a, AuxLe)
                assert {getattr(t, "name", None) for t in (a.lhs, a.rhs)} \
                    & names
            pinned += n < len(cl.psi)
            branch = cl.psi[:n]
            assert all(atom_involves_main(a) for a, _ in branch)
            assert len({a for a, _ in branch}) == n
            branches.append(branch)
        # the branches of one tree: two of them first differ on one atom,
        # taken with opposite polarities
        for p in branches:
            for q in branches:
                if p is q:
                    continue
                k = next(k for k, (l1, l2) in enumerate(zip(p, q))
                         if l1 != l2)
                assert p[k][0] == q[k][0] and p[k][1] != q[k][1]
    assert pinned >= 10


def test_to_family_union_stops_at_the_decision():
    f = disj([atom(1), conj([atom(i) for i in range(2, 7)])])
    units = boolean_units(f)
    assert len(_ref_truth_table_rows(f, units)) == 33
    fuf = to_family_union(f)
    assert [list(cl.psi) for cl in fuf.clauses] == [
        [(atom(1), True)], [(atom(1), False)] + [(atom(i), True)
                                                  for i in range(2, 7)]]
