"""Boolean skeleton passes, disjoint clauses and family union form."""

import random

import pytest

from conftest import (
    AUX_FREE, FIXTURE_MODELS, aux_assignment, main_assignment, rand_bool,
    rand_mixed_atom, rand_syn_atom,
)
from helpers import boolean_units, has_main_quantifier
from oagqe.evaluate import evaluate
from oagqe.models import IntComp, LexModel
from oagqe.normal import (
    FamilyUnionForm, FUClause, ResourceLimit, ShannonSplitter,
    atom_involves_main, disjoint_clauses, dnf_disjoint_tree,
    hoist_main_units, unit_involves_main,
)
from oagqe.syntax import (
    FALSE, TRUE, And, Atom, AuxLe, AuxVar, Bottom, Discr, Exists, Forall,
    LinTerm, MainRel, Not, Or, PlainRel, SORT_G, Sc, Sort, SortMin, Top,
    atoms_of, conj, disj, free_vars, neg, rebuild, sort_ac,
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
    # a splitter given no units lists those of its formula as it meets them
    f = conj([disj([atom(2), atom(1)]), Not(atom(2)), atom(3)])
    assert ShannonSplitter(f).units == [atom(2), atom(1), atom(3)]
    # a quantified block is opaque: one unit, not its atoms
    q = Exists("x", SORT_G, MainRel("lt", zero, LinTerm.var("x"), 0, BOT))
    assert ShannonSplitter(conj([q, atom(1)])).units == [q, atom(1)]


def cof(sp, g, i, pol):
    """The formula of the cofactor of g's node in the splitter's table."""

    return sp.formula(sp.cofactor(sp.node(g), i, pol))


def split(sp, g):
    """The split of g's node, with formulas for node ids."""

    node = sp.split(sp.node(g))
    return node and (node[0], sp.formula(node[1]), sp.formula(node[2]))


def test_splitter_cofactors_fold_constants():
    f = conj([disj([atom(1), atom(2)]), atom(3)])
    sp = ShannonSplitter(f, boolean_units(f))
    assert cof(sp, f, 0, True) == atom(3)
    assert sp.formula(sp.cofactor(sp.cofactor(sp.root, 0, False), 1,
                                  False)) is FALSE
    assert cof(sp, f, 2, True) == disj([atom(1), atom(2)])
    # a subtree without the split unit is its own cofactor
    g = atom(3)
    assert cof(sp, g, 0, True) is g
    assert split(sp, f) == (0, atom(3), conj([atom(2), atom(3)]))
    assert split(sp, atom(3))[0] == 2
    assert split(sp, TRUE) == ()
    # units outside the list are opaque leaves
    assert cof(ShannonSplitter(atom(4), [atom(1)]), atom(4), 0,
               True) == atom(4)
    # an argument that folds to the connective's own kind is flattened
    # into it, so equal formulas share one node
    g = conj([atom(1), disj([atom(2), conj([atom(3), atom(4)])])])
    sp = ShannonSplitter(g, boolean_units(g))
    n = sp.cofactor(sp.root, 1, False)
    flat = conj([atom(1), atom(3), atom(4)])
    assert sp.formula(n) == flat and sp.node(flat) == n
    # and a negation over a cofactor that folds to a negation cancels
    g = neg(disj([atom(2), neg(atom(3))]))
    sp = ShannonSplitter(g, boolean_units(g))
    assert sp.cofactor(sp.root, 0, False) == sp.node(atom(3))


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


def main_atom_leaves(f, cap):
    """The literal lists of the leaves of disjoint_clauses over the main
    atoms of f, which must leave no remainder."""

    units = [u for u in boolean_units(f) if atom_involves_main(u)]
    out = []
    for lits, rest in disjoint_clauses(f, units, cap):
        assert rest is TRUE
        out.append(lits)
    return out


@pytest.mark.parametrize("dnf,kwargs", [
    (main_atom_leaves, {"cap": 32}),
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


def split_rows(f, cap=4096):
    """The rows of the final case split of f: the literal lists of the
    leaves over hoist_main_units' units that decide the main-sort ones, a
    remainder last; and the main-sort units."""

    units = hoist_main_units(f)
    involves = {}
    main = {u for u in units if unit_involves_main(u, involves)}
    return dnf_disjoint_tree(f, cap, units, main), main


def rows_formula(rows):
    return disj(conj([u if pol else neg(u) for u, pol in row])
                for row in rows)


def _check_rows(rows, main):
    """Main-sort literals are units; every other literal is auxiliary,
    quantified or not."""

    involves = {}
    for row in rows:
        for u, pol in row:
            if u in main:
                assert not isinstance(u, (Exists, Forall)) or u.sort.is_main
            else:
                assert not unit_involves_main(u, involves), u


def test_hoist_main_units_equivalence(rng):
    a = AuxVar("a", sort_ac(2))
    plain = PlainRel("lt", zero, LinTerm.var("y"))
    f = Exists("a", sort_ac(2), conj([Discr(a), plain]))
    assert hoist_main_units(f) == [plain]
    rows, main = split_rows(f)
    # the block keeps its auxiliary rest, and its false branch is dropped
    assert rows == [[(plain, True), (Exists("a", sort_ac(2), Discr(a)), True)]]
    _check_rows(rows, main)
    g = rows_formula(rows)
    for v in (-2, 0, 3):
        asg = {"y": ZZ.element([v, 0])}
        assert evaluate(ZZ, asg, f) == evaluate(ZZ, asg, g)


def test_hoist_is_linear_when_first_atom_decides():
    a = AuxVar("a", sort_ac(2))
    ms = [PlainRel("lt", zero, LinTerm.var("y%d" % i)) for i in range(10)]
    body = disj([conj([ms[0], Discr(a)]),
                 conj([neg(ms[0]), disj(ms[1:] + [neg(Discr(a))])])])
    f = Exists("a", sort_ac(2), body)
    assert hoist_main_units(f) == ms
    rows, main = split_rows(f)
    # one leaf per atom and one more, not a 2^10-row table
    assert len(rows) == len(ms) + 1
    _check_rows(rows, main)
    g = rows_formula(rows)
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
        rows, main = split_rows(f)
        _check_rows(rows, main)
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        for _ in range(3):
            asg = main_assignment(model, rng, ["x", "y", "z"])
            asg.update(aux_assignment(model, rng) or {})
            want = evaluate(model, asg, f)
            got = [evaluate(model, asg, conj([u if pol else neg(u)
                                              for u, pol in row]))
                   for row in rows]
            assert got.count(True) <= 1, (f, model, asg)
            if want is not None and None not in got:
                decided += 1
                assert want == (True in got), (f, model, asg)
    assert decided >= 100


def test_hoist_rejects_bound_dependence():
    a, b = AuxVar("a", sort_ac(2)), AuxVar("b", sort_ac(3))
    at_a = MainRel("lt", zero, LinTerm.var("y"), 0, a)
    at_b = MainRel("lt", zero, LinTerm.var("y"), 0, b)
    inner = Forall("b", sort_ac(3), conj([Discr(b), at_a]))
    for f in (Exists("a", sort_ac(2), at_a),
              # through a nested block, whichever block binds the variable
              Exists("a", sort_ac(2), inner),
              Exists("a", sort_ac(2), Exists("b", sort_ac(3),
                                             disj([Discr(a), at_b]))),
              # also when the atom occurs free first
              conj([at_a, Exists("a", sort_ac(2), conj([Discr(a), at_a]))])):
        with pytest.raises(ValueError, match="bound variable"):
            hoist_main_units(f)
    # an atom over a variable that no enclosing block binds is lifted
    free_a = Exists("c", sort_ac(2), inner)
    assert hoist_main_units(free_a) == [at_a]


def test_hoist_lifts_many_main_atoms_from_one_block():
    # one block, twelve main atoms: no limit on their number, one leaf
    plains = [PlainRel("lt", zero, LinTerm.var("y%d" % i))
              for i in range(12)]
    a = AuxVar("a", sort_ac(2))
    f = Exists("a", sort_ac(2), conj([Discr(a)] + plains))
    assert hoist_main_units(f) == plains
    rows, _ = split_rows(f)
    assert rows == [[(p, True) for p in plains]
                    + [(Exists("a", sort_ac(2), Discr(a)), True)]]


def test_hoist_main_units_orders_units_by_first_occurrence():
    a, a1 = AuxVar("a", sort_ac(2)), AUX_FREE[0]
    aux_block = Exists("a", sort_ac(2), AuxLe(a, a1))
    mixed = Forall("a", sort_ac(2), disj([Discr(a), atom(2), Discr(a1)]))
    mq = Exists("x", SORT_G, MainRel("lt", zero, LinTerm.var("x"), 0, BOT))
    f = conj([Discr(a1), disj([mixed, atom(1)]), aux_block, mq, atom(2)])
    # a block without main-sort atoms and a main quantifier are units; the
    # auxiliary atoms of a block that holds a main atom stay inside it
    assert hoist_main_units(f) == [Discr(a1), atom(2), atom(1), aux_block, mq]


def test_splitter_sees_through_auxiliary_blocks():
    # _mask holds each node's mask of the listed units it mentions
    a = AuxVar("a", sort_ac(2))
    da = Discr(a)

    def blk(body, q=Exists):
        return q("a", sort_ac(2), body)

    b = blk(conj([da, disj([atom(1), atom(2)])]))
    f = conj([b, atom(3)])
    sp = ShannonSplitter(f, [atom(1), atom(2), atom(3)])
    assert sp._mask[sp.root] == 0b111
    # the cofactor is the same quantifier over the cofactored body
    assert cof(sp, f, 0, True) == conj([blk(da), atom(3)])
    assert cof(sp, b, 0, False) == blk(conj([da, atom(2)]))
    assert split(sp, b) == (0, blk(da), blk(conj([da, atom(2)])))
    assert cof(sp, b, 2, True) is b
    # a constant body folds: an auxiliary sort is never empty
    assert cof(sp, blk(disj([atom(1), da])), 0, True) is TRUE
    assert cof(sp, blk(atom(1), Forall), 0, False) is FALSE
    assert cof(sp, blk(conj([atom(1), da]), Forall), 0, False) is FALSE
    # nested blocks
    nested = blk(blk(conj([da, atom(1)]), Forall))
    assert cof(sp, nested, 0, False) is FALSE
    assert cof(sp, nested, 0, True) == blk(blk(da, Forall))
    # a unit that mentions the block's variable means another point inside
    # it, so the block hides that unit
    f = conj([da, blk(conj([da, atom(1)]))])
    sp = ShannonSplitter(f, [da, atom(1)])
    assert sp._mask[sp.root] == 0b11
    assert sp._mask[sp.node(f.args[1])] == 0b10
    assert cof(sp, f, 0, True) == f.args[1]
    assert cof(sp, f.args[1], 0, False) is f.args[1]
    assert cof(sp, f, 1, True) == conj([da, blk(da)])
    # a main-sort quantifier stays opaque
    mq = Exists("x", SORT_G, conj([atom(1), PlainRel(
        "lt", zero, LinTerm.var("x"))]))
    assert sp._mask[sp.node(mq)] == 0 and split(sp, mq) == ()
    assert cof(sp, mq, 0, True) is mq
    # so does a listed block: it is a unit
    listed = ShannonSplitter(b, [b, atom(1)])
    assert listed._mask[listed.root] == 0b01
    assert cof(listed, b, 1, True) is b
    assert cof(listed, b, 0, True) is TRUE
    # and a block's cofactor equal to a listed block is that unit, which
    # the branch then decides again
    g = conj([blk(da), blk(conj([da, atom(1)]))])
    sp = ShannonSplitter(g, [blk(da), atom(1)])
    assert split(sp, g) == (0, blk(conj([da, atom(1)])), FALSE)
    assert list(disjoint_clauses(g, [blk(da), atom(1)], 4)) == [
        ([(blk(da), True), (atom(1), True), (blk(da), True)], TRUE)]


def test_disjoint_clauses_decide_only_what_they_must():
    a1 = AUX_FREE[0]
    d, e = Discr(a1), AuxLe(BOT, a1)
    f = disj([conj([atom(1), d]), conj([neg(atom(1)), atom(2), e])])
    units = boolean_units(f)
    assert units == [atom(1), d, atom(2), e]
    leaves = list(disjoint_clauses(f, units, 2, {atom(1), atom(2)}))
    # a branch ends once no unit to decide is live, with its remainder
    assert leaves == [([(atom(1), True)], d),
                      ([(atom(1), False), (atom(2), True)], e)]
    # an undecided unit of lower index is still split while one is live
    g = conj([d, disj([atom(1), e])])
    rows = dnf_disjoint_tree(g, 4, boolean_units(g), {atom(1)})
    assert rows == [[(d, True), (atom(1), True)],
                    [(d, True), (atom(1), False), (e, True)]]
    with pytest.raises(ResourceLimit):
        dnf_disjoint_tree(g, 1, boolean_units(g), {atom(1)})


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
        for v, s in free_vars(cl.xi, {}).items():
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


# The truth table over the main atoms that the family-union builders made
# before they took their clauses from the splitter's leaves: every main atom
# in every row, in lexicographic order with true first, a row prefix whose
# remainder is false not extended.  Kept to bound the clause count of the
# leaves.

def _ref_truth_table_rows(f, units):
    sp = ShannonSplitter(f, units)
    rows = []

    def go(xi, row):
        if xi == 1:   # FALSE
            return
        if len(row) == len(units):
            rows.append(row)
            return
        for b in (True, False):
            go(sp.cofactor(xi, len(row), b), row + (b,))

    go(sp.root, ())
    return rows


def _main_and_aux_leaf(rng):
    a1 = AUX_FREE[0]
    if rng.random() < 0.3:
        return rng.choice([Discr(a1), AuxLe(BOT, a1), AuxLe(a1, BOT)])
    return atom(rng.randint(1, 6))


def test_disjoint_clauses_are_branches():
    # over the main atoms only: a leaf's literals replay the splitter's
    # branch, and its remainder is the auxiliary rest of f there
    rng = random.Random(19)
    fewer = 0
    for _ in range(60):
        f = rand_bool(rng, rng.randint(1, 4), _main_and_aux_leaf)
        units = [u for u in boolean_units(f) if atom_involves_main(u)]
        leaves = list(disjoint_clauses(f, units, 1 << len(units)))
        sp = ShannonSplitter(f, units)
        for lits, rest in leaves:
            g = sp.root
            for u, pol in lits:
                i, hi, lo = sp.split(g)
                assert units[i] == u
                g = hi if pol else lo
            assert sp.split(g) == () and rest == sp.formula(g)
        rows = _ref_truth_table_rows(f, units)
        assert len(leaves) <= len(rows)
        fewer += len(leaves) < len(rows)
    assert fewer >= 10


def test_disjoint_clauses_stops_at_the_decision():
    f = disj([atom(1), conj([atom(i) for i in range(2, 7)])])
    units = boolean_units(f)
    assert len(_ref_truth_table_rows(f, units)) == 33
    # two leaves, so a cap of two does not bind
    leaves = list(disjoint_clauses(f, units, 2))
    assert all(rest is TRUE for _, rest in leaves)
    assert [lits for lits, _ in leaves] == [
        [(atom(1), True)], [(atom(1), False)] + [(atom(i), True)
                                                  for i in range(2, 7)]]
