"""Rewrites between the anchored and the restricted language."""

from conftest import (
    AUX_FREE, FIXTURE_MODELS, TYPED_MODELS, aux_assignment, main_assignment,
    rand_term,
)
from oagqe.evaluate import evaluate, family_evaluator, resolve_aux
from oagqe.syntax import (
    FALSE, TRUE, AuxVar, CongDot, DPred, EqDot, Fresh, LinTerm, MainRel,
    PlainRel, Sc, Se, SortMin, SuccPlus, atoms_of, atom_aux_terms, aux_lt,
    can_image, free_names, sort_ac, sort_ae, sort_aep,
)
from oagqe.translate import (
    _syn_atom_rewrite, canc_term, discr_lift, qe_atom_to_syn,
    syn_qf_to_qe_fuf,
)

x, y, z = LinTerm.var("x"), LinTerm.var("y"), LinTerm.var("z")
BOT = SortMin(sort_ac(2))


def test_canc_term_picks_prime_powers():
    assert canc_term(8, x) == Sc(2, 3, x)
    assert canc_term(9, x) == Sc(3, 2, x)
    assert canc_term(6, x) == Sc(6, 1, x)
    assert canc_term(5, x) == Sc(5, 1, x)


def test_discr_lift_sorts():
    from oagqe.syntax import Discr, Exists
    assert discr_lift(Sc(2, 1, x), Fresh("d")) == Discr(Sc(2, 1, x))
    f = discr_lift(SuccPlus(Se(2, x)), Fresh("d"))
    # away from the coordinate sorts the lift goes through a witness point
    assert isinstance(f, Exists) and f.sort == sort_ac(2)


def test_aux_order_builders(rng):
    a, b = Sc(2, 1, x), Sc(2, 1, y)
    for model in FIXTURE_MODELS[:3]:
        asg = main_assignment(model, rng, ["x", "y"])
        lt = evaluate(model, asg, aux_lt(a, b))
        from oagqe.evaluate import resolve_aux
        ca = resolve_aux(model, asg, a).cut
        cb = resolve_aux(model, asg, b).cut
        assert lt == (ca < cb)


def test_minimum_anchored_atoms_translate_without_images():
    # nothing lies below a sort minimum, so the comparison that tells
    # whether t vanishes at the anchor folds away, and with it every
    # canonical-map image
    for a in (MainRel("eq", x, y, 0, BOT), MainRel("lt", x, y, 0, BOT),
              MainRel("lt", x, y, 1, BOT), MainRel("cong", x, y, 0, BOT, m=6)):
        f = qe_atom_to_syn(a, Fresh("q", {"x", "y"}))
        terms = [t for b in atoms_of(f) for t in atom_aux_terms(b)]
        assert not any(isinstance(t, (Sc, Se)) for t in terms), (a, f)


def rand_anchored_atom(rng):
    c = rng.randint(0, 4)
    if c == 0:
        eta = SortMin(sort_ac(rng.choice([2, 3, 5])))
    elif c == 1:
        eta = Sc(rng.choice([2, 3, 5]), rng.randint(1, 2),
                 rand_term(rng, ["u", "w"]))
    elif c == 2:
        eta = Se(rng.choice([2, 3, 5]), rand_term(rng, ["u", "w"]))
    elif c == 3:
        eta = SuccPlus(Se(rng.choice([2, 3, 5]), rand_term(rng, ["u", "w"])))
    else:
        eta = rng.choice(AUX_FREE)
    t1, t2 = rand_term(rng, ["x", "y", "z"]), rand_term(rng, ["y", "z"])
    op = rng.choice(["eq", "lt", "cong", "congb"])
    if op == "cong":
        return MainRel(op, t1, t2, rng.randint(-2, 2), eta,
                       m=rng.choice([2, 3, 4, 6]))
    if op == "congb":
        m = rng.choice([2, 3, 4])
        return MainRel(op, t1, t2, 0, eta, m=m, mp=m * rng.choice([1, 2]))
    return MainRel(op, t1, t2, rng.randint(-2, 2), eta)


def test_anchored_atom_translation_differential(rng):
    fresh = Fresh("q", {"x", "y", "z", "u", "w"})
    for trial in range(80):
        a = rand_anchored_atom(rng)
        f = qe_atom_to_syn(a, fresh)
        model = FIXTURE_MODELS[trial % len(FIXTURE_MODELS)]
        for _ in range(3):
            asg = main_assignment(model, rng, ["x", "y", "z", "u", "w"])
            aa = aux_assignment(model, rng)
            if aa is None:
                continue
            asg.update(aa)
            r1, r2 = evaluate(model, asg, a), evaluate(model, asg, f)
            if r1 is not None and r2 is not None:
                assert r1 == r2, (a, asg)


def test_translation_without_fresh_source_keeps_free_names():
    # anchors named like the fresh names the translation draws must stay
    # free when the fresh source reserves every free name of the atom
    anchors = [AuxVar("q0", sort_aep(2)), AuxVar("q0", sort_ac(2)),
               AuxVar("q0", sort_ae(2)), AuxVar("q1", sort_aep(3))]
    for eta in anchors:
        for a in (MainRel("eq", x, y, 0, eta), MainRel("eq", x, y, 1, eta),
                  MainRel("lt", x, y, 0, eta), MainRel("lt", x, y, -1, eta),
                  MainRel("cong", x, y, 1, eta, m=4),
                  MainRel("congb", x, y, 0, eta, m=2, mp=4)):
            f = qe_atom_to_syn(a, Fresh("q", free_names(a, {})))
            assert free_names(f, {}) == free_names(a, {}), (a, f)


def _typed_samples(rng, names, n=2):
    for model in TYPED_MODELS:
        for _ in range(n):
            asg = main_assignment(model, rng, names)
            asg.update(aux_assignment(model, rng))
            yield model, asg


def test_atoms_that_decide_themselves_fold(rng):
    zero, t, a1, e1 = LinTerm.zero(), x - y, AUX_FREE[0], AUX_FREE[1]
    folds = [PlainRel("lt", t, t), PlainRel("cong", t, t, m=3),
             MainRel("eq", x, x, 0, a1), MainRel("lt", t, t, 0, e1),
             MainRel("cong", y, y, 0, BOT, m=4),
             MainRel("congb", z, z, 0, Sc(2, 1, y), m=2, mp=4),
             EqDot(2, zero), EqDot(-1, zero), DPred(2, 1, 2, zero),
             DPred(3, 1, 1, zero)]
    # an offset, or two different sides, leave the atom to the case split
    kept = [MainRel("eq", x, x, 1, a1), MainRel("cong", x, x, 1, a1, m=3),
            PlainRel("lt", x, y), EqDot(1, x)]
    for a in folds:
        c = _syn_atom_rewrite(a)
        assert c in (TRUE, FALSE), a
        for model, asg in _typed_samples(rng, ["x", "y", "z"]):
            assert evaluate(model, asg, a) is (c == TRUE), (a, model, asg)
    for a in kept:
        assert _syn_atom_rewrite(a) not in (TRUE, FALSE), a


def test_images_of_zero_are_minima(rng):
    zero = LinTerm.zero()
    for t, sort in ((Sc(2, 1, zero), sort_ac(2)), (Sc(3, 2, zero), sort_ac(3)),
                    (Sc(6, 1, zero), sort_ac(6)), (Se(2, zero), sort_ae(2)),
                    (Se(5, zero), sort_ae(5))):
        assert can_image(t) == SortMin(sort)
        for model in TYPED_MODELS:
            assert resolve_aux(model, {}, t) == \
                resolve_aux(model, {}, SortMin(sort)), (t, model)
    assert can_image(Sc(2, 1, x)) == Sc(2, 1, x)
    assert canc_term(6, zero) == SortMin(sort_ac(6))
    # relations between equal sides translate without images, and a dotted
    # predicate of the zero term gets no theta parameter
    a1 = AUX_FREE[0]
    for a in (MainRel("lt", x, x, 1, a1), MainRel("eq", y, y, -1, a1),
              MainRel("cong", x, x, 1, a1, m=6),
              MainRel("congb", x, x, 0, a1, m=2, mp=4)):
        f = qe_atom_to_syn(a, Fresh("q", {"x", "y"}))
        terms = [u for b in atoms_of(f) for u in atom_aux_terms(b)]
        assert not any(isinstance(u, (Sc, Se)) for u in terms), (a, f)
        for model, asg in _typed_samples(rng, ["x", "y"]):
            assert evaluate(model, asg, a) == evaluate(model, asg, f), a
    a = CongDot(3, 1, zero)
    fuf = syn_qf_to_qe_fuf(a, Fresh("th"))
    assert all(cl.theta == () for cl in fuf.clauses)
    for model, asg in _typed_samples(rng, []):
        assert any(family_evaluator(model, fuf)(asg)) == \
            evaluate(model, asg, a), model
