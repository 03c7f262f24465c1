"""Concrete group models: membership, spines, dimension queries, files."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_MODELS, SUM_MODEL, TYPED_MODELS
from helpers import (
    ac_class_of, ae_class_of, definitional_spine_oracle, format_model,
    residue_box,
)
from oagqe.evaluate import (
    _difference, _fallback_candidates, _term_fn, eval_lin,
)
from oagqe.models import (
    IntComp, LexModel, LocComp, RatComp, TOPG, aep_of, comp_divisible,
    dim_query, parse_model, prime_power_parts, sample_element, spine,
    spine_min,
)
from oagqe.syntax import LinTerm, sort_ac, sort_ae, sort_aep


def test_element_validation():
    m = LexModel((IntComp(), LocComp(6)))
    assert m.element([1, Fraction(1, 6)]) == (Fraction(1), Fraction(1, 6))
    with pytest.raises(ValueError):
        m.element([Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        m.element([1, Fraction(1, 5)])
    with pytest.raises(ValueError):
        m.element([1])
    with pytest.raises(ValueError):
        SUM_MODEL.element([1, 0, 0])
    assert SUM_MODEL.element([1, 1, 0])


def test_lexicographic_order():
    m = LexModel((IntComp(), IntComp()))
    a, b = m.element([5, 0]), m.element([-9, 1])
    assert m.proj_sign(m.sub(a, b), 0) == -1  # the second coordinate dominates
    assert m.proj_sign(m.sub(a, a), 0) == 0
    assert m.proj_sign(a, 1) == 0  # image of (5,0) in G / H_1 is zero
    assert m.proj_sign(b, 1) == 1


def test_membership_basics():
    m = LexModel((IntComp(), IntComp()))
    a = m.element([1, 2])
    assert m.in_cut(a, 2) and not m.in_cut(a, 1)
    assert m.member(a, 1, 2)        # odd part hidden below the cut
    assert not m.member(a, 0, 2)
    assert m.member(m.element([4, 6]), 0, 2)
    assert m.member(a, 0, 1)


def test_prime_power_parts_factor():
    assert prime_power_parts(1) == []
    assert prime_power_parts(360) == [(2, 3), (3, 2), (5, 1)]
    for m in range(2, 1000):
        parts = prime_power_parts(m)
        prod = 1
        for p, r in parts:
            assert r >= 1 and all(p % d for d in range(2, p))
            prod *= p ** r
        assert prod == m
        assert [p for p, _ in parts] == sorted({p for p, _ in parts})


def test_membership_with_localization():
    m = LexModel((IntComp(), LocComp(2)))
    a = m.element([1, 3])
    # the top component is 2-divisible, so only the bottom one obstructs
    assert m.member(a, 1, 2) and not m.member(a, 0, 2)
    assert not m.member(m.element([1, 1]), 1, 3)


def test_bracket_membership_is_shifted_cut():
    m = LexModel((IntComp(), IntComp(), IntComp()))
    a = m.element([1, 0, 2])
    for cut in range(3):
        assert m.member_bracket(a, cut, 2, 2) == m.member(a, cut + 1, 2)
    assert m.member_bracket(a, 3, 2, 2)


def test_sum_constrained_membership():
    # (2,0,0) is divisible by 2 coordinatewise but the quotient vector
    # (1,0,0) has odd coordinate sum, so it is not in 2G
    a = SUM_MODEL.element([2, 0, 0])
    assert not SUM_MODEL.member(a, 0, 2)
    assert SUM_MODEL.member(a, 1, 2)
    assert SUM_MODEL.member(SUM_MODEL.element([2, 2, 0]), 0, 2)


def test_minpos_rep():
    m = LexModel((IntComp(), RatComp(), IntComp()))
    assert m.minpos_rep(0) == (1, 0, 0)
    assert m.minpos_rep(1) is None  # dense quotient
    assert m.minpos_rep(2) == (0, 0, 1)
    # with a sum constraint the representative is padded to stay in G
    r = SUM_MODEL.minpos_rep(1)
    assert r is not None and SUM_MODEL.element(r)
    assert SUM_MODEL.proj_sign(r, 1) == 1


@pytest.mark.parametrize("model", TYPED_MODELS)
def test_spine_matches_definitional_oracle(model):
    for n in (2, 3, 4, 5, 6):
        samples = list(residue_box(model, n + 1))
        for mk in (sort_ac, sort_ae, sort_aep):
            got = [pt.cut for pt in spine(model, mk(n))]
            want = definitional_spine_oracle(model, mk(n), samples)
            assert got == want, (model, mk(n).kind, n)


def test_class_maps_land_on_spine(rng):
    for model in FIXTURE_MODELS:
        for _ in range(40):
            a = sample_element(model, rng, 9, (1, 2, 3))
            for n in (2, 3, 4, 6):
                pc = ac_class_of(model, a, n)
                assert pc in spine(model, sort_ac(n))
                assert not model.member(a, pc.cut, n) or pc.cut == 0
                pe = ae_class_of(model, a, n)
                assert pe in spine(model, sort_ae(n))
                pp = aep_of(model, pe)
                assert pp in spine(model, sort_aep(n))
                assert pp.cut > pe.cut or pp.cut == model.rank


def test_ac_class_is_largest_failing_cut(rng):
    model = LexModel((IntComp(), RatComp(), IntComp()))
    for _ in range(60):
        a = sample_element(model, rng, 9, (1, 2, 3))
        cut = ac_class_of(model, a, 2).cut
        for c in range(cut + 1, model.rank + 1):
            assert model.member(a, c, 2)


def test_spine_min_is_bottom():
    for model in FIXTURE_MODELS:
        assert spine_min(model, sort_ac(2)).cut == 0
        assert spine_min(model, sort_ae(2)).cut == 0


def test_dim_query_counts_discrete_layers():
    m = LexModel((IntComp(), RatComp(), IntComp()))
    lo = (spine(m, sort_ac(2))[0], None)
    assert dim_query(m, 2, lo, TOPG) == 2
    up = (spine(m, sort_ac(2))[1], None)  # the group H_2
    assert dim_query(m, 2, lo, up) == 1
    with pytest.raises(ValueError):
        dim_query(m, 2, up, (spine(m, sort_ac(2))[0], None))


def test_dim_query_sum_constrained():
    # G = {sum even} inside Z^3 is still free of rank 3, and the first
    # convex layer H_1 = 2Z x 0 x 0 sits strictly above 2G
    pts = spine(SUM_MODEL, sort_ac(2))
    lo = (pts[0], None)
    assert dim_query(SUM_MODEL, 2, lo, TOPG) == 3
    assert dim_query(SUM_MODEL, 2, lo, (pts[1], None)) == 1


def test_zero_is_built_once_per_model():
    for model in TYPED_MODELS:
        z = model.zero()
        assert model.zero() is z
        assert [type(c) for c in z] == [
            int if isinstance(comp, IntComp) else Fraction
            for comp in model.comps]
        # the cached zero is no field: equality and hash read the fields
        twin = LexModel(model.comps, model.sum_mod)
        assert twin == model and hash(twin) == hash(model)
        assert repr(twin) == repr(model)


def test_model_file_roundtrip():
    for model in TYPED_MODELS:
        assert parse_model(format_model(model)) == model
    m = parse_model("Z # bottom\n\nQ\nZ[1/6]\n")
    assert m == LexModel((IntComp(), RatComp(), LocComp(6)))
    with pytest.raises(ValueError):
        parse_model("Z\nsum x\n")
    with pytest.raises(ValueError):
        parse_model("Z\nR\n")
    with pytest.raises(ValueError):
        parse_model("Z\nQ\nsum 2\n")  # sum constraint needs all-Z


@given(st.integers(0, 10 ** 6))
def test_sample_element_stays_in_domain(seed):
    import random
    rng = random.Random(seed)
    for model in FIXTURE_MODELS + [SUM_MODEL]:
        a = sample_element(model, rng, 9, (1, 2, 3))
        assert model.element(a) == a


def _assert_coords(model, e):
    """Coordinates are ints on Z components and Fractions elsewhere."""

    assert isinstance(e, tuple) and len(e) == model.rank, (model, e)
    for comp, v in zip(model.comps, e):
        want = int if isinstance(comp, IntComp) else Fraction
        assert type(v) is want, (model, e)


def _reference_lin(model, asg, t):
    """eval_lin as the fold it replaced: start from an all-Fraction zero and
    add each scaled value in turn."""

    out = (Fraction(0),) * model.rank
    for v, c in t.coeffs:
        out = tuple(x + c * y for x, y in zip(out, asg[v]))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_coordinates_are_ints_on_z_components(seed):
    import random
    rng = random.Random(seed)
    for model in TYPED_MODELS:
        a = sample_element(model, rng, 9, (1, 2, 3))
        _assert_coords(model, a)
        _assert_coords(model, model.element(a))
        _assert_coords(model, model.element([str(v) for v in a]))
        _assert_coords(model, model.zero())
        for cut in range(model.rank + 1):
            rep = model.minpos_rep(cut)
            if rep is not None:
                _assert_coords(model, rep)
        names = ["x", "y", "z"]
        asg = {v: sample_element(model, rng, 9, (1, 2, 3)) for v in names}
        for _ in range(5):
            t = LinTerm.make({v: rng.randint(-4, 4)
                              for v in rng.sample(names, rng.randint(0, 3))})
            got, want = eval_lin(model, asg, t), _reference_lin(model, asg, t)
            _assert_coords(model, got)
            assert got == want and hash(got) == hash(want), (model, t)
            # the compiled difference t - u, u sharing some names with t;
            # with u = t every term cancels
            for u in (t, LinTerm.make({v: rng.randint(-4, 4)
                                       for v in rng.sample(names, 2)})):
                ref = _reference_lin(model, asg, u)
                want = tuple(a - b for a, b in
                             zip(_reference_lin(model, asg, t), ref))
                got = _term_fn(model, _difference(t, u), model.zero())(asg)
                _assert_coords(model, got)
                assert got == want and hash(got) == hash(want), (model, t, u)
        for e in itertools.islice(
                _fallback_candidates(model, asg.values()), 200):
            _assert_coords(model, e)


def test_residue_box_and_coset_counts_use_int_coordinates(monkeypatch):
    for model in TYPED_MODELS:
        for e in residue_box(model, 3):
            _assert_coords(model, e)
    # the sum model's dimension queries count cosets by membership tests
    seen = []
    member = LexModel.member

    def checked(self, a, cut, m):
        _assert_coords(self, a)
        seen.append(a)
        return member(self, a, cut, m)

    monkeypatch.setattr(LexModel, "member", checked)
    lo = (spine_min(SUM_MODEL, sort_ac(2)), None)
    assert dim_query(SUM_MODEL, 2, lo, TOPG) == 3
    assert seen


def test_comp_divisible_on_int_inputs():
    assert comp_divisible(IntComp(), 6, 3)
    assert not comp_divisible(IntComp(), 7, 3)
    assert comp_divisible(IntComp(), -4, 1)
    assert not comp_divisible(IntComp(), Fraction(1, 2), 1)
    assert comp_divisible(RatComp(), 7, 3)
    assert comp_divisible(RatComp(), 0, 5)
    assert comp_divisible(LocComp(2), 3, 2)
    assert comp_divisible(LocComp(2), 1, 4)
    assert not comp_divisible(LocComp(2), 1, 3)
    assert comp_divisible(LocComp(6), 5, 9)
    assert not comp_divisible(LocComp(6), 1, 5)
    assert comp_divisible(LocComp(5), Fraction(2, 5), 2)
