"""Concrete syntax: parse/print round trips and error positions."""

import pathlib
import random
import re

import pytest
from hypothesis import given, strategies as st

from conftest import rand_bool, rand_mixed_atom
from oagqe import sexpr
from oagqe.sexpr import (
    HEADS, ParseError, parse_formula, print_aux, print_formula, print_sort,
)
from oagqe.syntax import (
    FALSE, TRUE, And, Atom, AuxAsymp, AuxLe, AuxVar, CongDot, DimFloor,
    DimSucc, Discr, DPred, EqDot, Exists, Forall, LinTerm, MainRel, Not, Or,
    PlainRel, Sc, Se, SortMin, SORT_G, SpineRef, SuccPlus, TERM_FIELDS, conj,
    disj, neg, sort_ac, sort_ae, sort_aep, substitute,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_fixed_forms_parse():
    f = parse_formula("(E x G (plainlt x y))")
    assert f == Exists("x", SORT_G,
                       PlainRel("lt", LinTerm.var("x"), LinTerm.var("y")))
    f = parse_formula("(plaincong 2 (+ x (* -2 y)) 0)")
    assert f == PlainRel("cong", LinTerm.make({"x": 1, "y": -2}),
                         LinTerm.zero(), m=2)
    f = parse_formula("(lt (cmin 2) x y 1)")
    assert f == MainRel("lt", LinTerm.var("x"), LinTerm.var("y"), 1,
                        SortMin(sort_ac(2)))
    f = parse_formula("(cong 3 (sc 2 1 x) x 0 2)")
    assert f == MainRel("cong", LinTerm.var("x"), LinTerm.zero(), 2,
                        Sc(2, 1, LinTerm.var("x")), m=3)
    f = parse_formula("(A b (Ae 3) (le (se 3 x) b))")
    assert f == Forall("b", sort_ae(3),
                       AuxLe := type(f.body)(Se(3, LinTerm.var("x")),
                                             AuxVar("b", sort_ae(3))))
    f = parse_formula("(eqdot -1 (- y x))")
    assert f == EqDot(-1, LinTerm.make({"x": -1, "y": 1}))


def test_sugar_and_negated_heads():
    assert parse_formula("(geq (emin 2) x y 0)") == Not(
        MainRel("lt", LinTerm.var("x"), LinTerm.var("y"), 0,
                SortMin(sort_ae(2))))
    assert parse_formula("(le c2min (plus (se 2 x)))") == parse_formula(
        "(le (cmin 2) (plus (se 2 x)))")


def test_sort_printing():
    assert print_sort(SORT_G) == "G"
    assert print_sort(sort_ac(2)) == "(Ac 2)"
    assert print_sort(sort_aep(5)) == "(Aep 5)"


@pytest.mark.parametrize("text,line,col", [
    ("(plainlt x", 1, 1),
    ("(plainlt x y) junk", 1, 15),
    ("(plainlt x (* y 2))", 1, 15),
    ("(\n  (plainlt x y))", 1, 1),
    ("(and true\n (plainlt x", 2, 2),
    ("(cong 2 (cmin 2) x y)", 1, 1),
    ("(decl a1 G (plainlt x y))", 1, 10),
    ("(decl a1 (Ac 2))", 1, 1),
    # a canonical-map or dimension modulus below 2, at the node itself
    ("(le (sc 1 1 x) a)", 1, 5),
    ("(discr (plus (se 1 x)))", 1, 14),
    ("(dpred 1 1 1 x)", 1, 1),
    ("(and (dimsucc 0 1 0 a))", 1, 6),
    ("(dimfloor -2 1 0 a)", 1, 1),
])
def test_parse_errors_carry_position(text, line, col):
    with pytest.raises(ParseError) as ei:
        parse_formula(text)
    assert ei.value.line == line
    assert ei.value.col == col


def test_comments_and_whitespace():
    f = parse_formula("; leading note\n(not (plainlt x y) ; tail\n  )")
    assert f == Not(PlainRel("lt", LinTerm.var("x"), LinTerm.var("y")))


def test_aux_main_sort_confusion_rejected():
    with pytest.raises(ParseError):
        parse_formula("(E x G (le x (cmin 2)))")
    with pytest.raises(ParseError):
        parse_formula("(E b (Ac 2) (plainlt b b))")


@given(st.integers(0, 10 ** 6))
def test_roundtrip_random_formulas(seed):
    rng = random.Random(seed)
    body = rand_bool(rng, rng.randint(0, 2), rand_mixed_atom)
    # bind the auxiliary variables so the parser can restore their sorts
    f = Forall("a1", sort_ac(2), Forall("e1", sort_ae(2), body))
    text = print_formula(f)
    assert parse_formula(text) == f
    # printing is canonical: a second trip is textually stable
    assert print_formula(parse_formula(text)) == text


def test_decl_gives_free_aux_variables_their_sorts():
    rng = random.Random(3)
    sorts = {"a1": AuxVar("a1", sort_ac(2)), "e1": AuxVar("e1", sort_ae(2))}
    for _ in range(50):
        text = print_formula(rand_bool(rng, rng.randint(0, 2), rand_mixed_atom))
        declared = "(decl a1 (Ac 2) (decl e1 (Ae 2) %s))" % text
        assert parse_formula(declared) == substitute(parse_formula(text),
                                                     sorts)
    # a bound variable still shadows the declared name
    f = parse_formula("(decl a1 (Ac 2) (E a1 (Ae 3) (discr a1)))")
    assert f == Exists("a1", sort_ae(3), Discr(AuxVar("a1", sort_ae(3))))
    with pytest.raises(ParseError):
        parse_formula("(decl a1 (Ac 2) (plainlt a1 x))")


def test_roundtrip_quantified_and_dotted():
    texts = [
        "(E x G (A b (Ac 2) (or (eqdot 2 x) (congb 2 4 (sc 2 1 x) x 0))))",
        "(dpred 2 1 2 (+ (* 2 x) (* -3 y)))",
        "(congdot 4 3 x)",
        "(discr (plus (se 5 (+ x y))))",
        "(dimsucc 2 1 1 (sc 2 2 x))",
        "(asymp (se 2 x) (se 2 y))",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f


def test_connectives_parse_to_smart_constructor_values():
    a = PlainRel("lt", LinTerm.var("x"), LinTerm.var("y"))
    b = PlainRel("lt", LinTerm.var("y"), LinTerm.var("x"))
    ta, tb = print_formula(a), print_formula(b)
    cases = {
        # one argument
        "(and %s)" % ta: a,
        "(or %s)" % ta: a,
        # nested
        "(and %s (and %s %s))" % (ta, tb, ta): And((a, b, a)),
        "(or (or %s %s) %s)" % (ta, tb, tb): Or((a, b, b)),
        "(not (not %s))" % ta: a,
        "(and (or %s) (not (not %s)))" % (ta, tb): And((a, b)),
        # constants
        "(and)": TRUE,
        "(or)": FALSE,
        "(not true)": FALSE,
        "(not false)": TRUE,
        "(and %s true)" % ta: a,
        "(and %s false)" % ta: FALSE,
        "(or %s (not true))" % ta: a,
        "(or false (and true %s))" % tb: b,
        "(or %s true)" % ta: TRUE,
        "(E x G (and (not false) %s))" % ta: Exists("x", SORT_G, a),
        # a quantifier over a constant: no sort is empty
        "(E a (Ac 2) true)": TRUE,
        "(A a (Ae 3) (and true false))": FALSE,
        "(E x G (A a (Ac 2) (not false)))": TRUE,
    }
    for text, want in cases.items():
        assert parse_formula(text) == want, text
    # the same values as the smart constructors give
    assert parse_formula("(and (not %s) (or %s))" % (ta, tb)) == conj(
        [neg(a), disj([b])])


def _tree_print(f):
    """print_formula as a plain walk of the tree, with no text kept on the
    nodes; atoms have no subformulas and go to the node printer."""

    if isinstance(f, Not):
        return "(not %s)" % _tree_print(f.arg)
    if isinstance(f, (And, Or)):
        if not f.args:
            return "true" if isinstance(f, And) else "false"
        return "(%s %s)" % ("and" if isinstance(f, And) else "or",
                            " ".join(_tree_print(g) for g in f.args))
    if isinstance(f, (Exists, Forall)):
        return "(%s %s %s %s)" % ("E" if isinstance(f, Exists) else "A",
                                  f.var, print_sort(f.sort),
                                  _tree_print(f.body))
    return sexpr._print_node(f)


def _shared_dag(rng):
    """A formula whose subformulas occur several times, as one object."""

    parts = [rand_bool(rng, 2, rand_mixed_atom) for _ in range(3)]
    shared = And((parts[0], parts[1]))
    return Or((And((shared, parts[2])), Not(shared),
               Exists("x", SORT_G, Or((shared, Not(parts[2])))),
               Forall("a1", sort_ac(2), shared)))


def test_print_formula_prints_each_shared_node_once(monkeypatch):
    for seed in range(20):
        # two equal formulas built separately
        f = _shared_dag(random.Random(seed))
        g = _shared_dag(random.Random(seed))
        assert f == g and f is not g
        h, r = hash(f), repr(f)
        calls = []
        node = sexpr._print_node
        monkeypatch.setattr(sexpr, "_print_node",
                            lambda n: calls.append(n) or node(n))
        text = print_formula(f)
        monkeypatch.undo()
        assert text == _tree_print(f)
        # one node printer call per distinct node object
        assert len(calls) == len({id(n) for n in calls})
        # the kept text changes neither equality, nor hash, nor repr
        assert f == g and hash(f) == h == hash(g) and repr(f) == r
        assert print_formula(f) == text == print_formula(g)


# ---------------------------------------------------------------------------
# The head table, both ways

_LINS = st.builds(LinTerm.make, st.dictionaries(
    st.sampled_from(["x", "y", "z"]), st.integers(-3, 3), max_size=3))
_AUX_LEAVES = st.sampled_from([
    AuxVar("a", None), SortMin(sort_ac(2)), SortMin(sort_ae(3)),
    SpineRef(sort_ac(2), "g0"), SpineRef(sort_aep(3), "g12")])
_AUXS = st.recursive(_AUX_LEAVES, lambda inner: st.one_of(
    st.builds(Sc, st.integers(2, 5), st.integers(1, 3), _LINS),
    st.builds(Se, st.integers(2, 5), _LINS),
    st.builds(SuccPlus, inner)), max_leaves=3)
_PARAMS = {"sort": st.sampled_from([sort_ac(2), sort_ae(3), sort_aep(5)]),
           "class_id": st.integers(0, 20).map("g{}".format)}


def _ints(cls, name, kw):
    """The integers, from 1 to 6 and offsets from -3, that field name of
    cls accepts, given the fields drawn before it."""

    if name == "k":
        if cls is CongDot:
            return st.integers(1, kw["m"] - 1)
        if cls is EqDot:
            return st.integers(-3, -1) | st.integers(1, 6)
        return st.integers(-3, 6)
    if name == "p" or (cls, name) == (CongDot, "m"):
        return st.integers(2, 6)
    if (cls, name) == (DPred, "s"):
        return st.integers(kw["r"], 6)
    return st.integers(1, 6)


def _node_of(head, data):
    """A node written with head: its fields drawn at random, each integer
    among the values that the class accepts."""

    cls, fixed, names = HEADS[head]
    lins, auxs = TERM_FIELDS[cls]
    kw = dict(fixed)
    for name in names.split():
        kind = (_LINS if name in lins else _AUXS if name in auxs
                else _PARAMS[name] if name in _PARAMS
                else _ints(cls, name, kw))
        kw[name] = data.draw(kind, label=name)
    return cls(**kw)


def _written(node):
    """The text of an atom or auxiliary term, and the parse of a text back
    to the node it writes."""

    if isinstance(node, Atom):
        return print_formula(node), parse_formula
    return print_aux(node), lambda text: parse_formula(
        "(discr %s)" % text).aux


@pytest.mark.parametrize("head", sorted(HEADS))
@given(data=st.data())
def test_head_table_round_trip(head, data):
    node = _node_of(head, data)
    text, parse = _written(node)
    assert text.startswith("(%s " % head)
    assert parse(text) == node
    assert _written(parse(text))[0] == text


_A, _X, _Y = AuxVar("a", None), LinTerm.var("x"), LinTerm.var("y")


@pytest.mark.parametrize("text,node", [
    ("(eq a x y -1)", MainRel("eq", _X, _Y, -1, _A)),
    ("(lt a x y 2)", MainRel("lt", _X, _Y, 2, _A)),
    ("(cong 3 a x y -2)", MainRel("cong", _X, _Y, -2, _A, m=3)),
    ("(congb 2 4 a x y)", MainRel("congb", _X, _Y, 0, _A, m=2, mp=4)),
    ("(plainlt x y)", PlainRel("lt", _X, _Y)),
    ("(plaincong 5 x y)", PlainRel("cong", _X, _Y, m=5)),
    ("(le a (cmin 2))", AuxLe(_A, SortMin(sort_ac(2)))),
    ("(asymp (cmin 2) a)", AuxAsymp(SortMin(sort_ac(2)), _A)),
    ("(discr a)", Discr(_A)),
    ("(dimsucc 2 3 1 a)", DimSucc(2, 3, 1, _A)),
    ("(dimfloor 3 1 2 a)", DimFloor(3, 1, 2, _A)),
    ("(eqdot -2 x)", EqDot(-2, _X)),
    ("(congdot 5 3 x)", CongDot(5, 3, _X)),
    ("(dpred 2 1 3 x)", DPred(2, 1, 3, _X)),
    ("(discr (sc 3 2 x))", Discr(Sc(3, 2, _X))),
    ("(discr (se 5 x))", Discr(Se(5, _X))),
    ("(discr (plus a))", Discr(SuccPlus(_A))),
    ("(discr (pt (Aep 2) g3))", Discr(SpineRef(sort_aep(2), "g3"))),
])
def test_each_head_reads_its_fields_in_order(text, node):
    # the surface order of every head, pinned field by field
    assert parse_formula(text) == node
    assert print_formula(node) == text


@pytest.mark.parametrize("text", [
    "(lt (sc 3 2 (+ x (* -2 y))) x 0 -4)",
    "(eq (emin 2) (* -1 x) y -1)",
    "(cong 5 (pt (Ac 5) g3) x (+ y z) -2)",
    "(congb 2 4 (plus (se 2 x)) x 0)",
    "(plaincong 3 0 (* -3 z))",
    "(dpred 3 1 4 (+ x y))",
    "(dimsucc 2 1 0 (pt (Ae 2) g1))",
    "(dimfloor 3 2 1 (plus (pt (Ae 3) g0)))",
    "(le (pt (Aep 2) g2) (plus (se 2 y)))",
    "(asymp (sc 2 1 x) (cmin 2))",
])
def test_printed_text_is_read_back_to_itself(text):
    # negative offsets and coefficients, every anchor kind, the bracket
    # and dimension predicates and grounded spine points
    assert print_formula(parse_formula(text)) == text


def test_spine_point_id_is_checked_where_it_is_written():
    with pytest.raises(ParseError) as ei:
        parse_formula("(le (pt (Ac 2) gq) a)")
    assert (ei.value.line, ei.value.col) == (1, 16)
    assert "spine point id" in str(ei.value)


def test_error_inside_an_auxiliary_term_names_one_position():
    for text, col in (("(le (sc x 1 y) a)", 9), ("(le (se 2) a)", 5),
                      ("(le (plus (sc 2 q y)) a)", 17),
                      ("(lt c1min x y 0)", 5)):
        with pytest.raises(ParseError) as ei:
            parse_formula(text)
        assert (ei.value.line, ei.value.col) == (1, col), text
        assert str(ei.value).count("line") == 1, text


def test_every_head_is_documented():
    section = README.read_text().split("## Formula syntax", 1)[1]
    section = section.split("\n## ", 1)[0]
    words = set(re.findall(r"[a-z]+", " ".join(
        re.findall(r"`([^`]*)`", section))))
    assert set(HEADS) - words == set()
