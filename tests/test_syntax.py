"""Linear-term algebra, smart constructors and traversal helpers."""

import ast
import pathlib
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from helpers import has_main_quantifier
from oagqe import syntax
from oagqe.syntax import (
    And, Atom, AuxAsymp, AuxLe, AuxVar, Bottom, CongDot, DimFloor, DimSucc,
    Discr, DPred, EqDot, Exists, FALSE, Forall, Fresh, LinTerm, MainRel,
    Not, Or, PlainRel, Sc, Se, SortMin, SORT_G, SuccPlus, TERM_FIELDS, TRUE,
    Top, all_names,
    atom_aux_terms, aux_asymp, aux_le, aux_lt, conj, disj, free_names,
    free_vars, implies, lin_terms, neg, occurrences, quant, sort_ac, sort_ae,
    sort_aep, subformulas, subst_term, substitute,
)

names = st.sampled_from(["x", "y", "z", "w"])
coeff_maps = st.dictionaries(names, st.integers(-9, 9), max_size=4)


def as_func(t, env):
    return sum(env.get(v, 0) * c for v, c in t.coeffs)


@given(coeff_maps, coeff_maps)
def test_linterm_add_matches_pointwise(d1, d2):
    a, b = LinTerm.make(d1), LinTerm.make(d2)
    env = {v: 1 + i for i, v in enumerate(sorted(set(d1) | set(d2)))}
    assert as_func(a + b, env) == as_func(a, env) + as_func(b, env)
    assert a + b == b + a
    assert a - a == LinTerm.zero()


@given(coeff_maps, st.integers(-5, 5))
def test_linterm_scale_matches_pointwise(d, k):
    t = LinTerm.make(d)
    env = {v: 2 + i for i, v in enumerate(sorted(d))}
    assert as_func(t.scale(k), env) == k * as_func(t, env)
    if k == 0:
        assert t.scale(k).is_zero()


@given(coeff_maps, coeff_maps)
def test_linterm_subst_matches_composition(d1, d2):
    t, repl = LinTerm.make(d1), LinTerm.make(d2)
    env = {v: 3 - i for i, v in enumerate(sorted(set(d1) | set(d2) | {"x"}))}
    inner = dict(env)
    inner["x"] = as_func(repl, env) if "x" not in repl.vars() else None
    if inner["x"] is None:
        return  # substitution would not be idempotent; skip self-reference
    assert as_func(t.subst("x", repl), env) == as_func(t, inner)


def test_linterm_rejects_unsorted_and_zero_coeffs():
    with pytest.raises(ValueError):
        LinTerm((("y", 1), ("x", 1)))
    with pytest.raises(ValueError):
        LinTerm((("x", 0),))
    assert LinTerm.make({"x": 0}) == LinTerm.zero()


def test_smart_constructors_fold():
    a = PlainRel("lt", LinTerm.var("x"), LinTerm.zero())
    assert conj([]) == TRUE
    assert disj([]) == FALSE
    assert conj([a, FALSE]) == FALSE
    assert disj([a, TRUE]) == TRUE
    assert conj([a, TRUE]) == a
    assert conj([conj([a, a]), a]) == And((a, a, a))
    assert neg(neg(a)) == a
    assert neg(TRUE) == FALSE
    assert implies(FALSE, a) == TRUE
    # auxiliary comparisons: a sort minimum is the bottom class
    c2, e2 = SortMin(sort_ac(2)), SortMin(sort_ae(2))
    s, v = Se(2, LinTerm.var("x")), AuxVar("a", sort_ac(2))
    assert aux_le(s, s) == aux_asymp(v, v) == TRUE
    assert aux_le(c2, s) == aux_le(e2, v) == TRUE
    assert aux_lt(s, c2) == aux_lt(v, e2) == FALSE
    assert aux_asymp(c2, e2) == aux_asymp(e2, c2) == TRUE
    assert aux_le(s, c2) == AuxLe(s, c2)
    assert aux_lt(c2, s) == Not(AuxLe(s, c2))
    assert aux_asymp(c2, s) == AuxAsymp(c2, s)
    # a quantifier over a constant is that constant: no sort is empty
    for kind in (Exists, Forall):
        assert quant(kind, "a", sort_ac(2), TRUE) == TRUE
        assert quant(kind, "a", sort_ac(2), FALSE) == FALSE
        assert quant(kind, "x", SORT_G, a) == kind("x", SORT_G, a)


def test_atom_validation():
    x, z = LinTerm.var("x"), LinTerm.zero()
    bot = SortMin(sort_ac(2))
    with pytest.raises(ValueError):
        MainRel("lt", x, z, 0, bot, m=2)
    with pytest.raises(ValueError):
        MainRel("cong", x, z, 0, bot)  # missing modulus
    with pytest.raises(ValueError):
        MainRel("congb", x, z, 1, bot, m=2, mp=2)  # offset on a bracket
    with pytest.raises(ValueError):
        EqDot(0, x)
    with pytest.raises(ValueError):
        CongDot(3, 3, x)
    with pytest.raises(ValueError):
        Sc(2, 0, x)
    with pytest.raises(ValueError):
        SortMin(sort_aep(2))
    # a canonical-map or dimension modulus is at least 2, as a sort's is
    for make in (lambda p: Sc(p, 1, x), lambda p: Se(p, x),
                 lambda p: DPred(p, 1, 1, x),
                 lambda p: DimSucc(p, 1, 1, bot),
                 lambda p: DimFloor(p, 1, 1, bot)):
        make(2)
        for p in (1, 0, -2):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                make(p)


def test_free_vars_sorts_and_binding():
    x, y = LinTerm.var("x"), LinTerm.var("y")
    a = MainRel("lt", x, y, 0, AuxVar("a1", sort_ac(2)))
    fv = free_vars(a, {})
    assert fv == {"x": SORT_G, "y": SORT_G, "a1": sort_ac(2)}
    f = Exists("x", SORT_G, a)
    assert set(free_vars(f, {})) == {"y", "a1"}
    g = Forall("a1", sort_ac(2), f)
    assert set(free_vars(g, {})) == {"y"}
    # canonical-map arguments count as main-sort occurrences
    b = PlainRel("cong", Sc(2, 1, x).arg, y, m=2)
    assert free_vars(b, {})["x"] == SORT_G


def _ref_free_vars(f):
    """free_vars as it was before it was memoized by value: one walk with
    a set of (node, bound names) pairs already seen."""

    out = {}
    seen = set()

    def aux_free_vars(t):
        res = {}
        if isinstance(t, AuxVar):
            res[t.name] = t.sort
        elif isinstance(t, SuccPlus):
            res.update(aux_free_vars(t.arg))
        for lt in lin_terms(t):
            for v in lt.vars():
                res[v] = SORT_G
        return res

    def walk(g, bound):
        if (g, bound) in seen:
            return
        seen.add((g, bound))
        if isinstance(g, Atom):
            for t in atom_aux_terms(g):
                for v, s in aux_free_vars(t).items():
                    if v not in bound:
                        out.setdefault(v, s)
            for lt in lin_terms(g):
                for v in lt.vars():
                    if v not in bound:
                        out[v] = SORT_G
        elif isinstance(g, Not):
            walk(g.arg, bound)
        elif isinstance(g, (And, Or)):
            for h in g.args:
                walk(h, bound)
        elif isinstance(g, (Exists, Forall)):
            walk(g.body, bound | {g.var})

    walk(f, frozenset())
    return out


# names that occur both as main variables and as auxiliary variables of
# several sorts, unsorted ones included
_VARS = ["x", "y", "a"]
_LIN = st.builds(LinTerm.make, st.dictionaries(
    st.sampled_from(_VARS), st.integers(-2, 2), max_size=2))
_AUX = st.one_of(
    st.builds(AuxVar, st.sampled_from(_VARS),
              st.sampled_from([None, sort_ac(2), sort_ae(3), SORT_G])),
    st.just(SortMin(sort_ac(2))), st.builds(Se, st.just(2), _LIN),
    st.builds(lambda t: SuccPlus(Se(2, t)), _LIN))
_ATOMS = st.one_of(
    st.builds(lambda a, t, u: MainRel("lt", t, u, 0, a), _AUX, _LIN, _LIN),
    st.builds(AuxLe, _AUX, _AUX), st.builds(Discr, _AUX),
    st.builds(lambda t: EqDot(1, t), _LIN), st.just(TRUE))
_FORMULAS = st.recursive(_ATOMS, lambda kids: st.one_of(
    st.builds(Not, kids),
    st.builds(lambda xs: And(tuple(xs)), st.lists(kids, max_size=3)),
    st.builds(lambda xs: Or(tuple(xs)), st.lists(kids, max_size=3)),
    st.builds(lambda v, s, b: (Exists if s.is_main else Forall)(v, s, b),
              st.sampled_from(_VARS), st.sampled_from([SORT_G, sort_ac(2)]),
              kids)), max_leaves=12)


_AC2, _G = AuxVar("a", sort_ac(2)), AuxVar("a", SORT_G)


# a name declared with two sorts keeps the first, unless it also occurs in
# a main-sort term anywhere, when it has sort G; binders hide it
@example([And((Discr(_AC2), Discr(_G)))])
@example([And((Discr(AuxVar("a", None)), Or((Discr(_AC2), Discr(_G)))))])
@example([And((Discr(_G), Discr(_AC2), EqDot(1, LinTerm.var("a"))))])
@example([And((Exists("a", SORT_G, EqDot(1, LinTerm.var("a"))),
               Discr(_AC2)))])
@given(st.lists(_FORMULAS, min_size=1, max_size=3))
def test_free_vars_matches_reference_walk(fs):
    cache = {}
    for f in fs:
        # a formula whose parts recur, and a cache kept across formulas
        g = Or((f, And((f, Not(f))), Exists("a", SORT_G, f)))
        for h in (f, g):
            want = _ref_free_vars(h)
            assert list(free_vars(h, {}).items()) == list(want.items())
            assert list(free_vars(h, cache).items()) == list(want.items())
            assert list(free_names(h, cache)) == list(want)


def test_subformulas_yields_shared_node_once():
    a = PlainRel("lt", LinTerm.var("x"), LinTerm.zero())
    shared = Not(a)
    f = And((Or((shared, a)), shared))
    nodes = list(subformulas(f))
    assert sum(1 for g in nodes if g is shared) == 1
    assert a in nodes


def test_has_main_quantifier():
    a = PlainRel("lt", LinTerm.var("x"), LinTerm.zero())
    assert has_main_quantifier(Exists("x", SORT_G, a))
    assert not has_main_quantifier(Exists("b", sort_ae(3), a))


def test_substitute_renames_capture():
    x, y = LinTerm.var("x"), LinTerm.var("y")
    f = Exists("y", SORT_G, PlainRel("lt", x, y))
    g = substitute(f, {"x": y})
    assert isinstance(g, Exists)
    assert g.var != "y"  # the binder moved out of the way
    assert free_vars(g, {}) == {"y": SORT_G}


def _ref_substitute(f, sub, fresh=None):
    """substitute as it was before it returned unchanged parts: every node
    rebuilt, and the names of the whole formula reserved up front."""

    if not sub:
        return f
    if fresh is None:
        fresh = Fresh("r")
        fresh.reserve(all_names(f))
        for repl in sub.values():
            fresh.reserve(repl.vars() if isinstance(repl, LinTerm)
                          else occurrences(repl))
    if isinstance(f, Atom):
        return subst_term(f, sub)
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, Not):
        return Not(_ref_substitute(f.arg, sub, fresh))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_ref_substitute(g, sub, fresh) for g in f.args))
    sub2 = {v: t for v, t in sub.items() if v != f.var}
    clash = any(f.var in (r.vars() if isinstance(r, LinTerm)
                          else occurrences(r)) for r in sub2.values())
    var, body = f.var, f.body
    if clash:
        var = fresh(f.var)
        new = LinTerm.var(var) if f.sort.is_main else AuxVar(var, f.sort)
        body = _ref_substitute(body, {f.var: new}, fresh)
    return type(f)(var, f.sort, _ref_substitute(body, sub2, fresh))


def _substituted(fn, f, sub):
    try:
        return fn(f, sub)
    except TypeError as e:
        return str(e)


_SUBS = st.one_of(
    st.fixed_dictionaries({"x": _LIN}),
    st.fixed_dictionaries({"a": st.sampled_from(
        [AuxVar("y", sort_ac(2)), AuxVar("x", sort_ac(2)),
         SortMin(sort_ac(2))])}),
    st.fixed_dictionaries({"y": _LIN, "x": _LIN}))


@example(Exists("y", SORT_G, PlainRel("lt", LinTerm.var("x"),
                                     LinTerm.var("y"))),
         {"x": LinTerm.var("y")})
@example(Forall("x", sort_ac(2), Discr(AuxVar("a", sort_ac(2)))),
         {"a": AuxVar("x", sort_ac(2))})
@given(_FORMULAS, _SUBS)
def test_substitute_matches_reference(f, sub):
    assert _substituted(substitute, f, sub) == \
        _substituted(_ref_substitute, f, sub)


def test_substitute_changes_only_what_it_must(monkeypatch):
    x, y = LinTerm.var("x"), LinTerm.var("y")
    a = AuxVar("a", sort_ac(2))
    block = Exists("a", sort_ac(2), Discr(a))
    f = And((block, Not(PlainRel("lt", x, y))))
    # nothing free is substituted: the formula itself comes back
    assert substitute(f, {"z": x}) is f
    assert substitute(f, {"a": SortMin(sort_ac(2))}) is f
    g = substitute(f, {"x": y})
    assert g.args[0] is block and g.args[1] == Not(PlainRel("lt", y, y))
    # the names of the formula are read at the first binder clash only
    seen = []
    monkeypatch.setattr(syntax, "all_names",
                        lambda h: seen.append(h) or all_names(h))
    substitute(f, {"x": y})
    assert seen == []
    clash = Exists("y", SORT_G, And((f, PlainRel("lt", x, y))))
    h = substitute(clash, {"x": y})
    assert seen == [clash] and h.var != "y"


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "oagqe"
TESTS = pathlib.Path(__file__).resolve().parent


def _src_trees():
    """Module name -> syntax tree, for every module of the package."""

    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in files}


def _reads(node):
    """Every name read under node, once per read: loaded names, attribute
    names and the strings listed in __all__."""

    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif (isinstance(n, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in n.targets)):
            out.extend(e.value for e in n.value.elts)
    return out


def test_no_identity_keys_in_src():
    # every memo in the program is keyed by value (nodes cache their
    # hashes), so no table has to keep nodes alive for their ids to stay
    # valid; a call of id() anywhere in the package would reintroduce one
    calls = []
    for name, tree in _src_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                calls.append("%s:%d" % (name, node.lineno))
    assert calls == []


def test_aux_comparisons_are_built_folding():
    # outside the parser, which keeps atoms as written, every auxiliary
    # comparison goes through aux_le, aux_lt or aux_asymp, every main
    # relation through main_rel and every quantifier through quant, so no
    # builder can skip their folds
    calls = []
    for name, tree in _src_trees().items():
        if name in ("syntax", "sexpr"):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("AuxLe", "AuxAsymp", "MainRel",
                                         "Exists", "Forall")):
                calls.append("%s:%d" % (name, node.lineno))
    assert calls == []


# Imported names that their module does not read, with the reason each
# stays imported.
KEPT_IMPORTS = {
    "piecewise.evaluate": "perfbench/tracing.py wraps piecewise.evaluate "
                          "when it traces a run",
}


def test_every_import_is_read():
    # the test files too: a test module is read by nothing else either
    trees = _src_trees()
    trees.update((p.stem, ast.parse(p.read_text(), str(p)))
                 for p in sorted(TESTS.glob("*.py")))
    unread = []
    for name, tree in trees.items():
        reads = set(_reads(tree))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in reads:
                        unread.append("%s.%s" % (name, bound))
    assert sorted(unread) == sorted(KEPT_IMPORTS)


# Top-level functions and classes, and non-dunder methods, that nothing in
# the package uses, each with the test (file::name) that keeps it or, for a
# name that code outside the package calls, the reason.  An export is no
# use: a public name needs a caller in the package too, or an entry here.
KEPT_DEFINITIONS = {
    "cli._Parser.error": "argparse.ArgumentParser calls it on a usage error",
    "piecewise.PieceSet.from_json": "test_piecewise.py::test_json_round_trip",
}


def _definitions(tree):
    """(qualified name, node) for the top-level functions and classes of a
    module and the methods of its classes, dunder methods left out."""

    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if (isinstance(meth, ast.FunctionDef)
                        and not meth.name.startswith("__")):
                    yield "%s.%s" % (node.name, meth.name), meth


def test_every_definition_is_used():
    trees = _src_trees()
    reads = Counter()
    for name, tree in trees.items():
        if name != "__init__":
            reads.update(_reads(tree))
    unused = []
    for name, tree in trees.items():
        for qualified, node in _definitions(tree):
            # a recursive call is no use
            if reads[node.name] > _reads(node).count(node.name):
                continue
            unused.append("%s.%s" % (name, qualified))
    assert sorted(unused) == sorted(KEPT_DEFINITIONS)
    for qualified, test in KEPT_DEFINITIONS.items():
        if "::" not in test:
            continue
        path, test_name = test.split("::")
        text = (TESTS / path).read_text()
        assert "def %s(" % test_name in text, test
        assert qualified.rsplit(".", 1)[1] in text, test


def test_every_parameter_is_read():
    # a parameter that its function never reads is a value every caller
    # must still supply; lambdas and self are exempt
    unread = []
    for name, tree in _src_trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            reads = set()
            for stmt in node.body:
                reads.update(_reads(stmt))
            unread += ["%s.%s(%s)" % (name, node.name, p) for p in params
                       if p != "self" and p not in reads]
    assert unread == []


def _table(tree, name):
    """The dict literal assigned to name at the top of a module."""

    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            assert isinstance(node.value, ast.Dict), name
            return node.value
    raise AssertionError("no table %s" % name)


def test_each_node_kind_is_described_once():
    # TERM_FIELDS reads the term fields of every atom and auxiliary-term
    # class off its annotations, so every other field must be a parameter,
    # not a term under another type; and every atom class has a surface
    # head, one per op, in HEADS, where a head written twice in the dict
    # literal would silently win
    trees = _src_trees()
    kinds = {}
    for node in trees["syntax"].body:
        bases = [b.id for b in node.bases if isinstance(b, ast.Name)] \
            if isinstance(node, ast.ClassDef) else []
        if "Atom" in bases or "AuxTerm" in bases:
            kinds[node.name] = bases[0]
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    assert ast.unparse(stmt.annotation) in (
                        "LinTerm", "AuxTerm", "int", "str", "Sort",
                        "Optional[Sort]"), (node.name, stmt.target.id)
    assert len(kinds) == 16
    assert sorted(cls.__name__ for cls in TERM_FIELDS) == sorted(kinds)
    heads = Counter()
    for value in _table(trees["sexpr"], "HEADS").values:
        cls, fixed = value.elts[0].id, value.elts[1]
        ops = [v.value for k, v in zip(fixed.keys, fixed.values)
               if k.value == "op"]
        heads[cls, tuple(ops)] += 1
    assert set(heads.values()) == {1}
    with_head = {cls for cls, _ in heads}
    assert {k for k, base in kinds.items() if base == "Atom"} <= with_head
    # a bare name is an auxiliary variable, and minima are sugar
    assert {k for k, base in kinds.items() if base == "AuxTerm"} - with_head \
        == {"AuxVar", "SortMin"}
