"""Linear-term algebra, smart constructors and traversal helpers."""

import ast
import pathlib
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from oagqe.syntax import (
    And, AuxVar, Bottom, CongDot, EqDot, Exists, FALSE, Forall, LinTerm,
    MainRel, Not, Or, PlainRel, Sc, Se, SortMin, SORT_G, TRUE, Top,
    conj, disj, free_vars, has_main_quantifier, implies, neg,
    sort_ac, sort_ae, sort_aep, subformulas, subst_lin, substitute,
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


def test_free_vars_sorts_and_binding():
    x, y = LinTerm.var("x"), LinTerm.var("y")
    a = MainRel("lt", x, y, 0, AuxVar("a1", sort_ac(2)))
    fv = free_vars(a)
    assert fv == {"x": SORT_G, "y": SORT_G, "a1": sort_ac(2)}
    f = Exists("x", SORT_G, a)
    assert set(free_vars(f)) == {"y", "a1"}
    g = Forall("a1", sort_ac(2), f)
    assert set(free_vars(g)) == {"y"}
    # canonical-map arguments count as main-sort occurrences
    b = PlainRel("cong", Sc(2, 1, x).arg, y, m=2)
    assert free_vars(b)["x"] == SORT_G


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
    assert free_vars(g) == {"y": SORT_G}


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


# Imported names that their module does not read, with the reason each
# stays imported.
KEPT_IMPORTS = {
    "piecewise.evaluate": "perfbench/tracing.py wraps piecewise.evaluate "
                          "when it traces a run",
}


def test_every_import_is_read():
    unread = []
    for name, tree in _src_trees().items():
        reads = set(_reads(tree))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in reads:
                        unread.append("%s.%s" % (name, bound))
    assert sorted(unread) == sorted(KEPT_IMPORTS)


# Top-level functions and classes that nothing in the package uses and
# that the package does not export, each with the test (file::name) that
# keeps it.
KEPT_DEFINITIONS = {
    "models.ac_class_of": "test_models.py::test_class_maps_land_on_spine",
    "models.ae_class_of": "test_models.py::test_class_maps_land_on_spine",
    "models.format_model": "test_models.py::test_model_file_roundtrip",
    "models.residue_box":
        "test_models.py::test_spine_matches_definitional_oracle",
}


def test_every_definition_is_used():
    trees = _src_trees()
    reads = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a recursive call is no use
            if reads[node.name] > _reads(node).count(node.name):
                continue
            unused.append("%s.%s" % (name, node.name))
    assert sorted(unused) == sorted(KEPT_DEFINITIONS)
    for qualified, test in KEPT_DEFINITIONS.items():
        path, test_name = test.split("::")
        text = (TESTS / path).read_text()
        assert "def %s(" % test_name in text, test
        assert qualified.split(".")[1] in text, test
