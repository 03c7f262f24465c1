"""Piecewise-linear decomposition over the integers."""

import importlib

import pytest

from conftest import Z_MODEL
from oagqe.evaluate import evaluate
from oagqe.piecewise import (
    FunctionalityError, LinearPiece, PieceSet, _sample_points, decompose,
    verify_decomposition,
)
from oagqe.syntax import (
    TRUE, LinTerm, MainRel, Not, Or, SortMin, conj, disj, sort_ac,
)

# the package exports the function evaluate under the module's name
evaluate_module = importlib.import_module("oagqe.evaluate")
BOT = SortMin(sort_ac(2))
x, y = LinTerm.var("x"), LinTerm.var("y")
x1, x2 = LinTerm.var("x1"), LinTerm.var("x2")
zero = LinTerm.zero()


def graph_identity():
    return MainRel("eq", y, x, 0, BOT)


def graph_half():
    # y is x shifted down to the nearest multiple of two, halved
    two_y = LinTerm.var("y", 2)
    return conj([Not(MainRel("lt", x, two_y, 0, BOT)),
                 MainRel("lt", x, two_y, 2, BOT)])


def graph_max():
    return disj([
        conj([MainRel("eq", y, x1, 0, BOT),
              Not(MainRel("lt", x1, x2, 0, BOT))]),
        conj([MainRel("eq", y, x2, 0, BOT),
              MainRel("lt", x1, x2, 0, BOT)]),
    ])


def test_identity_single_piece():
    ps = decompose(Z_MODEL, graph_identity(), "y", ["x"])
    assert len(ps.pieces) == 1
    p = ps.pieces[0]
    assert (p.coeffs, p.denom, p.offset) == ((1,), 1, 0)
    assert verify_decomposition(Z_MODEL, graph_identity(), ps, 6).ok


def test_negative_box_is_rejected():
    with pytest.raises(ValueError, match="negative box"):
        decompose(Z_MODEL, graph_identity(), "y", ["x"], check_box=-1)
    ps = decompose(Z_MODEL, graph_identity(), "y", ["x"])
    with pytest.raises(ValueError, match="negative box"):
        verify_decomposition(Z_MODEL, graph_identity(), ps, -1)
    # radius 0 is the one point at the origin
    assert verify_decomposition(Z_MODEL, graph_identity(), ps, 0).points == 1


def test_half_two_pieces():
    ps = decompose(Z_MODEL, graph_half(), "y", ["x"])
    assert len(ps.pieces) == 2
    values = sorted((p.coeffs, p.denom, p.offset) for p in ps.pieces)
    assert values == [((1,), 2, -1), ((1,), 2, 0)]
    rep = verify_decomposition(Z_MODEL, graph_half(), ps, 8)
    assert rep.ok and rep.points == 17


def test_max_two_pieces():
    ps = decompose(Z_MODEL, graph_max(), "y", ["x1", "x2"])
    assert len(ps.pieces) == 2
    rep = verify_decomposition(Z_MODEL, graph_max(), ps, 5)
    assert rep.ok and rep.points == 121
    for point, want in [((3, -2), 3), ((-4, 1), 1), ((2, 2), 2)]:
        live = [p for p in ps.pieces
                if p.value_at(point) == want]
        assert live


def test_corrupted_coefficient_is_detected():
    ps = decompose(Z_MODEL, graph_half(), "y", ["x"])
    bad = PieceSet(ps.args, ps.value_var, tuple(
        LinearPiece(p.guard, (p.coeffs[0] + 1,), p.denom, p.offset)
        for p in ps.pieces))
    rep = verify_decomposition(Z_MODEL, graph_half(), bad, 6)
    assert not rep.ok
    kinds = {v["kind"] for v in rep.violations}
    assert kinds <= {"value", "nonintegral"}


def test_empty_piece_set_fails_cover():
    ps = PieceSet(("x",), "y", ())
    rep = verify_decomposition(Z_MODEL, graph_identity(), ps, 3)
    assert len(rep.violations) == rep.points == 7
    assert all(v["kind"] == "cover" for v in rep.violations)


def test_json_round_trip():
    ps = decompose(Z_MODEL, graph_max(), "y", ["x1", "x2"])
    data = ps.to_json()
    back = PieceSet.from_json(data)
    assert back == ps
    import json
    assert json.loads(json.dumps(data)) == data


def test_non_functional_input_raises():
    # a lower bound alone admits many values at every point
    f = MainRel("lt", x, y, 0, BOT)
    with pytest.raises(FunctionalityError):
        decompose(Z_MODEL, f, "y", ["x"])
    # congruences alone give no bounded candidates at all
    g = MainRel("cong", y, x, 0, BOT, m=2)
    with pytest.raises(FunctionalityError):
        decompose(Z_MODEL, g, "y", ["x"])


def test_value_must_use_argument_variables_only():
    f = MainRel("eq", y, LinTerm.var("w"), 0, BOT)
    with pytest.raises(ValueError):
        decompose(None, f, "y", ["x"])


def test_partial_graph_fails_functionality_check():
    # 2y = x pins y only at even x: odd points admit no value at all
    f = MainRel("eq", LinTerm.var("y", 2), x, 0, BOT)
    with pytest.raises(FunctionalityError, match="admits 0 sampled values"):
        decompose(Z_MODEL, f, "y", ["x"])
    ps = decompose(None, f, "y", ["x"])
    assert len(ps.pieces) == 1
    p = ps.pieces[0]
    assert (p.coeffs, p.denom, p.offset) == ((1,), 2, 0)
    assert isinstance(p.guard, MainRel)
    assert (p.guard.op, p.guard.m) == ("cong", 2)


def _reference_verify(model, formula, ps, box):
    """verify_decomposition with a fresh one-shot evaluate at every point
    and for every guard, sharing nothing between points."""

    points, violations = 0, []
    for point in _sample_points(len(ps.args), box):
        points += 1
        asg = {v: model.element([c]) for v, c in zip(ps.args, point)}
        live = [p for p in ps.pieces if evaluate(model, asg, p.guard) is True]
        if len(live) != 1:
            violations.append({"point": point, "kind": "cover",
                               "count": len(live)})
            continue
        yv = live[0].value_at(point)
        if yv is None:
            violations.append({"point": point, "kind": "nonintegral"})
            continue
        asg[ps.value_var] = model.element([yv])
        if evaluate(model, asg, formula) is not True:
            violations.append({"point": point, "kind": "value", "value": yv})
    return points, violations


@pytest.mark.parametrize("graph, args, box", [
    (graph_identity, ["x"], 6),
    (graph_half, ["x"], 8),
    (graph_max, ["x1", "x2"], 3),
])
def test_shared_memo_verification_matches_fresh_evaluation(graph, args, box):
    f = graph()
    ps = decompose(Z_MODEL, f, "y", args)
    p = ps.pieces[0]
    doubled = PieceSet(ps.args, ps.value_var, (p, p))
    corrupted = PieceSet(ps.args, ps.value_var, tuple(
        LinearPiece(q.guard, (q.coeffs[0] + 1,) + q.coeffs[1:], q.denom,
                    q.offset)
        for q in ps.pieces))
    for cand in (ps, doubled, corrupted):
        rep = verify_decomposition(Z_MODEL, f, cand, box)
        assert ((rep.points, list(rep.violations))
                == _reference_verify(Z_MODEL, f, cand, box))
    rep = verify_decomposition(Z_MODEL, f, doubled, box)
    assert len(rep.violations) == rep.points
    assert all(v["kind"] == "cover" for v in rep.violations)
    assert not verify_decomposition(Z_MODEL, f, corrupted, box).ok


def test_decompose_rebuilds_raw_connectives():
    # a graph built by the caller with raw connectives: the constant arm
    # folds away only when the formula is rebuilt with smart constructors
    for graph, args in ((graph_half(), ["x"]), (graph_max(), ["x1", "x2"])):
        raw = Or((graph, Not(TRUE)))
        assert (decompose(Z_MODEL, raw, "y", args)
                == decompose(Z_MODEL, graph, "y", args))


def test_decompose_decides_no_main_quantifier(monkeypatch):
    # the functionality check reads the projection of the graph off the
    # values it finds at each point, and never decides it
    calls = []
    decide = evaluate_module.decide_exists_main

    def counted(*args, **kwargs):
        calls.append(args)
        return decide(*args, **kwargs)

    monkeypatch.setattr(evaluate_module, "decide_exists_main", counted)
    for graph, args in ((graph_identity(), ["x"]), (graph_half(), ["x"]),
                        (graph_max(), ["x1", "x2"])):
        ps = decompose(Z_MODEL, graph, "y", args)
        assert verify_decomposition(Z_MODEL, graph, ps, 4).ok
    test_non_functional_input_raises()
    test_partial_graph_fails_functionality_check()
    assert calls == []
