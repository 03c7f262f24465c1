"""Concrete s-expression syntax: parse_formula and print_formula.

The surface grammar (atoms in prefix form, quantifiers (E v SORT F) and
(A v SORT F)) is deliberately small and unambiguous.  (decl v SORT F)
gives the free auxiliary variable v its sort inside F and is not itself a
node.  Connectives are built with the smart constructors neg, conj and
disj, so a parsed formula has its constants folded and its nested
connectives flattened.  print_formula emits a canonical form without
declarations; parse_formula(print_formula(f)) is structurally f, for f
built with the smart constructors, up to the sorts of free auxiliary
variables.
"""

from __future__ import annotations

import re
from typing import Union

from .syntax import (
    AC, AE, AEP, And, AuxAsymp, AuxLe, AuxTerm, AuxVar, Bottom, CongDot,
    Discr, DimFloor, DimSucc, DPred, EqDot, Exists, FALSE, Forall, Formula,
    LinTerm, MainRel, Not, Or, PlainRel, Sc, Se, Sort, SortMin, SpineRef,
    SuccPlus, TRUE, Top, conj, disj, neg, sort_ac, sort_ae, SORT_G,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (msg, line, col))
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


class _Tok:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        body = line.split(";", 1)[0]
        for m in _TOKEN.finditer(body):
            toks.append(_Tok(m.group(), lineno, m.start() + 1))
    return toks


Node = Union[_Tok, list]


def _read(toks: list[_Tok], i: int) -> tuple[Node, int]:
    if i >= len(toks):
        last = toks[-1] if toks else _Tok("", 1, 1)
        raise ParseError("unexpected end of input", last.line, last.col)
    t = toks[i]
    if t.text == "(":
        items: list[Node] = []
        i += 1
        while True:
            if i >= len(toks):
                raise ParseError("unclosed parenthesis", t.line, t.col)
            if toks[i].text == ")":
                return _ListNode(items, t), i + 1
            node, i = _read(toks, i)
            items.append(node)
    if t.text == ")":
        raise ParseError("unexpected ')'", t.line, t.col)
    return t, i + 1


class _ListNode(list):
    def __init__(self, items, open_tok):
        super().__init__(items)
        self.line = open_tok.line
        self.col = open_tok.col


def _err(node: Node, msg: str):
    raise ParseError(msg, node.line, node.col)


def _is_tok(node: Node) -> bool:
    return isinstance(node, _Tok)


_INT = re.compile(r"-?\d+\Z")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.'-]*\Z")
_MIN_SUGAR = re.compile(r"([ce])(\d+)min\Z")


def _int(node: Node, what: str = "integer") -> int:
    if not _is_tok(node) or not _INT.match(node.text):
        _err(node, "expected %s" % what)
    return int(node.text)


def _name(node: Node) -> str:
    if not _is_tok(node) or not _NAME.match(node.text):
        _err(node, "expected identifier")
    return node.text


def _parse_sort(node: Node) -> Sort:
    if _is_tok(node):
        if node.text == "G":
            return SORT_G
        _err(node, "unknown sort %r" % node.text)
    if len(node) == 2 and _is_tok(node[0]) and node[0].text in (AC, AE, AEP):
        n = _int(node[1], "sort modulus")
        try:
            return Sort(node[0].text, n)
        except ValueError as e:
            _err(node, str(e))
    _err(node, "expected sort")


def _parse_lin(node: Node, env: dict[str, Sort]) -> LinTerm:
    if _is_tok(node):
        if node.text == "0":
            return LinTerm.zero()
        name = _name(node)
        if env.get(name, SORT_G) != SORT_G:
            _err(node, "auxiliary variable %r used in a main-sort term" % name)
        return LinTerm.var(name)
    if not node or not _is_tok(node[0]):
        _err(node, "expected main-sort term")
    head = node[0].text
    if head == "*":
        if len(node) != 3:
            _err(node, "(* C VAR) takes two arguments")
        c = _int(node[1], "coefficient")
        return _parse_lin(node[2], env).scale(c)
    if head == "+":
        out = LinTerm.zero()
        for sub in node[1:]:
            out = out + _parse_lin(sub, env)
        return out
    if head == "-":
        if len(node) == 2:
            return -_parse_lin(node[1], env)
        if len(node) == 3:
            return _parse_lin(node[1], env) - _parse_lin(node[2], env)
        _err(node, "(- T) or (- T1 T2)")
    _err(node, "expected main-sort term, got %r" % head)


def _parse_aux(node: Node, env: dict[str, Sort]) -> AuxTerm:
    if _is_tok(node):
        m = _MIN_SUGAR.match(node.text)
        if m:
            mk = sort_ac if m.group(1) == "c" else sort_ae
            return SortMin(mk(int(m.group(2))))
        name = _name(node)
        sort = env.get(name)
        if sort is not None and sort.is_main:
            _err(node, "main variable %r used in auxiliary position" % name)
        return AuxVar(name, sort)
    if not node or not _is_tok(node[0]):
        _err(node, "expected auxiliary term")
    head = node[0].text
    try:
        if head == "sc":
            if len(node) != 4:
                _err(node, "(sc P R T)")
            return Sc(_int(node[1]), _int(node[2]), _parse_lin(node[3], env))
        if head == "se":
            if len(node) != 3:
                _err(node, "(se P T)")
            return Se(_int(node[1]), _parse_lin(node[2], env))
        if head == "plus":
            if len(node) != 2:
                _err(node, "(plus A)")
            return SuccPlus(_parse_aux(node[1], env))
        if head == "cmin":
            if len(node) != 2:
                _err(node, "(cmin P)")
            return SortMin(sort_ac(_int(node[1])))
        if head == "emin":
            if len(node) != 2:
                _err(node, "(emin P)")
            return SortMin(sort_ae(_int(node[1])))
        if head == "pt":
            if len(node) != 3:
                _err(node, "(pt SORT ID)")
            return SpineRef(_parse_sort(node[1]), _name(node[2]))
    except ValueError as e:
        _err(node, str(e))
    _err(node, "expected auxiliary term, got %r" % head)


def _parse_formula(node: Node, env: dict[str, Sort]) -> Formula:
    if _is_tok(node):
        if node.text == "true":
            return TRUE
        if node.text == "false":
            return FALSE
        _err(node, "expected formula")
    if not node or not _is_tok(node[0]):
        _err(node, "expected formula")
    head = node[0].text
    args = node[1:]

    def lin(k):
        return _parse_lin(args[k], env)

    def aux(k):
        return _parse_aux(args[k], env)

    def arity(n):
        if len(args) != n:
            _err(node, "%s takes %d arguments" % (head, n))

    try:
        if head in ("lt", "eq", "gt", "geq", "leq", "neq"):
            arity(4)
            a, t1, t2, k = aux(0), lin(1), lin(2), _int(args[3], "offset")
            if head == "lt":
                return MainRel("lt", t1, t2, k, a)
            if head == "eq":
                return MainRel("eq", t1, t2, k, a)
            if head == "neq":
                return neg(MainRel("eq", t1, t2, k, a))
            if head == "gt":
                return MainRel("lt", t2, t1, -k, a)
            if head == "geq":
                return neg(MainRel("lt", t1, t2, k, a))
            # leq: not (t1 > t2 + k)
            return neg(MainRel("lt", t2, t1, -k, a))
        if head == "cong":
            arity(5)
            return MainRel("cong", lin(2), lin(3), _int(args[4], "offset"),
                           aux(1), m=_int(args[0], "modulus"))
        if head == "congb":
            arity(5)
            return MainRel("congb", lin(3), lin(4), 0, aux(2),
                           m=_int(args[0], "modulus"),
                           mp=_int(args[1], "modulus"))
        if head == "plainlt":
            arity(2)
            return PlainRel("lt", lin(0), lin(1))
        if head == "plaincong":
            arity(3)
            return PlainRel("cong", lin(1), lin(2), m=_int(args[0], "modulus"))
        if head == "le":
            arity(2)
            return AuxLe(aux(0), aux(1))
        if head == "asymp":
            arity(2)
            return AuxAsymp(aux(0), aux(1))
        if head == "discr":
            arity(1)
            return Discr(aux(0))
        if head == "dimsucc":
            arity(4)
            return DimSucc(_int(args[0]), _int(args[1]), _int(args[2]), aux(3))
        if head == "dimfloor":
            arity(4)
            return DimFloor(_int(args[0]), _int(args[1]), _int(args[2]), aux(3))
        if head == "eqdot":
            arity(2)
            return EqDot(_int(args[0], "offset"), lin(1))
        if head == "congdot":
            arity(3)
            return CongDot(_int(args[0], "modulus"), _int(args[1], "offset"),
                           lin(2))
        if head == "dpred":
            arity(4)
            return DPred(_int(args[0]), _int(args[1]), _int(args[2]), lin(3))
        if head == "not":
            arity(1)
            return neg(_parse_formula(args[0], env))
        if head == "and":
            return conj([_parse_formula(a, env) for a in args])
        if head == "or":
            return disj([_parse_formula(a, env) for a in args])
        if head == "decl":
            arity(3)
            var = _name(args[0])
            sort = _parse_sort(args[1])
            if sort.is_main:
                _err(args[1], "decl declares auxiliary sorts only")
            inner = dict(env)
            inner[var] = sort
            return _parse_formula(args[2], inner)
        if head in ("E", "A"):
            arity(3)
            var = _name(args[0])
            sort = _parse_sort(args[1])
            inner = dict(env)
            inner[var] = sort
            body = _parse_formula(args[2], inner)
            return (Exists if head == "E" else Forall)(var, sort, body)
    except ParseError:
        raise
    except ValueError as e:
        _err(node, str(e))
    _err(node, "unknown formula head %r" % head)


def parse_formula(text: str) -> Formula:
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input", 1, 1)
    node, i = _read(toks, 0)
    if i != len(toks):
        t = toks[i]
        raise ParseError("trailing input %r" % t.text, t.line, t.col)
    return _parse_formula(node, {})


# ---------------------------------------------------------------------------
# Printing

def print_sort(s: Sort) -> str:
    if s.is_main:
        return "G"
    return "(%s %d)" % (s.kind, s.n)


def print_lin(t: LinTerm) -> str:
    if t.is_zero():
        return "0"
    parts = []
    for v, c in t.coeffs:
        parts.append(v if c == 1 else "(* %d %s)" % (c, v))
    if len(parts) == 1:
        return parts[0]
    return "(+ %s)" % " ".join(parts)


def print_aux(t: AuxTerm) -> str:
    if isinstance(t, AuxVar):
        return t.name
    if isinstance(t, Sc):
        return "(sc %d %d %s)" % (t.p, t.r, print_lin(t.arg))
    if isinstance(t, Se):
        return "(se %d %s)" % (t.p, print_lin(t.arg))
    if isinstance(t, SuccPlus):
        return "(plus %s)" % print_aux(t.arg)
    if isinstance(t, SortMin):
        return "(%s %d)" % ("cmin" if t.sort.kind == AC else "emin", t.sort.n)
    if isinstance(t, SpineRef):
        return "(pt %s %s)" % (print_sort(t.sort), t.class_id)
    raise TypeError("not an auxiliary term: %r" % (t,))


def print_formula(f: Formula) -> str:
    """The canonical text of f.  Each node keeps its text once printed, as
    it keeps its hash (see syntax), so a subformula shared by several
    formulas, or occurring several times in one, is printed once."""

    text = getattr(f, "_text", None)
    if text is None:
        text = _print_node(f)
        object.__setattr__(f, "_text", text)
    return text


def _print_node(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, MainRel):
        if f.op in ("eq", "lt"):
            return "(%s %s %s %s %d)" % (f.op, print_aux(f.aux),
                                         print_lin(f.lhs), print_lin(f.rhs),
                                         f.k)
        if f.op == "cong":
            return "(cong %d %s %s %s %d)" % (f.m, print_aux(f.aux),
                                              print_lin(f.lhs),
                                              print_lin(f.rhs), f.k)
        return "(congb %d %d %s %s %s)" % (f.m, f.mp, print_aux(f.aux),
                                           print_lin(f.lhs), print_lin(f.rhs))
    if isinstance(f, PlainRel):
        if f.op == "lt":
            return "(plainlt %s %s)" % (print_lin(f.lhs), print_lin(f.rhs))
        return "(plaincong %d %s %s)" % (f.m, print_lin(f.lhs),
                                         print_lin(f.rhs))
    if isinstance(f, AuxLe):
        return "(le %s %s)" % (print_aux(f.lhs), print_aux(f.rhs))
    if isinstance(f, AuxAsymp):
        return "(asymp %s %s)" % (print_aux(f.lhs), print_aux(f.rhs))
    if isinstance(f, Discr):
        return "(discr %s)" % print_aux(f.aux)
    if isinstance(f, DimSucc):
        return "(dimsucc %d %d %d %s)" % (f.p, f.s, f.ell, print_aux(f.aux))
    if isinstance(f, DimFloor):
        return "(dimfloor %d %d %d %s)" % (f.p, f.s, f.ell, print_aux(f.aux))
    if isinstance(f, EqDot):
        return "(eqdot %d %s)" % (f.k, print_lin(f.t))
    if isinstance(f, CongDot):
        return "(congdot %d %d %s)" % (f.m, f.k, print_lin(f.t))
    if isinstance(f, DPred):
        return "(dpred %d %d %d %s)" % (f.p, f.r, f.s, print_lin(f.t))
    if isinstance(f, Not):
        return "(not %s)" % print_formula(f.arg)
    if isinstance(f, And):
        if not f.args:
            return "true"
        return "(and %s)" % " ".join(print_formula(g) for g in f.args)
    if isinstance(f, Or):
        if not f.args:
            return "false"
        return "(or %s)" % " ".join(print_formula(g) for g in f.args)
    if isinstance(f, Exists):
        return "(E %s %s %s)" % (f.var, print_sort(f.sort),
                                 print_formula(f.body))
    if isinstance(f, Forall):
        return "(A %s %s %s)" % (f.var, print_sort(f.sort),
                                 print_formula(f.body))
    raise TypeError("not a formula: %r" % (f,))
