"""First-order terms and formulas over linear integer arithmetic.

Terms are integer-sorted trees (literals, variables, +, -, multiplication
by a literal, div/mod by a positive literal). Formulas are boolean
combinations of comparisons plus quantifier blocks. Everything is
immutable and hashable; the smart constructors below perform constant
folding, which keeps symbolic memories small and lets fully determined
guards collapse to boolean literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class EvalError(Exception):
    """Evaluation hit an unbound variable or an unsupported construct."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinTerm:
    op: str  # one of + - * div mod
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Term = Union[IntLit, Var, BinTerm]


def add(left: Term, right: Term) -> Term:
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return IntLit(left.value + right.value)
    if isinstance(left, IntLit) and left.value == 0:
        return right
    if isinstance(right, IntLit) and right.value == 0:
        return left
    return BinTerm("+", left, right)


def sub(left: Term, right: Term) -> Term:
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return IntLit(left.value - right.value)
    if isinstance(right, IntLit) and right.value == 0:
        return left
    return BinTerm("-", left, right)


def neg(term: Term) -> Term:
    return sub(IntLit(0), term)


def mul(left: Term, right: Term) -> Term:
    """Multiplication; at least one operand must be a literal (linearity)."""
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return IntLit(left.value * right.value)
    if not isinstance(left, IntLit) and not isinstance(right, IntLit):
        raise ValueError("nonlinear multiplication: neither operand is a literal")
    if isinstance(left, IntLit):
        if left.value == 0:
            return IntLit(0)
        if left.value == 1:
            return right
    if isinstance(right, IntLit):
        if right.value == 0:
            return IntLit(0)
        if right.value == 1:
            return left
    return BinTerm("*", left, right)


# SMT-LIB div/mod are Euclidean; for the positive literal divisors that
# `div` and `mod` admit they match Python's // and %.

def div(num: Term, den: Term) -> Term:
    if not isinstance(den, IntLit) or den.value <= 0:
        raise ValueError("division requires a positive literal divisor")
    if isinstance(num, IntLit):
        return IntLit(num.value // den.value)
    if den.value == 1:
        return num
    return BinTerm("div", num, den)


def mod(num: Term, den: Term) -> Term:
    if not isinstance(den, IntLit) or den.value <= 0:
        raise ValueError("modulo requires a positive literal divisor")
    if isinstance(num, IntLit):
        return IntLit(num.value % den.value)
    if den.value == 1:
        return IntLit(0)
    return BinTerm("mod", num, den)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoolLit:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Cmp:
    op: str  # one of = != < <= > >=
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Not:
    arg: "Formula"

    def __str__(self) -> str:
        return f"(not {self.arg})"


@dataclass(frozen=True)
class And:
    args: tuple

    def __str__(self) -> str:
        return "(and " + " ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Or:
    args: tuple

    def __str__(self) -> str:
        return "(or " + " ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} => {self.right})"


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall" | "exists"
    vars: tuple  # variable names, pairwise distinct
    body: "Formula"

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("quantifier block binds a variable twice")

    def __str__(self) -> str:
        return f"({self.kind} ({' '.join(self.vars)}) {self.body})"


Formula = Union[BoolLit, Cmp, Not, And, Or, Implies, Quant]

TRUE = BoolLit(True)
FALSE = BoolLit(False)

_CMP_FUNS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def cmp(op: str, left: Term, right: Term) -> Formula:
    if op not in _CMP_FUNS:
        raise ValueError(f"unknown comparison operator {op!r}")
    if isinstance(left, IntLit) and isinstance(right, IntLit):
        return BoolLit(_CMP_FUNS[op](left.value, right.value))
    return Cmp(op, left, right)


def negate(arg: Formula) -> Formula:
    if isinstance(arg, BoolLit):
        return BoolLit(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    return Not(arg)


def conj(args: Iterable[Formula]) -> Formula:
    flat = []
    for a in args:
        if isinstance(a, BoolLit):
            if not a.value:
                return FALSE
            continue
        if isinstance(a, And):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(args: Iterable[Formula]) -> Formula:
    flat = []
    for a in args:
        if isinstance(a, BoolLit):
            if a.value:
                return TRUE
            continue
        if isinstance(a, Or):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(left: Formula, right: Formula) -> Formula:
    if isinstance(left, BoolLit):
        return right if left.value else TRUE
    if isinstance(right, BoolLit) and right.value:
        return TRUE
    return Implies(left, right)


def forall(vars: Iterable[str], body: Formula) -> Formula:
    vars = tuple(vars)
    if not vars:
        return body
    if isinstance(body, BoolLit):
        return body
    return Quant("forall", vars, body)


def exists(vars: Iterable[str], body: Formula) -> Formula:
    vars = tuple(vars)
    if not vars:
        return body
    if isinstance(body, BoolLit):
        return body
    return Quant("exists", vars, body)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_term(term: Term, rho: Mapping[str, int]) -> int:
    if isinstance(term, IntLit):
        return term.value
    if isinstance(term, Var):
        try:
            return rho[term.name]
        except KeyError:
            raise EvalError(f"unbound variable {term.name!r}") from None
    left = eval_term(term.left, rho)
    right = eval_term(term.right, rho)
    if term.op == "+":
        return left + right
    if term.op == "-":
        return left - right
    if term.op == "*":
        return left * right
    if term.op == "div":
        return left // right
    if term.op == "mod":
        return left % right
    raise EvalError(f"unknown term operator {term.op!r}")


def eval_formula(formula: Formula, rho: Mapping[str, int]) -> bool:
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Cmp):
        return _CMP_FUNS[formula.op](eval_term(formula.left, rho), eval_term(formula.right, rho))
    if isinstance(formula, Not):
        return not eval_formula(formula.arg, rho)
    if isinstance(formula, And):
        return all(eval_formula(a, rho) for a in formula.args)
    if isinstance(formula, Or):
        return any(eval_formula(a, rho) for a in formula.args)
    if isinstance(formula, Implies):
        return (not eval_formula(formula.left, rho)) or eval_formula(formula.right, rho)
    if isinstance(formula, Quant):
        raise EvalError("cannot evaluate a quantified formula; use the solver")
    raise EvalError(f"unknown formula node {formula!r}")


# ---------------------------------------------------------------------------
# Free variables and substitution
# ---------------------------------------------------------------------------

def free_vars(node) -> frozenset:
    if isinstance(node, (IntLit, BoolLit)):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, BinTerm):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Cmp):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Not):
        return free_vars(node.arg)
    if isinstance(node, (And, Or)):
        out = frozenset()
        for a in node.args:
            out |= free_vars(a)
        return out
    if isinstance(node, Implies):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Quant):
        return free_vars(node.body) - frozenset(node.vars)
    raise TypeError(f"not a term or formula: {node!r}")


def is_quantifier_free(formula: Formula) -> bool:
    if isinstance(formula, Quant):
        return False
    if isinstance(formula, Not):
        return is_quantifier_free(formula.arg)
    if isinstance(formula, (And, Or)):
        return all(is_quantifier_free(a) for a in formula.args)
    if isinstance(formula, Implies):
        return is_quantifier_free(formula.left) and is_quantifier_free(formula.right)
    return True


def _rename_away(name: str, taken: set) -> str:
    i = 1
    while f"{name}!{i}" in taken:
        i += 1
    return f"{name}!{i}"


def substitute(node, sigma: Mapping[str, Term]):
    """Simultaneous capture-avoiding substitution on a term or formula.

    Variables outside sigma's domain are untouched; bound variables are
    renamed when they would capture a free variable of an image term.
    """
    if isinstance(node, (IntLit, BoolLit)):
        return node
    if isinstance(node, Var):
        return sigma.get(node.name, node)
    if isinstance(node, BinTerm):
        return _rebuild_term(node.op, substitute(node.left, sigma), substitute(node.right, sigma))
    if isinstance(node, Cmp):
        return cmp(node.op, substitute(node.left, sigma), substitute(node.right, sigma))
    if isinstance(node, Not):
        return negate(substitute(node.arg, sigma))
    if isinstance(node, And):
        return conj(substitute(a, sigma) for a in node.args)
    if isinstance(node, Or):
        return disj(substitute(a, sigma) for a in node.args)
    if isinstance(node, Implies):
        return implies(substitute(node.left, sigma), substitute(node.right, sigma))
    if isinstance(node, Quant):
        live = {x: t for x, t in sigma.items()
                if x not in node.vars and x in free_vars(node.body)}
        if not live:
            return node
        incoming = set()
        for t in live.values():
            incoming |= free_vars(t)
        bound = list(node.vars)
        renames = {}
        for i, v in enumerate(bound):
            if v in incoming:
                taken = incoming | set(bound) | set(live) | free_vars(node.body)
                fresh_name = _rename_away(v, set(taken))
                renames[v] = Var(fresh_name)
                bound[i] = fresh_name
        body = substitute(node.body, renames) if renames else node.body
        return Quant(node.kind, tuple(bound), substitute(body, live))
    raise TypeError(f"not a term or formula: {node!r}")


def _rebuild_term(op: str, left: Term, right: Term) -> Term:
    if op == "+":
        return add(left, right)
    if op == "-":
        return sub(left, right)
    if op == "*":
        return mul(left, right)
    if op == "div":
        return div(left, right)
    if op == "mod":
        return mod(left, right)
    raise ValueError(f"unknown term operator {op!r}")
