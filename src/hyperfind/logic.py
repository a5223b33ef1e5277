"""First-order terms and formulas over linear integer arithmetic.

Terms are integer-sorted trees (literals, variables, +, -, multiplication
by a literal, div/mod by a positive literal). Formulas are boolean
combinations of comparisons plus quantifier blocks. Everything is
immutable and hashable; the smart constructors below perform constant
folding, which keeps symbolic memories small and lets fully determined
guards collapse to boolean literals. `add` and `sub` also fold literal
offsets: `(t + a) - b` is `t + (a - b)`, or just `t` when the offsets
cancel, so a variable decremented k times is `v - k`, not k nested
subtractions. `cmp` decides a term compared with itself, or with an offset
of itself.

The quantifier constructors apply the one-point rule: a binder x that a
conjunct `x = t` pins, with t free of the block's binders, is replaced by t
and no longer bound, in `forall xs. not (C)` and in `exists xs. C` with C a
conjunction or a single comparison. A block may so lose some or all of its
binders, or fold to a literal.

Path feasibility (`symexec`) and the bundled solver (`refsolver`) read
comparisons into one linear normal form (`comparison`, `atom`).

A loop that substitutes into the same quantifier-free node many times, such
as the symbolic interpreter's edge guards or the specification body,
compiles it once with `substituter`: a closure per node that calls the same
smart constructors as `substitute`, without walking the tree.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union


class EvalError(Exception):
    """Evaluation hit an unbound variable or an unsupported construct."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

set_field = object.__setattr__  # sets a slot past a frozen record's __setattr__


class Record:
    """The package's record type, with a dataclass's repr and equality.

    The fields are the `__slots__` not named with a leading underscore, or
    `_fields` where a class lists them. The constructor takes them in order,
    by position or keyword; `_defaults` holds values for those left out. A
    record equals a record of the same class with equal fields. A `Record`
    is mutable and unhashable; a `FrozenRecord` refuses assignment and
    hashes as the tuple of its fields. The classes that a search builds by
    the thousand define their own `__init__`, and the logic nodes their own
    `__eq__` and `__hash__`: the same results as these generic methods,
    only faster.
    """

    __slots__ = ()
    _defaults = {}
    __hash__ = None

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(self._defaults, **dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class IntLit(FrozenRecord):
    __slots__ = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __str__(self) -> str:
        return str(self.value)


class Var(FrozenRecord):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class BinTerm(FrozenRecord):
    __slots__ = ("op", "left", "right")  # op: one of + - * div mod

    def __init__(self, op: str, left: "Term", right: "Term"):
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.op, self.left, self.right) == (other.op, other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.left, self.right))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Term = Union[IntLit, Var, BinTerm]


def _offset(term: Term):
    """`(t, a)` when `term` is `t + a` or `t - a` for a literal a, else None."""
    if isinstance(term, BinTerm) and term.op in ("+", "-") and isinstance(term.right, IntLit):
        return term.left, term.right.value if term.op == "+" else -term.right.value
    return None


def _shift(base: Term, offset: int) -> Term:
    if offset == 0:
        return base
    if offset > 0:
        return BinTerm("+", base, IntLit(offset))
    return BinTerm("-", base, IntLit(-offset))


def add(left: Term, right: Term) -> Term:
    if isinstance(right, IntLit):
        if isinstance(left, IntLit):
            return IntLit(left.value + right.value)
        if right.value == 0:
            return left
        if inner := _offset(left):
            return _shift(inner[0], inner[1] + right.value)
    elif isinstance(left, IntLit):
        if left.value == 0:
            return right
        if inner := _offset(right):
            return _shift(inner[0], inner[1] + left.value)
    return BinTerm("+", left, right)


def sub(left: Term, right: Term) -> Term:
    if isinstance(right, IntLit):
        if isinstance(left, IntLit):
            return IntLit(left.value - right.value)
        if right.value == 0:
            return left
        if inner := _offset(left):
            return _shift(inner[0], inner[1] - right.value)
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

class BoolLit(FrozenRecord):
    __slots__ = ("value",)  # a bool
    # The same field as IntLit's, so the same methods.
    __init__, __eq__, __hash__ = IntLit.__init__, IntLit.__eq__, IntLit.__hash__

    def __str__(self) -> str:
        return "true" if self.value else "false"


class Cmp(FrozenRecord):
    __slots__ = ("op", "left", "right")  # op: one of = != < <= > >=
    __init__, __eq__, __hash__ = BinTerm.__init__, BinTerm.__eq__, BinTerm.__hash__

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Not(FrozenRecord):
    __slots__ = ("arg",)

    def __init__(self, arg: "Formula"):
        set_field(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.arg == other.arg
        return NotImplemented

    def __hash__(self):
        return hash((self.arg,))

    def __str__(self) -> str:
        return f"(not {self.arg})"


class And(FrozenRecord):
    __slots__ = ("args",)

    def __init__(self, args: tuple):
        set_field(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.args == other.args
        return NotImplemented

    def __hash__(self):
        return hash((self.args,))

    def __str__(self) -> str:
        return "(and " + " ".join(str(a) for a in self.args) + ")"


class Or(FrozenRecord):
    __slots__ = ("args",)
    __init__, __eq__, __hash__ = And.__init__, And.__eq__, And.__hash__

    def __str__(self) -> str:
        return "(or " + " ".join(str(a) for a in self.args) + ")"


class Quant(FrozenRecord):
    # kind: "forall" | "exists"; vars: variable names, pairwise distinct
    __slots__ = ("kind", "vars", "body")

    def __init__(self, kind: str, vars: tuple, body: "Formula"):
        if len(set(vars)) != len(vars):
            raise ValueError("quantifier block binds a variable twice")
        set_field(self, "kind", kind)
        set_field(self, "vars", vars)
        set_field(self, "body", body)

    def __str__(self) -> str:
        return f"({self.kind} ({' '.join(self.vars)}) {self.body})"


Formula = Union[BoolLit, Cmp, Not, And, Or, Quant]

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
    if left == right:
        # Every term has an integer value (div and mod take only positive
        # literal divisors), so a term compared with itself is decided.
        return BoolLit(op in ("=", "<=", ">="))
    if isinstance(left, BinTerm) or isinstance(right, BinTerm):
        # Two offsets of one base: `t + a op t + b` is `a op b`.
        left_base, left_offset = _offset(left) or (left, 0)
        right_base, right_offset = _offset(right) or (right, 0)
        if left_base == right_base:
            return BoolLit(_CMP_FUNS[op](left_offset, right_offset))
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


def conjuncts(formula: Formula) -> Tuple[Formula, ...]:
    """The conjuncts of a formula, as `conj` flattens them: none for true."""
    if isinstance(formula, And):
        return formula.args
    return () if formula == TRUE else (formula,)


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


def forall(vars: Iterable[str], body: Formula) -> Formula:
    vars = tuple(vars)
    if isinstance(body, Not):
        vars, matrix = _one_point(vars, body.arg)
        if matrix is not body.arg:
            body = negate(matrix)
    return _quant("forall", vars, body)


def exists(vars: Iterable[str], body: Formula) -> Formula:
    return _quant("exists", *_one_point(tuple(vars), body))


def _quant(kind: str, vars: tuple, body: Formula) -> Formula:
    if not vars or isinstance(body, BoolLit):
        return body
    return Quant(kind, vars, body)


def _one_point(vars: tuple, matrix: Formula):
    """`vars` and `matrix` with every binder that a conjunct of `matrix`
    pins eliminated: `exists x. (x = t and phi)` is `phi[t/x]` when t
    mentions no binder, and so `forall x. not (x = t and phi)` is
    `not phi[t/x]`.

    Each pass takes the first pin of each binder and applies them all in
    one simultaneous substitution; a pass repeats only while the result
    exposes new pins. The binders left are those still free, in their
    order. Without a pin, both come back as they are.
    """
    bound = set(vars)
    reduced = False
    while isinstance(matrix, (And, Cmp)):
        sigma = {}
        rest = []
        for c in matrix.args if isinstance(matrix, And) else (matrix,):
            if isinstance(c, Cmp) and c.op == "=":
                for x, t in ((c.left, c.right), (c.right, c.left)):
                    if (isinstance(x, Var) and x.name in bound and x.name not in sigma
                            and bound.isdisjoint(free_vars(t))):
                        sigma[x.name] = t
                        break
                else:
                    rest.append(c)
            else:
                rest.append(c)
        if not sigma:
            break
        bound -= sigma.keys()
        matrix = substitute(conj(rest), sigma)
        reduced = True
    if not reduced:
        return vars, matrix
    left = free_vars(matrix)
    return tuple(v for v in vars if v in bound and v in left), matrix


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_TERM_FUNS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
              "div": lambda a, b: a // b, "mod": lambda a, b: a % b}


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
    if term.op not in _TERM_FUNS:
        raise EvalError(f"unknown term operator {term.op!r}")
    return _TERM_FUNS[term.op](left, right)


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
    if isinstance(formula, Quant):
        raise EvalError("cannot evaluate a quantified formula; use the solver")
    raise EvalError(f"unknown formula node {formula!r}")


def evaluator(node) -> Callable[[Mapping[str, int]], object]:
    """`node` compiled once into `f` with `f(rho)` equal to its
    `eval_term` or `eval_formula` at rho: `substituter`'s concrete twin."""
    kind = type(node)
    if kind is IntLit or kind is BoolLit:
        value = node.value
        return lambda rho: value
    if kind is Var:
        name = node.name
        return lambda rho: rho[name] if name in rho else eval_term(node, rho)
    if kind is BinTerm or kind is Cmp:
        fun = (_CMP_FUNS if kind is Cmp else _TERM_FUNS).get(node.op)
        if fun is None:
            raise EvalError(f"unknown term operator {node.op!r}")
        left, right = evaluator(node.left), evaluator(node.right)
        return lambda rho: fun(left(rho), right(rho))
    if kind is Not:
        arg = evaluator(node.arg)
        return lambda rho: not arg(rho)
    if kind is And or kind is Or:
        join, parts = all if kind is And else any, [evaluator(a) for a in node.args]
        return lambda rho: join(part(rho) for part in parts)
    return lambda rho: eval_formula(node, rho)  # raises EvalError, as it would


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
    if isinstance(node, Quant):
        return free_vars(node.body) - frozenset(node.vars)
    raise TypeError(f"not a term or formula: {node!r}")


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
    build = _TERM_BUILDERS.get(op)
    if build is None:
        raise ValueError(f"unknown term operator {op!r}")
    return build(left, right)


_TERM_BUILDERS = {"+": add, "-": sub, "*": mul, "div": div, "mod": mod}


def substituter(node) -> Callable[[Mapping[str, Term]], object]:
    """`node`, a quantifier-free term or formula, compiled once into a
    function `f` with `f(sigma) == substitute(node, sigma)` for every sigma.

    `f` calls the smart constructors that `substitute` calls, in the same
    order, so it folds the same way; it only skips the walk's dispatch on
    each node's type (closure compilation: Feeley and Lapalme, "Using
    closures for code generation", 1987). A subtree without variables
    folds once, here.
    """
    kind = type(node)
    if kind is Quant:
        raise TypeError("substituter takes a quantifier-free term or formula")
    if kind is IntLit or kind is BoolLit or not free_vars(node):
        folded = substitute(node, {})
        return lambda sigma: folded
    if kind is Var:
        name = node.name
        return lambda sigma: sigma.get(name, node)
    if kind is BinTerm or kind is Cmp:
        op, left, right = node.op, substituter(node.left), substituter(node.right)
        if kind is Cmp:
            return lambda sigma: cmp(op, left(sigma), right(sigma))
        build = _TERM_BUILDERS[op]
        return lambda sigma: build(left(sigma), right(sigma))
    if kind is Not:
        arg = substituter(node.arg)
        return lambda sigma: negate(arg(sigma))
    if kind is And or kind is Or:
        join = conj if kind is And else disj
        parts = [substituter(a) for a in node.args]
        # A generator, as in `substitute`: the join stops at a deciding part.
        return lambda sigma: join(part(sigma) for part in parts)
    raise TypeError(f"not a term or formula: {node!r}")


# ---------------------------------------------------------------------------
# Linear normal form
# ---------------------------------------------------------------------------

class SolverInputError(Exception):
    """Input that the linear normal form, or the bundled solver, cannot take."""


class Lin:
    """A linear term: coefficient map (no zero coefficient) + constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[str, int]] = None, const: int = 0):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c != 0}
        self.const = const

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def coeff(self, var: str) -> int:
        return self.coeffs.get(var, 0)

    def add(self, other: "Lin") -> "Lin":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return Lin(coeffs, self.const + other.const)

    def scale(self, factor: int) -> "Lin":
        return Lin({v: c * factor for v, c in self.coeffs.items()}, self.const * factor)

    def drop(self, var: str) -> "Lin":
        coeffs = dict(self.coeffs)
        coeffs.pop(var, None)
        return Lin(coeffs, self.const)

    def subst(self, var: str, image: "Lin") -> "Lin":
        c = self.coeff(var)
        if c == 0:
            return self
        return self.drop(var).add(image.scale(c))

    def __repr__(self):
        return f"Lin({self.coeffs}, {self.const})"


# An atom is one of
#   ("le", lin)        lin <= 0
#   ("eq", lin)        lin = 0
#   ("ne", lin)        lin != 0
#   ("dvd", d, lin)    d divides lin
#   ("ndvd", d, lin)   d does not divide lin
# or a constant, ATOM_TRUE or ATOM_FALSE. An atom's term is node[-1], and
# node[1:-1] holds its modulus, if any, so `atom(tag, node[-1], *node[1:-1])`
# rebuilds it.
ATOM_TRUE = ("true",)
ATOM_FALSE = ("false",)


def atom(tag: str, lin: Lin, d: int = 0) -> tuple:
    """The normal form of the atom `tag` over `lin` (modulus `d` for dvd/ndvd).

    A ground atom folds to ATOM_TRUE or ATOM_FALSE. Otherwise the
    coefficients are divided by their gcd (with `d`'s for divisibility),
    which rounds the constant of `le` and decides `eq`/`ne`/`dvd`/`ndvd`
    outright when the gcd does not divide it.
    """
    if tag == "dvd" or tag == "ndvd":
        d = abs(d)
        if d == 0:
            raise SolverInputError("divisibility by zero")
    coeffs, const = lin.coeffs, lin.const
    if not coeffs or d == 1:
        return ATOM_TRUE if truth(tag, const, d) else ATOM_FALSE
    g = math.gcd(*coeffs.values(), d)  # gcd(c, 0) is c
    if g > 1:
        if tag == "le":
            # g*t + c <= 0  <=>  t <= floor(-c/g)  <=>  t + ceil(c/g) <= 0
            return ("le", Lin({v: c // g for v, c in coeffs.items()}, -((-const) // g)))
        if const % g != 0:
            return ATOM_FALSE if tag in ("eq", "dvd") else ATOM_TRUE
        lin = Lin({v: c // g for v, c in coeffs.items()}, const // g)
        if d:
            d //= g
            if d == 1:
                return ATOM_TRUE if tag == "dvd" else ATOM_FALSE
    return (tag, d, lin) if d else (tag, lin)


def truth(tag: str, value: int, d: int = 0) -> bool:
    """Whether the atom `tag` (modulus `d`) holds where its term is `value`."""
    if tag == "le":
        return value <= 0
    if tag == "eq":
        return value == 0
    if tag == "ne":
        return value != 0
    return (value % d == 0) == (tag == "dvd")


# Each comparison `l op r` as the atom `tag` over `sign * (l - r) + offset`.
COMPARISONS = {"<": ("le", 1, 1), "<=": ("le", 1, 0), ">": ("le", -1, 1), ">=": ("le", -1, 0),
               "=": ("eq", 1, 0), "!=": ("ne", 1, 0)}
# A negated comparison is the comparison with the complementary operator.
COMPLEMENT = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", "<=": ">", ">": "<="}


def linear(term: Term, scale: int, coeffs: Dict[str, int],
           hook: Optional[Callable[[BinTerm], Lin]] = None) -> int:
    """Add `scale * term` to `coeffs` (name -> coefficient; a name whose
    terms cancel stays, at 0) and return its constant part. A div, a mod
    or a product of two non-literals is read by `hook`, which returns its
    `Lin` or raises; without a hook, it raises ValueError."""
    kind = type(term)
    if kind is IntLit:
        return scale * term.value
    if kind is Var:
        coeffs[term.name] = coeffs.get(term.name, 0) + scale
        return 0
    op, left, right = term.op, term.left, term.right
    if op == "+" or op == "-":
        const = linear(left, scale, coeffs, hook)
        return const + linear(right, scale if op == "+" else -scale, coeffs, hook)
    if op == "*":
        if type(left) is IntLit:
            return linear(right, scale * left.value, coeffs, hook)
        if type(right) is IntLit:
            return linear(left, scale * right.value, coeffs, hook)
    if hook is None:
        raise ValueError(f"not a linear term: {term}")
    lin = hook(term)
    for v, c in lin.coeffs.items():
        coeffs[v] = coeffs.get(v, 0) + scale * c
    return scale * lin.const


def comparison(op: str, left: Term, right: Term,
               hook: Optional[Callable[[BinTerm], Lin]] = None) -> Tuple[tuple, Dict[str, int]]:
    """The atom of `left op right`, and the coefficients that `linear`,
    with `hook`, read from its terms."""
    tag, sign, offset = COMPARISONS[op]
    if type(left) is Var and type(right) is IntLit:  # the common `x op n`
        coeffs = {left.name: sign}
        return (tag, Lin(coeffs, offset - sign * right.value)), coeffs
    coeffs = {}
    const = linear(left, sign, coeffs, hook) + linear(right, -sign, coeffs, hook)
    return atom(tag, Lin(coeffs, const + offset)), coeffs
