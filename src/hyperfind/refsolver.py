"""Reference SMT solver for quantified linear integer arithmetic.

A self-contained decision procedure (Cooper-style quantifier elimination
with a unit-coefficient equality fast path) wrapped in an SMT-LIB2 command
loop, meant to run as a subprocess: `python -m hyperfind.refsolver`. It
understands the command and term subset the solver bridge emits plus a few
conveniences (push/pop with counts, reset, set-option :timeout).

It is deliberately independent of the rest of the package: terms are kept
in a linear normal form of its own, so the bridge's serializer is exercised
through a genuinely separate reader.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Dict, List, Optional, Sequence


class SolverInputError(Exception):
    pass


class Timeout(Exception):
    pass


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

def tokenize_sexpr(text: str) -> List[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SolverInputError("unterminated quoted symbol")
            tokens.append(text[i:j + 1])
            i = j + 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            tokens.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def parse_sexprs(text: str) -> List[object]:
    tokens = tokenize_sexpr(text)
    pos = [0]

    def read():
        if pos[0] >= len(tokens):
            raise SolverInputError("unexpected end of input")
        tok = tokens[pos[0]]
        pos[0] += 1
        if tok == "(":
            items = []
            while pos[0] < len(tokens) and tokens[pos[0]] != ")":
                items.append(read())
            if pos[0] >= len(tokens):
                raise SolverInputError("unbalanced parentheses")
            pos[0] += 1
            return items
        if tok == ")":
            raise SolverInputError("unexpected ')'")
        return tok

    out = []
    while pos[0] < len(tokens):
        out.append(read())
    return out


# ---------------------------------------------------------------------------
# Linear terms: coefficient map + constant
# ---------------------------------------------------------------------------

class Lin:
    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[str, int]] = None, const: int = 0):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c != 0}
        self.const = const

    def key(self):
        return (tuple(sorted(self.coeffs.items())), self.const)

    def is_const(self) -> bool:
        return not self.coeffs

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

    def subst_value(self, var: str, value: int) -> "Lin":
        c = self.coeff(var)
        if c == 0:
            return self
        out = self.drop(var)
        out.const += c * value
        return out

    def __repr__(self):
        return f"Lin({self.coeffs}, {self.const})"


# Formula nodes (always kept in negation normal form):
#   ("true",) / ("false",)
#   ("le", lin)        lin <= 0
#   ("eq", lin)        lin = 0
#   ("ne", lin)        lin != 0
#   ("dvd", d, lin)    d divides lin
#   ("ndvd", d, lin)   d does not divide lin
#   ("and", [nodes]) / ("or", [nodes])
#   ("exists", [vars], node) / ("forall", [vars], node)

TRUE = ("true",)
FALSE = ("false",)


def f_and(items) -> tuple:
    flat = []
    seen = set()
    for x in items:
        if x[0] == "false":
            return FALSE
        if x[0] == "true":
            continue
        if x[0] == "and":
            sub = x[1]
        else:
            sub = [x]
        for y in sub:
            k = node_key(y)
            if k not in seen:
                seen.add(k)
                flat.append(y)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return ("and", flat)


def f_or(items) -> tuple:
    flat = []
    seen = set()
    for x in items:
        if x[0] == "true":
            return TRUE
        if x[0] == "false":
            continue
        if x[0] == "or":
            sub = x[1]
        else:
            sub = [x]
        for y in sub:
            k = node_key(y)
            if k not in seen:
                seen.add(k)
                flat.append(y)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return ("or", flat)


def node_key(node) -> tuple:
    tag = node[0]
    if tag in ("true", "false"):
        return (tag,)
    if tag in ("le", "eq", "ne"):
        return (tag, node[1].key())
    if tag in ("dvd", "ndvd"):
        return (tag, node[1], node[2].key())
    if tag in ("and", "or"):
        return (tag, tuple(node_key(x) for x in node[1]))
    if tag in ("exists", "forall"):
        return (tag, tuple(node[1]), node_key(node[2]))
    raise SolverInputError(f"bad node {node!r}")


def _coeff_gcd(lin: Lin) -> int:
    return math.gcd(*(abs(c) for c in lin.coeffs.values()))


def atom_le(lin: Lin) -> tuple:
    if lin.is_const():
        return TRUE if lin.const <= 0 else FALSE
    g = _coeff_gcd(lin)
    if g > 1:
        # g*t + c <= 0  <=>  t <= floor(-c/g)  <=>  t + ceil(c/g) <= 0
        lin = Lin({v: c // g for v, c in lin.coeffs.items()}, -((-lin.const) // g))
    return ("le", lin)


def atom_eq(lin: Lin) -> tuple:
    if lin.is_const():
        return TRUE if lin.const == 0 else FALSE
    g = _coeff_gcd(lin)
    if g > 1:
        if lin.const % g != 0:
            return FALSE
        lin = Lin({v: c // g for v, c in lin.coeffs.items()}, lin.const // g)
    return ("eq", lin)


def atom_ne(lin: Lin) -> tuple:
    if lin.is_const():
        return TRUE if lin.const != 0 else FALSE
    g = _coeff_gcd(lin)
    if g > 1:
        if lin.const % g != 0:
            return TRUE
        lin = Lin({v: c // g for v, c in lin.coeffs.items()}, lin.const // g)
    return ("ne", lin)


def atom_dvd(d: int, lin: Lin) -> tuple:
    d = abs(d)
    if d == 0:
        raise SolverInputError("divisibility by zero")
    if d == 1:
        return TRUE
    if lin.is_const():
        return TRUE if lin.const % d == 0 else FALSE
    g = math.gcd(_coeff_gcd(lin), d)
    if g > 1:
        if lin.const % g != 0:
            return FALSE
        lin = Lin({v: c // g for v, c in lin.coeffs.items()}, lin.const // g)
        d //= g
        if d == 1:
            return TRUE
    return ("dvd", d, lin)


def atom_ndvd(d: int, lin: Lin) -> tuple:
    d = abs(d)
    if d == 1:
        return FALSE
    if lin.is_const():
        return TRUE if lin.const % d != 0 else FALSE
    g = math.gcd(_coeff_gcd(lin), d)
    if g > 1:
        if lin.const % g != 0:
            return TRUE
        lin = Lin({v: c // g for v, c in lin.coeffs.items()}, lin.const // g)
        d //= g
        if d == 1:
            return FALSE
    return ("ndvd", d, lin)


def negate(node) -> tuple:
    tag = node[0]
    if tag == "true":
        return FALSE
    if tag == "false":
        return TRUE
    if tag == "le":  # not (lin <= 0)  <=>  -lin + 1 <= 0
        return atom_le(node[1].scale(-1).add(Lin({}, 1)))
    if tag == "eq":
        return atom_ne(node[1])
    if tag == "ne":
        return atom_eq(node[1])
    if tag == "dvd":
        return atom_ndvd(node[1], node[2])
    if tag == "ndvd":
        return atom_dvd(node[1], node[2])
    if tag == "and":
        return f_or([negate(x) for x in node[1]])
    if tag == "or":
        return f_and([negate(x) for x in node[1]])
    if tag == "exists":
        return ("forall", node[1], negate(node[2]))
    if tag == "forall":
        return ("exists", node[1], negate(node[2]))
    raise SolverInputError(f"bad node {node!r}")


def node_vars(node) -> set:
    tag = node[0]
    if tag in ("true", "false"):
        return set()
    if tag in ("le", "eq", "ne"):
        return set(node[1].coeffs)
    if tag in ("dvd", "ndvd"):
        return set(node[2].coeffs)
    if tag in ("and", "or"):
        out: set = set()
        for x in node[1]:
            out |= node_vars(x)
        return out
    if tag in ("exists", "forall"):
        return node_vars(node[2]) - set(node[1])
    raise SolverInputError(f"bad node {node!r}")


def subst_var(node, var: str, image: Lin) -> tuple:
    tag = node[0]
    if tag in ("true", "false"):
        return node
    if tag == "le":
        return atom_le(node[1].subst(var, image))
    if tag == "eq":
        return atom_eq(node[1].subst(var, image))
    if tag == "ne":
        return atom_ne(node[1].subst(var, image))
    if tag == "dvd":
        return atom_dvd(node[1], node[2].subst(var, image))
    if tag == "ndvd":
        return atom_ndvd(node[1], node[2].subst(var, image))
    if tag == "and":
        return f_and([subst_var(x, var, image) for x in node[1]])
    if tag == "or":
        return f_or([subst_var(x, var, image) for x in node[1]])
    if tag in ("exists", "forall"):
        if var in node[1]:
            return node
        return (tag, node[1], subst_var(node[2], var, image))
    raise SolverInputError(f"bad node {node!r}")


def subst_value(node, var: str, value: int) -> tuple:
    return subst_var(node, var, Lin({}, value))


# ---------------------------------------------------------------------------
# Quantifier elimination (Cooper)
# ---------------------------------------------------------------------------

class Eliminator:
    def __init__(self, deadline: Optional[float]):
        self.deadline = deadline

    def tick(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout()

    def qe(self, node) -> tuple:
        """Replace every quantified subformula by a quantifier-free one."""
        self.tick()
        tag = node[0]
        if tag in ("and", "or"):
            items = [self.qe(x) for x in node[1]]
            return f_and(items) if tag == "and" else f_or(items)
        if tag == "exists":
            body = self.qe(node[2])
            for v in reversed(node[1]):
                body = self.eliminate(v, body)
            return body
        if tag == "forall":
            body = self.qe(node[2])
            body = negate(body)
            for v in reversed(node[1]):
                body = self.eliminate(v, body)
            return negate(body)
        return node

    def eliminate(self, var: str, node) -> tuple:
        """Quantifier-free equivalent of (exists var node)."""
        self.tick()
        if var not in node_vars(node):
            return node

        # Fast path: a top-level equality with a +-1 coefficient pins the
        # variable to a term over the others.
        conjuncts = node[1] if node[0] == "and" else [node]
        for a in conjuncts:
            if a[0] == "eq":
                c = a[1].coeff(var)
                if c in (1, -1):
                    # c*var + rest = 0  =>  var = -rest/c
                    image = a[1].drop(var).scale(-c)
                    return subst_var(node, var, image)

        return self._cooper(var, node)

    def _cooper(self, var: str, node) -> tuple:
        self.tick()
        coeffs = set()

        def collect(n):
            tag = n[0]
            if tag in ("le", "eq", "ne"):
                c = n[1].coeff(var)
                if c:
                    coeffs.add(abs(c))
            elif tag in ("dvd", "ndvd"):
                c = n[2].coeff(var)
                if c:
                    coeffs.add(abs(c))
            elif tag in ("and", "or"):
                for x in n[1]:
                    collect(x)
            elif tag in ("exists", "forall"):
                raise SolverInputError("quantifier encountered during elimination")

        collect(node)
        if not coeffs:
            return node
        m = math.lcm(*coeffs)

        # Normalize the coefficient of var to +-1 (in units of y = m*var) and
        # record divisors, boundary terms, and the -infinity approximation.
        deltas = [m]
        lowers: List[Lin] = []

        def norm(n):
            tag = n[0]
            if tag in ("true", "false"):
                return n
            if tag in ("le", "eq", "ne"):
                lin = n[1]
                c = lin.coeff(var)
                if c == 0:
                    return n
                s = m // abs(c)
                scaled = lin.scale(s)  # coefficient of var is now +-m
                rest = scaled.drop(var)
                sign = 1 if c > 0 else -1
                ylin = Lin({var: sign}).add(rest)
                if tag == "le":
                    return ("le", ylin)
                return (tag, ylin)
            if tag in ("dvd", "ndvd"):
                d, lin = n[1], n[2]
                c = lin.coeff(var)
                if c == 0:
                    return n
                s = m // abs(c)
                scaled = lin.scale(s)
                rest = scaled.drop(var)
                sign = 1 if c > 0 else -1
                ylin = Lin({var: sign}).add(rest)
                deltas.append(d * s)
                return (tag, d * s, ylin)
            if tag in ("and", "or"):
                items = [norm(x) for x in n[1]]
                return (tag, items)
            raise SolverInputError(f"bad node {n!r}")

        normed = norm(node)
        if m > 1:
            normed = ("and", [normed, ("dvd", m, Lin({var: 1}))])
            deltas.append(m)
        delta = math.lcm(*deltas)

        def boundaries(n):
            tag = n[0]
            if tag in ("le", "eq", "ne"):
                lin = n[1]
                c = lin.coeff(var)
                if c == 0:
                    return
                rest = lin.drop(var)
                if tag == "le":
                    if c < 0:  # -y + r <= 0  <=>  y >= r: lower bound r-1 < y
                        lowers.append(rest.add(Lin({}, -1)))
                elif tag == "eq":
                    # y = -r (c=1) or y = r (c=-1); boundary just below it
                    lowers.append(rest.scale(-c).add(Lin({}, -1)))
                else:  # ne: y != t; least solution above t needs b = t
                    lowers.append(rest.scale(-c))
            elif tag in ("dvd", "ndvd"):
                return
            elif tag in ("and", "or"):
                for x in n[1]:
                    boundaries(x)

        boundaries(normed)

        def minus_inf(n):
            tag = n[0]
            if tag in ("true", "false"):
                return n
            if tag == "le":
                c = n[1].coeff(var)
                if c == 0:
                    return n
                return TRUE if c > 0 else FALSE  # y <= t true at -inf; y >= t false
            if tag == "eq":
                return FALSE if n[1].coeff(var) else n
            if tag == "ne":
                return TRUE if n[1].coeff(var) else n
            if tag in ("dvd", "ndvd"):
                return n
            if tag == "and":
                return f_and([minus_inf(x) for x in n[1]])
            if tag == "or":
                return f_or([minus_inf(x) for x in n[1]])
            raise SolverInputError(f"bad node {n!r}")

        low_part = minus_inf(normed)
        disjuncts = []
        for j in range(1, delta + 1):
            self.tick()
            disjuncts.append(subst_value(low_part, var, j))
        seen = set()
        for b in lowers:
            k = b.key()
            if k in seen:
                continue
            seen.add(k)
            for j in range(1, delta + 1):
                self.tick()
                disjuncts.append(subst_var(normed, var, b.add(Lin({}, j))))
        return f_or(disjuncts)


def eval_ground(node) -> bool:
    tag = node[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "le":
        if not node[1].is_const():
            raise SolverInputError(f"formula is not ground: {node!r}")
        return node[1].const <= 0
    if tag == "eq":
        return node[1].const == 0 if node[1].is_const() else _bad_ground(node)
    if tag == "ne":
        return node[1].const != 0 if node[1].is_const() else _bad_ground(node)
    if tag == "dvd":
        return node[2].const % node[1] == 0 if node[2].is_const() else _bad_ground(node)
    if tag == "ndvd":
        return node[2].const % node[1] != 0 if node[2].is_const() else _bad_ground(node)
    if tag == "and":
        return all(eval_ground(x) for x in node[1])
    if tag == "or":
        return any(eval_ground(x) for x in node[1])
    raise SolverInputError(f"formula is not ground: {node!r}")


def _bad_ground(node):
    raise SolverInputError(f"formula is not ground: {node!r}")


def solve_single(node, var: str) -> Optional[int]:
    """A satisfying value for the only variable of a one-variable formula."""
    moduli = []
    bounds = []

    def scan(n):
        tag = n[0]
        if tag in ("le", "eq", "ne"):
            c = n[1].coeff(var)
            if c:
                bounds.append(-n[1].const // c)  # exact floor of the boundary
        elif tag in ("dvd", "ndvd"):
            if n[2].coeff(var):
                moduli.append(n[1])
        elif tag in ("and", "or"):
            for x in n[1]:
                scan(x)

    scan(node)
    delta = math.lcm(*moduli) if moduli else 1
    candidates = set()
    for center in [0] + bounds:
        for off in range(-delta - 2, delta + 3):
            candidates.add(center + off)
    best = None
    for value in sorted(candidates, key=lambda x: (abs(x), 0 if x >= 0 else 1)):
        if eval_ground(subst_value(node, var, value)):
            best = value
            break
    return best


# ---------------------------------------------------------------------------
# SMT-LIB2 term translation
# ---------------------------------------------------------------------------

class Translator:
    """SMT-LIB2 terms -> linear normal form.

    div/mod by a positive literal are exact: each occurrence introduces an
    existentially quantified quotient pinned by side constraints.
    """

    def __init__(self, declared: Dict[str, str]):
        self.declared = declared
        self.aux_counter = 0

    def fresh_aux(self) -> str:
        self.aux_counter += 1
        return f".q{self.aux_counter}"

    def to_lin(self, expr, side: List[tuple], aux: List[str]) -> Lin:
        if isinstance(expr, str):
            if expr.lstrip("-").isdigit():
                return Lin({}, int(expr))
            if expr in self.declared or expr.startswith(".q"):
                return Lin({expr: 1})
            raise SolverInputError(f"undeclared constant {expr!r}")
        if not expr:
            raise SolverInputError("empty term")
        head = expr[0]
        args = expr[1:]
        if head == "+":
            out = Lin()
            for a in args:
                out = out.add(self.to_lin(a, side, aux))
            return out
        if head == "-":
            if len(args) == 1:
                return self.to_lin(args[0], side, aux).scale(-1)
            out = self.to_lin(args[0], side, aux)
            for a in args[1:]:
                out = out.add(self.to_lin(a, side, aux).scale(-1))
            return out
        if head == "*":
            if len(args) != 2:
                raise SolverInputError("* expects two arguments")
            left = self.to_lin(args[0], side, aux)
            right = self.to_lin(args[1], side, aux)
            if left.is_const():
                return right.scale(left.const)
            if right.is_const():
                return left.scale(right.const)
            raise SolverInputError("nonlinear multiplication")
        if head in ("div", "mod"):
            if len(args) != 2:
                raise SolverInputError(f"{head} expects two arguments")
            num = self.to_lin(args[0], side, aux)
            den = self.to_lin(args[1], side, aux)
            if not den.is_const() or den.const <= 0:
                raise SolverInputError(f"{head} requires a positive literal divisor")
            d = den.const
            if num.is_const():
                value = num.const // d if head == "div" else num.const % d
                return Lin({}, value)
            q = self.fresh_aux()
            aux.append(q)
            qlin = Lin({q: 1})
            rem = num.add(qlin.scale(-d))  # num - d*q
            side.append(atom_le(rem.scale(-1)))               # rem >= 0
            side.append(atom_le(rem.add(Lin({}, -(d - 1)))))  # rem <= d-1
            return qlin if head == "div" else rem
        raise SolverInputError(f"unknown term operator {head!r}")

    def atom(self, make, left, right) -> tuple:
        side: List[tuple] = []
        aux: List[str] = []
        l = self.to_lin(left, side, aux)
        r = self.to_lin(right, side, aux)
        core = make(l, r)
        if not aux:
            return core
        return ("exists", aux, f_and(side + [core]))

    def to_formula(self, expr) -> tuple:
        if isinstance(expr, str):
            if expr == "true":
                return TRUE
            if expr == "false":
                return FALSE
            raise SolverInputError(f"expected a boolean term, got {expr!r}")
        head = expr[0]
        args = expr[1:]
        if head == "and":
            return f_and([self.to_formula(a) for a in args])
        if head == "or":
            return f_or([self.to_formula(a) for a in args])
        if head == "not":
            return negate(self.to_formula(args[0]))
        if head == "=>":
            out = self.to_formula(args[-1])
            for a in reversed(args[:-1]):
                out = f_or([negate(self.to_formula(a)), out])
            return out
        if head in ("<", "<=", ">", ">=", "=", "distinct"):
            if len(args) != 2:
                raise SolverInputError(f"{head} expects two arguments")
            makers = {
                "<": lambda l, r: atom_le(l.add(r.scale(-1)).add(Lin({}, 1))),
                "<=": lambda l, r: atom_le(l.add(r.scale(-1))),
                ">": lambda l, r: atom_le(r.add(l.scale(-1)).add(Lin({}, 1))),
                ">=": lambda l, r: atom_le(r.add(l.scale(-1))),
                "=": lambda l, r: atom_eq(l.add(r.scale(-1))),
                "distinct": lambda l, r: atom_ne(l.add(r.scale(-1))),
            }
            return self.atom(makers[head], args[0], args[1])
        if head in ("forall", "exists"):
            binders = args[0]
            names = []
            for binder in binders:
                if not (isinstance(binder, list) and len(binder) == 2 and binder[1] == "Int"):
                    raise SolverInputError("only Int binders are supported")
                names.append(binder[0])
            # A binder may shadow a declared constant; the declaration must
            # survive the quantifier's scope.
            outer = {name: self.declared.get(name) for name in names}
            self.declared.update((name, "Int") for name in names)
            try:
                body = self.to_formula(args[1])
            finally:
                for name, sort in outer.items():
                    if sort is None:
                        del self.declared[name]
                    else:
                        self.declared[name] = sort
            return (head, names, body)
        raise SolverInputError(f"unknown operator {head!r}")


# ---------------------------------------------------------------------------
# Command loop
# ---------------------------------------------------------------------------

class Session:
    def __init__(self):
        self.declared: Dict[str, str] = {}
        self.stack: List[List[tuple]] = [[]]
        self.decl_stack: List[List[str]] = [[]]
        self.model: Dict[str, int] = {}
        self.timeout_ms: Optional[int] = None

    def assertions(self) -> List[tuple]:
        return [a for level in self.stack for a in level]

    def check_sat(self) -> str:
        deadline = None
        if self.timeout_ms is not None:
            deadline = time.monotonic() + self.timeout_ms / 1000.0
        elim = Eliminator(deadline)
        self.model = {}  # a failed check must not leave an older model behind
        try:
            phi = f_and(self.assertions())
            phi = elim.qe(phi)
            free = sorted(node_vars(phi))
            chain = [phi]
            for v in reversed(free):
                chain.append(elim.eliminate(v, chain[-1]))
            if not eval_ground(chain[-1]):
                return "unsat"
            model: Dict[str, int] = {}
            for idx, v in enumerate(free):
                # chain[len(free)-1-idx] has vars free[idx+1:] eliminated
                node = chain[len(free) - 1 - idx]
                for w, value in model.items():
                    node = subst_value(node, w, value)
                value = solve_single(node, v)
                if value is None:
                    raise SolverInputError("model construction failed")
                model[v] = value
            self.model = model
            return "sat"
        except Timeout:
            return "unknown"

    def get_value(self, names: Sequence[str]) -> str:
        parts = []
        for name in names:
            value = self.model.get(name, 0)
            text = str(value) if value >= 0 else f"(- {-value})"
            parts.append(f"({name} {text})")
        return "(" + " ".join(parts) + ")"


def run(instream=None, outstream=None) -> int:
    instream = instream or sys.stdin
    outstream = outstream or sys.stdout
    session = Session()

    def reply(text: str):
        outstream.write(text + "\n")
        outstream.flush()

    buffer = ""
    while True:
        line = instream.readline()
        if not line:
            return 0
        buffer += line
        if buffer.count("(") > buffer.count(")"):
            continue
        text, buffer = buffer, ""
        try:
            commands = parse_sexprs(text)
        except SolverInputError as exc:
            reply(f'(error "{exc}")')
            continue
        for cmd in commands:
            try:
                result = dispatch(session, cmd)
            except SolverInputError as exc:
                reply(f'(error "{exc}")')
                continue
            if result == "#exit":
                return 0
            if result is not None:
                reply(result)


def dispatch(session: Session, cmd) -> Optional[str]:
    if not isinstance(cmd, list) or not cmd:
        raise SolverInputError(f"bad command {cmd!r}")
    head = cmd[0]
    if head in ("set-logic", "set-info"):
        return None
    if head == "set-option":
        if len(cmd) == 3 and cmd[1] == ":timeout":
            session.timeout_ms = int(cmd[2])
        return None
    if head in ("declare-const", "declare-fun"):
        name = cmd[1]
        sort = cmd[-1]
        if head == "declare-fun" and cmd[2] != []:
            raise SolverInputError("only constant declarations are supported")
        if sort != "Int":
            raise SolverInputError(f"unsupported sort {sort!r}")
        session.declared[name] = "Int"
        session.decl_stack[-1].append(name)
        return None
    if head == "assert":
        if len(cmd) != 2:
            raise SolverInputError("assert expects one argument")
        translator = Translator(session.declared)
        session.stack[-1].append(translator.to_formula(cmd[1]))
        return None
    if head == "push":
        count = int(cmd[1]) if len(cmd) > 1 else 1
        for _ in range(count):
            session.stack.append([])
            session.decl_stack.append([])
        return None
    if head == "pop":
        count = int(cmd[1]) if len(cmd) > 1 else 1
        if count >= len(session.stack):
            raise SolverInputError("pop below assertion stack level 0")
        for _ in range(count):
            session.stack.pop()
            for name in session.decl_stack.pop():
                session.declared.pop(name, None)
        return None
    if head == "check-sat":
        return session.check_sat()
    if head == "get-value":
        if len(cmd) != 2 or not isinstance(cmd[1], list):
            raise SolverInputError("get-value expects a list of constants")
        return session.get_value(cmd[1])
    if head == "reset":
        session.declared.clear()
        session.stack = [[]]
        session.decl_stack = [[]]
        session.model = {}
        return None
    if head == "echo":
        return cmd[1].strip('"') if len(cmd) > 1 else ""
    if head == "exit":
        return "#exit"
    raise SolverInputError(f"unknown command {head!r}")


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
