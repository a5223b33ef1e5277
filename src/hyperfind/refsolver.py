"""Reference SMT solver for quantified linear integer arithmetic.

A self-contained decision procedure (Cooper-style quantifier elimination
with a unit-coefficient equality fast path) wrapped in an SMT-LIB2 command
loop. `check-sat` eliminates every free constant but the first, and decides
that one by evaluation (`solve_single`): it tests finitely many candidate
values, least magnitude first, and none satisfying means unsat. Each later
constant takes its least value given the earlier ones, which is the model.

By default the solver bridge (`smt.InProcessSession`) runs it in the
caller's process, feeding each command through `parse_sexprs` and
`dispatch`; its `:timeout` is then cooperative, checked by
`Eliminator.tick`. As a stand-alone process (`hyperfind-smt`, or
`python -m hyperfind.refsolver`) it reads commands on stdin, and the bridge
can kill it like any other solver.

The loop accepts exactly these commands: `set-logic` (ignored),
`set-option` (only `:timeout` in milliseconds takes effect),
`declare-const` of sort Int, `assert`, `push` and `pop` with an optional
count, `check-sat`, `get-value`, `reset` and `exit`. Terms are Int
constants and literals, `+`, `-`, `*` by a literal, `div`/`mod` by a
positive literal, the comparisons `< <= > >= = distinct`, `true`,
`false`, `and`, `or`, `not`, `=>`, and `exists`/`forall` over Int
binders. Any other command, or a malformed one, is answered with
`(error "...")`, and the loop reads on.

It is deliberately independent of the rest of the package: terms are kept
in a linear normal form of its own, so the bridge's serializer is exercised
through a genuinely separate reader.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence


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
# An atom's term is node[-1], and node[1:-1] holds its modulus, if any, so
# `atom(tag, node[-1], *node[1:-1])` rebuilds it.

TRUE = ("true",)
FALSE = ("false",)

# Each atom tag and the tag of its negation.
_NEGATED = {"le": "le", "eq": "ne", "ne": "eq", "dvd": "ndvd", "ndvd": "dvd"}
_ATOMS = frozenset(_NEGATED)
_DIVISIBILITY = ("dvd", "ndvd")
# Per junction: the constant that decides it and the constant it drops.
_JUNCTIONS = {"and": (FALSE, TRUE), "or": (TRUE, FALSE)}


def _junction(tag: str, items) -> tuple:
    """The `and`/`or` of `items`: flattened, deduplicated, constants folded."""
    decisive, neutral = _JUNCTIONS[tag]
    flat = []
    seen = set()
    for x in items:
        if x[0] == decisive[0]:
            return decisive
        if x[0] == neutral[0]:
            continue
        for y in (x[1] if x[0] == tag else (x,)):
            k = node_key(y)
            if k not in seen:
                seen.add(k)
                flat.append(y)
    if not flat:
        return neutral
    if len(flat) == 1:
        return flat[0]
    return (tag, flat)


f_and = functools.partial(_junction, "and")
f_or = functools.partial(_junction, "or")


def node_key(node) -> tuple:
    tag = node[0]
    if tag in _ATOMS:
        return node[:-1] + (node[-1].key(),)
    if tag in ("true", "false"):
        return (tag,)
    if tag in ("and", "or"):
        return (tag, tuple(node_key(x) for x in node[1]))
    if tag in ("exists", "forall"):
        return (tag, tuple(node[1]), node_key(node[2]))
    raise SolverInputError(f"bad node {node!r}")


def atom(tag: str, lin: Lin, d: int = 0) -> tuple:
    """The normal form of the atom `tag` over `lin` (modulus `d` for dvd/ndvd).

    A ground atom folds to TRUE or FALSE. Otherwise the coefficients are
    divided by their gcd (with `d`'s for divisibility), which rounds the
    constant of `le` and decides `eq`/`ne`/`dvd`/`ndvd` outright when the
    gcd does not divide it.
    """
    if tag in _DIVISIBILITY:
        d = abs(d)
        if d == 0:
            raise SolverInputError("divisibility by zero")
        if d == 1:
            return TRUE if tag == "dvd" else FALSE
    coeffs, const = lin.coeffs, lin.const
    if not coeffs:
        if tag == "le":
            holds = const <= 0
        elif tag == "eq":
            holds = const == 0
        elif tag == "ne":
            holds = const != 0
        else:
            holds = (const % d == 0) == (tag == "dvd")
        return TRUE if holds else FALSE
    g = math.gcd(*coeffs.values())
    if d:
        g = math.gcd(g, d)
    if g > 1:
        if tag == "le":
            # g*t + c <= 0  <=>  t <= floor(-c/g)  <=>  t + ceil(c/g) <= 0
            return ("le", Lin({v: c // g for v, c in coeffs.items()}, -((-const) // g)))
        if const % g != 0:
            return FALSE if tag in ("eq", "dvd") else TRUE
        lin = Lin({v: c // g for v, c in coeffs.items()}, const // g)
        if d:
            d //= g
            if d == 1:
                return TRUE if tag == "dvd" else FALSE
    return (tag, d, lin) if d else (tag, lin)


def negate(node) -> tuple:
    tag = node[0]
    if tag in _ATOMS:
        lin = node[-1]
        if tag == "le":  # not (lin <= 0)  <=>  -lin + 1 <= 0
            lin = lin.scale(-1).add(Lin({}, 1))
        return atom(_NEGATED[tag], lin, *node[1:-1])
    if tag == "true":
        return FALSE
    if tag == "false":
        return TRUE
    if tag in ("and", "or"):
        return _junction("or" if tag == "and" else "and", [negate(x) for x in node[1]])
    if tag in ("exists", "forall"):
        return ("forall" if tag == "exists" else "exists", node[1], negate(node[2]))
    raise SolverInputError(f"bad node {node!r}")


def node_vars(node) -> set:
    tag = node[0]
    if tag in _ATOMS:
        return set(node[-1].coeffs)
    if tag in ("true", "false"):
        return set()
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
    if tag in _ATOMS:
        return atom(tag, node[-1].subst(var, image), *node[1:-1])
    if tag in ("true", "false"):
        return node
    if tag in ("and", "or"):
        return _junction(tag, [subst_var(x, var, image) for x in node[1]])
    if tag in ("exists", "forall"):
        if var in node[1]:
            return node
        return (tag, node[1], subst_var(node[2], var, image))
    raise SolverInputError(f"bad node {node!r}")


def _atoms(node):
    """The atoms of a quantifier-free node, left to right."""
    todo = [node]
    while todo:
        node = todo.pop()
        tag = node[0]
        if tag in _ATOMS:
            yield node
        elif tag in ("and", "or"):
            todo.extend(reversed(node[1]))
        elif tag in ("exists", "forall"):
            raise SolverInputError("quantifier encountered during elimination")


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
            return _junction(tag, [self.qe(x) for x in node[1]])
        if tag in ("exists", "forall"):
            # forall vs. body  <=>  not exists vs. not body
            body = self.qe(node[2])
            if tag == "forall":
                body = negate(body)
            for v in reversed(node[1]):
                body = self.eliminate(v, body)
            return negate(body) if tag == "forall" else body
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
        coeffs = {abs(c) for a in _atoms(node) if (c := a[-1].coeff(var))}
        if not coeffs:
            return node
        m = math.lcm(*coeffs)

        # Normalize the coefficient of var to +-1 (in units of y = m*var) and
        # record the divisors; then collect the boundary terms and build the
        # -infinity approximation.
        deltas = [m]

        def norm(n):
            tag = n[0]
            if tag in ("and", "or"):
                return (tag, [norm(x) for x in n[1]])
            if tag not in _ATOMS:
                return n
            lin = n[-1]
            c = lin.coeff(var)
            if c == 0:
                return n
            s = m // abs(c)  # scaled by s, the coefficient of var is +-m
            ylin = Lin({var: 1 if c > 0 else -1}).add(lin.scale(s).drop(var))
            if tag in _DIVISIBILITY:
                deltas.append(n[1] * s)
                return (tag, n[1] * s, ylin)
            return (tag, ylin)

        normed = norm(node)
        if m > 1:
            normed = ("and", [normed, ("dvd", m, Lin({var: 1}))])
            deltas.append(m)
        delta = math.lcm(*deltas)

        lowers: List[Lin] = []
        for a in _atoms(normed):
            tag, lin = a[0], a[-1]
            c = lin.coeff(var)
            if c == 0 or tag in _DIVISIBILITY:
                continue
            rest = lin.drop(var)
            if tag == "le":
                if c < 0:  # -y + r <= 0  <=>  y >= r: lower bound r-1 < y
                    lowers.append(rest.add(Lin({}, -1)))
            elif tag == "eq":
                # y = -r (c=1) or y = r (c=-1); boundary just below it
                lowers.append(rest.scale(-c).add(Lin({}, -1)))
            else:  # ne: y != t; least solution above t needs b = t
                lowers.append(rest.scale(-c))

        def minus_inf(n):
            tag = n[0]
            if tag in ("and", "or"):
                return _junction(tag, [minus_inf(x) for x in n[1]])
            if tag in ("le", "eq", "ne"):
                c = n[1].coeff(var)
                if c:  # at -inf, y <= t and y != t hold; y >= t and y = t fail
                    return TRUE if tag == "ne" or (tag == "le" and c > 0) else FALSE
            return n

        low_part = minus_inf(normed)
        disjuncts = []
        for j in range(1, delta + 1):
            self.tick()
            disjuncts.append(subst_var(low_part, var, Lin({}, j)))
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


def holds(node, env: Dict[str, int]) -> bool:
    """The truth of a quantifier-free node when `env` values its variables."""
    tag = node[0]
    if tag == "and":
        return all(holds(x, env) for x in node[1])
    if tag == "or":
        return any(holds(x, env) for x in node[1])
    if tag in _ATOMS:
        lin = node[-1]
        value = lin.const
        try:
            for v, c in lin.coeffs.items():
                value += c * env[v]
        except KeyError:
            raise SolverInputError(f"formula is not ground: {node!r}") from None
        if tag == "le":
            return value <= 0
        if tag == "eq":
            return value == 0
        if tag == "ne":
            return value != 0
        return (value % node[1] == 0) == (tag == "dvd")
    if tag in ("true", "false"):
        return tag == "true"
    raise SolverInputError(f"formula is not ground: {node!r}")


def eval_ground(node) -> bool:
    return holds(node, {})


def solve_single(node, var: str, env: Dict[str, int],
                 tick: Callable[[], None]) -> Optional[int]:
    """The least-|x| value of `var` (x >= 0 first) that satisfies `node`
    under `env`, or None if none does; `env` values every other variable.

    Complete: with the other variables fixed, each le/eq/ne atom
    `c*var + r` changes its truth only next to b = floor(-r/c), and each
    dvd/ndvd atom is periodic in var with a period dividing δ, the lcm of
    their moduli. Let x be the least-|x| solution and suppose |x| > δ + 2.
    Then x ∓ δ, one period closer to zero, is no solution, so some le/eq/ne
    atom changes its truth between the two: its b lies within δ of x. Every
    integer within δ + 2 of 0 or of a boundary is a candidate, so x is one;
    tested by increasing |x|, the first that holds is x, and None means the
    formula is unsatisfiable. `tick` is called per centre and per
    candidate and may raise `Timeout`.
    """
    moduli = []
    centres = [0]
    for a in _atoms(node):
        lin = a[-1]
        c = lin.coeff(var)
        if not c:
            continue
        if a[0] in _DIVISIBILITY:
            moduli.append(a[1])
        else:
            rest = lin.const + sum(k * env[v] for v, k in lin.coeffs.items() if v != var)
            centres.append(-rest // c)  # exact floor of the boundary
    delta = math.lcm(*moduli) if moduli else 1
    # The candidates as disjoint intervals in increasing order, then walked
    # outwards from 0 on both sides at once.
    spans: List[List[int]] = []
    for b in sorted(set(centres)):
        tick()
        lo, hi = b - delta - 2, b + delta + 2
        if spans and lo <= spans[-1][1] + 1:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi])
    up = (x for lo, hi in spans if hi >= 0 for x in range(max(lo, 0), hi + 1))
    down = (x for lo, hi in reversed(spans) if lo < 0 for x in range(min(hi, -1), lo - 1, -1))
    point = dict(env)
    for x in heapq.merge(up, down, key=abs):  # stable: x >= 0 wins a tie
        tick()
        point[var] = x
        if holds(node, point):
            return x
    return None


# ---------------------------------------------------------------------------
# SMT-LIB2 term translation
# ---------------------------------------------------------------------------

# Each comparison `l OP r` as the atom `tag` over `sign * (l - r) + offset`.
_COMPARISONS = {
    "<": ("le", 1, 1),
    "<=": ("le", 1, 0),
    ">": ("le", -1, 1),
    ">=": ("le", -1, 0),
    "=": ("eq", 1, 0),
    "distinct": ("ne", 1, 0),
}


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
            digits = expr[1:] if expr[:1] == "-" else expr
            if digits.isascii() and digits.isdigit():
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
            if not args:
                raise SolverInputError("- expects arguments")
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
            side.append(atom("le", rem.scale(-1)))               # rem >= 0
            side.append(atom("le", rem.add(Lin({}, -(d - 1)))))  # rem <= d-1
            return qlin if head == "div" else rem
        raise SolverInputError(f"unknown term operator {head!r}")

    def comparison(self, head: str, left, right) -> tuple:
        tag, sign, offset = _COMPARISONS[head]
        side: List[tuple] = []
        aux: List[str] = []
        l = self.to_lin(left, side, aux)
        r = self.to_lin(right, side, aux)
        lin = l.add(r.scale(-1)) if sign > 0 else r.add(l.scale(-1))
        lin.const += offset
        core = atom(tag, lin)
        if not aux:
            return core
        return ("exists", aux, f_and(side + [core]))

    def to_formula(self, expr) -> tuple:
        if expr == "true":
            return TRUE
        if expr == "false":
            return FALSE
        if isinstance(expr, str) or not expr or not isinstance(expr[0], str):
            raise SolverInputError(f"expected a boolean term, got {expr!r}")
        head = expr[0]
        args = expr[1:]
        if head in ("and", "or"):
            return _junction(head, [self.to_formula(a) for a in args])
        if head == "not":
            if len(args) != 1:
                raise SolverInputError("not expects one argument")
            return negate(self.to_formula(args[0]))
        if head == "=>":
            if not args:
                raise SolverInputError("=> expects arguments")
            out = self.to_formula(args[-1])
            for a in reversed(args[:-1]):
                out = f_or([negate(self.to_formula(a)), out])
            return out
        if head in _COMPARISONS:
            if len(args) != 2:
                raise SolverInputError(f"{head} expects two arguments")
            return self.comparison(head, args[0], args[1])
        if head in ("forall", "exists"):
            if len(args) != 2 or not isinstance(args[0], list):
                raise SolverInputError(f"{head} expects binders and a body")
            names = []
            for binder in args[0]:
                if not (isinstance(binder, list) and len(binder) == 2
                        and isinstance(binder[0], str) and binder[1] == "Int"):
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
            phi = elim.qe(f_and(self.assertions()))
            free = sorted(node_vars(phi))
            if not free:
                return "sat" if eval_ground(phi) else "unsat"
            # chain[i] has free[i+1:] eliminated; free[0] is decided by
            # solve_single, then each later variable given the earlier ones.
            chain = [phi]
            for v in reversed(free[1:]):
                chain.append(elim.eliminate(v, chain[-1]))
            model: Dict[str, int] = {}
            for v, node in zip(free, reversed(chain)):
                value = solve_single(node, v, model, elim.tick)
                if value is None:
                    if not model:
                        return "unsat"
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


def _count(token) -> int:
    if not (isinstance(token, str) and token.isascii() and token.isdigit()):
        raise SolverInputError(f"expected a numeral, got {token!r}")
    return int(token)


def dispatch(session: Session, cmd) -> Optional[str]:
    """Run one command; a malformed one raises `SolverInputError`."""
    if not isinstance(cmd, list) or not cmd:
        raise SolverInputError(f"bad command {cmd!r}")
    head = cmd[0]
    if head == "set-logic":
        return None
    if head == "set-option":
        if len(cmd) == 3 and cmd[1] == ":timeout":
            session.timeout_ms = _count(cmd[2])
        return None
    if head == "declare-const":
        if len(cmd) != 3 or not isinstance(cmd[1], str):
            raise SolverInputError("declare-const expects a name and a sort")
        if cmd[2] != "Int":
            raise SolverInputError(f"unsupported sort {cmd[2]!r}")
        session.declared[cmd[1]] = "Int"
        session.decl_stack[-1].append(cmd[1])
        return None
    if head == "assert":
        if len(cmd) != 2:
            raise SolverInputError("assert expects one argument")
        translator = Translator(session.declared)
        session.stack[-1].append(translator.to_formula(cmd[1]))
        return None
    if head == "push":
        count = _count(cmd[1]) if len(cmd) > 1 else 1
        for _ in range(count):
            session.stack.append([])
            session.decl_stack.append([])
        return None
    if head == "pop":
        count = _count(cmd[1]) if len(cmd) > 1 else 1
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
        if len(cmd) != 2 or not isinstance(cmd[1], list) \
                or not all(isinstance(name, str) for name in cmd[1]):
            raise SolverInputError("get-value expects a list of constants")
        return session.get_value(cmd[1])
    if head == "reset":
        session.declared.clear()
        session.stack = [[]]
        session.decl_stack = [[]]
        session.model = {}
        return None
    if head == "exit":
        return "#exit"
    raise SolverInputError(f"unknown command {head!r}")


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
