"""Reference SMT solver for quantified linear integer arithmetic.

A self-contained decision procedure (Cooper-style quantifier elimination
with a unit-coefficient equality fast path). `check-sat` eliminates every
free constant but the first, and decides that one by evaluation
(`solve_single`): it tests finitely many candidate values, least magnitude
first, and none satisfying means unsat. Each later constant takes its
least value given the earlier ones, which is the model.

Its commands are values (`dispatch`), such as `("assert", formula)` with a
`logic` formula, which `Translator` turns into formula nodes whose atoms
are `logic`'s linear normal form, the one path feasibility reads too
(`logic.comparison`). The solver bridge (`smt.InProcessSession`) runs it in the
caller's process by default and hands it those values, so no text is
written or read; its `:timeout` is then cooperative, checked by
`Eliminator.tick`. This module holds only that core. As a stand-alone
process (`hyperfind-smt`, or `python -m hyperfind.refsolver`) it reads
SMT-LIB2 text on stdin: `main` hands stdin to the text route, `smtlib.run`,
which reads each command into the same value and says which commands the
loop accepts. The bridge can kill it like any other solver.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import logic
from .logic import (ATOM_FALSE as FALSE, ATOM_TRUE as TRUE, And, BinTerm, BoolLit, Cmp, Lin,
                    Not, Or, Quant, SolverInputError, atom)


class Timeout(Exception):
    pass


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------

# Formula nodes, always kept in negation normal form: the atoms and constants
# of `logic`'s linear normal form (see `logic.atom`), and
#   ("and", [nodes]) / ("or", [nodes])
#   ("exists", [vars], node) / ("forall", [vars], node)

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
        return logic.truth(tag, value, *node[1:-1])
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
# Translation of `logic` formulas
# ---------------------------------------------------------------------------

class Translator:
    """`logic` terms and formulas -> the solver's formula nodes (`logic.comparison`).

    Every constant must be declared or bound, `*` needs a constant side, and
    `div`/`mod` a positive literal divisor; anything else raises
    `SolverInputError`; a comparison's names are checked once its terms are
    read. div/mod are exact: each occurrence introduces an existentially
    quantified quotient `.qN` pinned by side constraints.
    """

    def __init__(self, declared: Set[str]):
        self.declared = declared
        self.aux_counter = 0
        # The quotients of the comparison at hand, and the atoms that pin them.
        self.aux: List[str] = []
        self.side: List[tuple] = []

    def to_lin(self, term) -> Lin:
        coeffs: Dict[str, int] = {}
        const = logic.linear(term, 1, coeffs, self._quotient)
        self._check_declared(coeffs)
        return Lin(coeffs, const)

    def _check_declared(self, coeffs: Dict[str, int]):
        for name in coeffs:
            if name not in self.declared and name not in self.aux:
                raise SolverInputError(f"undeclared constant {name!r}")

    def _quotient(self, term: BinTerm) -> Lin:
        """`logic.linear`'s hook: a div or mod by a fresh quotient, or a
        product whose one side reads as a constant."""
        op = term.op
        if op == "*":
            lin, other = self.to_lin(term.left), self.to_lin(term.right)
            if not lin.coeffs:
                lin, other = other, lin
            if other.coeffs:
                raise SolverInputError("nonlinear multiplication")
            return lin.scale(other.const)
        if op not in ("div", "mod"):
            raise SolverInputError(f"unknown term operator {op!r}")
        num, den = self.to_lin(term.left), self.to_lin(term.right)
        if den.coeffs or den.const <= 0:
            raise SolverInputError(f"{op} requires a positive literal divisor")
        d = den.const
        if not num.coeffs:
            return Lin({}, num.const // d if op == "div" else num.const % d)
        self.aux_counter += 1
        q = f".q{self.aux_counter}"
        self.aux.append(q)
        rem = num.add(Lin({q: -d}))  # num - d*q
        self.side.append(atom("le", rem.scale(-1)))               # rem >= 0
        self.side.append(atom("le", rem.add(Lin({}, -(d - 1)))))  # rem <= d-1
        return Lin({q: 1}) if op == "div" else rem

    def to_formula(self, formula) -> tuple:
        kind = type(formula)
        if kind is Cmp:
            self.aux, self.side = [], []
            core, coeffs = logic.comparison(formula.op, formula.left, formula.right,
                                            self._quotient)
            self._check_declared(coeffs)
            if self.aux:
                # A name written in the comparison, even a bound one, that
                # equals a quotient's would be captured by it.
                captured = logic.free_vars(formula).intersection(self.aux)
                if captured:
                    raise SolverInputError(f"symbol {min(captured)} is reserved for solvers")
            return ("exists", self.aux, f_and(self.side + [core])) if self.aux else core
        if kind is And or kind is Or:
            return _junction("and" if kind is And else "or",
                             [self.to_formula(a) for a in formula.args])
        if kind is Not:
            return negate(self.to_formula(formula.arg))
        if kind is BoolLit:
            return TRUE if formula.value else FALSE
        if kind is Quant:
            # A binder may shadow a declared constant, whose declaration
            # must survive the quantifier's scope.
            bound = [name for name in formula.vars if name not in self.declared]
            self.declared.update(bound)
            try:
                body = self.to_formula(formula.body)
            finally:
                self.declared.difference_update(bound)
            return (formula.kind, list(formula.vars), body)
        raise SolverInputError(f"expected a formula, got {formula!r}")


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

class Session:
    def __init__(self):
        self.declared: Set[str] = set()
        self.depth = 0  # the assertion-stack level: pushes less pops
        # Each assertion and each declared name, tagged with the level it was
        # made at, so that push and pop cost what they drop, not their count.
        self.stack: List[Tuple[int, tuple]] = []
        self.names: List[Tuple[int, str]] = []
        self.model: Optional[Dict[str, int]] = None  # None: get-value is an error
        self.timeout_ms: Optional[int] = None

    def check_sat(self) -> str:
        deadline = None
        if self.timeout_ms is not None:
            deadline = time.monotonic() + self.timeout_ms / 1000.0
        elim = Eliminator(deadline)
        self.model = None  # a failed check must not leave an older model behind
        try:
            phi = elim.qe(f_and([a for _, a in self.stack]))
            free = sorted(node_vars(phi))
            if not free:
                if not eval_ground(phi):
                    return "unsat"
                self.model = {}
                return "sat"
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

    def get_value(self, names: Sequence[str]) -> Dict[str, int]:
        if self.model is None:
            raise SolverInputError("no model: the last check-sat did not answer sat, "
                                   "or the assertions changed since")
        for name in names:
            if name not in self.declared:
                raise SolverInputError(f"undeclared constant {name!r}")
        return {name: self.model.get(name, 0) for name in names}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def dispatch(session: Session, command: tuple):
    """Run one command value. Returns its reply: None, an answer string, the
    model of `get-value` as a dict, or "#exit". Raises `SolverInputError` on
    a formula it cannot translate, a pop below level 0, a `get-value`
    without a model, or a declared symbol that starts with `.`."""
    head = command[0]
    if head == "assert":
        formula = Translator(session.declared).to_formula(command[1])
        session.stack.append((session.depth, formula))
    elif head == "declare-const":
        if command[1].startswith("."):
            # SMT-LIB reserves these for solvers: the quotients of div and
            # mod are named `.qN`, so such a constant would be captured.
            raise SolverInputError(f"symbol {command[1]} is reserved for solvers")
        session.declared.add(command[1])
        session.names.append((session.depth, command[1]))
    elif head == "push":
        session.depth += command[1]
    elif head == "pop":
        if command[1] > session.depth:
            raise SolverInputError("pop below assertion stack level 0")
        session.depth -= command[1]
        while session.stack and session.stack[-1][0] > session.depth:
            session.stack.pop()
        while session.names and session.names[-1][0] > session.depth:
            session.declared.discard(session.names.pop()[1])
    elif head == "check-sat":
        return session.check_sat()
    elif head == "get-value":
        return session.get_value(command[1])
    elif head == "set-option":
        if command[1:2] == (":timeout",):
            session.timeout_ms = command[2]
    elif head == "reset":
        session.declared.clear()
        session.depth = 0
        session.stack = []
        session.names = []
    elif head == "exit":
        return "#exit"
    elif head != "set-logic":
        raise SolverInputError(f"unknown command {head!r}")
    if head in ("assert", "push", "pop", "reset"):
        session.model = None
    return None


def main() -> int:
    """The stand-alone loop on stdin and stdout (`smtlib.run`)."""
    from .smtlib import main as loop  # the text route: only a child reads text
    return loop()


if __name__ == "__main__":
    # Under `python -m`, this module runs as `__main__`: registered under its
    # own name too, the text route's import of it does not load it again.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
