"""First-order queries of trace specifications over symbolic traces.

The bound-k semantics over the observed symbolic traces is a conjunction
over universal traces, each wrapped in a forall over its fresh variables,
of a disjunction over existential traces, each an exists block. The
invariant body is instantiated at every observation index by substituting
each trace-indexed variable `x@pi` with the bound trace's symbolic memory
term for `x`.

`lazy_query` builds the negation of that formula for one universal trace:
the universal path constraint conjoined with "no existential trace
matches". Its free variables are exactly the universal trace's fresh
variables, so a model concretizes directly into a counterexample trace.
The negation of the whole formula is the disjunction, over universal
traces u, of `exists fv_u. lazy_query(u)`: the naive search's query.

A search builds one `ExistentialSide`, which checks that the body binds
no other trace variable and compiles the body once, and prepares it at
every bound k from that bound's existential traces
(`ExistentialSide.prepare`). Per observation index, existential traces
whose memories give the body's existential variables equal terms form a
class and share one instantiation of the body. A query then substitutes
the universal trace's memory into the body once per index and the
existential memories once per class, not once per (trace, index) pair.

The side carries its work from bound k - 1 to bound k. Each node of a
walk has a number, and a bound-k trace names its ancestor at bound k - 1
(`symexec.SymTrace.previous`), so the side finds the ancestor's entry by
its number and takes the trace's classes at every index but the new one,
k - 1, from it. Class numbers per index are search-wide and only appended
to, so each class's terms are renamed apart once per search; a carried
trace's memory is read only at the index it adds. What only a query reads
is built when a query needs it: the traces of each class, and each
trace's block parts, its fresh variables and its path conjoined with the
domain constraint, whose conjuncts, shared with the paths of its
ancestors, are renamed once per search.

A trace with an instantiation that folds to false has a block that folds
to true, so the query never builds it. A specification with no
existential quantifier gets one block that binds nothing, so "no match"
is the negated invariant. A block is built by `logic.forall`, which
applies the one-point rule: an existential variable that a conjunct of
the block equates with a term free of the block's variables (on
refinement specifications, every existential input equals a universal
one) is replaced by that term, so a block may lose some or all of its
binders, and a block whose body then folds to true is false.

The instances at index i depend on the universal trace only through the
terms its memory gives the body's universal variables there, so the side
memoizes them per (index, those terms), with the bitmasks of the traces
whose instance folded to true and to false. Universal traces with equal
images share one instantiation. The same memo answers
`ExistentialSide.witness`: a trace t whose instances all fold to true makes
its block `forall fv2. not scope`, which is false as soon as the scope is
satisfiable, and then the whole query is unsat. A witness must be *proved*
satisfiable, never merely admitted: its path is proved by symbolic
execution (`SymTrace.proved`: true, or answered sat, never unknown), and
with a domain, `path and domain` is checked once per trace, and only when
the trace is the candidate. The side without an existential quantifier has
scope true, so it is proved. The lazy search sends no query for a trace
that has a witness; every query it sends is the one `lazy_query` builds.

A witness is carried from bound to bound too. A universal trace's
candidates, the proved traces whose instances all fold to true, are its
ancestor's candidates (found by the ancestor's number) widened to their
children at bound k, kept where proved and where the instance at the one
new index folds to true: a child shares its ancestor's classes at every
earlier index, and the universal trace its ancestor's images. Every index
is read only when no ancestor's candidates exist: at the first bound, on a
side not prepared at the bound before, or for a trace whose ancestor was
never asked (a universal bound cut by the budget).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import logic, smt
from .logic import Formula, FrozenRecord, Term
from .symexec import Feasibility, SymTrace


class EncodingError(Exception):
    pass


def _body_slots(body: Formula) -> List[Tuple[str, str, str]]:
    """(full name, program variable, trace variable) per free body variable."""
    slots = []
    for name in sorted(logic.free_vars(body)):
        if "@" not in name:
            raise EncodingError(f"specification variable {name!r} is not trace-indexed")
        var, trace = name.rsplit("@", 1)
        slots.append((name, var, trace))
    return slots


def _image(trace: SymTrace, trace_var: str, var: str, i: int) -> Term:
    """The term that `trace`, bound to `trace_var`, gives `var` at observation i."""
    if len(trace.observed) <= i:
        raise EncodingError(
            f"trace bound to {trace_var!r} has fewer than {i + 1} observations")
    memory = trace.observed[i].memory
    if var not in memory:
        raise EncodingError(
            f"program bound to {trace_var!r} has no variable {var!r}")
    return memory[var]


def _own(slots: Sequence[Tuple[str, str, str]], trace_var: str) -> List[Tuple[str, str]]:
    return [(name, var) for name, var, tv in slots if tv == trace_var]


def _apart(names: Sequence[str], rho: Dict[str, Term]) -> Tuple[str, ...]:
    """An existential trace's fresh variables renamed apart (`v!N` becomes
    `ev!N`), the renaming added to `rho`.

    When both quantifiers range over the same program, the search walks
    one tree for both sides, so a universal trace and an existential trace
    can carry the same fresh names. Renamed, an existential binder never
    captures a universal variable. The map is the same for every trace, so
    equal terms stay equal.
    """
    for name in names:
        if name not in rho:
            rho[name] = logic.Var("e" + name)
    return tuple([rho[name].name for name in names])


def _domain_constraint(names: Sequence[str],
                       domain: Optional[Tuple[int, int]]) -> Formula:
    if domain is None:
        return logic.TRUE
    lo, hi = domain
    return logic.conj(
        [logic.conj([logic.cmp("<=", logic.IntLit(lo), logic.Var(v)),
                     logic.cmp("<=", logic.Var(v), logic.IntLit(hi))])
         for v in names])


class EncodedQuery(FrozenRecord):
    # explanation: the "no matching trace" part of the formula
    __slots__ = ("formula", "free_vars", "explanation")


class ExistentialSide:
    """The existential side of one search; its lazy queries read the body,
    the bound k and the domain from it. `trace_var` is None when the
    specification has no existential quantifier.

    `prepare` fills the side for bound k from the complete trace list.
    `classes[t]` holds trace t's class at each observation index i:
    `sigmas[i][c]` maps the body's existential variables to the terms that
    every trace of class c gives them at index i, and `members(i)[c]` has
    bit t set for each trace t of that class. Bit t of `proved` is set when
    trace t's path is proved satisfiable (see `symexec`). `block(t)` holds
    trace t's fresh variables, its scope (path and domain constraint) and
    its classes. Names and terms are renamed apart (see `_apart`).

    Class numbers are search-wide and only appended to: on a side prepared
    at every bound, a class at index i first appears at bound i + 1, and
    its sigma is built once per search. A trace prepared at bound k takes
    its classes at the indices before k - 1 from its ancestor at bound
    k - 1 (`SymTrace.previous`), and reads only the one new index.
    Members and blocks are built when a query or a witness needs them.

    Per bound, the side memoizes the body's instances per index i and
    universal images at i (`instances`), so universal traces whose
    memories give the body equal terms share them, and a query and a
    witness read the same ones. A universal trace's witness candidates are
    kept for one bound, so that its descendants at the next bound start
    from them (see `witness`).
    """

    __slots__ = ("universal_var", "trace_var", "domain", "k", "classes", "sigmas",
                 "proved", "_traces", "_universal", "_existential", "_instance", "_memo",
                 "_members", "_blocks", "_in_domain", "_listed", "_children",
                 "_candidates", "_asked", "_class_ids", "_renamed", "_rho")

    def __init__(self, universal_var: str, trace_var: Optional[str], body: Formula,
                 domain: Optional[Tuple[int, int]] = None):
        slots = _body_slots(body)
        for _, _, trace in slots:
            if trace not in (universal_var, trace_var):
                raise EncodingError(f"trace variable {trace!r} is not bound")
        self.universal_var = universal_var
        self.trace_var = trace_var
        self.domain = domain
        # (full name, program variable) of each side's slots
        self._universal = _own(slots, universal_var)
        self._existential = _own(slots, trace_var)
        self._instance = logic.substituter(body)
        self.k = 0
        self.classes: List[Tuple[int, ...]] = []
        # index i and universal images at i -> (instances, true, false)
        self._memo: Dict[tuple, Tuple[List[Optional[Formula]], int, int]] = {}
        # index i -> members(i); trace -> block(t), or whether its scope
        # (path and domain) answered sat
        self._members: Dict[int, List[int]] = {}
        self._blocks: Dict[int, tuple] = {}
        self._in_domain: Dict[int, bool] = {}
        # Kept for one bound, for the next, keyed by node number (each
        # table holds the nodes of one walk): each trace's index, each
        # universal trace's witness candidates; the previous bound's
        # candidates, and the children at this bound of each trace of the
        # previous one (None when some trace has no ancestor there).
        self._listed: Dict[int, int] = {}
        self._candidates: Dict[int, Tuple[int, ...]] = {}
        self._asked: Dict[int, Tuple[int, ...]] = {}
        self._children: Optional[List[List[int]]] = None
        # Kept for the whole search: per index, images -> class (with
        # `sigmas`); each path conjunct renamed, and the renaming.
        self.sigmas: List[List[Dict[str, Term]]] = []
        self._class_ids: List[Dict[Tuple[Term, ...], int]] = []
        self._renamed, self._rho = {}, {}

    def prepare(self, k: int, traces: Sequence[SymTrace]) -> None:
        """The part of every bound-k lazy query that depends on the
        existential traces alone, from the bound's complete trace list."""
        # The previous bound's traces are the ancestors only when it was k - 1.
        carried = self.k == k - 1
        ancestors, previous = (self._listed, self.classes) if carried else ({}, [])
        self._asked = self._candidates if carried else {}
        self.k = k
        self._candidates, self._listed = {}, {}
        self._memo.clear()
        self._members.clear()
        self._blocks.clear()
        self._in_domain.clear()
        for _ in range(len(self.sigmas), k):
            self.sigmas.append([] if self.trace_var is not None else [{}])
            self._class_ids.append({})
        if self.trace_var is None:
            # One block with no variables, scope true (so proved) and no
            # existential term: "no match" is the negated invariant.
            self._traces, self.classes, self.proved = (), [(0,) * k], 1
            self._children = [[0]] if carried else None
            return
        listed, classes, proved = self._listed, [], 0
        children: Optional[List[List[int]]] = [[] for _ in previous]
        for t, trace in enumerate(traces):
            ancestor = trace.previous
            a = None if ancestor is None else ancestors.get(ancestor.number)
            if a is None:
                classes.append(self._classes_of(trace, k))
                children = None
            else:
                classes.append(previous[a] + (self._class(trace, k - 1),))
                if children is not None:
                    children[a].append(t)
            listed[trace.number] = t
            if trace.proved:
                proved |= 1 << t
        self._traces = traces
        self.classes = classes
        self.proved = proved
        self._children = children

    def _classes_of(self, trace: SymTrace, k: int) -> Tuple[int, ...]:
        """The trace's class at every index below k, read afresh: for a
        trace with no ancestor at the bound before."""
        return tuple([self._class(trace, i) for i in range(k)])

    def _class(self, trace: SymTrace, i: int) -> int:
        """The class of the trace's memory at observation i, numbered the
        first time its images occur there."""
        # `_image` raises on a trace without observation i, unless the body
        # takes no term from it: then the images are ().
        images = tuple([_image(trace, self.trace_var, var, i) for _, var in self._existential])
        ids = self._class_ids[i]
        c = ids.get(images)
        if c is None:
            rho = self._rho
            for term in images:
                _apart(logic.free_vars(term), rho)
            c = ids[images] = len(self.sigmas[i])
            self.sigmas[i].append({name: logic.substitute(term, rho)
                                   for (name, _), term in zip(self._existential, images)})
        return c

    def members(self, i: int) -> List[int]:
        """Per class at index i, the traces (bitmask) of that class."""
        found = self._members.get(i)
        if found is None:
            found = self._members[i] = [0] * len(self.sigmas[i])
            for t, trace_classes in enumerate(self.classes):
                found[trace_classes[i]] |= 1 << t
        return found

    def block(self, t: int) -> Tuple[Tuple[str, ...], Formula, Tuple[int, ...]]:
        """Trace t's fresh variables and scope, renamed apart, and its
        classes."""
        block = self._blocks.get(t)
        if block is None:
            if self.trace_var is None:
                block = ((), logic.TRUE, self.classes[0])
            else:
                trace, rho, renamed = self._traces[t], self._rho, self._renamed
                fv2 = _apart(trace.free_vars(), rho)
                # Each path conjunct, which a path shares with the paths of
                # its prefixes, is renamed once per search.
                conjuncts = logic.conjuncts(trace.path)
                for conjunct in conjuncts:
                    if conjunct not in renamed:
                        renamed[conjunct] = logic.substitute(conjunct, rho)
                scope = logic.conj([*(renamed[c] for c in conjuncts),
                                    _domain_constraint(fv2, self.domain)])
                block = (fv2, scope, self.classes[t])
            self._blocks[t] = block
        return block

    def instances(self, universal: SymTrace, i: int) -> Tuple[List[Optional[Formula]], int, int]:
        """The body at index i under the universal memory and the
        existential memory of each class with a trace at this bound (None
        for the others), with the traces (bitmasks) whose instance folded to
        true and to false."""
        own = self._universal
        images = tuple([_image(universal, self.universal_var, var, i) for _, var in own])
        key = (i, images)
        entry = self._memo.get(key)
        if entry is None:
            # One simultaneous substitution of both sides per class.
            instance, members = self._instance, self.members(i)
            universal_sigma = {name: term for (name, _), term in zip(own, images)}
            found = [instance({**sigma, **universal_sigma}) if traces else None
                     for sigma, traces in zip(self.sigmas[i], members)]
            true = false = 0
            for c, instance in enumerate(found):
                if isinstance(instance, logic.BoolLit):
                    if instance.value:
                        true |= members[c]
                    else:
                        false |= members[c]
            entry = self._memo[key] = (found, true, false)
        return entry

    def witness(self, universal: SymTrace, feasibility: Feasibility) -> Optional[int]:
        """The lowest existential trace that matches `universal` on every
        input, or None.

        A witness is a proved trace whose body instances all fold to true
        under the universal memory: its block is then `forall fv2. not
        scope`, false since the scope is satisfiable, so the query is
        unsat. With a domain, the scope is `path and domain`, which must be
        proved too: it is checked through `feasibility` once per trace, and
        only for a trace that is the candidate.

        The candidates are the proved traces whose instances all fold to
        true. A universal trace whose ancestor at the bound before was asked
        starts from that ancestor's candidates: their children at this
        bound share their classes at every earlier index, so only the new
        index is read. Otherwise every index is read.
        """
        k, ancestor = self.k, universal.previous
        asked = (self._asked.get(ancestor.number)
                 if self._children is not None and ancestor is not None else None)
        if asked is None:
            candidates, indices = self.proved, range(k)
        else:
            candidates, indices = 0, (k - 1,)
            for a in asked:
                for t in self._children[a]:
                    candidates |= 1 << t
            candidates &= self.proved
        for i in indices:
            if not candidates:
                break
            candidates &= self.instances(universal, i)[1]
        found = []
        while candidates:
            low = candidates & -candidates
            found.append(low.bit_length() - 1)
            candidates ^= low
        self._candidates[universal.number] = tuple(found)
        for t in found:
            if self._scope_proved(t, feasibility):
                return t
        return None

    def _scope_proved(self, t: int, feasibility: Feasibility) -> bool:
        if self.domain is None:
            return True
        if t not in self._in_domain:
            self._in_domain[t] = isinstance(feasibility.check(self.block(t)[1]), smt.Sat)
        return self._in_domain[t]


def _no_match(universal: SymTrace, side: ExistentialSide) -> Formula:
    """The part "no existential trace matches `universal`": one block per
    trace, forall fv2. not(scope and body_0 and ... and body_{k-1})."""
    if not side.classes:  # no pair to encode, nothing to check
        return logic.TRUE
    # instances[i][c]: the body at index i under the universal memory and
    # the existential memory of class c.
    instances = []
    folded = 0  # traces with a false part: their blocks fold to true
    for i in range(side.k):
        found, _, false = side.instances(universal, i)
        instances.append(found)
        folded |= false
    # A true block drops out of the conjunction, so it is never built.
    blocks = (side.block(t) for t in range(len(side.classes)) if not folded >> t & 1)
    return logic.conj(
        logic.forall(fv2, logic.negate(logic.conj(
            [scope, *map(list.__getitem__, instances, trace_classes)])))
        for fv2, scope, trace_classes in blocks)


def lazy_query(universal: SymTrace, existential: ExistentialSide) -> EncodedQuery:
    """Refutation query for one universal trace.

    Satisfiable iff the universal trace has an instantiation that no
    existential trace can match; a model assigns the universal trace's
    fresh variables. The body, bound and domain are the existential
    side's.
    """
    fv1 = universal.free_vars()
    c1 = logic.conj([universal.path, _domain_constraint(fv1, existential.domain)])
    c2 = _no_match(universal, existential)
    return EncodedQuery(
        formula=logic.conj([c1, c2]),
        free_vars=fv1,
        explanation=c2,
    )
