"""Guarded program graphs, the quantifiers that range over them, and the
asynchronous product construction.

A program graph is a control-flow graph whose edges carry a quantifier-free
guard over the program variables and an effect: an assignment, a havoc
(nondeterministic assignment), or a skip. Locations are plain integers;
edge order is declaration order and drives deterministic exploration.
A `Quantifier` binds a trace variable to the traces of one graph observed
at a set of its locations: the symbolic search and the finite-domain
oracle both check a specification as a sequence of them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from . import logic
from .logic import Formula, FrozenRecord, Record, Var, set_field


class Assign(FrozenRecord):
    __slots__ = ("target", "expr")

    def __str__(self) -> str:
        return f"{self.target} := {self.expr}"


class Havoc(FrozenRecord):
    __slots__ = ("target",)

    def __str__(self) -> str:
        return f"havoc {self.target}"


class Skip(FrozenRecord):
    __slots__ = ()

    def __str__(self) -> str:
        return "skip"


SKIP = Skip()


class Edge(FrozenRecord):
    __slots__ = ("src", "dst", "guard", "effect")

    def __init__(self, src: int, dst: int, guard: Formula, effect):
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "guard", guard)
        set_field(self, "effect", effect)  # Assign | Havoc | Skip


class ProgramGraph(Record):
    """Immutable by convention; do not mutate after construction."""

    __slots__ = ("name", "locations", "edges", "initial", "variables", "_out", "_steps")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        out: Dict[int, List[Edge]] = {loc: [] for loc in self.locations}
        for e in self.edges:
            if e.src in out:
                out[e.src].append(e)
        self._out = {loc: tuple(es) for loc, es in out.items()}
        self._steps: Dict[int, tuple] = {}

    def out_edges(self, loc: int) -> Tuple[Edge, ...]:
        return self._out.get(loc, ())

    def steps(self, loc: int) -> tuple:
        """The out-edges of `loc`, compiled on first use into steps
        `(dst, guard, kind, target, expr)`, in edge order: `guard` maps a
        memory to the guard's term over it (`logic.substituter`), or is None
        for a guard that is true; `kind` is the effect's class, Assign, Havoc
        or Skip; `expr` maps a memory to an assignment's value, and is None
        otherwise."""
        steps = self._steps.get(loc)
        if steps is None:
            steps = self._steps[loc] = tuple(_step(e) for e in self.out_edges(loc))
        return steps


def _step(edge: Edge) -> tuple:
    guard = None if edge.guard == logic.TRUE else logic.substituter(edge.guard)
    effect = edge.effect
    kind = type(effect)
    if kind is Assign:
        return edge.dst, guard, kind, effect.target, logic.substituter(effect.expr)
    if kind is Havoc:
        return edge.dst, guard, kind, effect.target, None
    return edge.dst, guard, kind, None, None


class Quantifier(FrozenRecord):
    """A quantifier of a specification: `kind` ("forall" or "exists") binds
    `trace_var` to the traces of `graph` observed at the locations in
    `observed`."""

    __slots__ = ("kind", "trace_var", "graph", "observed")


def rename_vars(graph: ProgramGraph, prefix: str) -> ProgramGraph:
    """Prefix every program variable with `prefix.`; locations unchanged."""
    mapping = {v: Var(f"{prefix}.{v}") for v in graph.variables}

    def ren_effect(effect):
        if isinstance(effect, Assign):
            return Assign(f"{prefix}.{effect.target}", logic.substitute(effect.expr, mapping))
        if isinstance(effect, Havoc):
            return Havoc(f"{prefix}.{effect.target}")
        return effect

    edges = tuple(
        Edge(e.src, e.dst, logic.substitute(e.guard, mapping), ren_effect(e.effect))
        for e in graph.edges
    )
    return ProgramGraph(
        name=f"{prefix}.{graph.name}",
        locations=graph.locations,
        edges=edges,
        initial=graph.initial,
        variables=tuple(f"{prefix}.{v}" for v in graph.variables),
    )


def default_step_budget(graph: ProgramGraph, k: int) -> int:
    """Transition-depth budget for exploring the traces with k observations."""
    return 10 * max(k, 1) * max(len(graph.locations), 1)


class Product(Record):
    # origin: location -> (side, copy index, original location, is re-entry
    # point). No search reads it: it is kept as the oracle of the product
    # tests, which split each product trace back into its two component traces.
    __slots__ = ("graph", "observed", "origin")


def async_product(
    g1: ProgramGraph,
    obs1: FrozenSet[int],
    g2: ProgramGraph,
    obs2: FrozenSet[int],
) -> Product:
    """Asynchronous product of two observed program graphs.

    The product alternates execution between observation points: a copy of
    g1 runs to its next observed location, control jumps to g2 (resumed via
    a re-entry point), g2 runs to its next observed location, and that
    location is observed in the product. Copies of each graph index which
    observation the other side paused at. Observed product traces are then
    exactly the pairs of component observed traces, merged point-wise.
    """
    if not obs1 or not obs2:
        raise ValueError("async product requires a nonempty observation set on both sides")
    shared = set(g1.variables) & set(g2.variables)
    if shared:
        raise ValueError(f"graphs share program variables: {sorted(shared)}")
    for o in obs1:
        if o not in g1.locations:
            raise ValueError(f"observed location {o} is not in {g1.name}")
    for o in obs2:
        if o not in g2.locations:
            raise ValueError(f"observed location {o} is not in {g2.name}")

    o1s = sorted(obs1)  # index i-1 gives the i-th observed location of g1
    o2s = sorted(obs2)

    # Number product locations deterministically. Key: (side, copy, loc, reentry).
    numbering: Dict[Tuple[int, int, int, bool], int] = {}
    origin: Dict[int, Tuple[int, int, int, bool]] = {}

    def loc_id(side: int, copy: int, loc: int, reentry: bool = False) -> int:
        key = (side, copy, loc, reentry)
        if key not in numbering:
            numbering[key] = len(numbering)
            origin[numbering[key]] = key
        return numbering[key]

    def copy_edges(graph: ProgramGraph, obs: FrozenSet[int], side: int, copy: int) -> List[Edge]:
        # Step 1 per copy: outgoing edges of an observed location move to its
        # re-entry point; incoming edges still target the observed location.
        out = []
        for e in graph.edges:
            src = loc_id(side, copy, e.src, reentry=e.src in obs)
            dst = loc_id(side, copy, e.dst, reentry=False)
            out.append(Edge(src, dst, e.guard, e.effect))
        return out

    def materialize(graph: ProgramGraph, obs: FrozenSet[int], side: int, copy: int):
        for loc in graph.locations:
            loc_id(side, copy, loc, reentry=False)
        for o in sorted(obs):
            loc_id(side, copy, o, reentry=True)

    g1_copies = range(0, len(o2s) + 1)
    g2_copies = range(1, len(o1s) + 1)
    for j in g1_copies:
        materialize(g1, obs1, 1, j)
    for j in g2_copies:
        materialize(g2, obs2, 2, j)

    edges: List[Edge] = []
    for j in g1_copies:
        edges.extend(copy_edges(g1, obs1, 1, j))
    for j in g2_copies:
        edges.extend(copy_edges(g2, obs2, 2, j))

    # Step 3: effect-free control transfers between the two sides.
    for i, o1 in enumerate(o1s, start=1):
        edges.append(Edge(loc_id(1, 0, o1), loc_id(2, i, g2.initial), logic.TRUE, SKIP))
    for j in g1_copies:
        if j == 0:
            continue
        for i, o1 in enumerate(o1s, start=1):
            edges.append(Edge(loc_id(1, j, o1), loc_id(2, i, o2s[j - 1], reentry=True),
                              logic.TRUE, SKIP))
    for j in g2_copies:
        for i, o2 in enumerate(o2s, start=1):
            edges.append(Edge(loc_id(2, j, o2), loc_id(1, i, o1s[j - 1], reentry=True),
                              logic.TRUE, SKIP))

    observed = frozenset(
        loc_id(2, j, o2) for j in g2_copies for o2 in o2s
    )

    graph = ProgramGraph(
        name=f"{g1.name}(x){g2.name}",
        locations=tuple(range(len(numbering))),
        edges=tuple(edges),
        initial=loc_id(1, 0, g1.initial),
        variables=tuple(g1.variables) + tuple(g2.variables),
    )
    return Product(graph=graph, observed=observed, origin=origin)


def dump(graph: ProgramGraph, observed: Optional[FrozenSet[int]] = None) -> str:
    """Debug dump: one edge per line, `src -> dst [guard] effect`."""
    lines = [f"graph {graph.name} initial={graph.initial} "
             f"variables={','.join(graph.variables)}"]
    if observed:
        lines.append(f"observed={','.join(str(o) for o in sorted(observed))}")
    for e in graph.edges:
        lines.append(f"{e.src} -> {e.dst} [{e.guard}] {e.effect}")
    return "\n".join(lines)
