"""Interventional Markov equivalence of DAGs.

Two DAGs are equivalent with respect to a conservative target family when
they share a skeleton and, for every target, their cut graphs share both
skeleton and v-structures.  A class is represented by its interventional
essential graph, built directly in polynomial time (Hauser and Buhlmann,
JMLR 13, 2012): both edges of every v-structure and every edge with exactly
one endpoint in some target are directed as in the DAG, the result is
closed under Meek's orientation rules R1-R4 (Meek 1995), and every other
edge stays undirected.  The undirected edges form chordal chain components
that orient independently, so ``enumerate_class`` lists a class as the
essential graph's directed edges combined with every acyclic orientation
without v-structures of each chain component.  Only that listing is
exponential, and only it has capacity guards.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .errors import CapacityError, ParameterError
from .model import Dag, InterventionTarget, TargetFamily, intervention_dag

__all__ = [
    "Skeleton",
    "VStructure",
    "EssentialGraph",
    "skeleton",
    "v_structures",
    "markov_equivalent_interventional",
    "enumerate_class",
    "essential_graph",
    "same_essential_graph",
    "format_essential_graph",
    "parse_essential_graph",
]

# Hard guards keeping enumerate_class desk-scale: bound on undirected edges
# per chain component of the essential graph, and on emitted class members.
MAX_UNDECIDED_EDGES = 20
MAX_CLASS_MEMBERS = 200_000


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Skeleton:
    """Undirected edge set of a graph, as (a, b) pairs with a < b."""

    p: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.edges:
            if not (1 <= a < b <= self.p):
                raise ParameterError(f"skeleton pair ({a}, {b}) is not canonical for p={self.p}")


@dataclass(frozen=True, order=True)
class VStructure:
    """A collider a -> b <- c with non-adjacent tails, stored with a < c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a > self.c:
            a, c = self.c, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "c", c)
        if len({self.a, self.b, self.c}) != 3:
            raise ParameterError(f"degenerate collider triple ({self.a}, {self.b}, {self.c})")


def skeleton(dag: Dag) -> Skeleton:
    """Forget edge directions."""
    return Skeleton(dag.p, frozenset(_pair(t, h) for t, h in dag.edges))


def v_structures(dag: Dag) -> frozenset[VStructure]:
    """All colliders whose tails are non-adjacent."""
    found = set()
    for b in range(1, dag.p + 1):
        pa = dag.parents(b)
        for i in range(len(pa)):
            for j in range(i + 1, len(pa)):
                a, c = pa[i], pa[j]
                if not dag.adjacent(a, c):
                    found.add(VStructure(a, b, c))
    return frozenset(found)


def markov_equivalent_interventional(d1: Dag, d2: Dag, family: TargetFamily) -> bool:
    """Decide equivalence with respect to a target family, conservative by construction."""
    if d1.p != d2.p:
        raise ParameterError("cannot compare DAGs with different vertex counts")
    family.validate_for(d1.p)
    if skeleton(d1) != skeleton(d2):
        return False
    for target in family:
        c1 = intervention_dag(d1, target)
        c2 = intervention_dag(d2, target)
        if skeleton(c1) != skeleton(c2):
            return False
        if v_structures(c1) != v_structures(c2):
            return False
    return True


def _neighbours(pairs) -> dict[int, set[int]]:
    """Adjacency sets of the vertices that the (a, b) pairs touch."""
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _meek_closure(adj: dict[int, set[int]], directed: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Close a partial orientation of a skeleton under Meek's rules R1-R4.

    ``adj`` is the skeleton and ``directed`` the (tail, head) pairs oriented
    so far; every other skeleton edge is undirected.  Returns the directed
    pairs once no rule orients another edge.  The rules are sound and
    complete (Meek 1995): the result holds exactly the orientations shared
    by every acyclic extension that adds no v-structure, whatever order the
    rules fire in.
    """
    pa = {v: set() for v in adj}
    ch = {v: set() for v in adj}
    und = {v: set(nb) for v, nb in adj.items()}

    def orient(x: int, y: int) -> None:
        pa[y].add(x)
        ch[x].add(y)
        und[x].discard(y)
        und[y].discard(x)

    def forced(x: int, y: int) -> bool:
        # R1: z -> x - y with z, y non-adjacent
        if any(z not in adj[y] for z in pa[x]):
            return True
        # R2: x -> z -> y
        if ch[x] & pa[y]:
            return True
        # R3: x - c -> y and x - d -> y with c, d non-adjacent
        if any(d not in adj[c] for c, d in itertools.combinations(und[x] & pa[y], 2)):
            return True
        # R4: x - d -> c -> y with x, c adjacent and d, y non-adjacent
        return any(d not in adj[y] for c in pa[y] & adj[x] for d in pa[c] & und[x])

    for t, h in directed:
        orient(t, h)
    changed = True
    while changed:
        changed = False
        for x in sorted(und):
            for y in sorted(und[x]):
                if y in und[x] and forced(x, y):
                    orient(x, y)
                    changed = True
    return {(t, h) for h in pa for t in pa[h]}


def _chain_components(pairs) -> list[list[tuple[int, int]]]:
    """Undirected (a, b) pairs grouped into connected components, each sorted."""
    adj = _neighbours(pairs)
    components = []
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        stack, members = [start], {start}
        while stack:
            for w in adj[stack.pop()] - members:
                members.add(w)
                stack.append(w)
        seen |= members
        components.append(sorted(e for e in pairs if e[0] in members))
    return components


def _component_orientations(pairs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Every acyclic orientation without v-structures of one chain component.

    A chain component of an essential graph is chordal, and each such
    orientation of it has exactly one source.  Fixing the source, directing
    its edges outward and closing under Meek's rules leaves smaller chordal
    chain components whose orientations combine freely (He, Jia and Yu,
    JMLR 16, 2015), so every orientation comes out once, with no search
    that backtracks.
    """
    adj = _neighbours(pairs)
    out = []
    for root in sorted(adj):
        directed = _meek_closure(adj, {(root, w) for w in adj[root]})
        rest = [(a, b) for a, b in pairs if (a, b) not in directed and (b, a) not in directed]
        choices = [_component_orientations(comp) for comp in _chain_components(rest)]
        fixed = sorted(directed)
        for combo in itertools.product(*choices):
            out.append(fixed + [e for part in combo for e in part])
    return out


def enumerate_class(dag: Dag, family: TargetFamily) -> list[Dag]:
    """Materialize every DAG equivalent to ``dag`` under the family.

    Members keep the directed edges of ``essential_graph(dag, family)`` and
    orient each of its chain components (the connected components of its
    undirected edges) acyclically and without v-structures, in every way.
    The output is sorted by edge list and always contains ``dag`` itself.
    Raises CapacityError when a chain component has more than
    MAX_UNDECIDED_EDGES undirected edges or the class would exceed
    MAX_CLASS_MEMBERS.
    """
    graph = essential_graph(dag, family)
    components = _chain_components(graph.undirected)
    for comp in components:
        if len(comp) > MAX_UNDECIDED_EDGES:
            raise CapacityError(
                f"{len(comp)} mutually connected undecided edges exceed the "
                f"enumeration guard of {MAX_UNDECIDED_EDGES}"
            )
    choices = [_component_orientations(comp) for comp in components]
    total = 1
    for options in choices:
        total *= len(options)
        if total > MAX_CLASS_MEMBERS:
            raise CapacityError("equivalence class exceeds the member guard")
    fixed = sorted(graph.directed)
    members = [
        Dag.from_edges(dag.p, fixed + [e for part in combo for e in part])
        for combo in itertools.product(*choices)
    ]
    members.sort(key=lambda d: d.edges)
    return members


@dataclass(frozen=True)
class EssentialGraph:
    """Partially directed representative of an equivalence class.

    An edge is directed when every class member orients it the same way and
    undirected otherwise; ``directed`` holds (tail, head) pairs, while
    ``undirected`` holds canonical (a, b) pairs with a < b.
    """

    p: int
    directed: frozenset[tuple[int, int]]
    undirected: frozenset[tuple[int, int]]

    def __post_init__(self):
        und_pairs = set()
        for a, b in self.undirected:
            if not (1 <= a < b <= self.p):
                raise ParameterError(f"undirected pair ({a}, {b}) is not canonical for p={self.p}")
            und_pairs.add((a, b))
        dir_pairs = set()
        for t, h in self.directed:
            if not (1 <= t <= self.p and 1 <= h <= self.p) or t == h:
                raise ParameterError(f"invalid directed edge ({t}, {h})")
            if (h, t) in self.directed:
                raise ParameterError(f"edge between {t} and {h} is directed both ways")
            dir_pairs.add(_pair(t, h))
        if dir_pairs & und_pairs:
            raise ParameterError("an edge cannot be both directed and undirected")

    @property
    def num_edges(self) -> int:
        return len(self.directed) + len(self.undirected)


def essential_graph(dag: Dag, family: TargetFamily) -> EssentialGraph:
    """Orient exactly the edges on which the whole class agrees.

    Both edges of every v-structure of ``dag`` and every edge with exactly
    one endpoint in some target are directed as in ``dag``; closing that
    under Meek's rules R1-R4 directs the rest of the class-invariant edges
    (Hauser and Buhlmann 2012), and every other edge stays undirected.
    """
    family.validate_for(dag.p)
    directed = set()
    for vs in v_structures(dag):
        directed.update(((vs.a, vs.b), (vs.c, vs.b)))
    for target in family:
        members = set(target.members)
        directed.update((t, h) for t, h in dag.edges if (t in members) != (h in members))
    pairs = skeleton(dag).edges
    directed = _meek_closure(_neighbours(pairs), directed)
    undirected = pairs - {_pair(t, h) for t, h in directed}
    return EssentialGraph(dag.p, frozenset(directed), frozenset(undirected))


def same_essential_graph(d1: Dag, d2: Dag, family: TargetFamily) -> bool:
    """Equivalent to comparing the two essential graphs componentwise."""
    if d1.p != d2.p:
        raise ParameterError("cannot compare DAGs with different vertex counts")
    return essential_graph(d1, family) == essential_graph(d2, family)


def format_essential_graph(graph: EssentialGraph) -> str:
    """One line per edge, ``a -> b`` or ``a -- b``, sorted by endpoints."""
    keyed = [(t, h, f"{t} -> {h}") for t, h in graph.directed]
    keyed += [(a, b, f"{a} -- {b}") for a, b in graph.undirected]
    return "\n".join(line for _, _, line in sorted(keyed)) + ("\n" if keyed else "")


def parse_essential_graph(text: str, p: int) -> EssentialGraph:
    """Inverse of format_essential_graph for a known vertex count."""
    directed = []
    undirected = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        arrow = "->" if "->" in line else "--"
        try:
            a, b = map(int, line.split(arrow))
        except ValueError:
            raise ParameterError(f"line {lineno}: cannot parse edge {raw!r}") from None
        if arrow == "->":
            directed.append((a, b))
        else:
            undirected.append(_pair(a, b))
    return EssentialGraph(p, frozenset(directed), frozenset(undirected))
