"""Interventional Markov equivalence of DAGs.

Two DAGs are equivalent with respect to a conservative target family when
they share a skeleton and, for every target, their cut graphs share both
skeleton and v-structures.  Classes are materialized by exhaustive
enumeration of skeleton orientations rather than by orientation-propagation
rules: orientations pinned by the targets (cut edges) and by v-structures
are fixed first, the remaining edges are searched component by component
with collider and cycle pruning, and every emitted member satisfies the
equivalence criterion by construction.
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
    "conservative",
    "markov_equivalent_interventional",
    "enumerate_class",
    "essential_graph",
    "same_essential_graph",
    "format_essential_graph",
    "parse_essential_graph",
]

# Hard guards keeping enumeration desk-scale: bound on undecided edges per
# connected component of the free skeleton, and on emitted class members.
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

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))


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


def conservative(family: TargetFamily, p: int) -> bool:
    """True when every vertex lies outside at least one target."""
    family.validate_for(p)
    return all(any(j not in t for t in family) for j in range(1, p + 1))


def check_conservative(family: TargetFamily, p: int) -> None:
    """Raise ParameterError unless every vertex lies outside some target."""
    if not conservative(family, p):
        raise ParameterError(
            "target family must be conservative: every vertex must lie outside some target"
        )


def markov_equivalent_interventional(d1: Dag, d2: Dag, family: TargetFamily) -> bool:
    """Decide equivalence with respect to a conservative target family."""
    if d1.p != d2.p:
        raise ParameterError("cannot compare DAGs with different vertex counts")
    check_conservative(family, d1.p)
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


def _forced_orientations(
    dag: Dag, family: TargetFamily, pairs: list[tuple[int, int]],
    ref_skel: dict, ref_vs: dict,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Orientations every class member must share.

    A cut edge (exactly one endpoint intervened) survives in the cut graph
    exactly when it points out of the target, so its presence there pins its
    direction; both edges of any reference v-structure are pinned as well.
    """
    forced: dict[tuple[int, int], tuple[int, int]] = {}

    def force(pair, orientation):
        prev = forced.setdefault(pair, orientation)
        if prev != orientation:  # the input DAG realizes every pin, so this cannot fire
            raise AssertionError(f"conflicting forced orientations for {pair}")

    for target in family:
        members = set(target.members)
        skel_t = ref_skel[target]
        for a, b in pairs:
            a_in, b_in = a in members, b in members
            if a_in == b_in:
                continue
            x, y = (a, b) if a_in else (b, a)
            force((a, b), (x, y) if (a, b) in skel_t else (y, x))
        for vs in ref_vs[target]:
            force(_pair(vs.a, vs.b), (vs.a, vs.b))
            force(_pair(vs.c, vs.b), (vs.c, vs.b))
    return forced


def _collider_constraints(p: int, family: TargetFamily, ref_skel: dict, ref_vs: dict):
    """Triples that must (or must not) collide in some cut graph.

    Cut-graph skeletons are identical for every candidate once cut edges are
    pinned, so the potential collider triples are a fixed set; the expected
    answer is whether the reference collides there.
    """
    records: dict[tuple[tuple[int, int], tuple[int, int], int], bool] = {}
    for target in family:
        adj: dict[int, set[int]] = defaultdict(set)
        for a, b in ref_skel[target]:
            adj[a].add(b)
            adj[b].add(a)
        vs_t = {(v.a, v.b, v.c) for v in ref_vs[target]}
        for b in range(1, p + 1):
            nb = sorted(adj[b])
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    a, c = nb[i], nb[j]
                    if c in adj[a]:
                        continue
                    records[(_pair(a, b), _pair(b, c), b)] = (a, b, c) in vs_t
    return sorted(records.items())


def _free_components(free: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Group undecided edges into connected components through shared vertices."""
    edge_by_vertex: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for e in free:
        edge_by_vertex[e[0]].append(e)
        edge_by_vertex[e[1]].append(e)
    seen: set[tuple[int, int]] = set()
    components = []
    for start in free:
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            e = queue.pop()
            comp.append(e)
            for v in e:
                for other in edge_by_vertex[v]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        # breadth-first reordering from the smallest edge keeps adjacent edges
        # close together, which lets collider pruning fire early
        comp.sort()
        ordered = [comp[0]]
        rest = comp[1:]
        touched = set(comp[0])
        while rest:
            pick = None
            for e in rest:
                if e[0] in touched or e[1] in touched:
                    pick = e
                    break
            if pick is None:
                pick = rest[0]
            rest.remove(pick)
            ordered.append(pick)
            touched.update(pick)
        components.append(ordered)
    components.sort(key=lambda comp: comp[0])
    return components


def enumerate_class(dag: Dag, family: TargetFamily) -> list[Dag]:
    """Materialize every DAG equivalent to ``dag`` under the family.

    The output is sorted by edge list and always contains ``dag`` itself.
    Raises CapacityError when a connected block of undecided edges exceeds
    MAX_UNDECIDED_EDGES or the class would exceed MAX_CLASS_MEMBERS.
    """
    p = dag.p
    check_conservative(family, p)
    pairs = sorted(skeleton(dag).edges)
    ref_skel = {}
    ref_vs = {}
    for target in family:
        cut = intervention_dag(dag, target)
        ref_skel[target] = skeleton(cut).edges
        ref_vs[target] = v_structures(cut)

    forced = _forced_orientations(dag, family, pairs, ref_skel, ref_vs)
    constraints = _collider_constraints(p, family, ref_skel, ref_vs)
    by_edge: dict[tuple[int, int], list[int]] = defaultdict(list)
    for idx, ((e1, e2, _), _) in enumerate(constraints):
        by_edge[e1].append(idx)
        by_edge[e2].append(idx)

    free = [e for e in pairs if e not in forced]
    components = _free_components(free)
    for comp in components:
        if len(comp) > MAX_UNDECIDED_EDGES:
            raise CapacityError(
                f"{len(comp)} mutually connected undecided edges exceed the "
                f"enumeration guard of {MAX_UNDECIDED_EDGES}"
            )

    orient: dict[tuple[int, int], tuple[int, int]] = dict(forced)
    children: dict[int, set[int]] = defaultdict(set)
    for t, h in forced.values():
        children[t].add(h)

    def reaches(start: int, goal: int) -> bool:
        stack = [start]
        visited = {start}
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            for c in children[v]:
                if c not in visited:
                    visited.add(c)
                    stack.append(c)
        return False

    def collider_ok(edge, head) -> bool:
        for idx in by_edge[edge]:
            (e1, e2, b), expected = constraints[idx]
            other = e2 if e1 == edge else e1
            other_orient = orient.get(other)
            if other_orient is None:
                continue
            actual = head == b and other_orient[1] == b
            if actual != expected:
                return False
        return True

    def explore(ordered: list[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
        out: list[tuple[tuple[int, int], ...]] = []

        def dfs(i: int) -> None:
            if i == len(ordered):
                out.append(tuple(orient[e] for e in ordered))
                if len(out) > MAX_CLASS_MEMBERS:
                    raise CapacityError("equivalence class exceeds the member guard")
                return
            edge = ordered[i]
            a, b = edge
            for tail, head in ((a, b), (b, a)):
                if reaches(head, tail):
                    continue
                if not collider_ok(edge, head):
                    continue
                orient[edge] = (tail, head)
                children[tail].add(head)
                dfs(i + 1)
                del orient[edge]
                children[tail].discard(head)

        dfs(0)
        return out

    component_choices = [explore(comp) for comp in components]

    total = 1
    for choices in component_choices:
        total *= len(choices)
        if total > MAX_CLASS_MEMBERS:
            raise CapacityError("equivalence class exceeds the member guard")

    members: list[Dag] = []
    for combo in itertools.product(*component_choices):
        parents: list[list[int]] = [[] for _ in range(p)]
        for t, h in forced.values():
            parents[h - 1].append(t)
        for comp, assignment in zip(components, combo):
            for _, (t, h) in zip(comp, assignment):
                parents[h - 1].append(t)
        # orientations from different components can interleave through the
        # pinned edges, so global acyclicity still needs one full check
        if not _acyclic(p, parents):
            continue
        members.append(Dag(p, tuple(tuple(ps) for ps in parents)))
    members.sort(key=lambda d: d.edges)
    return members


def _acyclic(p: int, parents: list[list[int]]) -> bool:
    indeg = [len(ps) for ps in parents]
    children: list[list[int]] = [[] for _ in range(p)]
    for k in range(p):
        for j in parents[k]:
            children[j - 1].append(k + 1)
    ready = [v for v in range(1, p + 1) if indeg[v - 1] == 0]
    count = 0
    while ready:
        v = ready.pop()
        count += 1
        for c in children[v - 1]:
            indeg[c - 1] -= 1
            if indeg[c - 1] == 0:
                ready.append(c)
    return count == p


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
    def skeleton_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pair(t, h) for t, h in self.directed) | self.undirected

    @property
    def num_edges(self) -> int:
        return len(self.directed) + len(self.undirected)


def essential_graph(dag: Dag, family: TargetFamily) -> EssentialGraph:
    """Orient exactly the edges on which the whole class agrees."""
    members = enumerate_class(dag, family)
    directed = []
    undirected = []
    for a, b in sorted(skeleton(dag).edges):
        forward = sum(1 for m in members if m.has_edge(a, b))
        if forward == len(members):
            directed.append((a, b))
        elif forward == 0:
            directed.append((b, a))
        else:
            undirected.append((a, b))
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
        if "->" in line:
            t_s, h_s = line.split("->", 1)
            directed.append((int(t_s.strip()), int(h_s.strip())))
        elif "--" in line:
            a_s, b_s = line.split("--", 1)
            a, b = int(a_s.strip()), int(b_s.strip())
            undirected.append(_pair(a, b))
        else:
            raise ParameterError(f"line {lineno}: cannot parse edge {raw!r}")
    return EssentialGraph(p, frozenset(directed), frozenset(undirected))
