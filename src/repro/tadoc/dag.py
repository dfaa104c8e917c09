"""DAG-level analysis of TADOC grammars.

Section 2.2 of the paper motivates CompressDB with properties of the
Sequitur rule DAG: its *depth* can reach hundreds of levels and nodes
can have many parents, which makes a random update — a recursive rule
split along every parent chain — cost O(n^d).  This module computes
those properties so the motivation experiment
(``benchmarks/bench_tadoc_motivation.py``) can reproduce the argument,
and contrasts them with CompressDB's constant-depth organisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.tadoc.sequitur import Grammar, RuleRef


@dataclass(frozen=True)
class DagStats:
    """Structural summary of a grammar's rule DAG."""

    rules: int
    edges: int
    depth: int
    max_parents: int
    avg_parents: float
    terminals: int

    def update_cost_unbounded(self) -> float:
        """Paper's O(n^d) estimate of a recursive rule split.

        ``n`` is the average parent count and ``d`` the DAG depth; the
        value is clamped to a float so deep grammars don't overflow.
        """
        if self.depth <= 0:
            return 1.0
        try:
            return float(max(self.avg_parents, 1.0) ** self.depth)
        except OverflowError:  # pragma: no cover - astronomically deep DAGs
            return float("inf")

    def update_cost_bounded(self, bounded_depth: int = 2) -> float:
        """CompressDB's O(d) cost with its constant pointer-tree depth."""
        return float(bounded_depth)


def children(grammar: Grammar, rule_id: int) -> list[int]:
    """Distinct rule ids referenced by ``rule_id``'s body."""
    seen: list[int] = []
    seen_set: set[int] = set()
    for element in grammar.rules[rule_id]:
        if isinstance(element, RuleRef) and element.rule_id not in seen_set:
            seen_set.add(element.rule_id)
            seen.append(element.rule_id)
    return seen


def topological_order(grammar: Grammar) -> list[int]:
    """Rule ids ordered children-before-parents (iterative DFS)."""
    order: list[int] = []
    state: dict[int, int] = {}  # 0 = visiting, 1 = done
    stack: list[tuple[int, bool]] = [(grammar.root, False)]
    while stack:
        rule_id, processed = stack.pop()
        if processed:
            state[rule_id] = 1
            order.append(rule_id)
            continue
        if rule_id in state:
            if state[rule_id] == 0:
                raise ValueError("cycle detected in grammar DAG")
            continue
        state[rule_id] = 0
        stack.append((rule_id, True))
        for child in children(grammar, rule_id):
            if state.get(child) != 1:
                stack.append((child, False))
    return order


def dag_depth(grammar: Grammar) -> int:
    """Longest root-to-leaf path length (the paper's depth metric)."""
    depth: dict[int, int] = {}
    for rule_id in topological_order(grammar):
        kids = children(grammar, rule_id)
        depth[rule_id] = 1 + max((depth[k] for k in kids), default=0)
    return depth[grammar.root]


def compute_stats(
    grammar: Grammar, registry: Optional[MetricsRegistry] = None
) -> DagStats:
    """Full structural summary of the grammar DAG.

    When ``registry`` is given, the summary is also published as
    ``tadoc.dag.*`` gauges so grammar structure shows up next to the
    engine metrics in one snapshot.
    """
    parents: dict[int, int] = {rule_id: 0 for rule_id in grammar.rules}
    edges = 0
    terminals = 0
    for body in grammar.rules.values():
        for element in body:
            if isinstance(element, RuleRef):
                parents[element.rule_id] += 1
                edges += 1
            else:
                terminals += 1
    non_root = [count for rule_id, count in parents.items() if rule_id != grammar.root]
    max_parents = max(non_root, default=0)
    avg_parents = sum(non_root) / len(non_root) if non_root else 0.0
    stats = DagStats(
        rules=len(grammar.rules),
        edges=edges,
        depth=dag_depth(grammar),
        max_parents=max_parents,
        avg_parents=avg_parents,
        terminals=terminals,
    )
    if registry is not None:
        registry.gauge("tadoc.dag.rules").set(stats.rules)
        registry.gauge("tadoc.dag.edges").set(stats.edges)
        registry.gauge("tadoc.dag.depth").set(stats.depth)
        registry.gauge("tadoc.dag.max_parents").set(stats.max_parents)
        registry.gauge("tadoc.dag.avg_parents").set(stats.avg_parents)
        registry.gauge("tadoc.dag.terminals").set(stats.terminals)
    return stats

