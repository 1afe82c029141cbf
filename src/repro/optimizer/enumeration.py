"""Exhaustive plan enumeration for plan-ranking studies.

The paper closes with the open question of optimizing histograms for "the
ranking of alternative access plans, which determines the final decision of
the optimizer".  To study that empirically we need *every* plan, not just
the DP winner: this module enumerates all bushy join trees of a (small)
tree query, so estimated and true plan rankings can be compared.
"""

from __future__ import annotations

from itertools import combinations

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.joinorder import JoinGraph
from repro.optimizer.plans import JoinPlan, Plan, ScanPlan

#: Safety cap: plan counts explode combinatorially with relations.
MAX_RELATIONS_FOR_ENUMERATION = 6


def enumerate_plans(
    graph: JoinGraph, estimator: CardinalityEstimator
) -> list[Plan]:
    """Return every bushy, cross-product-free plan for *graph*.

    Cardinalities come from *estimator* using the same composition rule as
    the DP orderer (base rows x per-edge selectivities), so the DP winner is
    guaranteed to appear in — and be a cost-minimum of — this list.
    """
    names = sorted(graph.relations)
    if len(names) > MAX_RELATIONS_FOR_ENUMERATION:
        raise ValueError(
            f"plan enumeration supports at most "
            f"{MAX_RELATIONS_FOR_ENUMERATION} relations, got {len(names)}"
        )

    selectivity = {
        edge: estimator.join_selectivity(
            edge.left_relation,
            edge.left_attribute,
            edge.right_relation,
            edge.right_attribute,
        )
        for edge in graph.edges
    }

    def subset_rows(subset: frozenset[str]) -> float:
        rows = 1.0
        for name in subset:
            # Planner input: every relation in the join graph must be
            # ANALYZEd, so the strict KeyError is the right failure.
            rows *= estimator.scan_cardinality(name)  # repolint: disable=R006
        for edge, sel in selectivity.items():
            if edge.left_relation in subset and edge.right_relation in subset:
                rows *= sel
        return rows

    plans: dict[frozenset[str], list[Plan]] = {}
    for name in names:
        plans[frozenset({name})] = [
            ScanPlan(name, estimator.scan_cardinality(name))  # repolint: disable=R006
        ]

    for size in range(2, len(names) + 1):
        for subset_tuple in combinations(names, size):
            subset = frozenset(subset_tuple)
            rows = subset_rows(subset)
            alternatives: list[Plan] = []
            members = sorted(subset)
            seen_splits = set()
            for split_size in range(1, size):
                for right_tuple in combinations(members, split_size):
                    right_set = frozenset(right_tuple)
                    left_set = subset - right_set
                    # Each unordered split once, with a canonical orientation;
                    # build/probe role choice is the cost model's concern.
                    key = frozenset((left_set, right_set))
                    if key in seen_splits:
                        continue
                    seen_splits.add(key)
                    if left_set not in plans or right_set not in plans:
                        continue
                    crossing = graph.crossing_edges(left_set, right_set)
                    if len(crossing) != 1:
                        continue
                    edge = crossing[0]
                    for left_plan in plans[left_set]:
                        for right_plan in plans[right_set]:
                            alternatives.append(
                                JoinPlan(
                                    left=left_plan,
                                    right=right_plan,
                                    left_attribute=edge.qualified_left(),
                                    right_attribute=edge.qualified_right(),
                                    estimated_rows=rows,
                                )
                            )
            if alternatives:
                plans[subset] = alternatives

    full = frozenset(names)
    if full not in plans:
        raise RuntimeError("no connected plan covers all relations")
    return plans[full]
