"""Plan rendering — Figure 1's simple and extended views, in ASCII.

``render_simple`` prints the operator DAG (one box per operator, with
trigger mode, instance count and edge kinds); ``render_extended``
expands a node into its per-instance view, the way Figure 1 unfolds
``join`` into ``join_1 .. join_n`` with an activation queue each.
"""

from __future__ import annotations

from repro.lera.activation import TRIGGERED
from repro.lera.graph import LeraGraph


def _describe(node) -> str:
    spec = node.spec
    extras = []
    algorithm = getattr(spec, "algorithm", None)
    if algorithm is not None:
        extras.append(algorithm)
    grain = getattr(spec, "grain", 1)
    if grain > 1:
        extras.append(f"grain={grain}")
    group_by = getattr(spec, "group_by", None)
    if group_by is not None:
        extras.append(f"group by {group_by}")
    predicate = getattr(spec, "predicate", None)
    if predicate is not None and predicate.description != "true":
        extras.append(predicate.description)
    suffix = f" [{', '.join(extras)}]" if extras else ""
    return (f"{node.name} ({node.trigger_mode}, x{node.instances})"
            f"{suffix}")


def render_simple(plan: LeraGraph) -> str:
    """The simple view: chains in dataflow order, annotated edges.

    Pipeline edges are drawn as ``--tuples-->``, materialized
    dependencies as ``==stored==>`` between chains.
    """
    chains = plan.chains()
    dependencies = plan.chain_dependencies(chains)
    by_id = {chain.chain_id: chain for chain in chains}
    lines = []
    for chain in chains:
        parts = [_describe(node) for node in chain.nodes]
        lines.append(f"{chain.name}: " + "  --tuples-->  ".join(parts))
        for dependency in sorted(dependencies[chain.chain_id]):
            lines.append(f"     ^== stored result of "
                         f"{by_id[dependency].name}")
    return "\n".join(lines)


#: Instance lines the extended view shows of one operator before it
#: elides the middle.
EXTENDED_INSTANCES = 8


def render_extended(plan: LeraGraph, node_name: str) -> str:
    """The extended view of one operator: one line per instance.

    Shows each instance's queue kind and (for triggered operators) the
    fragment it owns, eliding the middle when there are more than
    :data:`EXTENDED_INSTANCES` instances — the ``...`` of Figure 1.
    """
    node = plan.node(node_name)
    spec = node.spec
    fragments = (getattr(spec, "fragments", None)
                 or getattr(spec, "outer_fragments", None)
                 or getattr(spec, "stored_fragments", None)
                 or getattr(spec, "target_fragments", None))
    queue_kind = ("trigger" if node.trigger_mode == TRIGGERED
                  else "tuple")
    lines = [f"{node.name}: {node.instances} instances, "
             f"one {queue_kind} queue each"]

    def line_of(i: int) -> str:
        detail = ""
        if fragments is not None:
            fragment = fragments[i]
            detail = (f"  <- {fragment.relation_name}[{fragment.index}] "
                      f"({fragment.cardinality} tuples)")
        return f"  {node.name}_{i + 1} |{queue_kind} queue|{detail}"

    count = node.instances
    if count <= EXTENDED_INSTANCES:
        lines.extend(line_of(i) for i in range(count))
    else:
        head = EXTENDED_INSTANCES // 2
        lines.extend(line_of(i) for i in range(head))
        lines.append(f"  ... {count - EXTENDED_INSTANCES} more instances ...")
        lines.extend(line_of(i) for i in range(
            count - (EXTENDED_INSTANCES - head), count))
    return "\n".join(lines)


def render(plan: LeraGraph, extended: bool = False) -> str:
    """Render the whole plan; with *extended*, expand every node."""
    parts = [render_simple(plan)]
    if extended:
        for node in plan.nodes:
            parts.append("")
            parts.append(render_extended(plan, node.name))
    return "\n".join(parts)
