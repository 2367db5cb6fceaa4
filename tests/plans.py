"""Hand-built plans shared by the tests."""

from repro.lera.graph import LeraGraph
from repro.lera.plans import ideal_join_plan


def named_join(db, name: str) -> LeraGraph:
    """``A IdealJoin B`` on ``unique1`` with its one operator called
    *name*, so an operator fault can target this query alone."""
    join = ideal_join_plan(db.table("A"), db.table("B"),
                           "unique1", "unique1").node("join")
    plan = LeraGraph()
    plan.add_node(name, join.spec)
    plan.validate()
    return plan
