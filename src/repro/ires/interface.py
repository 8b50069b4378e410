"""IReS Interface module: query + policy intake (Figure 1, first box).

Receives "information on data and operators": parses the SQL, binds it
against the federation catalog, checks that every referenced base table
is deployed, and hands a validated :class:`QueryRequest` to the rest of
the pipeline.

Prepared queries
----------------

Tenants issue a few query shapes with small parameter domains, so the
same rendered SQL arrives again and again.  :class:`Interface` keeps the
optimized plan and table tuple of the last :data:`PREPARED_CAPACITY`
distinct SQL strings and serves a repeat as a lookup.  Sharing is safe:
plans are trees of frozen dataclasses, the catalog and deployment are
fixed for the platform's lifetime, and the per-call :class:`UserPolicy`
is attached after the lookup.  A query that fails to parse, bind or
validate is never cached; it raises again on every submission.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from repro.common.errors import PlanError
from repro.ires.deployment import Deployment
from repro.ires.policy import UserPolicy
from repro.plans.binder import plan_sql
from repro.plans.catalog import Catalog
from repro.plans.logical import LogicalPlan, Scan
from repro.plans.optimizer import optimize

#: Distinct rendered SQL strings whose plans one :class:`Interface`
#: keeps.  The three MIDAS query templates render 346 distinct strings
#: over their whole parameter domains.
PREPARED_CAPACITY = 512


@dataclass(frozen=True)
class QueryRequest:
    """A validated submission."""

    sql: str
    plan: LogicalPlan
    tables: tuple[str, ...]
    policy: UserPolicy


def _prepare(
    catalog: Catalog, deployment: Deployment, sql: str
) -> tuple[LogicalPlan, tuple[str, ...]]:
    """Parse, bind, optimize and validate one SQL string."""
    plan = optimize(plan_sql(sql, catalog))
    tables = tuple(
        sorted({node.table_name.lower() for node in plan.walk() if isinstance(node, Scan)})
    )
    if not tables:
        raise PlanError("query references no base tables")
    for table in tables:
        deployment.site_of(table)  # raises if not deployed
    return plan, tables


class Interface:
    """Front door of the platform."""

    def __init__(self, catalog: Catalog, deployment: Deployment):
        #: SQL -> (plan, tables); ``cache_info()`` reports its counters.
        self.prepared = lru_cache(maxsize=PREPARED_CAPACITY)(
            partial(_prepare, catalog, deployment)
        )

    def receive(self, sql: str, policy: UserPolicy | None = None) -> QueryRequest:
        """Validate one query submission (parsed once per distinct SQL)."""
        plan, tables = self.prepared(sql)
        return QueryRequest(sql, plan, tables, policy or UserPolicy())
