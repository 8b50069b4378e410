"""IReS Interface module: query + policy intake (Figure 1, first box).

Receives "information on data and operators": renders the query
template, parses the SQL, binds it against the federation catalog,
checks that every referenced base table is deployed, and hands a
validated :class:`QueryRequest` to the rest of the pipeline.

Prepared queries
----------------

Tenants issue a few query templates with small parameter domains, so
the same rendered SQL arrives again and again.  :class:`Interface`
keeps the optimized plan and table tuple of the last
:data:`PREPARED_CAPACITY` distinct SQL strings and serves a repeat as a
lookup that returns *the same plan object* (the enumerator's prefix
cache keys on plan identity).  Sharing is safe: plans are trees of
frozen dataclasses, the catalog and deployment are fixed for the
platform's lifetime, and the per-call :class:`UserPolicy` is attached
after the lookup.  A query that fails to render, parse, bind or
validate is never cached; it raises again on every submission.

A new parameter set costs a literal substitution, not a parse.  The
first time a template *text* arrives, the Interface plans it once for
each of two sentinel parameter sets drawn from the template's own
generator on a private stream, and walks the two optimized plans side
by side.  Where they differ only in :class:`Literal` nodes that each
hold exactly one parameter's value (same Python type, in both sets),
those nodes are the text's *slots* and the text gets a
:class:`PlanShape`.  A miss then rebuilds only the nodes on the slot
paths, sharing every other subtree with the shape's plan.  A text whose
renders differ in anything else (a date built from a year, a composed
LIKE pattern, an IN list) has no shape and stays on the SQL path, as
does any value whose rendering would not lex as one literal of its
slot's type: a value not exactly of that type (a ``bool`` or a
``float`` for an ``int``), a string holding ``'``, or a negative
integer.  Slots are ``int`` or ``str`` literals; a text whose
parameters render other literals keeps the SQL path.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any

from repro.common.errors import PlanError, ReproError
from repro.common.lru import LruCache
from repro.common.rng import RngStream
from repro.ires.deployment import Deployment
from repro.ires.policy import UserPolicy
from repro.plans.binder import plan_sql
from repro.plans.catalog import Catalog
from repro.plans.logical import LogicalPlan, Scan
from repro.plans.optimizer import optimize
from repro.relational.expressions import Literal
from repro.tpch.queries import QueryTemplate

#: Distinct rendered SQL strings whose plans one :class:`Interface`
#: keeps.  The three MIDAS query templates render 346 distinct strings
#: over their whole parameter domains.
PREPARED_CAPACITY = 512

#: Parameter-set draws a template's generator gets to produce two
#: usable sentinel sets before its text is left on the SQL path.
SENTINEL_DRAWS = 64


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


#: Literal types a slot may have (those :func:`_lexes_as_one_literal`
#: knows how the lexer reads).
SLOT_TYPES = (int, str)


def _lexes_as_one_literal(value: Any, kind: type) -> bool:
    """Whether ``value`` rendered by ``str.format`` lexes back as exactly
    one literal equal to it, of slot type ``kind``.

    Strings sit between quotes in the template (the sentinels proved
    it), so only a ``'`` can end them early.  An integer lexes as bare
    digits; a sign would parse as an operator.
    """
    if type(value) is not kind:
        return False
    return "'" not in value if kind is str else value >= 0


@dataclass(frozen=True)
class PlanShape:
    """One template text's optimized plan with its literal slots."""

    plan: LogicalPlan
    tables: tuple[str, ...]
    #: A trie over the plan: each key is a dataclass field name or a
    #: tuple index, each leaf the name of the parameter whose value the
    #: :class:`Literal` at that path holds.
    slots: dict
    #: Parameter name -> the exact Python type of its literal.
    kinds: dict[str, type]

    def bind(self, params: dict) -> LogicalPlan | None:
        """The plan with ``params`` substituted, or ``None`` when a value
        would not render as one literal of its slot's type."""
        for name, kind in self.kinds.items():
            if not _lexes_as_one_literal(params[name], kind):
                return None
        return _substitute(self.plan, self.slots, params)


def _substitute(node: Any, trie: dict | str, params: dict) -> Any:
    if isinstance(trie, str):
        return Literal(params[trie])
    if isinstance(node, tuple):
        items = list(node)
        for index, below in trie.items():
            items[index] = _substitute(items[index], below, params)
        return tuple(items)
    return replace(
        node,
        **{name: _substitute(getattr(node, name), below, params) for name, below in trie.items()},
    )


def _referenced(text: str) -> set[str] | None:
    """Parameter names ``text`` formats plainly (``{name}``); ``None``
    when any field uses indexing, attributes, a conversion or a spec."""
    names = set()
    for _literal, name, spec, conversion in string.Formatter().parse(text):
        if name is None:
            continue
        if not name.isidentifier() or spec or conversion:
            return None
        names.add(name)
    return names


def _distinct(values: list) -> bool:
    return all(a != b for i, a in enumerate(values) for b in values[i + 1 :])


def _sentinels(template: QueryTemplate, names: set[str]) -> tuple[dict, dict] | None:
    """Two parameter sets from the template's generator (on a private
    stream) in which every referenced value differs across the sets and
    no two values of one set are equal."""
    rng = RngStream(0, "ires", "interface", "sentinels")
    first = None
    for _ in range(SENTINEL_DRAWS):
        params = template.sample_params(rng)
        if not names <= params.keys():
            return None
        drawn = {name: params[name] for name in names}
        if not _distinct(list(drawn.values())):
            continue
        if first is None:
            first = drawn
        elif all(first[name] != drawn[name] for name in names):
            return first, drawn
    return None


def _owner(value: Any, params: dict) -> str | None:
    """The parameter whose value equals ``value`` with its type (one at
    most: no two sentinel values of a set are equal)."""
    return next((n for n, v in params.items() if type(v) is type(value) and v == value), None)


def _collect_slots(a: Any, b: Any, first: dict, second: dict, path: tuple, slots: list) -> bool:
    """Walk two plans in parallel; record each differing literal as
    ``(path, parameter)``.  ``False`` when anything else differs or a
    differing literal is not one parameter's value in both plans."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Literal):
        if type(a.value) is type(b.value) and a.value == b.value:
            return True
        owner = _owner(a.value, first)
        if (
            owner is None
            or owner != _owner(b.value, second)
            or type(a.value) not in SLOT_TYPES
        ):
            return False
        slots.append((path, owner))
        return True
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            _collect_slots(x, y, first, second, path + (i,), slots)
            for i, (x, y) in enumerate(zip(a, b))
        )
    if is_dataclass(a):
        return all(
            _collect_slots(
                getattr(a, f.name), getattr(b, f.name), first, second, path + (f.name,), slots
            )
            for f in fields(a)
        )
    return a == b


def _shape_of(
    catalog: Catalog, deployment: Deployment, template: QueryTemplate
) -> PlanShape | None:
    """The :class:`PlanShape` of ``template``'s text, or ``None`` when
    the text must stay on the SQL path."""
    names = _referenced(template.template)
    if not names:
        return None
    sentinels = _sentinels(template, names)
    if sentinels is None:
        return None
    first, second = sentinels
    try:
        plan, tables = _prepare(catalog, deployment, template.render(first))
        other, _tables = _prepare(catalog, deployment, template.render(second))
    except ReproError:
        return None  # the SQL path raises it for every real submission
    found: list[tuple[tuple, str]] = []
    if not _collect_slots(plan, other, first, second, (), found):
        return None
    if {name for _path, name in found} != names:
        return None  # a parameter with no literal could change the structure
    slots: dict = {}
    for path, name in found:
        node = slots
        for step in path[:-1]:
            node = node.setdefault(step, {})
        node[path[-1]] = name
    return PlanShape(plan, tables, slots, {name: type(first[name]) for name in names})


class Interface:
    """Front door of the platform."""

    def __init__(self, catalog: Catalog, deployment: Deployment):
        self.catalog = catalog
        self.deployment = deployment
        #: SQL -> (plan, tables), the most recently used entries.
        self.prepared = LruCache(PREPARED_CAPACITY)
        #: Template text -> its :class:`PlanShape`, or ``None`` for a
        #: text on the SQL path.  One entry per text, however many
        #: templates share it.
        self.shapes: dict[str, PlanShape | None] = {}

    def shape(self, template: QueryTemplate) -> PlanShape | None:
        text = template.template
        if text not in self.shapes:
            self.shapes[text] = _shape_of(self.catalog, self.deployment, template)
        return self.shapes[text]

    def receive(
        self, template: QueryTemplate, params: dict, policy: UserPolicy | None = None
    ) -> QueryRequest:
        """Render and validate one query submission: a lookup for a seen
        SQL, a literal substitution for a new parameter set of a shaped
        template, a parse otherwise."""
        sql = template.render(params)
        prepared = self.prepared.get(sql)
        if prepared is None:
            shape = self.shape(template)
            plan = None if shape is None else shape.bind(params)
            if plan is None:
                prepared = _prepare(self.catalog, self.deployment, sql)
            else:
                prepared = (plan, shape.tables)
            self.prepared.put(sql, prepared)
        plan, tables = prepared
        return QueryRequest(sql, plan, tables, policy or UserPolicy())
