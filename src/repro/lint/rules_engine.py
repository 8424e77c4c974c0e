"""R2 — engine discipline.

PR 1 routed every read query through the instrumented operator layer
(:mod:`repro.engine`): scans push predicates into the store's secondary
indexes and tally their work into the per-query counters the power test
reports.  That layer is trivially bypassable — nothing stops a query
from iterating ``graph.posts.values()`` directly, silently escaping both
the pushdown and the instrumentation.  This rule makes the boundary
machine-checked for modules under ``repro/queries/``:

* no access to the store's ``_``-prefixed private index attributes
  (slug ``private-index``);
* no iteration of the raw entity/relation tables — ``graph.persons``,
  ``.posts``, ``.likes_edges``, … — or calls to the ``messages()``
  full-scan accessor (slug ``raw-store``).  Point access stays
  sanctioned: subscripts (``graph.persons[pid]``), ``.get()``,
  ``in`` membership tests and ``len()``;
* no import of :mod:`repro.graph.frozen` or :mod:`repro.graph.snapfile`
  (slug ``frozen-import``) — the frozen columnar layout and its mapped
  file form are engine-level optimisations, and a query that touches
  CSR arrays, ordinal maps or mapped column sections directly would
  produce layout-dependent results the frozen-vs-live differential
  cannot protect.  Queries see the snapshot only through
  the same ``SocialGraph`` accessor surface and engine operators as
  the live store.

The collection list lives in :mod:`repro.lint.spec` and is
cross-checked against ``SocialGraph.RAW_TABLES`` by the meta-tests.
"""

from __future__ import annotations

import ast

from repro.lint.base import FileContext
from repro.lint.diagnostics import Diagnostic
from repro.lint.spec import RAW_STORE_COLLECTIONS

RULE = "R2"

#: Variable names treated as the store in query code.
_STORE_NAMES = frozenset({"graph", "store"})


def _store_attribute(node: ast.AST) -> ast.Attribute | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _STORE_NAMES
    ):
        return node
    return None


def check_engine_discipline(ctx: FileContext) -> list[Diagnostic]:
    if not ctx.in_queries:
        return []
    found: list[Diagnostic] = []
    for node in ast.walk(ctx.tree):
        frozen_import = _frozen_import(node)
        if frozen_import is not None:
            found.append(
                ctx.diagnostic(
                    node, RULE, "frozen-import",
                    f"query code imports '{frozen_import}'; the frozen "
                    "columnar layout and its snapshot file are "
                    "engine-internal — write against SocialGraph "
                    "accessors and repro.engine operators, which take "
                    "the frozen fast path automatically",
                )
            )
            continue
        attr = _store_attribute(node)
        if attr is None:
            continue
        name = attr.attr
        if name.startswith("_") and not name.startswith("__"):
            found.append(
                ctx.diagnostic(
                    attr, RULE, "private-index",
                    f"query code reaches into the store's private index "
                    f"'{name}'; use a SocialGraph accessor or a "
                    "repro.engine operator",
                )
            )
            continue
        if name not in RAW_STORE_COLLECTIONS:
            continue
        if _is_sanctioned_use(ctx, attr):
            continue
        found.append(
            ctx.diagnostic(
                attr, RULE, "raw-store",
                f"raw store collection '{name}' used outside the engine; "
                "scan through repro.engine (scan_messages/scan_persons/"
                "scan_forums/scan_likes/...) so pushdown and "
                "instrumentation apply",
            )
        )
    return found


#: Engine-internal storage-layout modules queries must not import.
_LAYOUT_MODULES = ("repro.graph.frozen", "repro.graph.snapfile")


def _frozen_import(node: ast.AST) -> str | None:
    """The offending module path if ``node`` imports a layout module
    (:mod:`repro.graph.frozen` or :mod:`repro.graph.snapfile`)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            for banned in _LAYOUT_MODULES:
                if alias.name == banned or alias.name.startswith(banned + "."):
                    return alias.name
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        module = node.module
        for banned in _LAYOUT_MODULES:
            if module == banned or module.startswith(banned + "."):
                return module
        # ``from repro.graph import frozen`` smuggles the same module.
        if module == "repro.graph":
            for alias in node.names:
                for banned in _LAYOUT_MODULES:
                    if alias.name == banned.rsplit(".", 1)[1]:
                        return banned
    return None


def _is_sanctioned_use(ctx: FileContext, attr: ast.Attribute) -> bool:
    """Point lookups are fine; anything that can iterate rows is not."""
    parent = ctx.parent(attr)
    # graph.persons[pid]
    if isinstance(parent, ast.Subscript) and parent.value is attr:
        return True
    # pid in graph.persons  /  pid not in graph.persons
    if isinstance(parent, ast.Compare) and attr in parent.comparators:
        index = parent.comparators.index(attr)
        return isinstance(parent.ops[index], (ast.In, ast.NotIn))
    if isinstance(parent, ast.Attribute):
        # graph.persons.get(pid) — but .values()/.items()/.keys() is a scan.
        grand = ctx.parent(parent)
        if (
            parent.attr == "get"
            and isinstance(grand, ast.Call)
            and grand.func is parent
        ):
            return True
        return False
    # len(graph.persons) — a cardinality, not an iteration order.
    if (
        isinstance(parent, ast.Call)
        and attr in parent.args
        and isinstance(parent.func, ast.Name)
        and parent.func.id == "len"
    ):
        return True
    return False
