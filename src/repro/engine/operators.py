"""Reusable query operators with predicate pushdown and instrumentation.

The BI and Interactive read queries are compositions of a handful of
physical operators:

* :func:`scan_messages` — Message access with pushdown of temporal
  (creationDate window), tag, and creator predicates into the store's
  secondary indexes (CP-2.2 late projection / CP-3.2 dimensional
  clustering / CP-3.3 scattered index access);
* :func:`scan_forum_posts` — a Forum's Posts through the forum→post
  date index;
* :func:`expand` — adjacency flat-map (CP-2.3 index-based joins);
* :func:`group_count` / :func:`group_agg` — hash aggregation
  (CP-1.2 / CP-1.4);
* :func:`top_k` — the bounded-heap ORDER BY … LIMIT accumulator
  (CP-1.3 top-k pushdown), unifying :mod:`repro.util.topk`.

Every operator tallies its work into :mod:`repro.engine.stats`, so a
driver run can report rows scanned, the access path taken, and heap
activity per query.  Access-path selection honours the store's
``use_indexes`` / ``use_date_index`` / ``use_tag_index`` ablation flags:
with an index disabled the same operator silently degrades to a
filtered full scan, so ablation runs return identical rows.

When tracing is enabled (:mod:`repro.obs`), every operator additionally
opens a leaf ``operator`` span recording its access path and row count.
Scan/expand spans cover the *generator's lifetime* (opened at the first
row pulled, closed when the consumer exhausts or drops the iterator),
so their duration includes consumer time between pulls — the right
shape for seeing where a query's time goes, documented in
``docs/OBSERVABILITY.md``.  With tracing disabled the per-operator cost
is a single ``enabled`` check.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import compress, repeat
from typing import Any, Callable, Iterable, Iterator, TypeVar, cast

from repro.engine.stats import counters
from repro.obs.spans import Span, tracer
from repro.graph.frozen import FrozenGraph
from repro.graph.store import SocialGraph
from repro.schema.entities import Forum, Message, Person, Post
from repro.schema.relations import Likes
from repro.util.dates import DateTime
from repro.util.topk import TopK, sort_key

__all__ = [
    "scan_messages",
    "scan_forum_posts",
    "scan_persons",
    "scan_forums",
    "scan_likes",
    "expand",
    "group_count",
    "group_agg",
    "top_k",
    "sort_key",
]

T = TypeVar("T")
K = TypeVar("K")
S = TypeVar("S")

#: (start, end) closed-open DateTime window; either bound may be None.
Window = "tuple[DateTime | None, DateTime | None]"


def _bounds(
    window: tuple[DateTime | None, DateTime | None] | None,
) -> tuple[DateTime | None, DateTime | None]:
    if window is None:
        return None, None
    start, end = window
    return start, end


def _in_bounds(
    ts: DateTime, start: DateTime | None, end: DateTime | None
) -> bool:
    return (start is None or ts >= start) and (end is None or ts < end)


def _operator_span(name: str, **attrs: Any) -> Span | None:
    """An ``operator`` leaf span, or ``None`` when tracing is disabled
    (the disabled path is one attribute check — the engine's hot-loop
    budget)."""
    trace = tracer()
    if not trace.enabled:
        return None
    return trace.open_span(name, kind="operator", **attrs)


def _close_operator_span(span: Span | None, rows: int) -> None:
    if span is not None:
        span.attrs["rows"] = rows
        span.close()


def scan_messages(
    graph: SocialGraph,
    *,
    window: tuple[DateTime | None, DateTime | None] | None = None,
    tag: int | None = None,
    creator: int | None = None,
    kind: str | None = None,
    language: "Iterable[str] | None" = None,
) -> Iterator[Message]:
    """Scan Messages, pushing the given predicates into the best index.

    ``window`` is a closed-open ``[start, end)`` creationDate interval
    (either bound ``None``); ``tag`` a Tag id the Message must carry;
    ``creator`` the creating Person's id; ``kind`` restricts to
    ``"post"`` or ``"comment"``; ``language`` keeps only Messages whose
    BI-18 language (a Comment's is its root Post's) is in the given
    set.  Access-path order: creator adjacency, tag postings
    (date-bisected), month buckets, full scan.  All remaining
    predicates are applied as filters, so every path returns the same
    rows; ``rows_scanned`` counts the rows produced after filtering on
    every path.  On a frozen snapshot the language predicate runs over
    the dictionary-encoded root-language code column (integer-set
    membership in C via ``map`` + ``compress``) instead of per-row
    root-post chasing.
    """
    start, end = _bounds(window)
    languages = None if language is None else frozenset(language)
    stats = counters()
    if creator is not None:
        if kind == "post":
            source: Iterable[Message] = graph.posts_by(creator)
        elif kind == "comment":
            source = graph.comments_by(creator)
        else:
            source = graph.messages_by(creator)
        if graph.use_indexes:
            stats.index_scans += 1
            access = "creator-index"
        else:
            stats.full_scans += 1
            access = "full"
        span = _operator_span("scan_messages", access=access)
        produced = 0
        try:
            for message in source:
                if not _in_bounds(message.creation_date, start, end):
                    continue
                if tag is not None and tag not in message.tag_ids:
                    continue
                if (
                    languages is not None
                    and graph.language_of_message(message) not in languages
                ):
                    continue
                produced += 1
                yield message
        finally:
            stats.rows_scanned += produced
            _close_operator_span(span, produced)
        return

    if tag is not None:
        if graph.use_indexes and graph.use_tag_index:
            stats.index_scans += 1
            access = "tag-index"
        else:
            stats.full_scans += 1
            access = "full"
        span = _operator_span("scan_messages", access=access)
        produced = 0
        try:
            for message in graph.messages_with_tag_in_window(tag, start, end):
                if kind == "post" and message.is_comment:
                    continue
                if kind == "comment" and not message.is_comment:
                    continue
                if (
                    languages is not None
                    and graph.language_of_message(message) not in languages
                ):
                    continue
                produced += 1
                yield message
        finally:
            stats.rows_scanned += produced
            _close_operator_span(span, produced)
        return

    if (start is not None or end is not None) and isinstance(
        graph, FrozenGraph
    ):
        # Frozen fast path: bisect the int64 date columns and yield the
        # ``(creationDate, id)``-sorted object lists by contiguous slice
        # — no month-bucket walk, no boundary re-checks.  Rows are
        # accounted per slice (frozen scans are consumed whole by every
        # query); the counter names and values match the live date-index
        # path exactly.
        stats.index_scans += 1
        span = _operator_span("scan_messages", access="frozen-date-column")
        produced = 0
        try:
            if languages is None:
                for objs, dates in graph.date_slabs(kind):
                    lo = 0 if start is None else bisect_left(dates, start)
                    hi = len(dates) if end is None else bisect_left(dates, end)
                    if lo < hi:
                        produced += hi - lo
                        yield from objs[lo:hi]
            else:
                # Language pushdown over the dictionary-encoded root-
                # language code column: integer-set membership via
                # ``map`` + ``compress``, all C-level per slab slice.
                wanted = graph.language_codes(languages)
                for objs, dates, codes in graph.language_slabs(kind):
                    lo = 0 if start is None else bisect_left(dates, start)
                    hi = len(dates) if end is None else bisect_left(dates, end)
                    if lo >= hi or not wanted:
                        continue
                    selected = list(
                        compress(
                            objs[lo:hi],
                            map(wanted.__contains__, codes[lo:hi]),
                        )
                    )
                    produced += len(selected)
                    yield from selected
        finally:
            stats.rows_scanned += produced
            _close_operator_span(span, produced)
        return

    if (start is not None or end is not None) and (
        graph.use_indexes and graph.use_date_index
    ):
        stats.index_scans += 1
        span = _operator_span("scan_messages", access="date-index")
        produced = 0
        try:
            for message in graph.messages_in_window(start, end, kind):
                if (
                    languages is not None
                    and graph.language_of_message(message) not in languages
                ):
                    continue
                produced += 1
                yield message
        finally:
            stats.rows_scanned += produced
            _close_operator_span(span, produced)
        return

    stats.full_scans += 1
    span = _operator_span("scan_messages", access="full")
    if kind == "post":
        source = graph.posts.values()
    elif kind == "comment":
        source = graph.comments.values()
    else:
        source = graph.messages()
    produced = 0
    try:
        for message in source:
            if not _in_bounds(message.creation_date, start, end):
                continue
            if (
                languages is not None
                and graph.language_of_message(message) not in languages
            ):
                continue
            produced += 1
            yield message
    finally:
        stats.rows_scanned += produced
        _close_operator_span(span, produced)


def scan_forum_posts(
    graph: SocialGraph,
    forum_id: int,
    *,
    window: tuple[DateTime | None, DateTime | None] | None = None,
) -> Iterator[Post]:
    """Scan one Forum's Posts, date window pushed into the forum index."""
    start, end = _bounds(window)
    stats = counters()
    if graph.use_indexes and graph.use_date_index:
        stats.index_scans += 1
        access = "forum-date-index"
        source: Iterable[Post] = graph.posts_in_forum_window(
            forum_id, start, end
        )
    elif graph.use_indexes:
        stats.index_scans += 1
        access = "forum-index"
        source = (
            p
            for p in graph.posts_in_forum(forum_id)
            if _in_bounds(p.creation_date, start, end)
        )
    else:
        stats.full_scans += 1
        access = "full"
        source = (
            p
            for p in graph.posts_in_forum(forum_id)
            if _in_bounds(p.creation_date, start, end)
        )
    span = _operator_span("scan_forum_posts", access=access)
    produced = 0
    try:
        for post in source:
            produced += 1
            yield post
    finally:
        stats.rows_scanned += produced
        _close_operator_span(span, produced)


def _counted_scan(name: str, source: Iterable[T]) -> Iterator[T]:
    """Full-table scan bookkeeping shared by the entity scan operators."""
    stats = counters()
    stats.full_scans += 1
    span = _operator_span(name, access="full")
    produced = 0
    try:
        for item in source:
            produced += 1
            yield item
    finally:
        stats.rows_scanned += produced
        _close_operator_span(span, produced)


def scan_persons(
    graph: SocialGraph, *, country: int | None = None
) -> Iterator[Person]:
    """Scan Persons; ``country`` restricts to that Country's residents.

    The instrumented counterpart of ``graph.persons.values()`` — query
    modules must come through here so the scan shows up in the
    per-query operator counters (and so R2 of ``repro.lint`` can hold
    the engine boundary).  The country pushdown (isLocatedIn City
    isPartOf Country, served by the place adjacency indexes — BI 21's
    zombie hunt) yields residents in sorted-id order; the unrestricted
    scan walks the sorted person-ordinal column on a frozen
    snapshot.  Iteration order never changes rows — every BI/IC sort
    is a total order (lint R4).
    """
    if country is not None:
        return _scan_persons_in_country(graph, country)
    if isinstance(graph, FrozenGraph):
        persons = graph.persons
        return _counted_scan(
            "scan_persons", (persons[pid] for pid in graph._person_ids)
        )
    return _counted_scan("scan_persons", graph.persons.values())


def _scan_persons_in_country(
    graph: SocialGraph, country: int
) -> Iterator[Person]:
    stats = counters()
    if graph.use_indexes:
        stats.index_scans += 1
        access = "country-index"
    else:
        stats.full_scans += 1
        access = "full"
    span = _operator_span("scan_persons", access=access)
    persons = graph.persons
    produced = 0
    try:
        for person_id in sorted(graph.persons_in_country(country)):
            produced += 1
            yield persons[person_id]
    finally:
        stats.rows_scanned += produced
        _close_operator_span(span, produced)


def scan_forums(graph: SocialGraph) -> Iterator[Forum]:
    """Scan every Forum, tallying the full-scan into the counters.  On
    a frozen snapshot the scan walks the sorted forum-ordinal
    column."""
    if isinstance(graph, FrozenGraph):
        forums = graph.forums
        return _counted_scan(
            "scan_forums", (forums[fid] for fid in graph._forum_ids)
        )
    return _counted_scan("scan_forums", graph.forums.values())


def scan_likes(graph: SocialGraph) -> Iterator[Likes]:
    """Scan every likes edge, tallying the full-scan into the counters."""
    return _counted_scan("scan_likes", graph.likes_edges)


def expand(
    sources: Iterable[S], neighbors: Callable[[S], Iterable[T]]
) -> Iterator[tuple[S, T]]:
    """Adjacency flat-map: yield ``(source, neighbor)`` for every edge.

    ``neighbors`` is any store adjacency accessor (``friends_of``,
    ``replies_of``, ``members_of_forum``, …).  Tallies the number of
    edges followed (CP-2.3 index-based join work).

    When ``neighbors`` is a frozen snapshot's ``friends_of``, the pairs
    come from contiguous knows-CSR offset slices instead of per-object
    adjacency-dict iteration — pair construction happens in C
    (``zip`` + ``repeat`` over an ``array('q')`` slice), with the same
    pair order and the same ``edges_expanded`` tally.
    """
    bound = getattr(neighbors, "__self__", None)
    if (
        isinstance(bound, FrozenGraph)
        and getattr(neighbors, "__name__", "") == "friends_of"
    ):
        return cast(
            "Iterator[tuple[S, T]]",
            _expand_frozen_knows(bound, cast("Iterable[int]", sources)),
        )
    return _expand_generic(sources, neighbors)


def _expand_generic(
    sources: Iterable[S], neighbors: Callable[[S], Iterable[T]]
) -> Iterator[tuple[S, T]]:
    stats = counters()
    span = _operator_span("expand")
    followed = 0
    try:
        for source in sources:
            for item in neighbors(source):
                followed += 1
                yield source, item
    finally:
        stats.edges_expanded += followed
        _close_operator_span(span, followed)


def _expand_frozen_knows(
    graph: FrozenGraph, sources: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """The knows-CSR expand fast path (one offset slice per source)."""
    stats = counters()
    span = _operator_span("expand", access="frozen-knows-csr")
    offsets = graph._knows_offsets
    targets = graph._knows_targets
    ordinal_of = graph._person_ord
    followed = 0
    try:
        for source in sources:
            ordinal = ordinal_of.get(source)
            if ordinal is None:
                continue
            lo = offsets[ordinal]
            hi = offsets[ordinal + 1]
            if lo == hi:
                continue
            followed += hi - lo
            yield from zip(repeat(source, hi - lo), targets[lo:hi])
    finally:
        stats.edges_expanded += followed
        _close_operator_span(span, followed)


def group_count(keys: Iterable[K]) -> Counter[K]:
    """Hash-aggregate COUNT(*) per key (CP-1.2 group-by).

    An ``array`` key column (frozen ordinal ranges) is materialized via
    ``tolist()`` first, which keeps the whole count on
    ``Counter``'s C fast path for sequences.
    """
    span = _operator_span("group_count")
    if isinstance(keys, (array, memoryview)):
        keys = cast("Iterable[K]", keys.tolist())
    groups = Counter(keys)
    counters().groups_created += len(groups)
    _close_operator_span(span, len(groups))
    return groups


def group_agg(
    items: Iterable[T],
    key: Callable[[T], K],
    zero: Callable[[], Any],
    fold: Callable[[Any, T], None],
) -> dict[K, Any]:
    """Hash-aggregate with a mutable accumulator per group.

    ``zero`` builds a fresh accumulator, ``fold(acc, item)`` updates it
    in place — the shape every multi-measure BI group-by uses.
    """
    span = _operator_span("group_agg")
    groups: dict[K, Any] = {}
    for item in items:
        k = key(item)
        acc = groups.get(k)
        if acc is None:
            acc = groups[k] = zero()
        fold(acc, item)
    counters().groups_created += len(groups)
    _close_operator_span(span, len(groups))
    return groups


class _CountingTopK(TopK[T]):
    """A :class:`TopK` that tallies heap activity into the engine stats."""

    def add(self, item: T) -> None:
        stats = counters()
        stats.heap_inserts += 1
        key = self._key(item)
        if self._threshold is not None and not key < self._threshold:
            stats.heap_rejections += 1
            return
        self._buffer.append((key, item))
        if len(self._buffer) >= self._capacity:
            self._compact()

    def _compact(self) -> None:
        before = len(self._buffer)
        super()._compact()
        dropped = before - len(self._buffer)
        if dropped:
            counters().heap_evictions += dropped


def top_k(limit: int, key: Callable[[T], Any]) -> TopK[T]:
    """An ORDER BY … LIMIT accumulator with eviction instrumentation.

    The single entry point for query result limiting (CP-1.3): behaves
    exactly like :class:`repro.util.topk.TopK` but reports inserts,
    threshold rejections and compaction evictions.
    """
    return _CountingTopK(limit, key=key)
