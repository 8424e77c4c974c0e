"""BI 3 — Tag evolution.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given a year and a month, for each Tag count the Messages carrying it
created in that month (``count_month1``) and in the following month
(``count_month2``), and compute ``diff = |count_month1 - count_month2|``.
Tags appearing in neither month are excluded.

Sort: diff descending, tag name ascending.  Limit 100.
Choke points: 2.4, 3.1, 3.2, 4.1, 4.3, 5.3, 6.1, 8.5.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.engine import group_count, scan_messages, sort_key, top_k
from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.util.dates import month_window

INFO = BiQueryInfo(
    3,
    "Tag evolution",
    ("2.4", "3.1", "3.2", "4.1", "4.3", "5.3", "6.1", "8.5"),
    from_spec_text=False,
)


class Bi3Row(NamedTuple):
    tag_name: str
    count_month1: int
    count_month2: int
    diff: int


def bi3_windows(
    year: int, month: int
) -> tuple[tuple[Any, Any], tuple[Any, Any]]:
    """The two consecutive month windows BI 3 compares (closed-open and
    contiguous: ``window1[1] == window2[0]``)."""
    window1 = month_window(year, month)
    if month == 12:
        window2 = month_window(year + 1, 1)
    else:
        window2 = month_window(year, month + 1)
    return window1, window2


def bi3(graph: SocialGraph, year: int, month: int) -> list[Bi3Row]:
    """Run BI 3 for the given month and its successor.

    One scan over the union window, classifying each message into its
    month at the aggregation key — the months are contiguous, so the
    union scan sees exactly the rows of the two per-month scans at half
    the scan cost, with a single ``(tag, month)`` hash aggregation.
    """
    window1, window2 = bi3_windows(year, month)
    split = window2[0]
    counts = group_count(
        (tag_id, message.creation_date >= split)
        for message in scan_messages(graph, window=(window1[0], window2[1]))
        for tag_id in message.tag_ids
    )

    top = top_k(
        INFO.limit, key=lambda r: sort_key((r.diff, True), (r.tag_name, False))
    )
    # Sorted tag ids fix the heap insertion order, so every graph
    # representation tallies identical
    # heap_inserts/heap_rejections/heap_evictions.
    for tag_id in sorted({tag_id for tag_id, _ in counts}):
        c1 = counts.get((tag_id, False), 0)
        c2 = counts.get((tag_id, True), 0)
        top.add(Bi3Row(graph.tags[tag_id].name, c1, c2, abs(c1 - c2)))
    return top.result()
