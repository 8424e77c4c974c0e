"""BI 9 — Forum with related tags.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given two TagClasses and a member threshold, consider Forums with
strictly more than ``threshold`` members.  For each such Forum count the
Posts carrying a Tag of the first class (``count1``) and of the second
class (``count2``); keep forums where either count is positive.

Sort: count1 descending, count2 descending, forum id ascending.
Limit 100.
Choke points: 1.2, 1.3, 2.1, 2.3, 2.4.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.engine import scan_forum_posts, scan_forums, sort_key, top_k
from repro.schema.entities import Forum

INFO = BiQueryInfo(
    9,
    "Forum with related tags",
    ("1.2", "1.3", "2.1", "2.3", "2.4"),
    from_spec_text=False,
)


class Bi9Row(NamedTuple):
    forum_id: int
    forum_title: str
    count1: int
    count2: int


def bi9_candidates(
    graph: SocialGraph,
    forums: Iterable[Forum],
    tags1: set[int],
    tags2: set[int],
    threshold: int,
) -> Iterator[Bi9Row]:
    """Qualifying rows among ``forums``: those with more than
    ``threshold`` members, with their counts of Posts tagged from
    ``tags1`` and ``tags2`` (forums with neither are dropped)."""
    for forum in forums:
        if len(graph.members_of_forum(forum.id)) <= threshold:
            continue
        count1 = count2 = 0
        for post in scan_forum_posts(graph, forum.id):
            post_tags = set(post.tag_ids)
            if post_tags & tags1:
                count1 += 1
            if post_tags & tags2:
                count2 += 1
        if count1 or count2:
            yield Bi9Row(forum.id, forum.title, count1, count2)


def bi9(
    graph: SocialGraph, tag_class1: str, tag_class2: str, threshold: int
) -> list[Bi9Row]:
    """Run BI 9 for two tag class names and a forum-size threshold."""
    tags1 = set(graph.tags_of_class(graph.tagclass_id(tag_class1)))
    tags2 = set(graph.tags_of_class(graph.tagclass_id(tag_class2)))

    top = top_k(
        INFO.limit,
        key=lambda r: sort_key(
            (r.count1, True), (r.count2, True), (r.forum_id, False)
        ),
    )
    for row in bi9_candidates(graph, scan_forums(graph), tags1, tags2, threshold):
        top.add(row)
    return top.result()
