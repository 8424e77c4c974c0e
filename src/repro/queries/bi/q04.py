"""BI 4 — Popular topics in a country.

Reconstructed from the GRADES-NDA 2018 first draft (figure-embedded in
the supplied spec — see DESIGN.md).  Semantics implemented:

Given a TagClass and a Country, find Forums whose moderator is located
in the Country (city isPartOf country) and count each Forum's Posts that
carry a Tag whose direct type is the given TagClass.  Forums without
such posts are excluded.

Sort: post count descending, forum id ascending.  Limit 20.
Choke points: 1.1, 1.2, 1.3, 2.1, 2.2, 2.4, 3.3, 5.3.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.engine import scan_forum_posts, scan_forums, sort_key, top_k
from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.schema.entities import Forum
from repro.util.dates import DateTime

INFO = BiQueryInfo(
    4,
    "Popular topics in a country",
    ("1.1", "1.2", "1.3", "2.1", "2.2", "2.4", "3.3"),
    limit=20,
    from_spec_text=False,
)


class Bi4Row(NamedTuple):
    forum_id: int
    forum_title: str
    forum_creation_date: DateTime
    moderator_id: int
    post_count: int


def bi4_candidates(
    graph: SocialGraph,
    forums: Iterable[Forum],
    class_tags: set[int],
    country_id: int,
) -> Iterator[Bi4Row]:
    """Qualifying rows among ``forums``: those whose moderator lives in
    Country ``country_id``, with their count of Posts tagged from
    ``class_tags`` (forums with none are dropped)."""
    for forum in forums:
        moderator = graph.persons.get(forum.moderator_id)
        if moderator is None:
            continue
        city = graph.places[moderator.city_id]
        if city.part_of != country_id:
            continue
        post_count = sum(
            1
            for post in scan_forum_posts(graph, forum.id)
            if class_tags.intersection(post.tag_ids)
        )
        if post_count:
            yield Bi4Row(
                forum.id,
                forum.title,
                forum.creation_date,
                forum.moderator_id,
                post_count,
            )


def bi4(graph: SocialGraph, tag_class: str, country: str) -> list[Bi4Row]:
    """Run BI 4 for a tag class name and a country name."""
    country_id = graph.country_id(country)
    class_id = graph.tagclass_id(tag_class)
    class_tags = set(graph.tags_of_class(class_id))

    top = top_k(
        INFO.limit, key=lambda r: sort_key((r.post_count, True), (r.forum_id, False))
    )
    for row in bi4_candidates(graph, scan_forums(graph), class_tags, country_id):
        top.add(row)
    return top.result()
