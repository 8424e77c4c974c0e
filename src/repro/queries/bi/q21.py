"""BI 21 — Zombies in a country (spec page readable — implemented verbatim).

Find zombies in a given Country: Persons created before ``end_date``
averaging [0, 1) Messages per month between their profile creation and
``end_date``, with partial months on both ends counting as one month
(a creation of Jan 31 and an end of Mar 1 span 3 months).  For each
zombie compute:

* ``zombieLikeCount`` — likes received from *other* zombies,
* ``totalLikeCount`` — all likes received,
* ``zombieScore = zombieLikeCount / totalLikeCount`` (0.0 when the total
  is 0),

counting only likes from profiles created before ``end_date``.

Sort: zombie score descending, zombie id ascending.  Limit 100.
Choke points: 1.2, 2.1, 2.3, 2.4, 3.2, 3.3, 5.1, 5.3, 8.2, 8.4, 8.5.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.graph.store import SocialGraph
from repro.queries.bi.base import BiQueryInfo
from repro.util.dates import (
    Date,
    DateTime,
    date_to_datetime,
    months_between_inclusive,
)
from repro.engine import scan_messages, scan_persons, sort_key, top_k

INFO = BiQueryInfo(
    21,
    "Zombies in a country",
    ("1.2", "2.1", "2.3", "2.4", "3.2", "3.3", "5.1", "5.3", "8.2", "8.4", "8.5"),
)


class Bi21Row(NamedTuple):
    zombie_id: int
    zombie_like_count: int
    total_like_count: int
    zombie_score: float


def bi21_scores(
    graph: SocialGraph, zombies: set[int], end_ts: DateTime
) -> Iterator[Bi21Row]:
    """The like-ratio phase: one row per zombie, yielded in
    sorted-zombie order (canonical across graph representations, so
    heap activity is reproducible)."""
    for zombie in sorted(zombies):
        zombie_likes = 0
        total_likes = 0
        for message in graph.messages_by(zombie):
            for like in graph.likes_of_message(message.id):
                liker = graph.persons[like.person_id]
                if liker.creation_date >= end_ts:
                    continue
                total_likes += 1
                if like.person_id in zombies and like.person_id != zombie:
                    zombie_likes += 1
        score = zombie_likes / total_likes if total_likes else 0.0
        yield Bi21Row(zombie, zombie_likes, total_likes, score)


def bi21(graph: SocialGraph, country: str, end_date: Date) -> list[Bi21Row]:
    """Run BI 21 for a country name and an end date."""
    country_id = graph.country_id(country)
    end_ts = date_to_datetime(end_date)

    zombies: set[int] = set()
    for person in scan_persons(graph, country=country_id):
        if person.creation_date >= end_ts:
            continue
        months = months_between_inclusive(person.creation_date, end_ts)
        message_count = sum(
            1
            for _ in scan_messages(
                graph, creator=person.id, window=(None, end_ts)
            )
        )
        if message_count / months < 1.0:
            zombies.add(person.id)

    top = top_k(
        INFO.limit,
        key=lambda r: sort_key((r.zombie_score, True), (r.zombie_id, False)),
    )
    for row in bi21_scores(graph, zombies, end_ts):
        top.add(row)
    return top.result()
