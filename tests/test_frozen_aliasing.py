"""The snapshot-aliasing invariant, end to end (R6's dynamic twin).

``FrozenGraph`` adopts the live store's tables *by reference*; freezing
stays cheap and snapshots stay consistent only if every store mutator
edits those tables in place — a mutator that rebinds a table (the old
filtered-list-rebind idiom) silently forks the snapshot from the live
store: the frozen view keeps serving the stale object while the store
moves on.

The tests here (1) pin the identity contract across a freeze +
``delete_post`` cycle, and (2) demonstrate the failure mode: an
*injected* rebinding delete visibly breaks the identity assertions
dynamically, while ``repro.lint`` flags the same code statically — the
acceptance pairing for the R6 analyzer.
"""

from __future__ import annotations

from repro.graph.frozen import FreezeManager, freeze
from repro.lint import lint_source

from tests.builders import GraphBuilder, ts


def _loaded_builder() -> tuple[GraphBuilder, int, int, int]:
    b = GraphBuilder()
    author = b.person()
    reader = b.person(first_name="Bob")
    forum = b.forum(moderator=author)
    b.member(forum, author)
    b.member(forum, reader)
    doomed = b.post(author, forum, created=ts(3, 1))
    b.post(author, forum, created=ts(3, 2))
    b.like(reader, doomed)
    return b, forum, doomed, author


class TestFrozenAliasingRegression:
    def test_snapshot_shares_live_tables_by_identity(self):
        b, forum, doomed, _ = _loaded_builder()
        snapshot = freeze(b.graph)
        assert snapshot.posts is b.graph.posts
        assert snapshot.forums is b.graph.forums
        assert (
            snapshot._forum_posts_by_date is b.graph._forum_posts_by_date
        )

    def test_delete_post_keeps_views_on_live_tables(self):
        """Freeze, delete, refreeze: the old and the new snapshot must
        both still see the *same* live table objects — in-place
        removal, no rebinds."""
        b, forum, doomed, _ = _loaded_builder()
        manager = FreezeManager(b.graph)
        stale = manager.frozen()  # build the snapshot before the write

        posts_table = b.graph.posts
        dated = b.graph._forum_posts_by_date[forum]
        b.graph.delete_post(doomed)

        view = manager.frozen()
        assert view is not stale and manager.freezes == 2
        # identity: the delete mutated the shared objects in place.
        assert b.graph.posts is posts_table
        assert b.graph._forum_posts_by_date[forum] is dated
        assert stale.posts is posts_table
        assert stale._forum_posts_by_date[forum] is dated
        assert view.posts is posts_table
        assert view._forum_posts_by_date[forum] is dated
        # and the removal is visible through the shared date list.
        assert all(mid != doomed for _, mid in dated)
        assert doomed not in view.posts

    def test_injected_rebind_breaks_aliasing(self):
        """The failure mode R6 exists to prevent, demonstrated live: a
        delete that *rebinds* the forum date list forks every existing
        snapshot from the live store."""
        b, forum, doomed, _ = _loaded_builder()
        snapshot = freeze(b.graph)

        # The pre-PR-6 idiom: filtered-list rebind instead of in-place
        # removal.
        b.graph._forum_posts_by_date[forum] = [
            entry
            for entry in b.graph._forum_posts_by_date[forum]
            if entry[1] != doomed
        ]
        rebound = b.graph._forum_posts_by_date[forum]

        # The *table* object holding per-forum lists is still shared...
        assert snapshot._forum_posts_by_date is b.graph._forum_posts_by_date
        # ...so here the fork is visible one level down only because the
        # shared dict was written through.  Rebinding the whole table
        # attribute severs even that:
        b.graph._forum_posts_by_date = dict(b.graph._forum_posts_by_date)
        b.graph._forum_posts_by_date[forum] = list(rebound)
        assert (
            snapshot._forum_posts_by_date
            is not b.graph._forum_posts_by_date
        )
        # The snapshot now serves stale state: the identity contract the
        # regression test above pins is exactly what broke.
        b.graph._forum_posts_by_date[forum].append((ts(4, 1), 999))
        assert (
            snapshot._forum_posts_by_date[forum]
            != b.graph._forum_posts_by_date[forum]
        )

    def test_injected_rebind_is_flagged_statically(self):
        """The same mutation, as source: R6 catches it without running
        anything."""
        src = (
            "class SocialGraph:\n"
            "    def __init__(self):\n"
            "        self._forum_posts_by_date = {}\n\n"
            "    def delete_post(self, post_id, forum_id):\n"
            "        self._forum_posts_by_date = {\n"
            "            fid: [e for e in dated if e[1] != post_id]\n"
            "            for fid, dated in\n"
            "            self._forum_posts_by_date.items()\n"
            "        }\n"
        )
        diags = lint_source("src/repro/graph/frag.py", src)
        assert [(d.rule, d.slug) for d in diags] == [("R6", "table-rebind")]
