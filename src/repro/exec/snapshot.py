"""The Snapshot API: how workers obtain graph state.

Every execution backend — serial, thread, forked or spawned process —
receives graph state through one typed surface:

* :class:`SnapshotConfig` — the declarative knobs (provider, freeze),
  threaded through ``RunRequest`` into the pure read tests (power and
  concurrent).  Environment variables (``REPRO_SNAPSHOT_PROVIDER``,
  ``REPRO_FROZEN``) are documented fallbacks parsed in exactly one
  place: :meth:`SnapshotConfig.resolved`.
* :class:`SnapshotHandle` — the protocol every provider implements: a
  ``graph``, a ``context`` dict for task runners, ``ship()`` to cross a
  process boundary, ``bytes_mapped()`` and ``close()``.
* Providers — :class:`InlineSnapshot` (the object graph itself;
  forked children inherit it copy-on-write, spawned children unpickle
  it), :class:`MmapFileSnapshot` (columns serialized once into a
  versioned snapshot file that every process maps read-only), and
  :class:`SharedMemorySnapshot` (the same bytes in a
  ``multiprocessing.shared_memory`` segment).  :func:`provide_snapshot`
  picks one from a config.

The mapped providers serialize a frozen graph completely into the
snapfile (format v2, :mod:`repro.graph.snapfile`): column families
attach back as zero-copy ``memoryview`` casts over the shared buffer,
and the file's entity section lets a worker rebuild the entity store
from the same bytes — so ``ship()`` returns a token of buffer
coordinates and the task context, with **no object-state pickle**.

``materialize()`` on the worker side reattaches the buffer (path or
segment name), rebuilds the entity store from the entity section and
re-derives the frozen view around the mapped columns
(``FrozenGraph._rebuilt``).
:func:`activate` / :func:`active` install the process-local handle
task runners read.  The ``repro_snapshot_state_bytes`` gauge records
both sides of the split: the entity section's size (``section=
"entities"``) and the shipped token's pickled size (``section=
"stub"``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.obs.metrics import registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.store import SocialGraph

__all__ = [
    "ENV_FROZEN",
    "ENV_PROVIDER",
    "PROVIDERS",
    "AttachedSnapshot",
    "InlineSnapshot",
    "MmapFileSnapshot",
    "SharedMemorySnapshot",
    "ShippedSnapshot",
    "SnapshotConfig",
    "SnapshotHandle",
    "activate",
    "active",
    "provide_snapshot",
]

ENV_PROVIDER = "REPRO_SNAPSHOT_PROVIDER"
ENV_FROZEN = "REPRO_FROZEN"

#: Recognized snapshot providers, in documentation order.
PROVIDERS = ("inline", "mmap_file", "shared_memory")

_FALSY = ("0", "false", "no", "off", "")


@dataclass(frozen=True)
class SnapshotConfig:
    """Declarative snapshot knobs; ``None`` fields fall back to the
    environment, then to the defaults, via :meth:`resolved` — the only
    place the snapshot environment variables are parsed.

    ``provider`` picks how process workers obtain graph state;
    ``freeze`` whether drivers freeze the live store for read phases;
    ``directory`` where ``mmap_file`` snapshots are written (system
    temp dir when unset).
    """

    provider: str | None = None
    freeze: bool | None = None
    directory: str | None = None

    def resolved(self) -> "SnapshotConfig":
        """This config with every ``None`` knob replaced by its
        environment fallback or default (``directory`` stays as
        given)."""
        provider = self.provider
        if provider is None:
            provider = os.environ.get(ENV_PROVIDER, "").strip() or "inline"
        if provider not in PROVIDERS:
            raise ValueError(
                f"unknown snapshot provider {provider!r}; "
                f"expected one of {', '.join(PROVIDERS)}"
            )
        freeze = self.freeze
        if freeze is None:
            raw = os.environ.get(ENV_FROZEN)
            freeze = True if raw is None else (
                raw.strip().lower() not in _FALSY
            )
        return replace(self, provider=provider, freeze=freeze)

    def configuration_dict(self) -> dict[str, Any]:
        """The resolved knobs as report-friendly primitives."""
        resolved = self.resolved()
        return {
            "provider": resolved.provider,
            "freeze": resolved.freeze,
        }


@runtime_checkable
class SnapshotHandle(Protocol):
    """What every snapshot provider exposes: the graph and context task
    runners read, plus the ship/attach lifecycle the pool drives."""

    provider: str
    graph: Any
    context: dict[str, Any]

    def ship(self) -> "ShippedSnapshot":
        """A picklable token a worker can materialize into an
        equivalent handle."""
        ...

    def bytes_mapped(self) -> int:
        """Bytes served from a shared buffer (0 for inline)."""
        ...

    def close(self) -> None:
        """Release buffers/files owned by this handle (idempotent)."""
        ...


@dataclass
class ShippedSnapshot:
    """The picklable form of a snapshot handle crossing a process
    boundary: provider-specific payload (the whole object graph for
    inline; buffer coordinates and the task context for the mapped
    providers — entity state rebuilds from the mapped bytes)."""

    provider: str
    payload: Any

    def materialize(self) -> "SnapshotHandle":
        if self.provider == "inline":
            graph, context = self.payload
            return InlineSnapshot(graph, context)
        return _materialize_mapped(self.provider, self.payload)


class InlineSnapshot:
    """The in-process provider: the graph object itself.  Forked
    workers inherit it through copy-on-write pages; spawned workers
    unpickle the whole object graph (the pre-snapfile behaviour, and
    still the right answer for thread/serial backends and live
    graphs)."""

    provider = "inline"

    def __init__(
        self,
        graph: "SocialGraph | None" = None,
        context: dict[str, Any] | None = None,
    ):
        self.graph = graph
        self.context: dict[str, Any] = {} if context is None else context

    def ship(self) -> ShippedSnapshot:
        return ShippedSnapshot("inline", (self.graph, self.context))

    def bytes_mapped(self) -> int:
        return 0

    def close(self) -> None:
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self.graph!r})"


def _publish_attach(provider: str, nbytes: int) -> None:
    metrics = registry()
    metrics.gauge("repro_snapshot_bytes_mapped", provider=provider).set(
        float(nbytes)
    )
    metrics.counter("repro_snapshot_attaches_total", provider=provider).inc()


def _publish_state_bytes(section: str, nbytes: int) -> None:
    """Record one side of the ship-payload split: the snapfile's entity
    section (``section="entities"``) or the pickled size of the token
    ``ship()`` actually sends (``section="stub"``)."""
    registry().gauge("repro_snapshot_state_bytes", section=section).set(
        float(nbytes)
    )


def _shipped_payload(context: dict[str, Any]) -> dict[str, Any]:
    """The boundary-crossing remainder of a mapped handle: just the
    task context.  Entity state does not travel — the worker rebuilds
    it from the snapfile's entity section."""
    return {"context": context, "origin_pid": os.getpid()}


def _ship_token(provider: str, payload: dict[str, Any]) -> ShippedSnapshot:
    token = ShippedSnapshot(provider, payload)
    _publish_state_bytes("stub", len(pickle.dumps(token)))
    return token


def _attach_graph(attached: Any) -> Any:
    """The worker-side graph for a mapped attach: rebuild the entity
    store from the entity section and re-derive the frozen view around
    the mapped columns."""
    from repro.graph import snapfile
    from repro.graph.frozen import FrozenGraph

    store = snapfile.rebuild_store(attached.entities)
    return FrozenGraph._rebuilt(
        store, dict(attached.columns), attached.frozen_at_version
    )


class AttachedSnapshot:
    """The worker-side handle a :class:`ShippedSnapshot` materializes
    into: a frozen view over mapped columns plus the shipped context.
    It owns the mapping/segment for the worker's lifetime and cannot be
    re-shipped."""

    def __init__(
        self,
        provider: str,
        graph: Any,
        context: dict[str, Any],
        nbytes: int,
        resource: Any,
    ):
        self.provider = provider
        self.graph = graph
        self.context = context
        self._nbytes = nbytes
        self._resource = resource

    def ship(self) -> ShippedSnapshot:
        raise RuntimeError(
            "an attached snapshot is worker-side state; ship the "
            "parent's provider handle instead"
        )

    def bytes_mapped(self) -> int:
        return self._nbytes

    def close(self) -> None:
        self.graph = None
        resource, self._resource = self._resource, None
        if resource is None:
            return
        try:
            resource.close()
        except BufferError:
            # Exported column views still pin the mapping, so the
            # pages stay alive through them either way.  Park the
            # wrapper where the GC cannot reach its destructor:
            # SharedMemory.__del__ retries close() and raises the
            # same BufferError unraisably mid-run.
            _pinned_resources.append(resource)


#: Resources whose close() hit live view exports — held until process
#: exit so their destructors never fire while views are outstanding.
_pinned_resources: list[Any] = []


def _materialize_mapped(provider: str, payload: dict[str, Any]) -> Any:
    from repro.graph import snapfile

    if provider == "mmap_file":
        mapped = snapfile.open_snapshot(payload["path"])
        attached, nbytes = mapped.attached, mapped.bytes_mapped
        resource: Any = mapped
    elif provider == "shared_memory":
        from multiprocessing import resource_tracker, shared_memory

        segment = shared_memory.SharedMemory(
            name=payload["shm_name"], create=False
        )
        # Attaching registers the segment with *this* process's
        # resource tracker too (bpo-38119); in a worker, unregister or
        # its exit would unlink the parent's segment from under
        # everyone.  In-process materialization must keep the parent's
        # own (single) registration.
        if payload.get("origin_pid") != os.getpid():
            try:
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals
                pass
        attached = snapfile.attach(segment.buf)
        nbytes = attached.bytes_mapped
        resource = segment
    else:  # pragma: no cover - ShippedSnapshot guards the provider
        raise ValueError(f"unknown shipped provider {provider!r}")
    graph = _attach_graph(attached)
    _publish_attach(provider, nbytes)
    _publish_state_bytes("entities", len(attached.entities))
    return AttachedSnapshot(
        provider, graph, payload["context"], nbytes, resource
    )


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _parent_attached(base: Any, columns: dict[str, Any]) -> Any:
    """The parent-side attached view: object state by reference (no
    pickle round-trip in-process), columns from the shared buffer."""
    from repro.graph import snapfile
    from repro.graph.frozen import FrozenGraph

    return FrozenGraph._attached(snapfile.object_state(base), dict(columns))


class MmapFileSnapshot:
    """Columns serialized once into a versioned snapshot file
    (:mod:`repro.graph.snapfile`) that the parent and every worker map
    read-only.  The parent's own ``graph`` is already the attached
    view, so forked children inherit file-backed pages and serial runs
    exercise the exact layout workers see."""

    provider = "mmap_file"

    def __init__(
        self,
        graph: Any,
        context: dict[str, Any] | None = None,
        *,
        directory: str | None = None,
    ):
        from repro.graph import snapfile

        descriptor, path = tempfile.mkstemp(
            prefix="repro-snapshot-", suffix=".rsnb", dir=directory
        )
        try:
            with os.fdopen(descriptor, "wb") as stream:
                snapfile.write_snapshot(graph, stream)
            self._mapped = snapfile.open_snapshot(path)
        except Exception:
            _unlink_quietly(path)
            raise
        self.path = path
        self._finalizer = weakref.finalize(self, _unlink_quietly, path)
        self.context: dict[str, Any] = {} if context is None else context
        self.graph = _parent_attached(graph, self._mapped.columns)
        _publish_attach(self.provider, self._mapped.bytes_mapped)
        _publish_state_bytes("entities", len(self._mapped.attached.entities))

    def ship(self) -> ShippedSnapshot:
        payload = _shipped_payload(self.context)
        payload["path"] = self.path
        return _ship_token(self.provider, payload)

    def bytes_mapped(self) -> int:
        return self._mapped.bytes_mapped

    def close(self) -> None:
        self.graph = None
        self._mapped.close()
        self._finalizer()


def _release_segment(segment: Any) -> None:
    try:
        segment.close()
    except BufferError:  # views still exported — see AttachedSnapshot
        _pinned_resources.append(segment)
    try:
        segment.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover
        pass


class SharedMemorySnapshot:
    """The same bytes as :class:`MmapFileSnapshot` in an anonymous
    ``multiprocessing.shared_memory`` segment — no filesystem path, one
    copy into the segment at construction, attach-by-name from
    workers."""

    provider = "shared_memory"

    def __init__(
        self, graph: Any, context: dict[str, Any] | None = None
    ):
        from multiprocessing import shared_memory

        from repro.graph import snapfile

        data = snapfile.snapshot_bytes(graph)
        self._segment = shared_memory.SharedMemory(
            create=True, size=max(len(data), 1)
        )
        self._segment.buf[: len(data)] = data
        self._attached = snapfile.attach(self._segment.buf)
        self._finalizer = weakref.finalize(
            self, _release_segment, self._segment
        )
        self.context: dict[str, Any] = {} if context is None else context
        self.graph = _parent_attached(graph, self._attached.columns)
        _publish_attach(self.provider, self._attached.bytes_mapped)
        _publish_state_bytes("entities", len(self._attached.entities))

    def ship(self) -> ShippedSnapshot:
        payload = _shipped_payload(self.context)
        payload["shm_name"] = self._segment.name
        return _ship_token(self.provider, payload)

    def bytes_mapped(self) -> int:
        return self._attached.bytes_mapped

    def close(self) -> None:
        self.graph = None
        self._attached.columns.clear()
        self._finalizer()


def provide_snapshot(
    graph: "SocialGraph | None" = None,
    context: dict[str, Any] | None = None,
    config: SnapshotConfig | None = None,
) -> SnapshotHandle:
    """Build the configured provider's handle around ``graph``.

    Mapped providers require a frozen snapshot; a live graph — or no
    graph — falls back to :class:`InlineSnapshot` and bumps
    ``repro_snapshot_fallback_total`` so the degradation is visible
    instead of silent.
    """
    resolved = (config or SnapshotConfig()).resolved()
    if resolved.provider == "inline" or graph is None:
        return InlineSnapshot(graph, context)
    if not getattr(graph, "is_frozen", False):
        registry().counter(
            "repro_snapshot_fallback_total", reason="live-graph"
        ).inc()
        return InlineSnapshot(graph, context)
    if resolved.provider == "mmap_file":
        return MmapFileSnapshot(graph, context, directory=resolved.directory)
    return SharedMemorySnapshot(graph, context)


#: The handle visible to task runners in this process.  In the parent
#: it is activated around a pool run; in a forked worker it is
#: inherited; in a spawned worker it is materialized from the shipped
#: payload.
_ACTIVE: SnapshotHandle | None = None


def activate(handle: SnapshotHandle | None) -> SnapshotHandle | None:
    """Install ``handle`` process-globally; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = handle
    return previous


def active() -> SnapshotHandle:
    """The handle task runners execute against (empty inline if none)."""
    return _ACTIVE if _ACTIVE is not None else InlineSnapshot()
