"""A read-through store over the coordinator's cache service.

A worker node's query cache and automata interner normally sit on
:class:`~repro.store.BlobStore` directories.  :class:`RemoteStore`
presents the same duck interface — ``get``/``put``/counters/``root`` —
but is backed by ``cache_get``/``cache_put`` frames to the coordinator,
so a fresh node warms itself from the fleet's shared answers instead of
re-solving and re-compiling what any other node already paid for.
Canonical fingerprints are host-independent, which is what makes the
keys meaningful across machines.

Everything is best-effort: a timed-out or failed round trip is a miss
(counted in ``failures``), an undecodable blob is a miss counted in
``corrupt_evictions``, and puts are fire-and-forget — the network is a
cache tier, never a failure source.

The channel (``cache_get(store, key)`` / ``cache_put(store, key,
blob)``) is the :class:`~repro.cluster.worker.WorkerNode`'s pending-
request table over its coordinator socket; blobs are the codec's wire
form (base64 framing is the channel's concern).
"""

from __future__ import annotations

from typing import Any


class RemoteStore:
    """The coordinator's ``codec.name`` store, seen from a worker node."""

    def __init__(self, channel, codec):
        self._channel = channel
        self.name = codec.name
        self._wire = codec.on_wire()
        self.root = f"remote://{codec.name}"
        self.max_entries = None
        self.loads = 0
        self.stores = 0
        self.failures = 0
        self.evictions = 0
        self.corrupt_evictions = 0

    def get(self, key: str) -> Any:
        try:
            blob = self._channel.cache_get(self.name, key)
        except Exception:
            self.failures += 1
            return None
        if blob is None:
            return None
        try:
            value = self._wire.decode(key, blob)
        except Exception:
            self.corrupt_evictions += 1
            self.failures += 1
            return None
        self.loads += 1
        return value

    def put(self, key: str, value: Any) -> None:
        try:
            self._channel.cache_put(
                self.name, key, self._wire.encode(key, value)
            )
            self.stores += 1
        except Exception:
            self.failures += 1

    def gc(self) -> int:
        return 0  # the coordinator's store owns eviction

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        # ``len() == 0`` must not read as "no store configured": the
        # runner truth-tests ``config.query_cache`` / ``automata_cache``
        # before attaching, and those slots may hold this adapter.
        return True
