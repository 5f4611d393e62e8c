"""One blob store behind every on-disk cache in the package.

The solver query cache, the automata interner and the conformance
campaign's disagreement artifacts all persist small keyed entries to a
directory that several processes share.  :class:`BlobStore` is that
directory, once; what differs between them is a :class:`Codec` — how a
value becomes bytes and back.

- **Layout.** ``<path>/v<codec.version>/<name><codec.suffix>``: a format
  bump stops seeing old entries instead of tripping over them.
- **Naming.** A key that is a safe token (``[0-9A-Za-z_-]``, at most 64
  characters — the sha256-hex fingerprints the automata and artifact
  stores use) names its file directly; every other key is named by its
  sha256.  No key can name a path outside the version directory.
- **Writes** go to a temp file private to the writer and are
  ``os.replace``\\ d into place, so readers never see a partial entry
  and concurrent writers (threads or processes) never share a temp file.
- **Reads** are defensive: a truncated, foreign, version-skewed or
  key-mismatched entry is counted in ``corrupt_evictions``, unlinked
  and reported as a miss — the store is a cache, a bad directory
  degrades to recomputing, never to failure.
- **GC.** With ``max_entries`` set, passing the (approximately tracked)
  entry count unlinks the oldest mtimes down to a low-water mark an
  eighth below the cap, so the directory scan is paid once per slack's
  worth of puts.  Age, not LRU: touching mtimes on every hit would
  turn the shared store's reads into writes.

Stdlib-only at import: the automata cache imports this module on every
start-up path.
"""

from __future__ import annotations

import hashlib
import os
import re
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

#: The counters every store handle keeps, and that
#: :func:`store_counters` totals per codec.
COUNTERS = ("loads", "stores", "failures", "evictions", "corrupt_evictions")

_SAFE_KEY = re.compile(r"[0-9A-Za-z_-]{1,64}")

#: Every live store handle in this process (weak: a dropped cache must
#: not be pinned by its diagnostics).
_OPEN_STORES: "weakref.WeakSet" = weakref.WeakSet()


@dataclass(frozen=True)
class Codec:
    """How one kind of entry is written to and read from bytes.

    ``decode(key, blob)`` raises when the blob's format, version or
    embedded key does not match; the store turns that into an eviction.
    ``wire`` is the codec of the entry's network form (see
    :meth:`on_wire`), ``metric`` an optional counter name the store
    bumps per ``op`` (``load``/``store``/``failure``).
    """

    name: str
    version: int
    suffix: str
    encode: Callable[[str, Any], bytes]
    decode: Callable[[Optional[str], bytes], Any]
    metric: Optional[str] = None
    wire: Optional["Codec"] = None

    @property
    def site(self) -> str:
        """The fault-plan site guarding this store's reads."""
        return f"{self.name}_store:get"

    def on_wire(self) -> "Codec":
        """The codec of the network form: the disk form unless the
        owner ships a smaller one."""
        return self.wire or self


def entry_name(key: str) -> str:
    """The file name (sans suffix) of ``key``: the key itself when it
    is a safe token, else its sha256."""
    if _SAFE_KEY.fullmatch(key):
        return key
    return hashlib.sha256(key.encode("utf-8", "surrogatepass")).hexdigest()


class BlobStore:
    """A versioned directory of ``codec``-encoded entries (see the
    module docstring for layout, naming, atomicity and GC)."""

    def __init__(
        self, path: str, codec: Codec, max_entries: Optional[int] = None
    ):
        self.root = path
        self.codec = codec
        self.path = os.path.join(path, f"v{codec.version}")
        os.makedirs(self.path, exist_ok=True)
        self.max_entries = max_entries
        self.loads = 0
        self.stores = 0
        self.failures = 0
        self.evictions = 0
        #: Entries evicted by the defensive read path specifically —
        #: garbled/foreign/version-skewed blobs, as opposed to GC.
        self.corrupt_evictions = 0
        _OPEN_STORES.add(self)
        #: Entry-count estimate driving GC: seeded by a scan only when
        #: a cap makes the count matter, bumped per put.  Concurrent
        #: writers make it approximate; :meth:`gc` recounts exactly.
        self._approx_count = 0 if max_entries is None else len(self)

    def _entry(self, key: str) -> str:
        return os.path.join(self.path, entry_name(key) + self.codec.suffix)

    def _count(self, op: str) -> None:
        if self.codec.metric is not None:
            from repro.obs import metrics

            metrics.count(self.codec.metric, op=op)

    def get(self, key: str) -> Any:
        """The value stored under ``key``, or ``None`` on a miss."""
        from repro import faults

        path = self._entry(key)
        # Chaos hook: an installed fault plan may scribble over the
        # entry here, exercising the defensive read path.
        faults.corrupt_file(self.codec.site, path, fingerprint=key)
        value = self._read(path, key)
        if value is not None:
            self.loads += 1
            self._count("load")
        return value

    def _read(self, path: str, key: Optional[str]) -> Any:
        try:
            with open(path, "rb") as handle:
                return self.codec.decode(key, handle.read())
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, foreign file, stale format, hash
            # collision: evict and report a miss.
            self.failures += 1
            self.corrupt_evictions += 1
            self._count("failure")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def put(self, key: str, value: Any) -> bool:
        """Store ``value`` under ``key``; ``False`` if the write failed."""
        if not self._write(self._entry(key), self.codec.encode(key, value)):
            return False
        self.stores += 1
        self._count("store")
        self._approx_count += 1
        if (
            self.max_entries is not None
            and self._approx_count > self.max_entries
        ):
            self.gc()
        return True

    def _write(self, path: str, blob: bytes) -> bool:
        # A temp name no other writer can hold: threads sharing this
        # handle and processes sharing the directory each get their own.
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)  # atomic: readers never see partials
        except OSError:
            self.failures += 1
            self._count("failure")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    def gc(self) -> int:
        """Evict oldest-mtime entries past ``max_entries``; return count.

        A concurrently deleted entry or an unreadable directory just
        ends the pass — the store degrades to being larger than asked.
        """
        if self.max_entries is None:
            return 0
        try:
            aged = sorted(
                (entry.stat().st_mtime, entry.path)
                for entry in os.scandir(self.path)
                if entry.name.endswith(self.codec.suffix)
            )
        except OSError:
            return 0
        self._approx_count = len(aged)
        if len(aged) <= self.max_entries:
            return 0
        # Keep at least one entry: a cap of 1 must still serve hits.
        low_water = max(1, self.max_entries - max(1, self.max_entries // 8))
        evicted = 0
        for _, path in aged[: len(aged) - low_water]:
            try:
                os.unlink(path)
            except OSError:
                continue
            evicted += 1
        self.evictions += evicted
        self._approx_count -= evicted
        return evicted

    def counters(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in COUNTERS}

    def __len__(self) -> int:
        try:
            return sum(
                1
                for name in os.listdir(self.path)
                if name.endswith(self.codec.suffix)
            )
        except OSError:
            return 0


def attach_store(
    current,
    path,
    open_store: Callable[[str], Any],
    max_entries: Optional[int] = None,
):
    """The handle a cache's ``attach_store(path)`` should hold.

    ``None`` detaches.  Re-attaching the root ``current`` already has
    keeps that handle (its counters survive across jobs in one
    process); an explicit ``max_entries`` still takes effect on it.  A
    non-string ``path`` is taken to *be* a store (how cluster worker
    nodes wire a :class:`~repro.cluster.remotestore.RemoteStore` in
    place of a directory).  An unusable directory degrades to no store.
    """
    if path is None:
        return None
    if not isinstance(path, str):
        return path
    if current is None or current.root != path:
        try:
            current = open_store(path)
        except OSError:
            return None
    if max_entries is not None and current.max_entries != max_entries:
        current.max_entries = max_entries
        # A newly applied cap needs a real count: an uncapped handle
        # skipped the seeding scan.
        current._approx_count = len(current)
    return current


def store_counters(kinds: Iterable[str] = ()) -> Dict[str, Dict[str, int]]:
    """Totals of every live store handle in this process, by codec name.

    Each section carries ``open_stores`` plus :data:`COUNTERS`; every
    name in ``kinds`` has a section even with no store open.
    """
    totals: Dict[str, Dict[str, int]] = {}

    def section(name: str) -> Dict[str, int]:
        return totals.setdefault(
            name, dict.fromkeys(("open_stores",) + COUNTERS, 0)
        )

    for name in kinds:
        section(name)
    for store in list(_OPEN_STORES):
        row = section(store.codec.name)
        row["open_stores"] += 1
        for name in COUNTERS:
            row[name] += getattr(store, name)
    return totals
