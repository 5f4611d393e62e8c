"""Disagreement artifacts and their versioned on-disk store.

A :class:`DisagreementArtifact` is the JSON-shaped, self-contained
record of one soundness find: the (shrunk) regex, flags and word, every
decider's verdict, the contradicting member pair, the generator seed
that reproduces it, and the canonical fingerprint it dedupes under.

The :class:`ArtifactStore` is a :class:`~repro.store.BlobStore` of
sorted-key JSON entries.  Recording an already-known fingerprint bumps
a ``hits`` counter inside the entry instead of writing a sibling — a
fuzzing campaign that trips the same bug ten thousand times must leave
one artifact with ``hits=10000``, not ten thousand files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.store import BlobStore, Codec

#: Bump when the artifact layout changes; old entries are ignored.
ARTIFACT_STORE_VERSION = 1
_MAGIC = "repro-disagreement"


def artifact_fingerprint(pattern: str, flags: str, word: str) -> str:
    """Canonical dedupe key of one reproducer triple.

    Flags are order-normalised; the triple is hashed (fingerprints name
    files, and patterns/words are arbitrary text).
    """
    canonical = "\x00".join(
        ["v%d" % ARTIFACT_STORE_VERSION, "".join(sorted(flags)),
         pattern, word]
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class DisagreementArtifact:
    """One minimized, reproducible soundness disagreement."""

    fingerprint: str
    pattern: str
    flags: str
    word: str
    verdicts: Dict[str, str] = field(default_factory=dict)
    members: List[str] = field(default_factory=list)
    seed: Optional[int] = None
    #: What the generator originally produced, pre-shrink — kept so a
    #: shrinker bug can never lose the original reproducer.
    origin_pattern: Optional[str] = None
    origin_word: Optional[str] = None
    shrink_steps: int = 0
    hits: int = 1

    def to_blob(self) -> dict:
        return {
            "magic": _MAGIC,
            "version": ARTIFACT_STORE_VERSION,
            **asdict(self),
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "DisagreementArtifact":
        if (
            blob.get("magic") != _MAGIC
            or blob.get("version") != ARTIFACT_STORE_VERSION
        ):
            raise ValueError("mismatched disagreement-artifact entry")
        fields = {
            key: blob[key]
            for key in cls.__dataclass_fields__
            if key in blob
        }
        return cls(**fields)


def _encode_artifact(fingerprint: str, artifact) -> bytes:
    return json.dumps(
        artifact.to_blob(), ensure_ascii=False, sort_keys=True
    ).encode("utf-8")


def _decode_artifact(
    fingerprint: Optional[str], blob: bytes
) -> DisagreementArtifact:
    """``fingerprint=None`` skips the embedded-key check: a directory
    listing (:meth:`ArtifactStore.load_all`) knows files, not keys."""
    artifact = DisagreementArtifact.from_blob(json.loads(blob.decode("utf-8")))
    if fingerprint is not None and artifact.fingerprint != fingerprint:
        raise ValueError("mismatched artifact fingerprint")
    return artifact


ARTIFACT_CODEC = Codec(
    "artifact",
    ARTIFACT_STORE_VERSION,
    ".json",
    _encode_artifact,
    _decode_artifact,
)


class ArtifactStore(BlobStore):
    """Fingerprint-keyed directory of disagreement artifacts.

    ``max_entries`` caps it with the store's oldest-mtime GC — a
    runaway campaign can flood with *distinct* bugs too, and the
    artifact directory must never be the thing that fills the disk.
    """

    def __init__(self, path: str, max_entries: Optional[int] = None):
        super().__init__(path, ARTIFACT_CODEC, max_entries)
        self.dup_hits = 0

    def record(self, artifact: DisagreementArtifact) -> str:
        """Persist (or dedupe) one artifact; returns ``"new"``/``"dup"``.

        A known fingerprint bumps the stored entry's hit counter in
        place — the entry's mtime advances too, so hot disagreements
        also survive GC the longest.
        """
        fingerprint = artifact.fingerprint
        existing = self.get(fingerprint)
        if existing is None:
            self.put(fingerprint, artifact)
            return "new"
        existing.hits += 1
        self._write(
            self._entry(fingerprint), self.codec.encode(fingerprint, existing)
        )
        self.dup_hits += 1
        return "dup"

    def load_all(self) -> List[DisagreementArtifact]:
        """Every readable artifact, for triage tooling and reports."""
        try:
            names = sorted(os.listdir(self.path))
        except OSError:
            return []
        artifacts = []
        for name in names:
            if name.endswith(self.codec.suffix):
                artifact = self._read(os.path.join(self.path, name), None)
                if artifact is not None:
                    artifacts.append(artifact)
        return artifacts

    def counters(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            **super().counters(),
            "dup_hits": self.dup_hits,
        }
