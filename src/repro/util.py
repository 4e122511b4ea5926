"""Small shared utilities."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict

#: The process umask, read once at import (reading it requires setting
#: it, which is not thread-safe to do per call while other threads may
#: be creating files).
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Readers only ever observe the complete file, and racing writers
    last-win -- the invariant both the result cache and kernel-file
    export rely on for concurrent runners sharing a directory.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".write-", suffix=".tmp"
    )
    try:
        if hasattr(os, "fchmod"):
            # mkstemp creates 0600; honour the umask instead, since
            # this also writes user-facing files (export-kernel), not
            # just private cache entries.
            os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


#: Hex digits of the SHA-256 digest exposed as a content fingerprint.
#: 16 nibbles (64 bits) keeps cache keys readable while making
#: accidental collisions across a workload suite implausible.
FINGERPRINT_LENGTH = 16

#: The keys of the schema envelope every serialised file carries.
ENVELOPE_KEYS = ("schema", "schema_version")


def content_hash(payload: Dict[str, Any]) -> str:
    """Stable content hash of a serialised payload, envelope excluded.

    SHA-256 over the canonical (sorted-keys, compact) JSON.  The schema
    envelope is left out: bumping a schema version changes how a thing
    is *written*, not what it *is*, and must not invalidate the
    result-store entries keyed on its fingerprint.
    """
    content = {key: value for key, value in payload.items()
               if key not in ENVELOPE_KEYS}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:FINGERPRINT_LENGTH]


class JsonFormat:
    """The checks every versioned JSON file format shares.

    A file carries a schema envelope (``schema`` + ``schema_version``)
    checked on load, so a file written by a future incompatible version
    fails loudly instead of deserialising garbage; and loading is
    strict about keys, because an unrecognized key is almost always a
    misspelling, and silently substituting the field's default would
    produce a valid-looking object with different behaviour.  Each
    format keeps its own field codec; every failure here raises the
    format's ``error`` and names its ``noun`` (``"an architecture"``).
    """

    def __init__(self, schema: str, versions: frozenset, noun: str,
                 error: type) -> None:
        self.schema = schema
        self.versions = versions
        self.article, self.noun = noun.split(" ", 1)
        self.error = error

    def check_keys(self, payload: Dict[str, Any], allowed: frozenset,
                   what: str) -> None:
        unknown = set(payload) - allowed
        if unknown:
            raise self.error(
                f"unknown {what} field(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )

    def check_envelope(self, payload: Any) -> None:
        """Require a dict that names this schema and a readable version."""
        if not isinstance(payload, dict):
            raise self.error(
                f"{self.noun} payload must be a dict, "
                f"got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != self.schema:
            raise self.error(
                f"not {self.article} {self.noun} file: schema {schema!r} "
                f"!= {self.schema!r}"
            )
        version = payload.get("schema_version")
        if version not in self.versions:
            raise self.error(
                f"unsupported {self.noun} schema version {version!r} "
                f"(this build reads {sorted(self.versions)})"
            )

    def loads(self, text: str) -> Any:
        """Parse JSON text into a payload (not yet checked)."""
        try:
            return json.loads(text)
        except ValueError as error:
            raise self.error(f"invalid JSON: {error}") from None

    def read(self, path: str) -> Any:
        """Read and parse one file into a payload (not yet checked)."""
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            raise self.error(
                f"cannot read {self.noun} file {path!r}: {error}"
            ) from None
        return self.loads(text)
