"""Document corpora served by the data-center.

A :class:`FileSet` maps document ids to sizes and contents.  Content is
synthetic but *verifiable*: each document has a deterministic 8-byte
token derived from (seed, doc id) that travels with cached copies, so
tests can assert a cache served the right bytes without storing
multi-megabyte corpora.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigError

__all__ = ["FileSet"]


class FileSet:
    """``n_docs`` documents of fixed or per-document sizes."""

    def __init__(self, n_docs: int, sizes: Union[int, Sequence[int]],
                 seed: int = 0):
        if n_docs <= 0:
            raise ConfigError("need at least one document")
        self.n_docs = n_docs
        self.seed = seed
        if isinstance(sizes, int):
            if sizes <= 0:
                raise ConfigError("document size must be positive")
            self._sizes = np.full(n_docs, sizes, dtype=np.int64)
        else:
            self._sizes = np.asarray(sizes, dtype=np.int64)
            if len(self._sizes) != n_docs:
                raise ConfigError("sizes length != n_docs")
            if (self._sizes <= 0).any():
                raise ConfigError("document sizes must be positive")

    def size(self, doc: int) -> int:
        return int(self._sizes[doc])

    def token(self, doc: int) -> bytes:
        """Deterministic 8-byte content fingerprint of the document."""
        if not 0 <= doc < self.n_docs:
            raise ConfigError(f"doc {doc} out of range")
        h = hashlib.blake2b(f"{self.seed}:{doc}".encode(), digest_size=8)
        return h.digest()

    def verify(self, doc: int, token: bytes) -> bool:
        return token == self.token(doc)
