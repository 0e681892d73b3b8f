"""Persistent architecture archive, query engine, and service.

* :mod:`repro.archive.store` — append-only crash-safe on-disk archive
  whose one in-memory form is the stacked numpy index
  (:class:`ArchitectureArchive`).
* :mod:`repro.archive.query` — vectorized top-k / Pareto / Hamming-NN
  queries over the stacked index.
* :mod:`repro.archive.service` — the batched JSON API behind
  ``python -m repro serve``.  It pulls in the HTTP stack (``http.server``,
  ``email``, ``ssl``), so it loads on first access to one of its names
  rather than with the package.
"""

from .query import describe_rows, hamming_neighbors, pareto_rows, top_k
from .store import (
    ArchitectureArchive,
    ArchiveError,
    ArchiveIndex,
    ArchRecord,
    arch_key,
    repair_archive,
)

__all__ = [
    "ArchRecord",
    "ArchitectureArchive",
    "ArchiveError",
    "ArchiveIndex",
    "ArchiveService",
    "BatchingPredictor",
    "arch_key",
    "describe_rows",
    "hamming_neighbors",
    "make_server",
    "pareto_rows",
    "repair_archive",
    "top_k",
]

_SERVICE_NAMES = frozenset({"ArchiveService", "BatchingPredictor", "make_server"})


def __getattr__(name):
    if name in _SERVICE_NAMES:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
