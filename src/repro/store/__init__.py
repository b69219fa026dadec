"""The campaign results store: SQLite backend, JSONL interchange, queries.

* :mod:`repro.store.schema` — the SQLite schema and its append-only
  migration list (WAL mode, indexed cross-campaign columns).
* :mod:`repro.store.database` — :class:`CampaignStore`, the one results
  backend campaigns write into.
* :mod:`repro.store.jsonl` — the checksummed JSONL :class:`ResultStore`,
  the ``repro migrate`` import/export format.
* :mod:`repro.store.query` — the filter-expression grammar
  (``scheme=pr topology~zoo campaign:last10``) evaluated over SQL or plain
  record lists.
* :mod:`repro.store.migrate` — byte-identical JSONL ↔ SQLite conversion
  (the only module that knows the JSONL sidecar file names).
* :mod:`repro.store.resolve` — shared results-path resolution for the CLI.
* :mod:`repro.store.serve` — the resident query loop (imported on demand:
  ``from repro.store import serve``; it pulls in the runner package).
"""

from repro.store.database import (
    STORE_SUFFIXES,
    CampaignStore,
    is_store_path,
    require_store_path,
)
from repro.store.jsonl import ResultStore
from repro.store.migrate import export_jsonl, import_jsonl, migrate
from repro.store.query import FIELD_COLUMNS, Filter, parse_filter
from repro.store.resolve import ResolvedResults, classify_results_path, resolve_results
from repro.store.schema import SCHEMA_VERSION

__all__ = [
    "CampaignStore",
    "FIELD_COLUMNS",
    "Filter",
    "ResolvedResults",
    "ResultStore",
    "SCHEMA_VERSION",
    "STORE_SUFFIXES",
    "classify_results_path",
    "export_jsonl",
    "import_jsonl",
    "is_store_path",
    "migrate",
    "parse_filter",
    "require_store_path",
    "resolve_results",
]
