"""Shared results-path resolution for every results-consuming entry point.

``report`` and ``query`` take one results argument that names either a
SQLite store (``.sqlite``/``.sqlite3``/``.db``) or a telemetry manifest
(a ``.json`` file).  Anything else — checksummed JSONL in particular —
is refused with the ``repro migrate`` command that turns it into a store.
:func:`resolve_results` classifies the path once and returns a
:class:`ResolvedResults` that answers the two questions every consumer
asks — *give me matching records* and *give me the telemetry manifest* —
which is what lets the CLI keep exactly one resolution helper instead of a
per-subcommand copy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.store.database import CampaignStore, require_store_path
from repro.store.query import Filter
from repro.telemetry import merge as telemetry_merge


class ResolvedResults:
    """One results argument, classified and ready to answer queries.

    ``kind`` is ``"store"`` (SQLite) or ``"manifest"`` (a telemetry
    manifest file, which holds no records).
    """

    def __init__(self, path: Path, kind: str) -> None:
        self.path = path
        self.kind = kind
        self._store: Optional[CampaignStore] = None

    def __repr__(self) -> str:  # pragma: no cover - trivial formatting
        return f"ResolvedResults(path={str(self.path)!r}, kind={self.kind!r})"

    @property
    def store(self) -> CampaignStore:
        if self.kind != "store":
            raise ExperimentError(f"{self.path} is not a SQLite results store")
        if self._store is None:
            self._store = CampaignStore(self.path)
        return self._store

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None

    def __enter__(self) -> "ResolvedResults":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def records(
        self,
        expression: Union[str, Sequence[str], Filter, None] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Records matching a filter expression (all records when ``None``)."""
        if self.kind == "manifest":
            raise ExperimentError(
                f"{self.path} is a telemetry manifest and holds no records"
            )
        return self.store.query(expression, limit=limit)

    def campaigns(self) -> List[Dict[str, Any]]:
        """Campaign rows of a store (none for a manifest file)."""
        if self.kind == "store":
            return self.store.campaigns()
        return []

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """The telemetry manifest this argument leads to.

        * manifest file — loaded directly;
        * store — the stored manifest of the most recent campaign, else
          re-merged from that campaign's records.
        """
        if self.kind == "manifest":
            try:
                return telemetry_merge.load_manifest(self.path)
            except (json.JSONDecodeError, OSError) as exc:
                raise ExperimentError(f"cannot read manifest {self.path}: {exc}")
        campaigns = self.store.campaigns()
        if not campaigns:
            raise ExperimentError(f"store {self.path} holds no campaigns")
        campaign_id = campaigns[-1]["campaign_id"]
        manifest = self.store.get_manifest(campaign_id)
        if manifest is not None:
            return manifest
        records = self.store.load_records(campaign_id)
        if not records:
            raise ExperimentError(
                f"campaign {campaign_id} in {self.path} holds no records"
            )
        return telemetry_merge.build_manifest(records)


def classify_results_path(path: Union[str, Path]) -> str:
    """``"store"`` or ``"manifest"``; any other path is refused.

    Raises :class:`~repro.errors.ExperimentError` naming the
    ``repro migrate`` command for a JSONL (or unknown) results path.
    """
    path = Path(path)
    if path.suffix == ".json":
        return "manifest"
    require_store_path(path)
    return "store"


def resolve_results(
    path_arg: Union[str, Path], must_exist: bool = True
) -> ResolvedResults:
    """Classify a results argument (see module docstring).

    A refused path fails before the existence check, so the error always
    names the fix.
    """
    path = Path(path_arg)
    kind = classify_results_path(path)
    if must_exist and not path.exists():
        raise ExperimentError(f"no such results file: {path}")
    return ResolvedResults(path, kind)
