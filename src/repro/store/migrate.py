"""JSONL ↔ SQLite conversion — ``repro migrate``.

The checksummed JSONL format (:mod:`repro.store.jsonl`) is the store's
import/export shape; these functions convert a campaign either direction
and round-trip **byte-identical** files.  That works because both backends
keep every record in the same canonical serialisation
(``json.dumps(record, sort_keys=True)``): importing strips nothing but the
line checksums (which are pure functions of the canonical bytes), and
exporting regenerates them, so ``jsonl -> sqlite -> jsonl`` reproduces the
original file exactly (modulo a torn final line, which import skips and
counts because it was never a trusted record).

Sidecars ride along: the ``.telemetry.json`` manifest lands in the store's
``telemetry`` table and the ``.quarantine.jsonl`` entries in its
``quarantine`` table, and both come back out on export.  This module is the
only place that knows the sidecar file names (:func:`sidecar_paths`).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ExperimentError
from repro.store.database import CampaignStore, is_store_path
from repro.store.jsonl import ResultStore
from repro.telemetry import merge as telemetry_merge


def sidecar_paths(jsonl_path: Union[str, Path]) -> Tuple[Path, Path]:
    """The telemetry-manifest and quarantine sidecars of a JSONL results file.

    ``c.jsonl`` -> ``c.telemetry.json`` and ``c.quarantine.jsonl``; any
    other name gets the sidecar suffix appended.
    """
    path = Path(jsonl_path)
    stem = path.stem if path.suffix == ".jsonl" else path.name
    return (
        path.with_name(stem + ".telemetry.json"),
        path.with_name(stem + ".quarantine.jsonl"),
    )


def derive_campaign_id(
    records: list, manifest: Optional[Dict[str, Any]] = None
) -> str:
    """The campaign id of an imported JSONL file.

    The telemetry manifest records the real spec hash; without one the id
    is derived deterministically from the cell ids, so re-importing the
    same file lands on the same campaign.
    """
    if manifest is not None:
        spec_hash = manifest.get("campaign", {}).get("spec_hash")
        if spec_hash:
            return str(spec_hash)
    digest = hashlib.sha256()
    for record in records:
        digest.update(str(record.get("cell_id", "")).encode("utf-8"))
        digest.update(b"\n")
    return "import-" + digest.hexdigest()[:16]


def import_jsonl(
    jsonl_path: Union[str, Path],
    store_path: Union[str, Path],
    campaign_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Import a JSONL campaign (plus sidecars) into a SQLite store.

    Returns a summary dictionary (``campaign_id``, ``records``,
    ``manifest``, ``quarantined``).  The campaign replaces any existing
    campaign with the same id in the store.
    """
    jsonl_path = Path(jsonl_path)
    if not jsonl_path.exists():
        raise ExperimentError(f"no results file at {jsonl_path}")
    source = ResultStore(jsonl_path)
    records = source.load()

    manifest: Optional[Dict[str, Any]] = None
    manifest_path, quarantine_path = sidecar_paths(jsonl_path)
    if manifest_path.exists():
        manifest = telemetry_merge.load_manifest(manifest_path)

    quarantined: list = []
    if quarantine_path.exists():
        quarantined = ResultStore(quarantine_path).load()

    if campaign_id is None:
        campaign_id = derive_campaign_id(records, manifest)

    run = (manifest or {}).get("run", {})
    with CampaignStore(store_path) as store:
        store.begin_campaign(
            campaign_id,
            cells=(manifest or {}).get("campaign", {}).get("cells", len(records)),
            workers=run.get("workers"),
        )
        for record in records:
            store.append_record(campaign_id, record)
        if manifest is not None:
            store.put_manifest(campaign_id, manifest)
        if quarantined:
            store.put_quarantine(campaign_id, quarantined)
        store.finish_campaign(
            campaign_id,
            executed=run.get("executed", len(records)),
            skipped=run.get("skipped", 0),
            elapsed_s=run.get("elapsed_s", 0.0),
            status="imported",
        )
    return {
        "direction": "jsonl->sqlite",
        "campaign_id": campaign_id,
        "records": len(records),
        "manifest": manifest is not None,
        "quarantined": len(quarantined),
        "torn_records_skipped": source.torn_records_skipped,
    }


def export_jsonl(
    store_path: Union[str, Path],
    jsonl_path: Union[str, Path],
    campaign_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Export one campaign of a store back to checksummed JSONL (+sidecars).

    ``campaign_id`` may be a full id or a unique prefix; ``None`` exports
    the most recently started campaign.
    """
    store_path = Path(store_path)
    if not store_path.exists():
        raise ExperimentError(f"no results store at {store_path}")
    jsonl_path = Path(jsonl_path)
    with CampaignStore(store_path) as store:
        campaigns = store.campaigns()
        if not campaigns:
            raise ExperimentError(f"store {store_path} holds no campaigns")
        if campaign_id is None:
            resolved = campaigns[-1]["campaign_id"]
        else:
            matches = [
                row["campaign_id"]
                for row in campaigns
                if str(row["campaign_id"]).startswith(campaign_id)
            ]
            if not matches:
                raise ExperimentError(
                    f"no campaign in {store_path} matches {campaign_id!r}"
                )
            if len(matches) > 1:
                raise ExperimentError(
                    f"campaign prefix {campaign_id!r} is ambiguous in"
                    f" {store_path}: {', '.join(matches)}"
                )
            resolved = matches[0]
        records = store.load_records(resolved)
        manifest = store.get_manifest(resolved)
        quarantined = store.load_quarantine(resolved)

    ResultStore(jsonl_path).write(records)
    manifest_path, quarantine_path = sidecar_paths(jsonl_path)
    manifest_written = None
    if manifest is not None:
        manifest_written = telemetry_merge.write_manifest(manifest, manifest_path)
    quarantine_written = None
    if quarantined:
        ResultStore(quarantine_path).write(quarantined)
        quarantine_written = quarantine_path
    return {
        "direction": "sqlite->jsonl",
        "campaign_id": resolved,
        "records": len(records),
        "manifest": str(manifest_written) if manifest_written else None,
        "quarantine": str(quarantine_written) if quarantine_written else None,
    }


def migrate(
    source: Union[str, Path],
    destination: Union[str, Path],
    campaign_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Convert results between backends, direction inferred from suffixes."""
    src_is_store = is_store_path(source)
    dst_is_store = is_store_path(destination)
    if src_is_store and not dst_is_store:
        return export_jsonl(source, destination, campaign_id)
    if dst_is_store and not src_is_store:
        return import_jsonl(source, destination, campaign_id)
    raise ExperimentError(
        "migrate needs exactly one SQLite side (suffix .sqlite/.sqlite3/.db)"
        f" and one JSONL side; got {source} -> {destination}"
    )
