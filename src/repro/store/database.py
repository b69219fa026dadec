"""The SQLite campaign store — the one results backend campaigns write.

:class:`CampaignStore` owns one database file (WAL mode, schema managed by
:mod:`repro.store.schema`) holding any number of campaigns.  Each campaign
keeps its identity row (``campaigns``), the grid coordinates of every
finished cell (``cells`` — canonical cell-id, topology, scheme,
scenario-family and seed, all indexed), the full result record as canonical
JSON (``records``), the merged telemetry manifest (``telemetry``) and any
quarantined-cell entries (``quarantine``).  The same schema also carries the
``repro serve`` job journal (``jobs`` — see :mod:`repro.store.jobs`), so a
daemon's journal file is an ordinary store a ``repro query`` can open.

Records are stored as ``json.dumps(record, sort_keys=True)`` — the same
canonical serialisation the checksummed JSONL format uses — so a record
loaded from the store compares equal to the in-memory record that produced
it, and exporting back to JSONL regenerates byte-identical lines.

``run_campaign`` drives a store directly, keyed by the campaign's spec
hash.  A results path without a store suffix is refused
(:func:`require_store_path`): JSONL is only the ``repro migrate``
import/export format.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.errors import ExperimentError, ResultStoreError
from repro.store import schema
from repro.store.query import Filter, campaign_ids_for, parse_filter

#: File suffixes that select the SQLite backend when a results path is given.
STORE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def is_store_path(path: Union[str, Path, None]) -> bool:
    """Whether a results path names a SQLite store (by suffix)."""
    if path is None:
        return False
    return Path(path).suffix.lower() in STORE_SUFFIXES


def require_store_path(
    path: Union[str, Path], campaign_id: Optional[str] = None
) -> Path:
    """``path`` as a store path; anything else is refused with the fix.

    Raised before any work starts or any file is created, so a JSONL path
    costs nothing.  The message names both ways out: write to a store and
    export with ``repro migrate``, or import legacy JSONL results (under
    their spec hash, so a resumed run finds them) and resume from the store.
    """
    path = Path(path)
    if is_store_path(path):
        return path
    store = path.with_suffix(".sqlite")
    raise ExperimentError(
        f"{path} is not a SQLite results store ({'/'.join(STORE_SUFFIXES)});"
        " checksummed JSONL is only the repro migrate import/export format."
        f" Write to a store and export it: --results {store}, then"
        f" repro migrate {store} {path}. To resume or query a legacy JSONL"
        f" campaign, import it first: repro migrate {path} {store}"
        f" --campaign {campaign_id or '<spec hash>'}"
    )


def _faults():
    # Lazy: the fault harness lives in the runner package, which imports
    # this module at load time.
    from repro.runner import faults

    return faults


def canonical_json(value: Any) -> str:
    """The canonical serialisation shared with the JSONL format."""
    return json.dumps(value, sort_keys=True)


class CampaignStore:
    """A multi-campaign SQLite results store (see module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn: Optional[sqlite3.Connection] = None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            conn = schema.connect(self.path)
            try:
                schema.ensure_schema(conn)
            except BaseException:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # campaign rows
    # ------------------------------------------------------------------
    def campaigns(self) -> List[Dict[str, Any]]:
        """Every campaign row, oldest-first by start sequence."""
        rows = self.conn.execute(
            "SELECT seq, campaign_id, cells, workers, executed, skipped,"
            " elapsed_s, status,"
            " (SELECT COUNT(*) FROM records r WHERE r.campaign_id = c.campaign_id)"
            "   AS records,"
            " (SELECT COUNT(*) FROM quarantine q WHERE q.campaign_id = c.campaign_id)"
            "   AS quarantined"
            " FROM campaigns c ORDER BY seq"
        ).fetchall()
        return [dict(row) for row in rows]

    def campaign_row(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        row = self.conn.execute(
            "SELECT * FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    def spec_dict(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        """The campaign's spec as a plain dictionary, when recorded."""
        row = self.campaign_row(campaign_id)
        if row is None or not row.get("spec_json"):
            return None
        return json.loads(row["spec_json"])

    def ensure_campaign(
        self,
        campaign_id: str,
        spec_dict: Optional[Dict[str, Any]] = None,
        cells: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        """Make sure a campaign row exists (keeps its seq if it does)."""
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT seq FROM campaigns WHERE campaign_id = ?", (campaign_id,)
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO campaigns"
                    " (campaign_id, spec_json, cells, workers, status)"
                    " VALUES (?, ?, ?, ?, 'running')",
                    (
                        campaign_id,
                        canonical_json(spec_dict) if spec_dict is not None else None,
                        cells,
                        workers,
                    ),
                )
            elif spec_dict is not None:
                conn.execute(
                    "UPDATE campaigns SET spec_json = ?, cells = ?, workers = ?,"
                    " status = 'running' WHERE campaign_id = ?",
                    (canonical_json(spec_dict), cells, workers, campaign_id),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def begin_campaign(
        self,
        campaign_id: str,
        spec_dict: Optional[Dict[str, Any]] = None,
        cells: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> None:
        """Start a campaign over: drop its rows and give it a fresh seq.

        A fresh (non-resume) run calls this: the old records vanish and the
        campaign becomes the most recent one (``campaign:last1``).
        """
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            self._delete_campaign_rows(conn, campaign_id)
            conn.execute("DELETE FROM campaigns WHERE campaign_id = ?", (campaign_id,))
            conn.execute(
                "INSERT INTO campaigns (campaign_id, spec_json, cells, workers, status)"
                " VALUES (?, ?, ?, ?, 'running')",
                (
                    campaign_id,
                    canonical_json(spec_dict) if spec_dict is not None else None,
                    cells,
                    workers,
                ),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _delete_campaign_rows(conn: sqlite3.Connection, campaign_id: str) -> None:
        for table in ("records", "cells", "telemetry", "quarantine"):
            conn.execute(f"DELETE FROM {table} WHERE campaign_id = ?", (campaign_id,))

    def delete_campaign(self, campaign_id: str) -> None:
        """Remove a campaign and everything it owns."""
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            self._delete_campaign_rows(conn, campaign_id)
            conn.execute("DELETE FROM campaigns WHERE campaign_id = ?", (campaign_id,))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def finish_campaign(
        self,
        campaign_id: str,
        executed: int,
        skipped: int,
        elapsed_s: float,
        status: str = "done",
    ) -> None:
        self.conn.execute(
            "UPDATE campaigns SET executed = ?, skipped = ?, elapsed_s = ?,"
            " status = ? WHERE campaign_id = ?",
            (executed, skipped, elapsed_s, status, campaign_id),
        )

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def append_record(self, campaign_id: str, record: Dict[str, Any]) -> None:
        """Insert one cell record (cells row + record row, one transaction).

        The grid coordinates come straight off the record, which carries
        them by construction (see ``_run_cell_body``).
        """
        cell_id = record.get("cell_id")
        if not cell_id:
            raise ResultStoreError(
                f"record without a cell_id cannot enter store {self.path}"
            )
        scenario = record.get("scenario")
        conn = self.conn
        faults = _faults()
        spec = faults.checkpoint("store-append", cell_id)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "INSERT OR REPLACE INTO cells"
                " (campaign_id, cell_id, cell_index, topology, scheme,"
                "  discriminator, scenario_family, scenario_json, seed)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    cell_id,
                    record.get("index", 0),
                    record.get("topology", ""),
                    record.get("scheme", ""),
                    record.get("discriminator"),
                    record.get("scenario_family"),
                    canonical_json(scenario) if scenario is not None else None,
                    record.get("seed"),
                ),
            )
            if spec is not None and spec.kind == "partial-write":
                # The torn-write analogue for the SQLite backend: die with
                # the transaction open.  WAL rolls it back on next open, so
                # crash consistency here means the record simply never
                # happened and the cell re-runs on resume.
                faults.crash_now()
            conn.execute(
                "INSERT OR REPLACE INTO records (campaign_id, cell_id, record_json)"
                " VALUES (?, ?, ?)",
                (campaign_id, cell_id, canonical_json(record)),
            )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.OperationalError:
                pass
            raise

    def load_records(self, campaign_id: str) -> List[Dict[str, Any]]:
        """Every record of one campaign, in cell order."""
        rows = self.conn.execute(
            "SELECT records.record_json FROM records"
            " JOIN cells ON cells.campaign_id = records.campaign_id"
            "          AND cells.cell_id = records.cell_id"
            " WHERE records.campaign_id = ?"
            " ORDER BY cells.cell_index",
            (campaign_id,),
        ).fetchall()
        return [json.loads(row["record_json"]) for row in rows]

    def completed_cell_ids(self, campaign_id: str) -> Set[str]:
        rows = self.conn.execute(
            "SELECT cell_id FROM records WHERE campaign_id = ?", (campaign_id,)
        ).fetchall()
        return {row["cell_id"] for row in rows}

    def record_count(self, campaign_id: Optional[str] = None) -> int:
        if campaign_id is None:
            return int(self.conn.execute("SELECT COUNT(*) FROM records").fetchone()[0])
        return int(
            self.conn.execute(
                "SELECT COUNT(*) FROM records WHERE campaign_id = ?", (campaign_id,)
            ).fetchone()[0]
        )

    # ------------------------------------------------------------------
    # telemetry + quarantine
    # ------------------------------------------------------------------
    def put_manifest(self, campaign_id: str, manifest: Dict[str, Any]) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO telemetry (campaign_id, manifest_json)"
            " VALUES (?, ?)",
            (campaign_id, canonical_json(manifest)),
        )

    def get_manifest(self, campaign_id: str) -> Optional[Dict[str, Any]]:
        row = self.conn.execute(
            "SELECT manifest_json FROM telemetry WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        return json.loads(row["manifest_json"]) if row is not None else None

    def put_quarantine(
        self, campaign_id: str, entries: Sequence[Dict[str, Any]]
    ) -> None:
        """Replace the campaign's quarantine entries (whole-set rewrite)."""
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "DELETE FROM quarantine WHERE campaign_id = ?", (campaign_id,)
            )
            for entry in entries:
                conn.execute(
                    "INSERT OR REPLACE INTO quarantine"
                    " (campaign_id, cell_id, cell_index, entry_json)"
                    " VALUES (?, ?, ?, ?)",
                    (
                        campaign_id,
                        entry.get("cell_id", ""),
                        entry.get("index", 0),
                        canonical_json(entry),
                    ),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def load_quarantine(self, campaign_id: str) -> List[Dict[str, Any]]:
        rows = self.conn.execute(
            "SELECT entry_json FROM quarantine WHERE campaign_id = ?"
            " ORDER BY cell_index",
            (campaign_id,),
        ).fetchall()
        return [json.loads(row["entry_json"]) for row in rows]

    # ------------------------------------------------------------------
    # cross-campaign query
    # ------------------------------------------------------------------
    def query(
        self,
        expression: Union[str, Sequence[str], Filter, None] = None,
        limit: Optional[int] = None,
        *,
        count: bool = False,
    ) -> Union[List[Dict[str, Any]], int]:
        """Records matching a filter expression, across campaigns.

        ``expression`` is the grammar of :mod:`repro.store.query`
        (``scheme=pr topology~zoo campaign:last10``) or an already-parsed
        :class:`Filter`.  Results come back oldest-campaign-first, in cell
        order within each campaign — exactly the shape the aggregation
        functions in :mod:`repro.runner.aggregate` consume.

        ``count=True`` returns only how many records the same statement
        (filter, campaign selection and ``limit``) matches, counted in SQL
        without loading or decoding a record.
        """
        filt = (
            expression
            if isinstance(expression, Filter)
            else parse_filter(expression)
        )
        selected = campaign_ids_for(filt.campaign, self.campaigns())
        if selected is not None and not selected:
            if filt.campaign[0] == "id":
                raise ExperimentError(
                    f"no campaign in {self.path} matches"
                    f" 'campaign:{filt.campaign[1]}'"
                )
            return 0 if count else []
        where, params = filt.sql_where()
        sql = (
            f"SELECT {'1' if count else 'records.record_json'} FROM records"
            " JOIN cells ON cells.campaign_id = records.campaign_id"
            "          AND cells.cell_id = records.cell_id"
            " JOIN campaigns ON campaigns.campaign_id = records.campaign_id"
            f" WHERE {where}"
        )
        bound: List[Any] = list(params)
        if selected is not None:
            marks = ", ".join("?" for _ in selected)
            sql += f" AND records.campaign_id IN ({marks})"
            bound.extend(selected)
        if not count:
            # A LIMIT keeps as many rows in any order, so a count skips the sort.
            sql += " ORDER BY campaigns.seq, cells.cell_index"
        if limit is not None:
            sql += " LIMIT ?"
            bound.append(int(limit))
        if count:
            sql = f"SELECT COUNT(*) FROM ({sql})"
            return int(self.conn.execute(sql, tuple(bound)).fetchone()[0])
        rows = self.conn.execute(sql, tuple(bound)).fetchall()
        return [json.loads(row["record_json"]) for row in rows]

    def query_count(
        self, expression: Union[str, Sequence[str], Filter, None] = None
    ) -> int:
        return self.query(expression, count=True)
