"""SQLite schema and migrations for the campaign results store.

The store keeps every table the results pipeline produces in one database
file: campaign identity (``campaigns``), the grid coordinates of every cell
(``cells``, with the canonical cell-id, topology, scheme, scenario-family
and seed columns indexed for cross-campaign queries), the full result
records (``records``, canonical JSON — the same bytes a ``repro migrate``
JSONL export holds), the merged telemetry manifest (``telemetry``), the
quarantined-cell entries (``quarantine``) and the ``repro serve`` job
journal (``jobs`` — one row per submitted campaign job, the crash-safe
queue the daemon recovers on restart; see :mod:`repro.store.jobs`).

Migrations are append-only: :data:`MIGRATIONS` is an ordered list of SQL
scripts, and the applied prefix is recorded in ``schema_migrations``.
Opening a store created by an older version applies exactly the missing
suffix; opening one created by a *newer* version fails loudly instead of
guessing.  Every connection runs in WAL mode with a busy timeout, so
concurrent writers (campaigns appending from different processes) serialise
on the SQLite write lock instead of corrupting each other.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

from repro.errors import ResultStoreError

#: Current schema version == ``len(MIGRATIONS)``.
SCHEMA_VERSION = 2

#: Ordered migration scripts; index ``i`` brings a store at version ``i`` to
#: version ``i + 1``.  Never edit an entry in place — append a new one.
MIGRATIONS = (
    """
    CREATE TABLE campaigns (
        seq          INTEGER PRIMARY KEY AUTOINCREMENT,
        campaign_id  TEXT NOT NULL UNIQUE,
        spec_json    TEXT,
        cells        INTEGER,
        workers      INTEGER,
        executed     INTEGER NOT NULL DEFAULT 0,
        skipped      INTEGER NOT NULL DEFAULT 0,
        elapsed_s    REAL NOT NULL DEFAULT 0.0,
        status       TEXT NOT NULL DEFAULT 'running'
    );

    CREATE TABLE cells (
        campaign_id     TEXT NOT NULL,
        cell_id         TEXT NOT NULL,
        cell_index      INTEGER NOT NULL,
        topology        TEXT NOT NULL,
        scheme          TEXT NOT NULL,
        discriminator   TEXT,
        scenario_family TEXT,
        scenario_json   TEXT,
        seed            INTEGER,
        PRIMARY KEY (campaign_id, cell_id)
    );
    CREATE INDEX idx_cells_topology ON cells (topology);
    CREATE INDEX idx_cells_scheme ON cells (scheme);
    CREATE INDEX idx_cells_family ON cells (scenario_family);
    CREATE INDEX idx_cells_seed ON cells (seed);
    CREATE INDEX idx_cells_order ON cells (campaign_id, cell_index);

    CREATE TABLE records (
        campaign_id TEXT NOT NULL,
        cell_id     TEXT NOT NULL,
        record_json TEXT NOT NULL,
        PRIMARY KEY (campaign_id, cell_id)
    );

    CREATE TABLE telemetry (
        campaign_id   TEXT NOT NULL PRIMARY KEY,
        manifest_json TEXT NOT NULL
    );

    CREATE TABLE quarantine (
        campaign_id TEXT NOT NULL,
        cell_id     TEXT NOT NULL,
        cell_index  INTEGER NOT NULL,
        entry_json  TEXT NOT NULL,
        PRIMARY KEY (campaign_id, cell_id)
    );
    """,
    # v2: the ``repro serve`` job journal.  A submitted campaign becomes a
    # row here *before* anything executes; state transitions (queued ->
    # running -> done/failed/cancelled) are single UPDATE statements, so a
    # SIGKILL at any instant leaves a row whose state tells the restarted
    # daemon exactly what to recover (``running`` + dead pid -> re-queued
    # with resume forced).
    """
    CREATE TABLE jobs (
        seq              INTEGER PRIMARY KEY AUTOINCREMENT,
        job_id           TEXT NOT NULL UNIQUE,
        campaign_id      TEXT NOT NULL,
        spec_json        TEXT NOT NULL,
        results          TEXT,
        workers          INTEGER NOT NULL DEFAULT 1,
        resume           INTEGER NOT NULL DEFAULT 0,
        policy_json      TEXT,
        state            TEXT NOT NULL DEFAULT 'queued',
        attempts         INTEGER NOT NULL DEFAULT 0,
        cancel_requested INTEGER NOT NULL DEFAULT 0,
        worker_pid       INTEGER,
        submitted_s      REAL,
        heartbeat_s      REAL,
        progress_done    INTEGER NOT NULL DEFAULT 0,
        progress_total   INTEGER NOT NULL DEFAULT 0,
        phase            TEXT,
        last_error       TEXT,
        executed         INTEGER,
        skipped          INTEGER,
        elapsed_s        REAL
    );
    CREATE INDEX idx_jobs_state ON jobs (state);
    CREATE INDEX idx_jobs_campaign ON jobs (campaign_id);
    """,
)

assert len(MIGRATIONS) == SCHEMA_VERSION


def connect(path: Union[str, Path]) -> sqlite3.Connection:
    """Open a store connection with the pragmas every writer relies on.

    ``isolation_level=None`` puts the connection in autocommit mode so
    transactions are explicit (``BEGIN IMMEDIATE`` ... ``COMMIT``), which is
    the only way to get predictable lock acquisition under concurrency.

    ``check_same_thread=False`` lets the resident ``repro serve`` daemon
    share one warm connection across its request threads; every writer in
    this package serialises access (the session lock, the job queue lock,
    or single-threaded use), which is the contract sqlite3 documents for
    shared connections.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(
        str(path), timeout=30.0, isolation_level=None, check_same_thread=False
    )
    conn.row_factory = sqlite3.Row
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout=30000")
    conn.execute("PRAGMA foreign_keys=ON")
    return conn


def open_store(path: Union[str, Path]) -> sqlite3.Connection:
    """A connection with every pending migration applied (closed on failure)."""
    conn = connect(path)
    try:
        ensure_schema(conn)
    except BaseException:
        conn.close()
        raise
    return conn


@contextmanager
def transaction(conn: sqlite3.Connection) -> Iterator[sqlite3.Connection]:
    """One ``BEGIN IMMEDIATE`` ... ``COMMIT`` write transaction.

    Any exception from the body rolls the transaction back and propagates
    unchanged; a rollback that fails because SQLite already ended the
    transaction does not mask it.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
        conn.execute("COMMIT")
    except BaseException:
        try:
            conn.execute("ROLLBACK")
        except sqlite3.OperationalError:
            pass
        raise


def applied_version(conn: sqlite3.Connection) -> int:
    """The schema version of an open store (0 for a fresh database)."""
    row = conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' AND name='schema_migrations'"
    ).fetchone()
    if row is None:
        return 0
    version = conn.execute("SELECT MAX(version) FROM schema_migrations").fetchone()[0]
    return int(version or 0)


def ensure_schema(conn: sqlite3.Connection) -> int:
    """Apply every pending migration; returns the resulting version.

    Raises :class:`~repro.errors.ResultStoreError` when the store was
    written by a newer schema than this code knows about.
    """
    conn.execute(
        "CREATE TABLE IF NOT EXISTS schema_migrations ("
        " version INTEGER PRIMARY KEY, script_sha TEXT)"
    )
    version = applied_version(conn)
    if version > SCHEMA_VERSION:
        raise ResultStoreError(
            f"store schema version {version} is newer than this code's "
            f"{SCHEMA_VERSION}; upgrade the repro package to read it"
        )
    for index in range(version, SCHEMA_VERSION):
        # ``executescript`` manages its own transaction, so the migration
        # race between two concurrent openers is resolved by re-checking
        # the version after a failed DDL statement: whoever lost the race
        # sees the winner's tables already present.
        try:
            conn.executescript(MIGRATIONS[index])
        except sqlite3.OperationalError:
            if applied_version(conn) > index:
                continue
            raise
        conn.execute(
            "INSERT OR IGNORE INTO schema_migrations (version) VALUES (?)",
            (index + 1,),
        )
    return SCHEMA_VERSION
