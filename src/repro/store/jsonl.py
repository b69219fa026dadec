"""Checksummed JSONL result files — the ``repro migrate`` interchange format.

Campaigns stream their records into the SQLite
:class:`~repro.store.database.CampaignStore`; no live run writes JSONL.
:class:`ResultStore` reads and writes the one-record-per-line text form
that ``repro migrate`` converts to and from (byte-identical in both
directions), which keeps CI artifacts diffable with plain text tools and
lets campaigns recorded by older versions be imported and resumed.

Each line carries an injected ``_checksum`` field (CRC-32 of the record
without it), so every line stays plain JSON while :meth:`ResultStore.load`
can tell a *trusted* record from a corrupted one.  A torn or
checksum-failing **final** line is the shape a crash mid-append left in
files written by older, streaming versions; it is skipped (counted in
:attr:`ResultStore.torn_records_skipped`) so such a file still imports and
the missing cell re-runs on resume.  The same damage **mid-file** means
the file cannot be trusted as a whole and raises
:class:`~repro.errors.ResultStoreError` with the line number, byte offset
and (when parseable) the cell id.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.errors import ResultStoreError


class ResultStore:
    """One checksummed JSONL file of campaign records (see module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: torn trailing records dropped by the most recent :meth:`load`.
        self.torn_records_skipped = 0

    #: Lines are written as ``{"_checksum": "xxxxxxxx", <canonical body>`` so
    #: :meth:`load` can verify them with one crc32 over the stored bytes
    #: instead of re-serialising every record.
    _CHECKSUM_PREFIX = '{"_checksum": "'
    _CHECKSUM_HEAD = len(_CHECKSUM_PREFIX) + 8 + len('", ')

    @staticmethod
    def checksum(record: Dict[str, Any]) -> str:
        """CRC-32 (hex) over the canonical JSON of a record sans ``_checksum``."""
        canonical = json.dumps(
            {k: v for k, v in record.items() if k != "_checksum"}, sort_keys=True
        )
        return format(zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF, "08x")

    def write(self, records: Iterable[Dict[str, Any]]) -> None:
        """Replace the file with ``records``, one checksummed line each.

        The whole file is written, flushed and fsynced once.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w") as stream:
            for record in records:
                body = json.dumps(record, sort_keys=True)
                crc = format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")
                if len(body) > 2:
                    stream.write(f'{self._CHECKSUM_PREFIX}{crc}", {body[1:]}\n')
                else:
                    stream.write(body + "\n")
            stream.flush()
            os.fsync(stream.fileno())

    def load(self) -> List[Dict[str, Any]]:
        """Every trusted record in the file (a torn final line is dropped).

        The injected ``_checksum`` field is verified and stripped, so the
        returned records compare equal to the in-memory records that
        produced them.  Records written before the checksum protocol (no
        ``_checksum`` field) are accepted unverified.
        """
        self.torn_records_skipped = 0
        if not self.path.exists():
            return []
        records: List[Dict[str, Any]] = []
        lines = self.path.read_text().split("\n")
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()), default=-1
        )
        offset = 0
        for number, line in enumerate(lines):
            stripped = line.strip()
            if stripped:
                try:
                    record = json.loads(stripped)
                    if not isinstance(record, dict):
                        raise ValueError("record is not a JSON object")
                    stored = record.pop("_checksum", None)
                    if stored is not None:
                        if stripped.startswith(self._CHECKSUM_PREFIX) and (
                            stripped[self._CHECKSUM_HEAD - 3 : self._CHECKSUM_HEAD]
                            == '", '
                        ):
                            # Our own line layout: verify the stored bytes
                            # directly, no re-serialisation needed.
                            body = "{" + stripped[self._CHECKSUM_HEAD :]
                            computed = format(
                                zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x"
                            )
                        else:
                            computed = self.checksum(record)
                        if stored != computed:
                            raise ValueError(
                                f"checksum mismatch (stored {stored},"
                                f" computed {computed})"
                            )
                except ValueError as exc:
                    if number == last_content:
                        # The expected shape of a crash mid-append; the
                        # missing cell simply re-runs on resume.
                        self.torn_records_skipped += 1
                    else:
                        match = re.search(r'"cell_id"\s*:\s*"([^"]+)"', stripped)
                        cell = f", cell {match.group(1)}" if match else ""
                        raise ResultStoreError(
                            f"corrupt record in {self.path} at line {number + 1}"
                            f" (byte offset {offset}){cell}: {exc}"
                        )
                else:
                    records.append(record)
            offset += len(line.encode("utf-8")) + 1
        return records
