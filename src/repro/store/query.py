"""The filter-expression grammar of the results query layer.

A filter expression is a whitespace-separated list of clauses, all of which
must hold (AND semantics)::

    scheme=pr topology~zoo family=srlg seed=12345 campaign:last10

Clause forms:

``field=value``
    Exact match.  ``seed`` compares as an integer; everything else as a
    string.
``field!=value``
    Exact mismatch.
``field~value``
    Case-insensitive substring match.
``campaign:SELECTOR``
    Which campaigns to search: ``all`` (default), ``lastN`` (the N most
    recently started campaigns, e.g. ``last10``), or a campaign-id /
    spec-hash prefix (``campaign:4f21`` matches every campaign whose id
    starts with ``4f21``).

Fields map onto the indexed columns of the store's ``cells`` table —
``topology``, ``scheme``, ``discriminator``, ``family`` (alias
``scenario``), ``seed``, ``cell`` (the canonical cell id) — so a store
query compiles to one indexed SQL scan.  The same :class:`Filter` also
evaluates in memory over plain record dictionaries, which is how
in-process :class:`~repro.runner.executor.CampaignHandle` objects answer
the identical expressions.  Both take the same optional ``limit`` on the
number of records, checked by :func:`check_limit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.params import check_value

#: field name -> ``cells`` column it compiles to.
FIELD_COLUMNS: Dict[str, str] = {
    "topology": "topology",
    "scheme": "scheme",
    "discriminator": "discriminator",
    "family": "scenario_family",
    "scenario": "scenario_family",
    "cell": "cell_id",
    "seed": "seed",
}

_OPS = ("!=", "=", "~")


@dataclass(frozen=True)
class Clause:
    """One ``field OP value`` term of a filter expression."""

    field: str
    op: str  # "=", "!=" or "~"
    value: str

    def matches(self, record: Dict[str, Any]) -> bool:
        actual = _record_field(record, self.field)
        if self.op == "~":
            return self.value.lower() in str(actual).lower()
        if self.field == "seed":
            try:
                equal = int(actual) == int(self.value)
            except (TypeError, ValueError):
                equal = False
        else:
            equal = str(actual) == self.value
        return equal if self.op == "=" else not equal

    def sql(self) -> Tuple[str, Tuple[Any, ...]]:
        column = f"cells.{FIELD_COLUMNS[self.field]}"
        if self.op == "~":
            return f"LOWER({column}) LIKE ?", (f"%{_escape_like(self.value.lower())}%",)
        value: Any = int(self.value) if self.field == "seed" else self.value
        return (f"{column} = ?", (value,)) if self.op == "=" else (
            f"{column} != ?",
            (value,),
        )


def _escape_like(text: str) -> str:
    # SQLite LIKE has no default escape character; '%'/'_' in user values
    # would turn into wildcards.  The compiled clauses add ESCAPE '\'.
    return text.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")


def _record_field(record: Dict[str, Any], name: str) -> Any:
    if name in ("family", "scenario"):
        family = record.get("scenario_family")
        if family:
            return family
        scenario = record.get("scenario", {})
        return scenario.get("model") or scenario.get("kind", "")
    if name == "cell":
        return record.get("cell_id", "")
    return record.get(name, "")


#: Campaign selectors: ("all",), ("last", N) or ("id", prefix).
CampaignSelector = Tuple[Any, ...]


@dataclass(frozen=True)
class Filter:
    """A parsed filter expression: field clauses plus a campaign selector."""

    clauses: Tuple[Clause, ...] = ()
    campaign: CampaignSelector = ("all",)
    #: The original expression text (for error messages and logging).
    text: str = ""
    #: True when the expression spelled out a ``campaign:`` selector; an
    #: explicit selector (even ``campaign:all``) asks for a cross-campaign
    #: query against the backing store.
    campaign_explicit: bool = False

    def matches(self, record: Dict[str, Any]) -> bool:
        """In-memory evaluation over one record (campaign selector ignored:
        a plain record set is one campaign by construction)."""
        return all(clause.matches(record) for clause in self.clauses)

    def filter_records(self, records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return [record for record in records if self.matches(record)]

    def sql_where(self) -> Tuple[str, Tuple[Any, ...]]:
        """The WHERE fragment over the ``cells`` table (campaign selector
        excluded — the store resolves that against the ``campaigns`` table)."""
        if not self.clauses:
            return "1", ()
        parts: List[str] = []
        params: List[Any] = []
        for clause in self.clauses:
            fragment, values = clause.sql()
            if clause.op == "~":
                fragment += " ESCAPE '\\'"
            parts.append(fragment)
            params.extend(values)
        return " AND ".join(parts), tuple(params)

    def describe(self) -> str:
        return self.text or "(match everything)"


def check_limit(limit: Optional[int]) -> None:
    """Fail unless ``limit`` is ``None`` (every record) or an integer >= 0."""
    if limit is None:
        return
    check_value(limit, int, "query", "limit")
    if limit < 0:
        raise ExperimentError(f"query field 'limit' must be >= 0, got {limit}")


def parse_filter(
    expression: Union[str, Sequence[str], None],
    default_campaign: CampaignSelector = ("all",),
) -> Filter:
    """Parse a filter expression (string or pre-split token list).

    Raises :class:`~repro.errors.ExperimentError` on unknown fields,
    malformed clauses or bad campaign selectors, naming the offending
    token.
    """
    if expression is None:
        tokens: List[str] = []
    elif isinstance(expression, str):
        tokens = expression.split()
    else:
        tokens = [token for part in expression for token in str(part).split()]
    clauses: List[Clause] = []
    campaign: CampaignSelector = default_campaign
    campaign_explicit = False
    for token in tokens:
        if token.startswith("campaign:"):
            campaign = _parse_campaign_selector(token[len("campaign:") :], token)
            campaign_explicit = True
            continue
        clauses.append(_parse_clause(token))
    return Filter(
        clauses=tuple(clauses),
        campaign=campaign,
        text=" ".join(tokens),
        campaign_explicit=campaign_explicit,
    )


def _parse_clause(token: str) -> Clause:
    for op in _OPS:
        if op in token:
            name, _, value = token.partition(op)
            name = name.strip().lower()
            value = value.strip()
            if name == "campaign":
                # campaign=HASH is accepted as an alias of campaign:HASH
                # but only via the selector path, so rewrite it.
                raise ExperimentError(
                    f"bad filter clause {token!r}: select campaigns with "
                    f"'campaign:{value}' (or campaign:lastN / campaign:all)"
                )
            if name not in FIELD_COLUMNS:
                raise ExperimentError(
                    f"unknown filter field {name!r} in {token!r}; "
                    f"fields: {', '.join(sorted(set(FIELD_COLUMNS)))}"
                )
            if not value:
                raise ExperimentError(f"empty value in filter clause {token!r}")
            if name == "seed" and op != "~":
                try:
                    int(value)
                except ValueError:
                    raise ExperimentError(
                        f"seed clause needs an integer, got {token!r}"
                    )
            return Clause(field=name, op=op, value=value)
    raise ExperimentError(
        f"cannot parse filter clause {token!r}; expected field=value, "
        f"field!=value, field~value or campaign:SELECTOR"
    )


def _parse_campaign_selector(selector: str, token: str) -> CampaignSelector:
    selector = selector.strip()
    if not selector:
        raise ExperimentError(f"empty campaign selector in {token!r}")
    lowered = selector.lower()
    if lowered == "all":
        return ("all",)
    if lowered.startswith("last"):
        suffix = lowered[len("last") :]
        try:
            count = int(suffix) if suffix else 1
        except ValueError:
            raise ExperimentError(
                f"bad campaign selector {token!r}; use campaign:lastN with integer N"
            )
        if count < 1:
            raise ExperimentError(f"campaign:lastN needs N >= 1, got {token!r}")
        return ("last", count)
    return ("id", selector)


def campaign_ids_for(
    selector: CampaignSelector, campaigns: Sequence[Dict[str, Any]]
) -> Optional[List[str]]:
    """Resolve a selector against campaign rows (oldest-first by ``seq``).

    Returns the selected campaign ids in store order, or ``None`` for the
    ``all`` selector (meaning: no campaign restriction at all).
    """
    if selector[0] == "all":
        return None
    if selector[0] == "last":
        count = selector[1]
        return [row["campaign_id"] for row in campaigns[-count:]]
    prefix = selector[1]
    return [
        row["campaign_id"]
        for row in campaigns
        if str(row["campaign_id"]).startswith(prefix)
    ]


# Re-exported dataclass field to keep ruff happy about unused import in
# modules that subclass Filter configurations.
__all__ = [
    "Clause",
    "Filter",
    "FIELD_COLUMNS",
    "campaign_ids_for",
    "parse_filter",
]

_ = field  # pragma: no cover - silence unused-import style checkers
