"""Declarative campaign specifications for experiment sweeps.

A campaign is the cross product of topologies x schemes x discriminators x
failure-scenario generators — exactly the grid behind the paper's evaluation
(Figure 2 is one topology row and one scenario column of it).  A
:class:`CampaignSpec` describes that grid declaratively; :meth:`CampaignSpec.cells`
expands it into independent :class:`CampaignCell` work units that the executor
can fan out across processes.

Two determinism rules make campaign results reproducible and comparable:

* The scenario-generation seed of a cell is derived from the campaign seed
  and the (topology, scenario) coordinates only — **not** from the scheme or
  discriminator — so every scheme is measured against the identical set of
  failure scenarios, as in Figure 2.
* A cell's identity (:attr:`CampaignCell.cell_id`) is a content hash of all
  the inputs that can change its result, which is what lets the executor
  resume a partially completed campaign and skip cells that are already done.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.params import check_fields, decode
from repro.routing.discriminator import DiscriminatorKind
from repro.scenarios import get_scenario_model
from repro.topologies.corpus import canonical_topology, topology_set

#: Scheme registry keys accepted by campaign specs, with their display names
#: (the ``name`` attribute of the scheme class the executor instantiates).
SCHEME_NAMES: Dict[str, str] = {
    "reconvergence": "Re-convergence",
    "fcp": "Failure-Carrying Packets",
    "pr": "Packet Re-cycling",
    "pr-1bit": "Packet Re-cycling (1-bit)",
    "lfa": "Loop-Free Alternates",
    "noprotection": "No protection",
}

#: Scheme keys whose offline stage includes a cellular embedding (and can
#: therefore be served from the artifact cache).
EMBEDDING_SCHEMES: Tuple[str, ...] = ("pr", "pr-1bit")

_SCENARIO_KINDS = ("single-link", "multi-link", "node", "model")
_COVERAGE_MODES = ("affected", "full")


def available_schemes() -> List[str]:
    """Scheme registry keys accepted by :class:`CampaignSpec`."""
    return list(SCHEME_NAMES)


def derive_seed(base: int, *parts: object) -> int:
    """A deterministic 63-bit seed from a base seed and a coordinate tuple."""
    text = "|".join(str(part) for part in (base,) + parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One failure-scenario generator of a campaign.

    ``kind`` selects the generator: ``"single-link"`` enumerates every link
    failure, ``"multi-link"`` samples ``samples`` non-disconnecting
    combinations of ``failures`` simultaneous link failures, ``"node"``
    enumerates every single-node failure (all the node's links fail at once),
    and ``"model"`` delegates to a registered
    :class:`~repro.scenarios.base.ScenarioModel` named by ``model`` with the
    parameter overrides in ``params`` (see ``python -m repro scenarios list``
    and :meth:`ScenarioSpec.for_model`).
    """

    kind: str = "single-link"
    failures: int = 1
    samples: int = 50
    non_disconnecting: bool = True
    model: str = ""
    #: Canonicalised model parameters: the *fully resolved* parameter set
    #: (every declared parameter present), as a name-sorted tuple of pairs so
    #: the spec stays hashable and two spellings of the same parameters
    #: (defaults implicit or explicit, dict or tuple) compare equal.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        check_fields(self, "scenario spec")
        if self.kind not in _SCENARIO_KINDS:
            raise ExperimentError(
                f"unknown scenario kind {self.kind!r}; expected one of {_SCENARIO_KINDS}"
            )
        if self.kind == "multi-link" and self.failures < 2:
            raise ExperimentError("multi-link scenarios need failures >= 2")
        if self.samples < 1:
            raise ExperimentError("at least one scenario sample is required")
        if self.kind == "model":
            if not self.model:
                raise ExperimentError(
                    'kind="model" scenario specs need a model name'
                )
            if self.failures != 1:
                # failures would silently feed key()/cell ids without the
                # model ever reading it, splitting identical regimes into
                # distinct grid cells.
                raise ExperimentError(
                    'kind="model" scenario specs configure failure counts '
                    "through model params, not failures="
                )
            # ``params`` may arrive as a mapping or as a tuple of pairs;
            # both canonicalise through dict().
            resolved = get_scenario_model(self.model).resolve_params(dict(self.params))
            object.__setattr__(
                self, "params", tuple(sorted(resolved.items()))
            )
        elif self.model or self.params:
            raise ExperimentError(
                f"scenario kind {self.kind!r} does not take a model or params "
                f'(got model={self.model!r}); use kind="model"'
            )
        else:
            object.__setattr__(self, "params", ())  # ``{}`` is spelled ``()``

    @classmethod
    def for_model(cls, model: str, **params: Any) -> "ScenarioSpec":
        """Convenience constructor: ``ScenarioSpec.for_model("srlg", group_size=4)``.

        ``samples`` and ``non_disconnecting`` set those fields; every other
        keyword is a model parameter.
        """
        spec_fields = {
            name: params.pop(name)
            for name in ("samples", "non_disconnecting")
            if name in params
        }
        return cls(kind="model", model=model, params=params, **spec_fields)

    @property
    def label(self) -> str:
        """Short human-readable label used in result tables."""
        if self.kind == "multi-link":
            return f"{self.failures}-link"
        if self.kind == "model":
            return self.model
        return self.kind

    @property
    def family(self) -> str:
        """The scenario family records aggregate under.

        Model specs aggregate under the model name; built-in kinds under
        their label, which keeps different multi-link severities ("2-link"
        vs "4-link") in separate rows — pooling across severities is exactly
        what per-family aggregation exists to avoid.
        """
        return self.model if self.kind == "model" else self.label

    def key(self) -> Tuple[object, ...]:
        """The coordinates that identify this generator inside a campaign.

        Legacy kinds keep their original 4-tuple so existing cell ids (and
        the JSONL records addressed by them) remain valid; model specs extend
        it with the model name and canonical parameters.
        """
        base: Tuple[object, ...] = (
            self.kind,
            self.failures,
            self.samples,
            self.non_disconnecting,
        )
        if self.kind == "model":
            return base + (self.model, self.params)
        return base

    def to_dict(self) -> Dict[str, Any]:
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        payload["params"] = dict(self.params)
        if self.kind != "model":
            del payload["model"], payload["params"]  # legacy kinds keep their spec hashes
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        return decode(cls, payload, "scenario spec")


@dataclass(frozen=True)
class CampaignCell:
    """One independent work unit of a campaign: a full point of the grid."""

    index: int
    topology: str
    scheme: str
    discriminator: str
    scenario: ScenarioSpec
    seed: int
    embedding_method: str
    embedding_iterations: int
    embedding_seed: int
    coverage: str
    record_samples: bool

    @property
    def cell_id(self) -> str:
        """Content hash of every input that can change this cell's result."""
        payload = (
            self.topology,
            self.scheme,
            self.discriminator,
            self.scenario.key(),
            self.seed,
            self.embedding_method,
            self.embedding_iterations,
            self.embedding_seed,
            self.coverage,
            self.record_samples,
        )
        digest = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
        return digest[:16]

    @property
    def label(self) -> str:
        return f"{self.topology}/{self.scheme}/{self.scenario.label}"


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep grid over the evaluation dimensions.

    ``topologies`` entries are corpus topology specs — registry names
    (``"abilene"``), parameterized synthetic instances
    (``"waxman:size=40,seed=3"``), committed zoo snapshots
    (``"nsfnet1991"``) — or paths to GraphML / edge-list files.  Corpus
    specs are canonicalised at construction (family lowercased, every
    declared parameter resolved, name-sorted), so two spellings of the same
    instance produce identical cell ids and cache keys; see
    :func:`repro.topologies.corpus.parse_topology_spec`.  ``schemes`` are
    keys of :data:`SCHEME_NAMES`;
    ``discriminators`` are :class:`~repro.routing.discriminator.DiscriminatorKind`
    values.  ``coverage`` selects which pairs are delivery-accounted:
    ``"affected"`` measures only pairs whose failure-free path broke (the
    Figure 2 conditioning), ``"full"`` measures every still-connected ordered
    pair (the repair-coverage conditioning of Section 4).
    """

    topologies: Tuple[str, ...]
    schemes: Tuple[str, ...] = ("reconvergence", "fcp", "pr")
    discriminators: Tuple[str, ...] = ("hop-count",)
    scenarios: Tuple[ScenarioSpec, ...] = (ScenarioSpec(),)
    seed: int = 1
    embedding_method: str = "auto"
    embedding_iterations: int = 200
    embedding_seed: int = 0
    coverage: str = "affected"
    record_samples: bool = True

    def __post_init__(self) -> None:
        check_fields(self, "campaign spec")

        def unique(values):
            # A grid axis is a set with an order; duplicate entries would
            # produce duplicate cells (same cell_id, double-counted results).
            return tuple(dict.fromkeys(values))

        # Canonicalising before dedup folds distinct spellings of the same
        # corpus instance ("WAXMAN:seed=3,size=40" vs the sorted,
        # default-resolved form) into one grid entry; file paths pass
        # through untouched.  Bad params of a *known* family raise here —
        # at spec construction — rather than inside a worker process.
        object.__setattr__(
            self,
            "topologies",
            unique(canonical_topology(entry) for entry in self.topologies),
        )
        object.__setattr__(self, "schemes", unique(self.schemes))
        object.__setattr__(self, "discriminators", unique(self.discriminators))
        object.__setattr__(self, "scenarios", unique(self.scenarios))
        if not self.topologies:
            raise ExperimentError("a campaign needs at least one topology")
        if not self.schemes:
            raise ExperimentError("a campaign needs at least one scheme")
        if not self.scenarios:
            raise ExperimentError("a campaign needs at least one scenario spec")
        unknown = [key for key in self.schemes if key not in SCHEME_NAMES]
        if unknown:
            raise ExperimentError(
                f"unknown scheme keys {unknown!r}; available: {available_schemes()}"
            )
        valid_kinds = {kind.value for kind in DiscriminatorKind}
        bad = [kind for kind in self.discriminators if kind not in valid_kinds]
        if bad:
            raise ExperimentError(
                f"unknown discriminator kinds {bad!r}; available: {sorted(valid_kinds)}"
            )
        if self.coverage not in _COVERAGE_MODES:
            raise ExperimentError(
                f"unknown coverage mode {self.coverage!r}; expected one of {_COVERAGE_MODES}"
            )

    # ------------------------------------------------------------------
    # grid expansion
    # ------------------------------------------------------------------
    def cells(self) -> List[CampaignCell]:
        """Expand the grid into cells, in deterministic presentation order.

        The scenario-generation seed depends only on (campaign seed,
        topology, scenario spec), so every scheme and discriminator is
        evaluated on the identical scenario set.
        """
        cells: List[CampaignCell] = []
        index = 0
        for topology in self.topologies:
            for scenario in self.scenarios:
                cell_seed = derive_seed(self.seed, topology, *scenario.key())
                for discriminator in self.discriminators:
                    for scheme in self.schemes:
                        cells.append(
                            CampaignCell(
                                index=index,
                                topology=topology,
                                scheme=scheme,
                                discriminator=discriminator,
                                scenario=scenario,
                                seed=cell_seed,
                                embedding_method=self.embedding_method,
                                embedding_iterations=self.embedding_iterations,
                                embedding_seed=self.embedding_seed,
                                coverage=self.coverage,
                                record_samples=self.record_samples,
                            )
                        )
                        index += 1
        return cells

    def cell_count(self) -> int:
        return (
            len(self.topologies)
            * len(self.scenarios)
            * len(self.discriminators)
            * len(self.schemes)
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = {field.name: getattr(self, field.name) for field in fields(self)}
        payload["scenarios"] = [scenario.to_dict() for scenario in self.scenarios]
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in payload.items()}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        return decode(cls, payload, "campaign spec", scenarios=ScenarioSpec.from_dict)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"campaign spec is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """The spec in a JSON file; an unreadable or malformed file is an error naming it."""
        try:
            return cls.from_json(Path(path).read_text())
        except OSError as exc:
            raise ExperimentError(
                f"cannot read campaign spec {str(path)!r}: {exc.strerror}"
            ) from None
        except ExperimentError as exc:
            raise ExperimentError(f"{str(path)!r}: {exc}") from None

    def spec_hash(self) -> str:
        """Content hash of the whole spec (stable across round trips)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# dispatch chunking
# ----------------------------------------------------------------------
def chunk_cells(
    cells: Sequence[CampaignCell],
    workers: int,
    chunks_per_worker: int = 2,
) -> List[List[CampaignCell]]:
    """Split cells into dispatch chunks, preferring topology boundaries.

    One future per *chunk* instead of one per cell cuts the pickling/IPC
    round trips of a parallel campaign, and keeping a topology's cells in
    one chunk lets the worker build that topology's graph and shortest-path
    engine once and reuse them across the whole chunk.  Chunks preserve cell
    order within themselves (the executor disposes of outcomes as chunks
    complete, in any order) and target about ``workers * chunks_per_worker`` chunks so stragglers still
    balance.  A chunk only crosses a topology boundary when the current
    group is still under the target size, and an oversized single-topology
    group is split rather than starving the pool.  One worker has nothing to
    balance and gets one cell per chunk, so a stopped campaign ends soon.
    """
    if workers <= 1:
        return [[cell] for cell in cells]
    if not cells:
        return []
    target = max(1, -(-len(cells) // max(1, workers * chunks_per_worker)))
    chunks: List[List[CampaignCell]] = []
    group: List[CampaignCell] = [cells[0]]
    for cell in cells[1:]:
        boundary = cell.topology != group[-1].topology
        if (boundary and len(group) >= target) or len(group) >= 2 * target:
            chunks.append(group)
            group = [cell]
        else:
            group.append(cell)
    chunks.append(group)
    return chunks


# ----------------------------------------------------------------------
# canned specs for the paper's headline experiments
# ----------------------------------------------------------------------
def figure2_campaign_spec(panel: str, samples: int = 60, seed: int = 1) -> CampaignSpec:
    """The campaign equivalent of one Figure 2 panel.

    Single-failure panels enumerate every link failure; multi-failure panels
    sample ``samples`` non-disconnecting combinations with the panel's
    failure count, exactly as :func:`repro.experiments.stretch.figure2_panel`.
    """
    from repro.experiments.stretch import resolve_figure2_panel

    topology, failures = resolve_figure2_panel(panel)
    if failures == 1:
        scenario = ScenarioSpec(kind="single-link")
    else:
        scenario = ScenarioSpec(kind="multi-link", failures=failures, samples=samples)
    return CampaignSpec(topologies=(topology,), scenarios=(scenario,), seed=seed)


def node_failure_campaign_spec(
    topologies: Sequence[str], seed: int = 1
) -> CampaignSpec:
    """A campaign over every single-node failure of the given topologies."""
    return CampaignSpec(
        topologies=tuple(topologies),
        scenarios=(ScenarioSpec(kind="node"),),
        seed=seed,
    )


def corpus_campaign_spec(
    topology_set_name: str = "all",
    schemes: Sequence[str] = ("reconvergence", "fcp"),
    seed: int = 1,
) -> CampaignSpec:
    """A single-link-failure campaign sharded across a named corpus set.

    ``topology_set_name`` is one of ``zoo`` / ``synthetic`` / ``all`` (see
    :func:`repro.topologies.corpus.topology_set`).  The default schemes skip
    the embedding-bearing PR variants so the corpus-wide sweep stays cheap;
    pass ``schemes=("reconvergence", "fcp", "pr")`` for the full comparison.
    """
    return CampaignSpec(
        topologies=tuple(topology_set(topology_set_name)),
        schemes=tuple(schemes),
        scenarios=(ScenarioSpec(kind="single-link"),),
        seed=seed,
    )


def scenario_model_campaign_spec(
    topologies: Sequence[str],
    models: Sequence[str],
    samples: int = 20,
    seed: int = 1,
) -> CampaignSpec:
    """A campaign sweeping registered scenario models (default parameters)."""
    return CampaignSpec(
        topologies=tuple(topologies),
        scenarios=tuple(
            ScenarioSpec.for_model(model, samples=samples) for model in models
        ),
        seed=seed,
    )
