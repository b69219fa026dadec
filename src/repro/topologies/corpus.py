"""Topology corpus: parameterized families, zoo snapshots and campaign sets.

The paper evaluates on three ISP topologies; production-scale sweeps need a
*corpus* — dozens of real and synthetic networks addressable by name from a
campaign spec.  This module is the registry behind that corpus:

* **Families** (:class:`TopologyFamily`) are named topology constructors
  with *declared* parameters (:class:`repro.params.Param`, shared with the
  scenario models): unknown parameter names and uncoercible values are
  rejected with a :class:`~repro.errors.TopologyError` at spec-construction
  time, and resolved parameters always contain every declared parameter, so
  two spellings of the same instance canonicalise to the same string — and
  therefore to the same campaign cell ids and artifact-cache keys.
* **Specs** (:class:`TopologySpec`) are parsed from ``name[:k=v,...]``
  strings (``waxman:size=40,seed=3``) by :func:`repro.params.parse_spec`,
  the parser scenario models use too.  :attr:`TopologySpec.canonical` is
  the normal form — family lowercased, every parameter present, name-sorted.
* **Zoo snapshots** are GraphML / weighted edge-list files committed under
  ``src/repro/topologies/data/`` (Topology Zoo formats); each file becomes a
  parameter-free family named by its stem.
* **Sets** (:func:`topology_set`) bundle the corpus for campaign sharding:
  ``"zoo"`` (every committed snapshot), ``"synthetic"`` (a curated, seeded
  slice of the generator families) and ``"all"`` (both) — what
  ``python -m repro sweep --topology-set`` expands.

Every family build is deterministic: synthetic generators are pure
functions of their (seeded) parameters and zoo loads are pure functions of
the committed file, so a corpus campaign is reproducible cell-for-cell
across processes and machines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from stat import S_ISDIR
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import TopologyError
from repro.graph.connectivity import is_connected, is_two_edge_connected
from repro.graph.multigraph import Graph
from repro.params import Param, ParamValue, format_value, parse_spec, resolve_params
from repro.topologies import generators
from repro.topologies.abilene import abilene
from repro.topologies.example import example_fig1
from repro.topologies.geant import geant
from repro.topologies.graphml import load_graphml
from repro.topologies.parser import load_graph
from repro.topologies.teleglobe import teleglobe

#: Directory of the committed zoo snapshots.
DATA_DIR = Path(__file__).resolve().parent / "data"

#: File suffixes recognised as topology files, and their loaders.
TOPOLOGY_FILE_SUFFIXES = (".graphml", ".edges", ".topo", ".txt")

_FAMILY_KINDS = ("legacy", "synthetic", "zoo")


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyFamily:
    """A named, parameterized topology constructor."""

    name: str
    kind: str
    summary: str
    build: Callable[..., Graph]
    params: Tuple[Param, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise TopologyError(
                f"unknown family kind {self.kind!r}; expected one of {_FAMILY_KINDS}"
            )

    def resolve_params(self, overrides: Mapping[str, object]) -> Dict[str, ParamValue]:
        """Merge ``overrides`` into the defaults, rejecting unknown names."""
        return resolve_params(self.params, overrides, f"topology {self.name!r}", TopologyError)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """One fully-resolved topology instance of the corpus.

    ``params`` is canonical: every declared parameter present (defaults
    resolved), name-sorted — the invariant that makes :attr:`canonical`
    stable across spellings and therefore safe inside campaign cell ids and
    content-addressed cache keys.
    """

    family: str
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    @property
    def canonical(self) -> str:
        """The normal-form spec string (``name`` or ``name:k=v,...``)."""
        if not self.params:
            return self.family
        rendered = ",".join(f"{name}={format_value(value)}" for name, value in self.params)
        return f"{self.family}:{rendered}"

    def build(self) -> Graph:
        """Construct the topology; the graph is named by :attr:`canonical`."""
        graph = get_family(self.family).build(**dict(self.params))
        graph.name = self.canonical
        return graph


def parse_topology_spec(text: str) -> TopologySpec:
    """Parse ``name[:k=v,...]`` into a canonical :class:`TopologySpec`.

    Raises :class:`~repro.errors.TopologyError` for unknown family names,
    unknown parameters and uncoercible values.
    """
    name, overrides = parse_spec(text, TopologyError)
    family = get_family(name)
    resolved = family.resolve_params(overrides)
    return TopologySpec(family.name, tuple(sorted(resolved.items())))


def try_parse_spec(text: str) -> Optional[TopologySpec]:
    """Parse ``text`` when its family name is registered, else ``None``.

    A known family with bad parameters still raises — a typo in the params
    of a real family must fail loudly, not fall through to file loading.
    """
    head = text.partition(":")[0].strip().lower()
    if head not in _FAMILIES:
        return None
    return parse_topology_spec(text)


def canonical_topology(text: str) -> str:
    """Normalise a campaign topology entry.

    Corpus specs canonicalise (family lowercased, params resolved and
    sorted); anything else — file paths — passes through unchanged.
    """
    spec = try_parse_spec(text)
    return spec.canonical if spec is not None else text


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_FAMILIES: Dict[str, TopologyFamily] = {}


def register_family(family: TopologyFamily, replace: bool = False) -> TopologyFamily:
    """Register a topology family under its (lowercased) name."""
    key = family.name.lower()
    if key != family.name:
        raise TopologyError(
            f"topology family names must be lowercase, got {family.name!r}"
        )
    if not replace and key in _FAMILIES:
        raise TopologyError(f"topology family {key!r} is already registered")
    _FAMILIES[key] = family
    return family


def family_names(kind: Optional[str] = None) -> List[str]:
    """Sorted names of the registered families (optionally one kind)."""
    return sorted(
        name
        for name, family in _FAMILIES.items()
        if kind is None or family.kind == kind
    )


def registered_families(kind: Optional[str] = None) -> List[TopologyFamily]:
    """The registered families sorted by name (optionally one kind)."""
    return [_FAMILIES[name] for name in family_names(kind)]


def get_family(name: str) -> TopologyFamily:
    """Look a family up case-insensitively, reporting the attempted name."""
    family = _FAMILIES.get(name.strip().lower())
    if family is None:
        raise _unknown_family(name)
    return family


def _unknown_family(name: str) -> TopologyError:
    return TopologyError(f"unknown topology {name!r}; available: {', '.join(family_names())}")


def topology_file_stat(text: str) -> os.stat_result:
    """``os.stat`` of an entry that is not a registered family, as a topology file.

    An entry that does not exist raises :class:`~repro.errors.TopologyError`:
    one that looks like a path (it has a suffix or a path separator) names
    the missing file, and a bare name gets :func:`get_family`'s
    unknown-topology message with the registered families.  A directory
    raises one naming it.
    """
    try:
        stat = os.stat(text)
    except FileNotFoundError:
        if Path(text).suffix or "/" in text or os.sep in text:
            raise TopologyError(f"topology file {text!r} does not exist") from None
        raise _unknown_family(text) from None
    if S_ISDIR(stat.st_mode):
        raise TopologyError(f"topology {text!r} is a directory, not a topology file")
    return stat


# ----------------------------------------------------------------------
# file loading (edge lists and GraphML)
# ----------------------------------------------------------------------
def load_topology_file(
    path: Union[str, Path],
    name: Optional[str] = None,
    require_connected: bool = False,
) -> Graph:
    """Load a topology file, dispatching on its suffix.

    ``.graphml`` goes through the GraphML reader; anything else through the
    plain edge-list parser.  ``require_connected`` turns a disconnected
    input into a :class:`~repro.errors.TopologyError` — campaign topologies
    must be connected because every routing and embedding layer assumes it.
    """
    path = Path(path)
    if path.suffix.lower() == ".graphml":
        graph = load_graphml(path, name=name)
    else:
        graph = load_graph(path, name=name)
    if require_connected and not is_connected(graph):
        raise TopologyError(
            f"topology file {path.name!r} is disconnected "
            f"({graph.number_of_nodes()} nodes, {graph.number_of_edges()} links)"
        )
    return graph


def _zoo_family(path: Path) -> TopologyFamily:
    name = path.stem.lower()

    def build(_path: Path = path, _name: str = name) -> Graph:
        return load_topology_file(_path, name=_name, require_connected=True)

    return TopologyFamily(
        name=name,
        kind="zoo",
        summary=f"Topology Zoo snapshot ({path.name})",
        build=build,
    )


def _register_zoo_snapshots() -> None:
    if not DATA_DIR.is_dir():  # pragma: no cover - data dir ships with the package
        return
    for path in sorted(DATA_DIR.iterdir()):
        if path.suffix.lower() in TOPOLOGY_FILE_SUFFIXES:
            try:
                register_family(_zoo_family(path))
            except TopologyError as exc:
                # A snapshot whose stem collides with an existing family
                # (another data file, a synthetic generator, a legacy map)
                # would silently shadow it; fail loudly, naming the file.
                raise TopologyError(
                    f"zoo snapshot {path.name!r} cannot be registered: {exc}"
                ) from None


# ----------------------------------------------------------------------
# building and validation
# ----------------------------------------------------------------------
def build_topology(text: str) -> Graph:
    """Build a corpus spec (``name[:k=v,...]``) or load a topology file."""
    spec = try_parse_spec(text)
    if spec is not None:
        return spec.build()
    topology_file_stat(text)
    return load_topology_file(text)


@dataclass
class TopologyValidation:
    """The outcome of validating one corpus entry."""

    spec: str
    ok: bool
    nodes: int = 0
    links: int = 0
    parallel_links: int = 0
    two_edge_connected: bool = False
    problems: List[str] = field(default_factory=list)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        detail = f"{self.nodes} nodes, {self.links} links"
        if self.parallel_links:
            detail += f", {self.parallel_links} parallel"
        if self.ok and not self.two_edge_connected:
            detail += ", has bridges"
        if self.problems:
            detail += "; " + "; ".join(self.problems)
        return f"{status:4s} {self.spec}  ({detail})"


def validate_topology(text: str) -> TopologyValidation:
    """Build one corpus entry and check the invariants campaigns rely on.

    Hard failures (``ok=False``): the entry does not build, is disconnected,
    or is too small to host a failure experiment.  Structural facts that are
    legal but worth surfacing — parallel links, bridges — are reported
    without failing.
    """
    report = TopologyValidation(spec=canonical_topology(text), ok=True)
    try:
        graph = build_topology(text)
    except Exception as exc:
        report.ok = False
        report.problems.append(str(exc))
        return report
    report.nodes = graph.number_of_nodes()
    report.links = graph.number_of_edges()
    seen: Dict[Tuple[str, str], int] = {}
    for edge in graph.edges():
        pair = (edge.u, edge.v) if edge.u <= edge.v else (edge.v, edge.u)
        seen[pair] = seen.get(pair, 0) + 1
    report.parallel_links = sum(count - 1 for count in seen.values() if count > 1)
    report.two_edge_connected = is_two_edge_connected(graph)
    if report.nodes < 3:
        report.ok = False
        report.problems.append("fewer than 3 nodes")
    if not is_connected(graph):
        report.ok = False
        report.problems.append("disconnected")
    return report


# ----------------------------------------------------------------------
# campaign sets
# ----------------------------------------------------------------------
#: The curated synthetic slice of the corpus: one seeded instance per major
#: generator family, sized so a corpus-wide sweep stays interactive.
SYNTHETIC_SET_MEMBERS: Tuple[str, ...] = (
    "ring:size=16",
    "grid:rows=4,cols=5",
    "torus:rows=4,cols=5",
    "fat-tree:k=4",
    "waxman:size=24,seed=7",
    "barabasi-albert:size=24,m=2,seed=3",
    "er-giant:size=30,probability=0.12,seed=5",
    "random-connected:size=20,extra=10,seed=11",
)

TOPOLOGY_SETS = ("zoo", "synthetic", "all")


def topology_set(name: str) -> List[str]:
    """Expand a named corpus set into canonical topology specs.

    ``zoo`` is every committed snapshot, ``synthetic`` the curated seeded
    generator slice, ``all`` both — the sets behind ``sweep --topology-set``.
    """
    key = name.strip().lower()
    if key == "zoo":
        return family_names(kind="zoo")
    if key == "synthetic":
        return [canonical_topology(member) for member in SYNTHETIC_SET_MEMBERS]
    if key == "all":
        return topology_set("zoo") + topology_set("synthetic")
    raise TopologyError(
        f"unknown topology set {name!r}; available: {', '.join(TOPOLOGY_SETS)}"
    )


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------
def _legacy(name: str, summary: str, build: Callable[[], Graph]) -> None:
    register_family(TopologyFamily(name=name, kind="legacy", summary=summary, build=build))


_legacy("abilene", "Abilene (Internet2) backbone, 11 PoPs", abilene)
_legacy("teleglobe", "Teleglobe (AS6453) reconstruction", teleglobe)
_legacy("geant", "GEANT (2009-era) reconstruction", geant)
_legacy("fig1-example", "the six-node example of Figure 1(a)", example_fig1)


def _synthetic(
    name: str,
    summary: str,
    build: Callable[..., Graph],
    *params: Param,
) -> None:
    register_family(
        TopologyFamily(
            name=name, kind="synthetic", summary=summary, build=build, params=params
        )
    )


_synthetic(
    "ring",
    "a cycle (smallest 2-edge-connected topology)",
    lambda size: generators.ring_graph(size),
    Param("size", 16, "number of nodes"),
)
_synthetic(
    "grid",
    "planar rows x cols grid",
    lambda rows, cols: generators.grid_graph(rows, cols),
    Param("rows", 4, "grid rows"),
    Param("cols", 5, "grid columns"),
)
_synthetic(
    "torus",
    "grid with wrap-around links (genus-1)",
    lambda rows, cols: generators.torus_grid_graph(rows, cols),
    Param("rows", 4, "grid rows"),
    Param("cols", 5, "grid columns"),
)
_synthetic(
    "complete",
    "the complete graph K_n",
    lambda size: generators.complete_graph(size),
    Param("size", 8, "number of nodes"),
)
_synthetic(
    "wheel",
    "a hub joined to every node of a ring",
    lambda spokes: generators.wheel_graph(spokes),
    Param("spokes", 10, "ring size around the hub"),
)
_synthetic(
    "ladder",
    "two parallel paths joined by rungs",
    lambda rungs: generators.ladder_graph(rungs),
    Param("rungs", 8, "number of rungs"),
)
_synthetic(
    "petersen",
    "the Petersen graph (3-regular, non-planar, girth 5)",
    generators.petersen_graph,
)
_synthetic(
    "barbell",
    "two cliques joined by a path (bridge-heavy)",
    lambda bell, path: generators.barbell_graph(bell, path),
    Param("bell", 4, "clique size"),
    Param("path", 2, "connecting path length"),
)
_synthetic(
    "random-connected",
    "random spanning tree plus chords",
    lambda size, extra, seed: generators.random_connected_graph(size, extra, seed),
    Param("size", 20, "number of nodes"),
    Param("extra", 10, "chord edges beyond the spanning tree"),
    Param("seed", 0, "RNG seed"),
)
_synthetic(
    "random-planar",
    "grid plus non-crossing random diagonals",
    lambda rows, cols, diagonals, seed: generators.random_planar_graph(
        rows, cols, diagonals, seed
    ),
    Param("rows", 4, "grid rows"),
    Param("cols", 5, "grid columns"),
    Param("diagonals", 4, "cells that receive a diagonal"),
    Param("seed", 0, "RNG seed"),
)
_synthetic(
    "gnp",
    "G(n, p) patched into connectivity with ring edges",
    lambda size, probability, seed: generators.erdos_renyi_graph(
        size, probability, seed
    ),
    Param("size", 16, "number of nodes"),
    Param("probability", 0.25, "edge probability"),
    Param("seed", 0, "RNG seed"),
)
_synthetic(
    "er-giant",
    "giant component of one G(n, p) sample",
    lambda size, probability, seed: generators.er_giant_component_graph(
        size, probability, seed
    ),
    Param("size", 30, "nodes before extracting the giant component"),
    Param("probability", 0.12, "edge probability"),
    Param("seed", 0, "RNG seed"),
)
_synthetic(
    "waxman",
    "Waxman random geometric graph (distance weights)",
    lambda size, alpha, beta, seed: generators.waxman_graph(size, alpha, beta, seed),
    Param("size", 24, "number of nodes"),
    Param("alpha", 0.6, "overall link density"),
    Param("beta", 0.4, "long-link propensity"),
    Param("seed", 0, "RNG seed"),
)
_synthetic(
    "barabasi-albert",
    "preferential attachment (scale-free degrees)",
    lambda size, m, seed: generators.barabasi_albert_graph(size, m, seed),
    Param("size", 24, "number of nodes"),
    Param("m", 2, "attachments per new node"),
    Param("seed", 0, "RNG seed"),
)
_synthetic(
    "fat-tree",
    "k-ary fat-tree switch fabric (core/agg/edge)",
    lambda k: generators.fat_tree_graph(k),
    Param("k", 4, "fabric arity (even)"),
)

_register_zoo_snapshots()
