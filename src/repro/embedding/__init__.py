"""Cellular graph embeddings: rotation systems, faces, planarity and genus.

Section 3 of the paper bases Packet Re-cycling on a *cellular embedding* of
the network graph on an orientable closed surface.  Combinatorially such an
embedding is fully described by a **rotation system**: a cyclic ordering of
the darts (outgoing directed half-edges) around every node.  Tracing the
orbits of the induced face permutation yields a system of cycles in which
every physical link belongs to exactly two oppositely-oriented cycles — the
*main* cycle and the *complementary* cycle used as a backup path.

The subpackage provides:

* :class:`~repro.embedding.rotation.RotationSystem` — the combinatorial
  embedding itself.
* :mod:`~repro.embedding.faces` — face tracing, Euler genus, face lookup.
* :mod:`~repro.embedding.planarity` — planarity testing (Brandes' left-right
  test) and planar (genus 0) embedding via the Demoucron–Malgrange–Pertuiset
  path-addition algorithm.
* :mod:`~repro.embedding.genus` — heuristics that search for low-genus
  (many-face) rotation systems of non-planar graphs.
* :class:`~repro.embedding.builder.CellularEmbedding` and
  :func:`~repro.embedding.builder.embed` — the high-level entry point.
* :mod:`~repro.embedding.serialization` — persistence of embeddings, playing
  the role of the paper's offline embedding server output.
"""

from repro.embedding.rotation import RotationSystem
from repro.embedding.faces import Face, FaceSet, euler_genus, trace_faces
from repro.embedding.planarity import is_planar, planar_embedding
from repro.embedding.genus import (
    greedy_insertion_rotation,
    local_search_rotation,
    minimise_genus,
)
from repro.embedding.builder import CellularEmbedding, embed
from repro.embedding.serialization import (
    embedding_from_dict,
    embedding_to_dict,
    load_embedding,
    save_embedding,
)
from repro.embedding.validation import validate_embedding, validate_rotation_system

__all__ = [
    "RotationSystem",
    "Face",
    "FaceSet",
    "euler_genus",
    "trace_faces",
    "is_planar",
    "planar_embedding",
    "greedy_insertion_rotation",
    "local_search_rotation",
    "minimise_genus",
    "CellularEmbedding",
    "embed",
    "embedding_from_dict",
    "embedding_to_dict",
    "load_embedding",
    "save_embedding",
    "validate_embedding",
    "validate_rotation_system",
]
