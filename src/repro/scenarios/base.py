"""The scenario-model contract: seeded, parameterised scenario generators.

A *scenario model* turns a topology into a list of
:class:`~repro.failures.scenarios.FailureScenario` objects.  Unlike the three
built-in generators (every single link, sampled k-subsets, every node), a
model captures a *correlated* failure process — shared conduits, regional
events, maintenance churn — behind a uniform interface:

* models are **named** and live in a registry
  (:mod:`repro.scenarios.registry`), so a campaign spec can refer to one by
  string and round-trip through JSON;
* models are **deterministic in their seed**: the same ``(graph, seed,
  samples, params)`` always yields the identical scenario list, which is what
  lets the campaign runner guarantee serial == parallel == resumed results;
* model **parameters are declared** (:class:`repro.params.Param`, shared
  with the topology families), not free-form: unknown parameter names and
  uncoercible values are rejected with an
  :class:`~repro.errors.ExperimentError` at spec-construction time, so a
  stale campaign JSON fails loudly instead of silently generating the wrong
  scenarios.  :meth:`ScenarioModel.validate_params` adds a model's own
  cross-parameter constraints on top.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Tuple

from repro.errors import ExperimentError
from repro.failures.scenarios import FailureScenario
from repro.graph.multigraph import Graph
from repro.params import Param, ParamValue, default_params, resolve_params


class ScenarioModel(ABC):
    """Base class for pluggable failure-scenario models.

    Subclasses set :attr:`name` (the registry key), :attr:`summary` (one
    line for ``repro scenarios list``) and :attr:`params` (declared
    parameters), and implement :meth:`generate`.
    """

    name: str = ""
    summary: str = ""
    params: Tuple[Param, ...] = ()

    def default_params(self) -> Dict[str, ParamValue]:
        """The fully-resolved defaults, in declaration order."""
        return default_params(self.params)

    def resolve_params(self, overrides: Mapping[str, object]) -> Dict[str, ParamValue]:
        """Merge ``overrides`` into the defaults, rejecting unknown names.

        The result always contains every declared parameter, so two specs
        that differ only in whether a default was spelled out explicitly
        resolve to the same canonical parameter set (and the same cell ids).
        """
        resolved = resolve_params(
            self.params, overrides, f"scenario model {self.name!r}", ExperimentError
        )
        self.validate_params(resolved)
        return resolved

    def validate_params(self, params: Dict[str, ParamValue]) -> None:
        """Hook for cross-parameter constraints; raise ``ExperimentError``."""

    @abstractmethod
    def generate(
        self,
        graph: Graph,
        *,
        seed: int,
        samples: int,
        non_disconnecting: bool,
        params: Mapping[str, ParamValue],
    ) -> List[FailureScenario]:
        """Generate the scenario list for ``graph``.

        ``params`` is always fully resolved (every declared parameter
        present).  Implementations must be deterministic in ``seed`` and must
        not mutate ``graph``.  ``non_disconnecting`` asks the model to skip
        scenarios that disconnect the surviving part of the network; models
        for which that filter is meaningless may document and ignore it.
        """
