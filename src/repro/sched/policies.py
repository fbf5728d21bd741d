"""Pluggable placement policies: from the paper's naive baseline up.

A policy answers one question: *given the queue and the current free
state, in what order should nodes be offered to this job?*  The engine
(:mod:`repro.sched.engine`) walks the returned preference order and takes
free GPUs until the gang is satisfied, so a policy never has to reason
about free lists — only about ranking.

Five built-ins:

* :class:`FifoPolicy` — the naive batch scheduler of Section VII: strict
  submission order, uniformly random node choice.  This is the scheduler
  that hands users a slow GPU 18% of the time (40-50% for 4-GPU jobs).
* :class:`BackfillPolicy` — the same random placement, but jobs behind a
  blocked queue head may start when they fit (EASY-style backfill).
* :class:`VariabilityAwarePolicy` — the mitigation the paper calls for:
  steer variability-*sensitive* (compute-bound) jobs onto low-variation
  nodes and let memory-bound jobs absorb the high-variation ones, using
  :func:`~repro.core.scheduler.node_variability_scores` from a
  characterization campaign and
  :func:`~repro.core.classify.classify_workload` for the sensitivity.
* :class:`HealthAwarePolicy` — consult online fleet-health grades
  (:mod:`repro.obs.health`) and keep jobs off nodes carrying degraded or
  critical GPUs whenever capacity allows.
* :class:`EnergyCappedPolicy` — the paper's §VII power-limit sweep turned
  into a capacity knob: pack jobs onto the lowest-power nodes first and
  admit work only while the fleet's reserved wattage stays under a
  budget (:class:`PowerBudgetAdmission`).

Every ranking is deterministic given the policy's seeded stream and
inputs; ties break by ascending node index.

Indexed rankings
----------------

The engine (:func:`~repro.sched.engine.run_schedule`) avoids walking a
full preference order per attempt where it can; it asks a policy to
*describe* its ranking via :meth:`PlacementPolicy.indexed_ranking`:

* :class:`StaticRankingSpec` — the order is fixed for the whole trace
  (possibly one order per job class).  The engine builds one
  order-keyed index per distinct order and resolves placements in
  O(log n); such policies consume no randomness, so futile placement
  attempts can be skipped entirely.
* :class:`RandomRankingSpec` — the order is drawn from the policy
  stream per attempt (fifo's permutation, health-aware's shuffle).  The
  engine still draws at every point the reference loop would — the
  stream must stay byte-compatible — but resolves each drawn ranking
  with one vectorized scan instead of a Python loop.
* ``None`` — the policy's ranking is opaque (a user subclass overrode
  :meth:`~PlacementPolicy.rank_nodes`).  The same loop calls
  ``rank_nodes`` at every attempt point, on a copy of the free counts,
  and resolves its order like a random draw; an order that names too
  few free nodes simply does not fit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import require
from ..core.classify import classify_workload, expected_performance_sensitivity
from ..errors import ConfigError
from ..obs.health import GRADES
from ..workloads.base import Workload

__all__ = [
    "PlacementPolicy",
    "FifoPolicy",
    "BackfillPolicy",
    "VariabilityAwarePolicy",
    "HealthAwarePolicy",
    "EnergyCappedPolicy",
    "PowerBudgetAdmission",
    "StaticRankingSpec",
    "RandomRankingSpec",
    "node_grades_from_gpu_grades",
    "node_power_watts",
    "POLICY_NAMES",
    "SENSITIVITY_THRESHOLD",
]

#: Sensitivity at or above which a job is steered to low-variation nodes.
SENSITIVITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class StaticRankingSpec:
    """A trace-constant ranking: one fixed order per job class.

    ``orders`` holds the distinct preference orders (each a permutation
    of node indices); ``order_index_of(workload, n_gpus)`` says which one
    a job uses.  Static rankings consume no policy randomness.
    """

    orders: tuple[np.ndarray, ...]
    order_index_of: Callable[[Workload, int], int]


@dataclass(frozen=True)
class RandomRankingSpec:
    """A per-attempt ranking drawn from the policy stream.

    ``draw(rng)`` must consume exactly the randomness the policy's
    :meth:`~PlacementPolicy.rank_nodes` would — the engine calls it at
    every reference attempt point to keep the stream byte-compatible.
    """

    draw: Callable[[np.random.Generator], np.ndarray]


class PowerBudgetAdmission:
    """Fleet power budget enforced by worst-case per-GPU reservation.

    Every placed gang reserves ``n_gpus * gpu_reserve_w`` watts (the
    node's power cap — the §VII knob) until it finishes; a job is
    admitted only while the reservation fits under ``budget_w``.
    Reservations are a pure function of the placement/finish sequence,
    so the engine and the reference loop agree byte-for-byte no matter
    when job pricing happens.
    """

    def __init__(self, budget_w: float, gpu_reserve_w: float) -> None:
        budget_w = float(budget_w)
        gpu_reserve_w = float(gpu_reserve_w)
        require(np.isfinite(budget_w) and budget_w > 0,
                "power budget must be positive and finite")
        require(np.isfinite(gpu_reserve_w) and gpu_reserve_w > 0,
                "per-GPU power reservation must be positive and finite")
        self.budget_w = budget_w
        self.gpu_reserve_w = gpu_reserve_w
        self.committed_w = 0.0
        self._reserved: dict[int, float] = {}

    def reset(self) -> None:
        """Drop all reservations (the engine calls this per schedule)."""
        self.committed_w = 0.0
        self._reserved.clear()

    def can_admit(self, n_gpus: int) -> bool:
        """Whether a gang of ``n_gpus`` fits under the budget right now."""
        return (
            self.committed_w + n_gpus * self.gpu_reserve_w
            <= self.budget_w
        )

    def max_admissible_gpus(self) -> int:
        """Widest gang the remaining budget admits (floor at 0)."""
        head = self.budget_w - self.committed_w
        if head <= 0:
            return 0
        return int(head / self.gpu_reserve_w)

    def commit(self, job_id: int, n_gpus: int) -> None:
        """Reserve a placed gang's wattage until :meth:`release`."""
        watts = n_gpus * self.gpu_reserve_w
        self._reserved[job_id] = watts
        self.committed_w += watts

    def release(self, job_id: int) -> None:
        """Return a finished gang's reservation to the budget."""
        self.committed_w -= self._reserved.pop(job_id)

    def describe(self) -> dict[str, float]:
        """Report-facing summary of the budget configuration."""
        return {
            "power_budget_w": self.budget_w,
            "gpu_reserve_w": self.gpu_reserve_w,
        }


class PlacementPolicy(ABC):
    """Ranking interface the queue engine consumes.

    Attributes
    ----------
    name:
        Stable identifier (lands in reports and event logs).
    backfill:
        Whether jobs behind a blocked queue head may be placed when they
        fit (the queue *discipline* half of a scheduling policy).
    """

    name: str = "abstract"
    backfill: bool = False
    #: Optional admission gate consulted before any placement attempt
    #: (``None`` disables gating — placements depend on capacity alone).
    admission: PowerBudgetAdmission | None = None

    @abstractmethod
    def rank_nodes(
        self,
        workload: Workload,
        n_gpus: int,
        free_counts: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Node indices in descending preference for this job.

        Parameters
        ----------
        workload:
            The job's application profile.
        n_gpus:
            The job's gang width.
        free_counts:
            Free GPUs per node (ascending node index).
        rng:
            The scheduler's seeded policy stream — the only randomness a
            policy may use.
        """

    def indexed_ranking(
        self, n_nodes: int
    ) -> StaticRankingSpec | RandomRankingSpec | None:
        """Describe this ranking to the engine's indexes, if possible.

        Returns ``None`` when the ranking is opaque — including when a
        subclass overrides :meth:`rank_nodes`.  The engine then calls
        :meth:`rank_nodes` at every placement attempt (on a copy of the
        free counts) and resolves the returned order per attempt.
        """
        return None

    def describe(self) -> dict[str, object]:
        """Report-facing summary of the policy configuration."""
        return {"name": self.name, "backfill": self.backfill}


class FifoPolicy(PlacementPolicy):
    """Strict FIFO with uniformly random node choice (the naive baseline)."""

    name = "fifo"
    backfill = False

    def rank_nodes(self, workload, n_gpus, free_counts, rng):
        """Uniformly random permutation of every node."""
        return rng.permutation(free_counts.shape[0])

    def indexed_ranking(self, n_nodes):
        """One uniform permutation per attempt (the exact legacy draw)."""
        if type(self).rank_nodes is not FifoPolicy.rank_nodes:
            return None
        return RandomRankingSpec(draw=lambda rng: rng.permutation(n_nodes))


class BackfillPolicy(FifoPolicy):
    """Random placement plus EASY-style backfill behind a blocked head."""

    name = "backfill"
    backfill = True


class VariabilityAwarePolicy(PlacementPolicy):
    """Section VII's mitigation: match job sensitivity to node variation.

    Parameters
    ----------
    node_scores:
        Per-node variability score, ascending node index — the output of
        :func:`~repro.core.scheduler.node_variability_scores` mapped onto
        the topology (1.0 = the node's worst GPU matches the fleet
        median; larger = a gang on this node pays the difference).
    backfill:
        Optional queue discipline; off by default so comparisons against
        :class:`FifoPolicy` isolate the placement effect.
    """

    name = "variability-aware"

    def __init__(self, node_scores: np.ndarray, backfill: bool = False) -> None:
        scores = np.asarray(node_scores, dtype=float)
        if scores.ndim != 1 or scores.shape[0] < 1:
            raise ConfigError("node_scores must be a 1-D per-node array")
        require(bool(np.all(np.isfinite(scores))),
                "node_scores must be finite")
        self.node_scores = scores
        self.backfill = bool(backfill)

    def rank_nodes(self, workload, n_gpus, free_counts, rng):
        """Low-variation nodes first for sensitive jobs, last otherwise."""
        if free_counts.shape[0] != self.node_scores.shape[0]:
            raise ConfigError(
                f"policy scored {self.node_scores.shape[0]} nodes but the "
                f"machine has {free_counts.shape[0]}"
            )
        sensitivity = expected_performance_sensitivity(
            classify_workload(workload)
        )
        key = (
            self.node_scores
            if sensitivity >= SENSITIVITY_THRESHOLD
            else -self.node_scores
        )
        return np.argsort(key, kind="stable")

    def indexed_ranking(self, n_nodes):
        """Two trace-constant orders, selected by workload sensitivity."""
        if type(self).rank_nodes is not VariabilityAwarePolicy.rank_nodes:
            return None
        if n_nodes != self.node_scores.shape[0]:
            raise ConfigError(
                f"policy scored {self.node_scores.shape[0]} nodes but the "
                f"machine has {n_nodes}"
            )
        orders = (
            np.argsort(self.node_scores, kind="stable"),
            np.argsort(-self.node_scores, kind="stable"),
        )

        def order_index_of(workload, n_gpus):
            sensitivity = expected_performance_sensitivity(
                classify_workload(workload)
            )
            return 0 if sensitivity >= SENSITIVITY_THRESHOLD else 1

        return StaticRankingSpec(orders=orders, order_index_of=order_index_of)

    def describe(self):
        """Report-facing summary of the policy configuration."""
        return {
            "name": self.name,
            "backfill": self.backfill,
            "score_min": float(self.node_scores.min()),
            "score_max": float(self.node_scores.max()),
        }


class HealthAwarePolicy(PlacementPolicy):
    """Avoid nodes whose members grade degraded or critical.

    Parameters
    ----------
    node_grades:
        Worst member grade per node (ascending node index), drawn from
        :data:`~repro.obs.health.GRADES`.  Build it from a
        :class:`~repro.obs.health.HealthTracker` via
        :func:`node_grades_from_gpu_grades`.
    backfill:
        Optional queue discipline (off by default, as above).

    Unhealthy nodes are ranked strictly last rather than excluded, so a
    mostly-sick fleet degrades to the naive baseline instead of starving
    the queue.
    """

    name = "health-aware"

    def __init__(self, node_grades: tuple[str, ...] | list[str],
                 backfill: bool = False) -> None:
        unknown = sorted(set(node_grades) - set(GRADES))
        if unknown:
            raise ConfigError(f"unknown health grades: {unknown}")
        if len(node_grades) < 1:
            raise ConfigError("node_grades must cover at least one node")
        self.node_grades = tuple(node_grades)
        self._rank = np.asarray(
            [GRADES.index(g) for g in node_grades], dtype=np.int64
        )
        self.backfill = bool(backfill)

    def rank_nodes(self, workload, n_gpus, free_counts, rng):
        """Healthy nodes first (shuffled within a grade), sick ones last."""
        if free_counts.shape[0] != self._rank.shape[0]:
            raise ConfigError(
                f"policy graded {self._rank.shape[0]} nodes but the "
                f"machine has {free_counts.shape[0]}"
            )
        shuffle = rng.permutation(self._rank.shape[0])
        return shuffle[np.argsort(self._rank[shuffle], kind="stable")]

    def indexed_ranking(self, n_nodes):
        """Grade-ordered ranking, reshuffled within grades per attempt."""
        if type(self).rank_nodes is not HealthAwarePolicy.rank_nodes:
            return None
        if n_nodes != self._rank.shape[0]:
            raise ConfigError(
                f"policy graded {self._rank.shape[0]} nodes but the "
                f"machine has {n_nodes}"
            )
        rank = self._rank

        def draw(rng):
            shuffle = rng.permutation(n_nodes)
            return shuffle[np.argsort(rank[shuffle], kind="stable")]

        return RandomRankingSpec(draw=draw)

    def describe(self):
        """Report-facing summary of the policy configuration."""
        counts = {grade: 0 for grade in GRADES}
        for grade in self.node_grades:
            counts[grade] += 1
        return {
            "name": self.name,
            "backfill": self.backfill,
            "node_grade_counts": counts,
        }


class EnergyCappedPolicy(PlacementPolicy):
    """§VII's power-limit sweep as a scheduling capacity knob.

    Ranks nodes by estimated worst-case power draw, cheapest first, so
    load packs onto the most efficient chassis — and gates admission
    against a fleet power budget through
    :class:`PowerBudgetAdmission`: a gang starts only while the fleet's
    reserved wattage (every running GPU counted at the reservation cap)
    stays under ``power_budget_w``.

    Parameters
    ----------
    node_power_w:
        Estimated worst-case power per node (ascending node index), in
        watts — e.g. :func:`node_power_watts` over the fleet's power
        caps.
    power_budget_w:
        Fleet-wide budget in watts.
    gpu_reserve_w:
        Per-GPU reservation charged while a gang runs.  Defaults to the
        machine's worst per-GPU draw implied by ``node_power_w`` (a
        conservative cap, so the true draw never exceeds the budget).
    gpus_per_node:
        Chassis width used to derive the default ``gpu_reserve_w``.
    backfill:
        Optional queue discipline; on by default — budget-blocked heads
        would otherwise idle capacity the budget still admits.
    """

    name = "energy-capped"

    def __init__(
        self,
        node_power_w: np.ndarray,
        power_budget_w: float,
        *,
        gpu_reserve_w: float | None = None,
        gpus_per_node: int = 1,
        backfill: bool = True,
    ) -> None:
        power = np.asarray(node_power_w, dtype=float)
        if power.ndim != 1 or power.shape[0] < 1:
            raise ConfigError("node_power_w must be a 1-D per-node array")
        require(bool(np.all(np.isfinite(power)) and np.all(power > 0)),
                "node_power_w must be positive and finite")
        require(gpus_per_node >= 1, "gpus_per_node must be >= 1")
        self.node_power_w = power
        if gpu_reserve_w is None:
            gpu_reserve_w = float(power.max()) / int(gpus_per_node)
        self.admission = PowerBudgetAdmission(
            budget_w=power_budget_w, gpu_reserve_w=gpu_reserve_w
        )
        self.backfill = bool(backfill)

    def rank_nodes(self, workload, n_gpus, free_counts, rng):
        """Lowest-power nodes first; ties break by ascending index."""
        if free_counts.shape[0] != self.node_power_w.shape[0]:
            raise ConfigError(
                f"policy priced {self.node_power_w.shape[0]} nodes but the "
                f"machine has {free_counts.shape[0]}"
            )
        return np.argsort(self.node_power_w, kind="stable")

    def indexed_ranking(self, n_nodes):
        """One trace-constant cheapest-first order."""
        if type(self).rank_nodes is not EnergyCappedPolicy.rank_nodes:
            return None
        if n_nodes != self.node_power_w.shape[0]:
            raise ConfigError(
                f"policy priced {self.node_power_w.shape[0]} nodes but the "
                f"machine has {n_nodes}"
            )
        order = np.argsort(self.node_power_w, kind="stable")
        return StaticRankingSpec(
            orders=(order,), order_index_of=lambda workload, n_gpus: 0
        )

    def describe(self):
        """Report-facing summary of the policy configuration."""
        return {
            "name": self.name,
            "backfill": self.backfill,
            "node_power_min_w": float(self.node_power_w.min()),
            "node_power_max_w": float(self.node_power_w.max()),
            **self.admission.describe(),
        }


def node_power_watts(
    gpu_power_w: np.ndarray,
    node_of_gpu: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """Sum per-GPU worst-case power into per-node totals.

    Feed it a fleet's power caps (``fleet.power_cap_w``) to price each
    chassis for :class:`EnergyCappedPolicy`.
    """
    power = np.asarray(gpu_power_w, dtype=float)
    require(bool(np.all(np.isfinite(power)) and np.all(power > 0)),
            "gpu_power_w must be positive and finite")
    out = np.zeros(int(n_nodes), dtype=float)
    np.add.at(out, np.asarray(node_of_gpu, dtype=np.int64), power)
    return out


def node_grades_from_gpu_grades(
    gpu_grades: tuple[str, ...],
    node_of_gpu: np.ndarray,
    n_nodes: int,
) -> tuple[str, ...]:
    """Worst member grade per node, for :class:`HealthAwarePolicy`."""
    worst = np.zeros(n_nodes, dtype=np.int64)
    for gpu, grade in enumerate(gpu_grades):
        node = int(node_of_gpu[gpu])
        worst[node] = max(worst[node], GRADES.index(grade))
    return tuple(GRADES[r] for r in worst)


#: The built-in policy names `repro sched --policy` accepts.
POLICY_NAMES = (
    "fifo",
    "backfill",
    "variability-aware",
    "health-aware",
    "energy-capped",
)
