"""The benchmark's workloads and the check every search result must pass.

Each workload owns a fixed pool of problem instances (Mix-task job groups
built from ``POOL_SEED``) and turns the run's ``--seed`` into search seeds
only.  The pool is fixed because the best mapping's GFLOP/s differs by up to
5x between Mix groups, so seed-drawn groups would make ``best_gflops``
measure the workload generator instead of the search (NOTES.md has the
numbers).  A *unit* is one timed piece of work: one ``M3E.search`` on the
cell workloads, one ten-method campaign panel on ``method-zoo``.  Unit ``i``
runs on pool group ``i % pool_groups``; a *round* is ``pool_groups`` units,
so every round covers the whole pool once.  Every run does at least
``min_units`` units, the seed-determined prefix ``best_gflops`` averages.
BENCHMARK.json declares ``fleet-s6`` and ``method-zoo``; ``paper-cell`` runs by
hand (NOTES.md says why).
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.accelerator import build_setting
from repro.core import EvalConfig, M3E
from repro.core.analyzer import AnalysisTableCache
from repro.experiments.campaign import CampaignResultsStore, CampaignRunner
from repro.experiments.scenarios import get_scenario
from repro.experiments.settings import get_scale
from repro.optimizers.heuristics import AIMTLikeMapper, HeraldLikeMapper
from repro.optimizers.registry import OPTIMIZER_REGISTRY
from repro.utils.serialization import SearchResultSummary
from repro.workloads.benchmark import TaskType, build_task_workload

#: Seed of the fixed problem-instance pool (not the run's seed).
POOL_SEED = 0

#: The warm-up search in set-up spends this share of the workload's budget.
WARM_UP_SHARE = 10


def derive_seed(seed: int, *keys: int) -> int:
    """A search seed derived from the run's seed and a unit index."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def check_summary(result: Dict[str, Any], expected_samples: int) -> List[str]:
    """Names of the checks one search result fails (empty when it passes).

    ``result`` is a :class:`SearchResultSummary` dict.  ``best_fitness`` is
    the scalar oracle's re-evaluation of the best mapping, while the history
    holds the batch (or pool) fitnesses, so their equality checks the fast
    path against the oracle.
    """
    failed = []
    history = result["history"]
    if not history or history[-1] != result["best_fitness"]:
        failed.append("history-tail-equals-oracle-fitness")
    if result["samples_used"] != expected_samples:
        failed.append(f"samples-used-{result['samples_used']}-not-{expected_samples}")
    if any(later < earlier for earlier, later in zip(history, history[1:])):
        failed.append("history-non-decreasing")
    gflops = result["throughput_gflops"]
    if not (math.isfinite(gflops) and gflops > 0):
        failed.append("gflops-finite-positive")
    return failed


def samples_expected(method: str, budget: int) -> int:
    """The manual mappers place one mapping; every search spends its budget."""
    if issubclass(OPTIMIZER_REGISTRY[method.lower()], (HeraldLikeMapper, AIMTLikeMapper)):
        return 1
    return budget


class Tally:
    """Searches attempted and failed; every failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, result: Dict[str, Any], expected_samples: int) -> None:
        self.attempted += 1
        problems = check_summary(result, expected_samples)
        if problems:
            self.fail(label, problems)

    def error(self, label: str, searches: int, exc: BaseException) -> None:
        self.attempted += searches
        self.fail(label, [f"raised {type(exc).__name__}: {exc}"], searches)

    def fail(self, label: str, problems: List[str], searches: int = 1) -> None:
        """Count *searches* already attempted as failed, naming the checks."""
        self.failed += searches
        print(f"FAILED {label}: {', '.join(problems)}", file=sys.stderr, flush=True)


@dataclass
class Unit:
    """One timed unit: wall seconds, budget samples spent, per-search GFLOP/s."""

    wall_s: float
    samples: int
    gflops: List[float]


# ----------------------------------------------------------------------
# paper-cell / fleet-s6: one MAGMA search per unit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellWorkload:
    name: str
    setting: str
    bandwidth_gbps: float
    group_size: int
    population: int
    budget: int
    backend: str
    workers: Optional[int]
    pool_groups: int
    min_units: int

    def describe(self) -> Dict[str, Any]:
        info = asdict(self)
        info.update(method="magma", task="mix", pool_seed=POOL_SEED)
        return info

    def build(self, scratch: Optional[str]) -> "CellRun":
        """Build the platform, the group pool and its analysis tables (writes no files)."""
        platform = build_setting(self.setting, self.bandwidth_gbps)
        groups = build_task_workload(
            TaskType.MIX, group_size=self.group_size, num_groups=self.pool_groups,
            seed=POOL_SEED, num_sub_accelerators=platform.num_sub_accelerators,
        )
        explorer = M3E(
            platform, sampling_budget=self.budget,
            eval_config=EvalConfig(backend=self.backend, workers=self.workers),
            table_cache=AnalysisTableCache(),
        )
        for group in groups:
            explorer.analyze(group)
        return CellRun(self, explorer, groups)


class CellRun:
    unit_name = "searches"

    def __init__(self, workload: CellWorkload, explorer: M3E, groups: list):
        self.workload = workload
        self.explorer = explorer
        self.groups = groups
        self.round_size = len(groups)

    def warm_up(self, seed: int, tally: Tally) -> None:
        """A tenth-budget search on the first pool group (part of set-up)."""
        self.search(self.groups[0], derive_seed(seed, 0), self.workload.budget // WARM_UP_SHARE,
                    tally, "warm-up")

    def search(self, group, seed: int, budget: int, tally: Tally, label: str) -> Tuple[float, float]:
        start = time.perf_counter()
        result = self.explorer.search(
            group, optimizer="magma", seed=seed, sampling_budget=budget,
            optimizer_options={"population_size": self.workload.population},
        )
        wall = time.perf_counter() - start
        summary = SearchResultSummary.from_result(result).to_dict()
        tally.check(f"{self.workload.name} {label} seed={seed}", summary, budget)
        return wall, summary["throughput_gflops"]

    def unit(self, seed: int, index: int, tally: Tally) -> Optional[Unit]:
        search_seed = derive_seed(seed, 1, index)
        try:
            wall, gflops = self.search(self.groups[index % self.round_size], search_seed,
                                       self.workload.budget, tally, f"unit {index}")
        except Exception as exc:  # a failed search is counted, the run goes on
            tally.error(f"{self.workload.name} unit {index} seed={search_seed}", 1, exc)
            return None
        return Unit(wall, self.workload.budget, [gflops])


# ----------------------------------------------------------------------
# method-zoo: one ten-method campaign panel per unit
# ----------------------------------------------------------------------
class PinnedGroupRunner(CampaignRunner):
    """A campaign runner whose cells all search :attr:`group` (the pool group)."""

    group = None

    def group_for(self, task, num_sub_accelerators, seed, group_size=None):
        return self.group


@dataclass(frozen=True)
class ZooWorkload:
    name: str
    scale: str
    panel: str
    pool_groups: int
    min_units: int

    def _spec(self):
        fig9 = get_scenario("fig9")
        return replace(fig9, panels=tuple(p for p in fig9.panels if p.label == self.panel),
                       post_process=None)

    def describe(self) -> Dict[str, Any]:
        scale = get_scale(self.scale)
        spec = self._spec()
        panel = spec.panels[0]
        info = asdict(self)
        info.update(setting=panel.setting, bandwidth_gbps=panel.bandwidth_gbps, task=panel.task,
                    methods=list(spec.methods), group_size=scale.group_size,
                    population=scale.population_size, budget=scale.sampling_budget,
                    rl_budget=scale.rl_sampling_budget, backend="batch", store="jsonl:",
                    pool_seed=POOL_SEED)
        return info

    def build(self, scratch: str) -> "ZooRun":
        """Build the runner, the group pool and its analysis tables."""
        spec = self._spec()
        panel = spec.panels[0]
        scale = get_scale(self.scale)
        platform = build_setting(panel.setting, panel.bandwidth_gbps)
        groups = build_task_workload(
            TaskType(panel.task), group_size=scale.group_size, num_groups=self.pool_groups,
            seed=POOL_SEED, num_sub_accelerators=platform.num_sub_accelerators,
        )
        runner = PinnedGroupRunner(scale=scale, table_cache=AnalysisTableCache())
        for group in groups:
            runner.analysis_table(platform, group)
        return ZooRun(self, spec, runner, groups, scratch)


class ZooRun:
    unit_name = "campaign panels of 10 searches"

    def __init__(self, workload: ZooWorkload, spec, runner: PinnedGroupRunner, groups: list,
                 scratch: str):
        self.workload = workload
        self.spec = spec
        self.runner = runner
        self.groups = groups
        self.scratch = scratch
        self.round_size = len(groups)
        self.cells = len(spec.methods)

    def warm_up(self, seed: int, tally: Tally) -> None:
        """The panel at a tenth of the budget on the first pool group (part of set-up)."""
        scale = self.runner.scale
        warm = ZooRun(self.workload, self.spec, PinnedGroupRunner(
            scale=replace(scale, sampling_budget=scale.sampling_budget // WARM_UP_SHARE,
                          rl_sampling_budget=scale.rl_sampling_budget // WARM_UP_SHARE),
            table_cache=self.runner.table_cache,
        ), self.groups, self.scratch)
        warm.panel(derive_seed(seed, 0), 0, tally, "warm-up")

    def panel(self, base_seed: int, index: int, tally: Tally, label: str) -> Unit:
        self.runner.group = self.groups[index % self.round_size]
        path = os.path.join(self.scratch, f"{self.workload.name}-{label.replace(' ', '-')}.jsonl")
        start = time.perf_counter()
        self.runner.run([self.spec], store=f"jsonl:{path}", base_seed=base_seed)
        wall = time.perf_counter() - start
        store = CampaignResultsStore(f"jsonl:{path}")
        try:
            records = store.records()
        finally:
            store.close()
            os.remove(path)
        if len(records) != self.cells:
            raise RuntimeError(f"store holds {len(records)} cells, expected {self.cells}")
        samples, gflops = 0, []
        for record in records:
            cell, result = record["cell"], record["result"]
            tally.check(f"{self.workload.name} {label} {cell['method']} seed={cell['seed']}",
                        result, samples_expected(cell["method"], cell["budget"]))
            samples += result["samples_used"]
            gflops.append(result["throughput_gflops"])
        return Unit(wall, samples, gflops)

    def unit(self, seed: int, index: int, tally: Tally) -> Optional[Unit]:
        base_seed = derive_seed(seed, 1, index)
        try:
            return self.panel(base_seed, index, tally, f"unit {index}")
        except Exception as exc:  # a failed panel counts all its cells, the run goes on
            tally.error(f"{self.workload.name} unit {index} base_seed={base_seed}", self.cells, exc)
            return None


WORKLOADS = {
    "paper-cell": CellWorkload(
        name="paper-cell",
        setting="S2", bandwidth_gbps=16.0, group_size=100, population=100, budget=10_000,
        backend="batch", workers=None, pool_groups=2, min_units=4,
    ),
    "fleet-s6": CellWorkload(
        name="fleet-s6",
        setting="S6", bandwidth_gbps=256.0, group_size=200, population=200, budget=10_000,
        backend="parallel", workers=2, pool_groups=1, min_units=4,
    ),
    "method-zoo": ZooWorkload(
        name="method-zoo",
        scale="small", panel="mix_small", pool_groups=1, min_units=2,
    ),
}

#: Reduced sizes for the self-test: the same code paths in a few seconds.
TINY_WORKLOADS = {
    "paper-cell": replace(WORKLOADS["paper-cell"], group_size=16, population=16, budget=320),
    "fleet-s6": replace(WORKLOADS["fleet-s6"], group_size=32, population=32, budget=320),
    "method-zoo": replace(WORKLOADS["method-zoo"], scale="smoke"),
}
