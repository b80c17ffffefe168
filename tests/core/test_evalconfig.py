"""Tests for :class:`EvalConfig`, the one way to configure evaluation.

The contract under test: the config validates its field combinations once,
at construction; every entry point accepts it as ``eval_config=`` (and
rejects anything else); and none of them accepts a per-field evaluation
keyword any more.
"""

import warnings

import pytest

from repro.accelerator import build_setting
from repro.cli import build_parser
from repro.core import EvalConfig, M3E
from repro.core.evalconfig import DEFAULT_EVAL_BACKEND, EVAL_BACKENDS
from repro.core.evaluator import MappingEvaluator
from repro.exceptions import ConfigurationError
from repro.experiments.campaign import CampaignRunner
from repro.experiments.runner import run_method_comparison
from repro.experiments.scenarios import run_scenario
from repro.service import MappingService
from repro.workloads import TaskType


class TestEvalConfigValidation:
    def test_defaults(self):
        config = EvalConfig()
        assert config.backend == DEFAULT_EVAL_BACKEND
        assert config.workers is None and config.hosts is None
        assert config.rpc_token is None

    def test_every_registered_backend_constructs(self):
        for backend in EVAL_BACKENDS:
            assert EvalConfig(backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown evaluation backend"):
            EvalConfig(backend="gpu")

    def test_workers_only_for_parallel(self):
        assert EvalConfig(backend="parallel", workers=2).workers == 2
        with pytest.raises(ConfigurationError, match="parallel"):
            EvalConfig(backend="batch", workers=2)
        with pytest.raises(ConfigurationError, match=">= 1"):
            EvalConfig(backend="parallel", workers=0)

    def test_hosts_only_for_rpc_and_normalised_to_tuple(self):
        config = EvalConfig(backend="rpc", hosts="a:1, b:2")
        assert config.hosts == ("a:1", "b:2")
        assert EvalConfig(backend="rpc", hosts=["c:3"]).hosts == ("c:3",)
        with pytest.raises(ConfigurationError, match="rpc"):
            EvalConfig(backend="batch", hosts="a:1")
        with pytest.raises(ConfigurationError, match="rpc"):
            EvalConfig(backend="batch", rpc_token="secret")

    def test_malformed_rpc_hosts_fail_at_construction(self):
        with pytest.raises(ConfigurationError):
            EvalConfig(backend="rpc", hosts="no-port-here")

    def test_frozen_and_hashable(self):
        config = EvalConfig(backend="parallel", workers=2)
        with pytest.raises(AttributeError):
            config.backend = "batch"
        assert config == EvalConfig(backend="parallel", workers=2)
        assert hash(config) == hash(EvalConfig(backend="parallel", workers=2))

    def test_token_stays_out_of_repr(self):
        assert "hunter2" not in repr(EvalConfig(backend="rpc", rpc_token="hunter2"))


class TestEntryPointsAcceptEvalConfig:
    def test_campaign_runner_threads_eval_config_through(self):
        runner = CampaignRunner(eval_config=EvalConfig(backend="scalar"))
        assert runner.eval_config == EvalConfig(backend="scalar")

    def test_campaign_runner_default_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner = CampaignRunner()
        assert runner.eval_config == EvalConfig()

    @pytest.mark.parametrize("build", [
        lambda platform, group, config: M3E(platform, eval_config=config),
        lambda platform, group, config: CampaignRunner(eval_config=config),
        lambda platform, group, config: MappingEvaluator(group, platform, eval_config=config),
    ], ids=["M3E", "CampaignRunner", "MappingEvaluator"])
    def test_non_evalconfig_object_rejected(self, build, small_platform, mix_group):
        with pytest.raises(ConfigurationError, match="must be an EvalConfig"):
            build(small_platform, mix_group, {"backend": "batch"})


#: Evaluation keywords the entry points no longer take (each is a field of
#: EvalConfig), with a value the old per-field spelling accepted.
REMOVED_KEYWORDS = {"eval_backend": "batch", "eval_workers": 2, "eval_hosts": "a:1", "rpc_token": "t"}

ENTRY_POINTS = {
    "M3E": (lambda tmp_path, **kw: M3E(build_setting("S1", 16.0), **kw), REMOVED_KEYWORDS),
    "CampaignRunner": (lambda tmp_path, **kw: CampaignRunner(**kw), REMOVED_KEYWORDS),
    "MappingService": (
        lambda tmp_path, **kw: MappingService(store=str(tmp_path / "s.jsonl"), scale="tiny", **kw),
        REMOVED_KEYWORDS,
    ),
    "run_scenario": (lambda tmp_path, **kw: run_scenario("fig7", scale="tiny", **kw), REMOVED_KEYWORDS),
    "run_method_comparison": (
        lambda tmp_path, **kw: run_method_comparison("S1", 16.0, TaskType.MIX, methods=("random",), **kw),
        REMOVED_KEYWORDS,
    ),
    "MappingEvaluator": (
        lambda tmp_path, **kw: MappingEvaluator(None, None, **kw),
        {"backend": "batch", "num_workers": 2, "eval_hosts": "a:1", "rpc_token": "t"},
    ),
}


class TestOneConfigPath:
    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    def test_removed_eval_keywords_are_rejected(self, entry_point, tmp_path):
        build, removed = ENTRY_POINTS[entry_point]
        for keyword, value in removed.items():
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                build(tmp_path, **{keyword: value})

    def test_campaign_jobs_shorthand_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["campaign", "fig8", "--jobs", "2"])
        assert excinfo.value.code == 2
