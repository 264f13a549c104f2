"""On-disk result cache: keying, hit/miss/invalidation, sweep wiring."""

import dataclasses

from repro.core import cache as cache_module
from repro.core.cache import (
    CODE_VERSION,
    ResultCache,
    config_digest,
    default_cache_dir,
)
from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    HostConfig,
    SimConfig,
    WorkloadConfig,
    baseline_config,
)
from repro.core.experiment import run_experiment
from repro.core.scenario import ScenarioSpec, SweepAxis, run_configs


def tiny_config(seed=3, cores=2):
    return ExperimentConfig(
        host=HostConfig(cpu=CpuConfig(cores=cores)),
        workload=WorkloadConfig(senders=4),
        sim=SimConfig(warmup=0.5e-3, duration=1e-3, seed=seed),
    )


class TestDigest:
    def test_stable_across_instances(self):
        assert config_digest(tiny_config()) == config_digest(tiny_config())

    def test_sensitive_to_any_nested_field(self):
        base = tiny_config()
        deep = dataclasses.replace(
            base, host=dataclasses.replace(
                base.host, iommu=dataclasses.replace(
                    base.host.iommu, walk_cache_entries=33)))
        assert config_digest(base) != config_digest(deep)
        assert config_digest(base) != config_digest(tiny_config(seed=4))

    def test_sensitive_to_code_version_salt(self):
        config = tiny_config()
        assert config_digest(config, salt=CODE_VERSION) \
            != config_digest(config, salt="other-code-version")

    def test_code_version_is_the_source_digest(self):
        assert CODE_VERSION == cache_module.code_version() \
            == cache_module.source_digest()

    def test_salt_follows_physics_source_not_cli(self, monkeypatch):
        read = cache_module._read_source

        def edited(suffix):
            def reader(path):
                source = read(path)
                if path.as_posix().endswith(suffix):
                    source += b"\n# edited\n"
                return source
            return reader

        before = cache_module.source_digest()
        # The metrics registry builds the cached --metrics-out snapshots.
        for module in ("repro/sim/fluid.py", "repro/obs/metrics.py"):
            monkeypatch.setattr(cache_module, "_read_source",
                                edited(module))
            assert cache_module.source_digest() != before
        monkeypatch.setattr(cache_module, "_read_source",
                            edited("repro/cli.py"))
        assert cache_module.source_digest() == before

    def test_default_dir_respects_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"


class TestHitMiss:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        result = run_experiment(config)
        cache.put(config, result)
        hit = cache.get(config)
        assert hit is not None
        assert hit.result == result  # bit-exact through JSON floats
        assert cache.hits == 1

    def test_miss_on_unknown_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(tiny_config()) is None
        assert cache.misses == 1

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, run_experiment(config))
        assert cache.get(tiny_config(seed=99)) is None
        assert cache.get(tiny_config(cores=4)) is None

    def test_salt_change_invalidates(self, tmp_path):
        config = tiny_config()
        ResultCache(tmp_path).put(config, run_experiment(config))
        assert ResultCache(tmp_path, salt="v2").get(config) is None

    def test_snapshot_wanting_lookup_skips_bare_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        result = run_experiment(config)
        cache.put(config, result, snapshot=None)
        assert cache.get(config, want_snapshot=True) is None
        # Upgrading the entry in place satisfies later lookups.
        cache.put(config, result, snapshot={"meta": {}})
        assert cache.get(config, want_snapshot=True).snapshot \
            == {"meta": {}}

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in (1, 2, 3):
            config = tiny_config(seed=seed)
            cache.put(config, run_experiment(config))
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert cache.clear() == 3
        assert cache.stats().entries == 0


def cores_sweep(*cores):
    """Receiver-core sweep configs from a short paper baseline."""
    spec = ScenarioSpec(name="cores",
                        axes=(SweepAxis("host.cpu.cores", cores),))
    return spec.expand(base=baseline_config(warmup=0.5e-3, duration=1e-3))


class TestSweepWiring:
    def test_second_sweep_is_all_hits_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_configs(cores_sweep(2, 4), cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        warm = run_configs(cores_sweep(2, 4), cache=cache)
        assert cache.hits == 2
        assert cold == warm

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = run_configs(cores_sweep(2), cache=cache)
        parallel = run_configs(cores_sweep(2), cache=cache, workers=2)
        assert cache.hits == 1  # the parallel run never forked a worker
        assert serial == parallel

    def test_snapshots_cached_alongside_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_snaps: list = []
        warm_snaps: list = []
        run_configs(cores_sweep(2), cache=cache, snapshots_out=cold_snaps)
        run_configs(cores_sweep(2), cache=cache, snapshots_out=warm_snaps)
        assert cache.hits == 1
        assert warm_snaps == cold_snaps
