"""Tests for the declarative scenario layer.

Covers the ISSUE's required failure modes — every rejection must name
the offending key — plus expansion semantics (product/zip order,
repeats with derived seeds, quality presets, axis scaling) and the
oracle check that the bundled figure-3 spec expands to exactly the
config list the historical hand-rolled loops built.
"""

import dataclasses
import functools
import itertools
import re

import pytest

from repro.core.config import FIDELITIES, ExperimentConfig, baseline_config
from repro.core.scenario import (
    QualityPreset,
    ScenarioError,
    ScenarioSpec,
    SweepAxis,
    apply_overrides,
    bundled_scenarios,
    derive_seed,
    find_scenario,
    load_bundled,
    load_scenario_dir,
)


def spec_from(text, source="test.toml"):
    return ScenarioSpec.from_text(text, source=source)


MINIMAL = """
[scenario]
name = "t"
"""


# ---------------------------------------------------------------------------
# Validation failure modes (each must name the offending key)
# ---------------------------------------------------------------------------

class TestValidationErrors:
    def test_unknown_dotted_override_path(self):
        with pytest.raises(ScenarioError) as err:
            spec_from(MINIMAL + """
[base]
"host.iommu.enable" = true
""")
        assert "enable" in str(err.value)
        assert "test.toml" in str(err.value)

    def test_unknown_top_level_section(self):
        with pytest.raises(ScenarioError, match="axxes"):
            spec_from(MINIMAL + """
[[axxes]]
path = "host.cpu.cores"
values = [1]
""")

    def test_axis_over_nonexistent_field(self):
        with pytest.raises(ScenarioError) as err:
            spec_from(MINIMAL + """
[[axes]]
path = "host.cpu.coresies"
values = [2, 4]
""")
        assert "coresies" in str(err.value)

    def test_path_stopping_at_a_section_is_rejected(self):
        with pytest.raises(ScenarioError, match="host.iommu"):
            apply_overrides(ExperimentConfig(), {"host.iommu": True})

    def test_path_descending_past_a_leaf_is_rejected(self):
        with pytest.raises(ScenarioError, match="cores"):
            apply_overrides(ExperimentConfig(),
                            {"host.cpu.cores.deep": 1})

    def test_zip_axes_of_unequal_length(self):
        spec = spec_from(MINIMAL.replace(
            'name = "t"', 'name = "t"\nexpansion = "zip"') + """
[[axes]]
path = "host.cpu.cores"
values = [2, 4, 6]

[[axes]]
path = "host.antagonist_cores"
values = [0, 8]
""")
        with pytest.raises(ScenarioError) as err:
            spec.expand()
        msg = str(err.value)
        assert "host.cpu.cores" in msg and "host.antagonist_cores" in msg
        assert "3" in msg and "2" in msg

    def test_duplicate_scenario_name(self, tmp_path):
        for fname in ("a.toml", "b.toml"):
            (tmp_path / fname).write_text(
                '[scenario]\nname = "dup"\n')
        with pytest.raises(ScenarioError) as err:
            load_scenario_dir(tmp_path)
        msg = str(err.value)
        assert "dup" in msg and "a.toml" in msg and "b.toml" in msg

    def test_malformed_toml(self, tmp_path):
        bad = tmp_path / "broken.toml"
        bad.write_text('[scenario\nname = "x"\n')
        with pytest.raises(ScenarioError) as err:
            ScenarioSpec.from_file(bad)
        assert "broken.toml" in str(err.value)

    def test_type_mismatch_names_key(self):
        with pytest.raises(ScenarioError) as err:
            spec_from(MINIMAL + """
[base]
"host.cpu.cores" = "twelve"
""")
        msg = str(err.value)
        assert "host.cpu.cores" in msg and "int" in msg

    def test_bool_not_accepted_for_int(self):
        with pytest.raises(ScenarioError, match="host.cpu.cores"):
            apply_overrides(ExperimentConfig(),
                            {"host.cpu.cores": True})

    def test_value_rejected_by_config_validation_names_key(self):
        with pytest.raises(ScenarioError, match="host.cpu.cores"):
            apply_overrides(ExperimentConfig(), {"host.cpu.cores": -3})

    def test_missing_scenario_table(self):
        with pytest.raises(ScenarioError, match="scenario"):
            spec_from('[base]\n"sim.seed" = 2\n')

    def test_unknown_quality_axis_override(self):
        with pytest.raises(ScenarioError, match="host.cpu.cores"):
            spec_from(MINIMAL + """
[quality.quick.axes]
"host.cpu.cores" = [2]
""")

    def test_default_quality_must_exist(self):
        with pytest.raises(ScenarioError, match="turbo"):
            spec_from("""
[scenario]
name = "t"
default_quality = "turbo"
""")

    def test_axes_rejected_for_non_sweep_driver(self):
        with pytest.raises(ScenarioError, match="axes"):
            spec_from("""
[scenario]
name = "t"
driver = "fleet"

[[axes]]
path = "host.cpu.cores"
values = [2]
""")

    def test_unknown_driver_arg(self):
        with pytest.raises(ScenarioError, match="n_hostsies"):
            spec_from("""
[scenario]
name = "t"
driver = "fleet"

[driver_args]
n_hostsies = 5
""")

    @pytest.mark.parametrize("driver,key,value", [
        ("fleet", "batch_size", "0"),
        ("fleet", "seed", '"x"'),
        ("fleet", "n_hosts", "0"),
        ("fleet", "seed", "1.5"),
        ("fleet", "shards", "true"),
        ("fleet", "backend", '"gpu"'),
        ("day", "n_bins", "0"),
        ("day", "bin_duration", "-1.0"),
        ("day", "base_load", "1.5"),
        ("day", "warmup_per_bin", "nan"),
    ])
    def test_bad_driver_arg_value_fails_at_load(self, tmp_path, capsys,
                                                driver, key, value):
        from repro.cli import main

        text = (f'[scenario]\nname = "t"\ndriver = "{driver}"\n\n'
                f'[driver_args]\n{key} = {value}\n')
        with pytest.raises(ScenarioError,
                           match=rf"^test\.toml: \[driver_args\] {key} "):
            spec_from(text)
        path = tmp_path / "bad.toml"
        path.write_text(text)
        assert main(["scenario", "run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        (line,) = captured.out.splitlines()
        assert line.startswith(f"error: bad.toml: [driver_args] {key} ")

    def test_driver_arg_values_reach_the_driver_typed(self):
        spec = spec_from("""
[scenario]
name = "t"
driver = "day"

[driver_args]
n_bins = 3
bin_duration = 1
""")
        assert spec.driver_args == {"n_bins": 3, "bin_duration": 1.0}
        assert type(spec.driver_args["bin_duration"]) is float

    def test_driver_args_checked_on_specs_built_in_code(self):
        from repro.analysis.figures import figure1

        with pytest.raises(ScenarioError,
                           match=r"\[driver_args\] n_hosts "):
            figure1(n_hosts=0, fidelity="fluid")
        with pytest.raises(ScenarioError,
                           match=r"\[driver_args\] n_bins "):
            dataclasses.replace(load_bundled("one_host_day"),
                                driver_args={"n_bins": 0})
        with pytest.raises(ScenarioError, match="unknown driver 'dayz'"):
            ScenarioSpec(name="t", driver="dayz")

    def test_render_where_key_must_be_run_parameter(self):
        with pytest.raises(ScenarioError, match="iommu_enabled"):
            spec_from(MINIMAL + """
[render]
style = "panels"

[[render.panels]]
name = "p"
x = "cores"
x_label = "x"
y_label = "y"

[[render.panels.series]]
label = "s"
metric = "drop_rate"
where = { iommu_enabled = true }
""")

    def test_unknown_quality_preset_at_expand(self):
        spec = spec_from(MINIMAL)
        with pytest.raises(ScenarioError, match="ultra"):
            spec.expand(quality="ultra")

    def test_find_scenario_unknown_name(self):
        with pytest.raises(ScenarioError, match="no-such-scenario"):
            find_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# Expansion semantics
# ---------------------------------------------------------------------------

class TestExpansion:
    def test_product_order_first_axis_outermost(self):
        spec = spec_from(MINIMAL + """
[[axes]]
path = "host.iommu.enabled"
values = [true, false]

[[axes]]
path = "host.cpu.cores"
values = [2, 4]
""")
        combos = [(c.host.iommu.enabled, c.host.cpu.cores)
                  for c in spec.expand()]
        assert combos == [(True, 2), (True, 4), (False, 2), (False, 4)]

    def test_zip_pairs_axes(self):
        spec = spec_from(MINIMAL.replace(
            'name = "t"', 'name = "t"\nexpansion = "zip"') + """
[[axes]]
path = "host.cpu.cores"
values = [2, 4]

[[axes]]
path = "host.antagonist_cores"
values = [0, 8]
""")
        combos = [(c.host.cpu.cores, c.host.antagonist_cores)
                  for c in spec.expand()]
        assert combos == [(2, 0), (4, 8)]

    def test_axis_scale(self):
        spec = spec_from(MINIMAL + """
[[axes]]
path = "host.rx_region_bytes"
values = [4, 16]
scale = 1048576
""")
        sizes = [c.host.rx_region_bytes for c in spec.expand()]
        assert sizes == [4 * 2**20, 16 * 2**20]
        assert all(isinstance(s, int) for s in sizes)

    def test_repeats_derive_seeds_first_repeat_untouched(self):
        spec = dataclasses.replace(spec_from(MINIMAL + """
[base]
"sim.seed" = 9

[[axes]]
path = "host.cpu.cores"
values = [2]
"""), repeats=3)
        configs = spec.expand()
        assert len(configs) == 3
        assert configs[0].sim.seed == 9
        assert configs[1].sim.seed == derive_seed(9, 1)
        assert configs[2].sim.seed == derive_seed(9, 2)
        seeds = {c.sim.seed for c in configs}
        assert len(seeds) == 3  # disjoint streams
        # Everything but the seed is identical.
        strip = lambda c: dataclasses.replace(  # noqa: E731
            c, sim=dataclasses.replace(c.sim, seed=0))
        assert strip(configs[0]) == strip(configs[1]) == strip(configs[2])

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 0) == 1
        assert derive_seed(1, 1) == derive_seed(1, 1)
        assert derive_seed(1, 1) != derive_seed(1, 2)
        assert derive_seed(1, 1) != derive_seed(2, 1)

    def test_quality_preset_overrides_and_axis_grid(self):
        spec = spec_from(MINIMAL + """
[[axes]]
path = "host.cpu.cores"
values = [2, 4, 6]

[quality.quick]
"sim.duration" = 2e-3

[quality.quick.axes]
"host.cpu.cores" = [2]
""")
        full = spec.expand()
        assert [c.host.cpu.cores for c in full] == [2, 4, 6]
        quick = spec.expand(quality="quick")
        assert [c.host.cpu.cores for c in quick] == [2]
        assert quick[0].sim.duration == 2e-3

    def test_default_quality_applies_when_quality_omitted(self):
        spec = spec_from("""
[scenario]
name = "t"
default_quality = "quick"

[quality.quick]
"sim.duration" = 2e-3
""")
        (config,) = spec.expand()
        assert config.sim.duration == 2e-3

    def test_base_overrides_are_typed_like_python_configs(self):
        spec = spec_from(MINIMAL + """
[base]
"sim.warmup" = 4e-3
"sim.duration" = 8e-3
""")
        (config,) = spec.expand()
        # TOML floats land as the same doubles Python literals produce,
        # so config digests (and cached results) are shared.
        assert config.sim.warmup == 4e-3
        assert config.sim.duration == 8e-3

    def test_int_coerced_to_float_field(self):
        spec = spec_from(MINIMAL + """
[base]
"workload.offered_load" = 1
""")
        (config,) = spec.expand()
        assert config.workload.offered_load == 1.0
        assert isinstance(config.workload.offered_load, float)


# ---------------------------------------------------------------------------
# Bundled specs and the figure oracles
# ---------------------------------------------------------------------------

class TestBundledSpecs:
    def test_every_bundled_spec_validates_and_expands(self):
        specs = bundled_scenarios()
        assert {"figure1", "figure3", "figure4", "figure5", "figure6",
                "iommu_contention", "memory_antagonist"} <= set(specs)
        for spec in specs.values():
            if spec.driver == "sweep":
                assert spec.expand(), spec.name
                for quality in spec.quality:
                    assert spec.expand(quality=quality), spec.name
            else:
                spec.base_config()

    def test_find_scenario_by_name_and_by_path(self, tmp_path):
        assert find_scenario("figure3").name == "figure3"
        path = tmp_path / "mine.toml"
        path.write_text('[scenario]\nname = "mine"\n')
        assert find_scenario(str(path)).name == "mine"

    def test_figure3_spec_expands_to_historical_config_list(self):
        """Byte-identity anchor: results are pure functions of the
        config, so dataclass-equal config lists in the same order
        guarantee identical sweep tables and figure CSVs."""
        spec = load_bundled("figure3")
        for quality, (warmup, duration), cores in (
            ("quick", (4e-3, 8e-3), (2, 6, 8, 10, 12, 16)),
            ("full", (6e-3, 14e-3), (2, 4, 6, 8, 10, 12, 14, 16)),
        ):
            base = baseline_config(warmup=warmup, duration=duration)
            oracle = []
            for enabled in (True, False):
                for n in cores:
                    host = dataclasses.replace(
                        base.host,
                        iommu=dataclasses.replace(base.host.iommu,
                                                  enabled=enabled),
                        cpu=dataclasses.replace(base.host.cpu,
                                                cores=n))
                    oracle.append(dataclasses.replace(base, host=host))
            assert spec.expand(quality=quality) == oracle

    def test_figure5_spec_scales_region_axis(self):
        spec = load_bundled("figure5")
        configs = spec.expand(quality="quick")
        on = [c for c in configs if c.host.iommu.enabled]
        assert [c.host.rx_region_bytes for c in on] == [
            4 * 2**20, 8 * 2**20, 12 * 2**20, 16 * 2**20]


# ---------------------------------------------------------------------------
# Override order: each touched dataclass is rebuilt once, validated once
# ---------------------------------------------------------------------------

def _outcome(overrides):
    """The config ``overrides`` give on the defaults, or their error."""
    try:
        return apply_overrides(ExperimentConfig(), dict(overrides))
    except ScenarioError as exc:
        return str(exc)


#: Multi-key overrides, each valid only once all of its keys have
#: landed (the pairs), or rejected whatever the order (the last two).
ORDER_CASES = {
    "buffer-on-dumbbell": {"fabric.buffer_bytes": 150000,
                           "fabric.topology": "dumbbell"},
    "memory-pair": {"host.memory.achievable_Bps": 130e9,
                    "host.memory.theoretical_Bps": 140e9},
    "pcie-pair": {"host.pcie.goodput_bps": 130e9,
                  "host.pcie.raw_bps": 140e9},
    "across-sections": {"fabric.buffer_bytes": 150000,
                        "fabric.topology": "fattree",
                        "host.cpu.cores": 4, "sim.seed": 9},
    "memory-pair-rejected": {"host.memory.achievable_Bps": 150e9,
                             "host.memory.theoretical_Bps": 140e9},
    "two-sections-rejected": {"fabric.fattree_k": 3,
                              "host.cpu.cores": 0,
                              "fabric.topology": "fattree"},
}


class TestOverrideOrder:
    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_every_key_order_gives_one_outcome(self, name):
        overrides = ORDER_CASES[name]
        outcomes = {_outcome(order) for order in
                    itertools.permutations(overrides.items())}
        assert len(outcomes) == 1, outcomes
        (outcome,) = outcomes
        if name.endswith("rejected"):
            assert isinstance(outcome, str)
        else:
            for path, value in overrides.items():
                assert functools.reduce(getattr, path.split("."),
                                        outcome) == value

    def test_rejection_names_the_key_it_rejects_on_its_own(self):
        # fabric is rebuilt before host in every order; of its keys,
        # only fattree_k is rejected on its own.
        for order in itertools.permutations(
                ORDER_CASES["two-sections-rejected"].items()):
            message = _outcome(order)
            assert "'fabric.fattree_k' = 3" in message
            assert "fabric.topology" not in message
            assert "host.cpu.cores" not in message

    def test_cross_field_rejection_names_every_key_it_read(self):
        # Each value is valid on its own; only together do they break
        # the root's PCIe credit check.
        overrides = {"host.pcie.max_inflight_bytes": 5000,
                     "workload.mtu_payload": 8192}
        message = _outcome(overrides)
        assert "'host.pcie.max_inflight_bytes' = 5000" in message
        assert "'workload.mtu_payload' = 8192" in message

    def test_axes_valid_only_together_expand_in_either_order(self):
        axes = (SweepAxis("fabric.buffer_bytes", (150000,)),
                SweepAxis("fabric.topology", ("dumbbell",)))
        for order in (axes, axes[::-1]):
            (config,) = ScenarioSpec(name="t", axes=order).expand()
            assert config.fabric.topology == "dumbbell"
            assert config.fabric.buffer_bytes == 150000

    def test_base_buffer_with_a_topology_axis_expands(self):
        spec = spec_from(MINIMAL + """
[base]
"fabric.buffer_bytes" = 150000

[[axes]]
path = "fabric.topology"
values = ["fattree", "dumbbell"]
""")
        assert [(c.fabric.topology, c.fabric.buffer_bytes)
                for c in spec.expand()] == [("fattree", 150000),
                                            ("dumbbell", 150000)]

    def test_axis_value_the_config_rejects_names_file_and_axis(self):
        spec = spec_from(MINIMAL + """
[[axes]]
path = "host.cpu.cores"
values = [0, 2]
""")
        with pytest.raises(ScenarioError,
                           match=r"test\.toml: axes\[0\] "
                                 r"'host\.cpu\.cores' = 0"):
            spec.validate()

    @pytest.mark.parametrize("kind", ["metric", "model"])
    def test_model_series_needs_a_base_that_resolves_alone(
            self, tmp_path, capsys, monkeypatch, kind):
        """A ``model`` series is built from the base config, so a base
        that only the axes complete fails ``validate``, and ``run``
        before any point runs, naming the key; a figure of measured
        series alone still validates."""
        from repro.cli import main

        text = MINIMAL + f"""
[base]
"fabric.buffer_bytes" = 150000

[[axes]]
path = "fabric.topology"
values = ["fattree", "dumbbell"]

[render]
style = "panels"

[[render.panels]]
name = "p"
x = "cores"
x_label = "x"
y_label = "y"

[[render.panels.series]]
label = "s"
kind = "{kind}"
metric = "drop_rate"
config_path = "host.cpu.cores"
"""
        spec = spec_from(text)
        assert spec.renders_model == (kind == "model")
        if kind == "metric":
            assert spec.validate() == "2 config(s)"
            return
        key = "[base] 'fabric.buffer_bytes' = 150000"
        with pytest.raises(ScenarioError, match=re.escape(key)):
            spec.validate()
        path = tmp_path / "model_base.toml"
        path.write_text(text)
        monkeypatch.setattr(ScenarioSpec, "run", lambda *args, **kw:
                            pytest.fail("a point ran"))
        for verb in ("validate", "run"):
            assert main(["scenario", verb, str(path)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            assert key in captured.out.splitlines()[-1]


def _replace_one(config, path, value):
    """Reference edit: one key through nested ``dataclasses.replace``."""
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_one(getattr(config, head), rest, value)
    return dataclasses.replace(config, **{head: value})


def _reference_expand(spec, quality, fidelity):
    """``spec``'s configs built key by key in declaration order."""
    name = quality or spec.default_quality
    preset = spec.quality[name] if name else QualityPreset()
    config = dataclasses.replace(ExperimentConfig(), fidelity=fidelity)
    for path, value in {**spec.base, **preset.overrides}.items():
        config = _replace_one(config, path, value)
    grids = [axis.scaled(preset.axis_values.get(axis.path))
             for axis in spec.axes]
    combos = (zip(*grids) if spec.expansion == "zip" and grids
              else itertools.product(*grids))
    configs = []
    for combo in combos:
        point = config
        for axis, value in zip(spec.axes, combo):
            point = _replace_one(point, axis.path, value)
        configs.append(point)
        configs += [_replace_one(point, "sim.seed",
                                  derive_seed(point.sim.seed, repeat))
                    for repeat in range(1, spec.repeats)]
    return configs


def test_bundled_specs_expand_to_the_nested_replace_reference():
    """Every bundled sweep, under each preset and at both fidelities,
    expands to the reference, whatever order its base keys are in."""
    checked = 0
    for spec in bundled_scenarios().values():
        if spec.driver != "sweep":
            continue
        reordered = dataclasses.replace(
            spec, base=dict(reversed(list(spec.base.items()))))
        for quality in (None, *sorted(spec.quality)):
            for fidelity in FIDELITIES:
                expected = _reference_expand(spec, quality, fidelity)
                assert spec.expand(quality, fidelity=fidelity) == expected
                assert reordered.expand(quality,
                                        fidelity=fidelity) == expected
                checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# In-memory specs (the `repro sweep` path)
# ---------------------------------------------------------------------------

class TestProgrammaticSpecs:
    def test_sweep_helpers_expand_through_specs(self):
        spec = ScenarioSpec(
            name="inline",
            axes=(SweepAxis("host.iommu.enabled", (True, False)),
                  SweepAxis("host.cpu.cores", (2, 4))))
        configs = spec.expand(base=baseline_config(warmup=1e-3,
                                                   duration=2e-3))
        assert len(configs) == 4
        assert all(c.sim.warmup == 1e-3 for c in configs)

    def test_run_executes_through_shared_pipeline(self):
        spec = ScenarioSpec(
            name="inline",
            base={"sim.warmup": 5e-4, "sim.duration": 1e-3,
                  "workload.senders": 8},
            axes=(SweepAxis("host.cpu.cores", (2,)),))
        table = spec.run()
        (result,) = list(table)
        assert result.params["cores"] == 2
        assert result.metrics["app_throughput_gbps"] > 0

    def test_run_takes_stream_arguments_on_the_fleet_driver_only(self):
        # A fleet's per-invocation stream arguments (checkpoint, shard
        # index, ...) must not be silently dropped by another driver.
        spec = ScenarioSpec(name="inline", driver="day")
        with pytest.raises(TypeError, match="checkpoint"):
            spec.run(checkpoint="fleet.ckpt.json")
