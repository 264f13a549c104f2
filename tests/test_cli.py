"""Tests for the command-line interface."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main, sweep_configs
from repro.core.config import (
    CpuConfig,
    ExperimentConfig,
    FabricConfig,
    HostConfig,
    IommuConfig,
    SimConfig,
    WorkloadConfig,
    baseline_config,
)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_defaults_parse():
    args = build_parser().parse_args(["run"])
    assert args.cores == 12
    assert not args.no_iommu
    assert args.transport == "swift"


def test_run_command_executes(capsys):
    code = main(["run", "--cores", "4", "--senders", "8",
                 "--warmup-ms", "1", "--duration-ms", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "app throughput" in out
    assert "drop rate" in out


def test_run_no_iommu_flag(capsys):
    code = main(["run", "--cores", "4", "--senders", "8", "--no-iommu",
                 "--warmup-ms", "1", "--duration-ms", "2"])
    assert code == 0
    assert "'iommu': False" in capsys.readouterr().out


def test_sweep_cores_table(capsys):
    code = main(["sweep", "cores", "2", "4",
                 "--warmup-ms", "1", "--duration-ms", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "tput Gbps" in out
    # Two core counts x two IOMMU states = 4 data rows.
    data_rows = [line for line in out.splitlines()
                 if line.strip() and line.lstrip()[0].isdigit()]
    assert len(data_rows) == 4


def test_sweep_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep", "antagonists", "0",
                 "--warmup-ms", "1", "--duration-ms", "2",
                 "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.exists()
    assert "antagonist_cores" in csv_path.read_text().splitlines()[0]


#: ``repro sweep <axis>`` as the per-axis loops of the pre-scenario
#: sweep helpers built it: (IOMMU states outside the axis, or None for
#: no IOMMU axis; one point's config from the baseline and a value).
HISTORICAL_LOOPS = {
    "cores": ((True, False), lambda c, v: replace(
        c, host=replace(c.host, cpu=replace(c.host.cpu, cores=v)))),
    "region": ((True, False), lambda c, v: replace(
        c, host=replace(c.host, rx_region_bytes=v * 2**20))),
    "antagonists": ((False, True), lambda c, v: replace(
        c, host=replace(c.host, antagonist_cores=v))),
    "receivers": (None, lambda c, v: replace(
        c, workload=replace(c.workload, receivers=v))),
}


@pytest.mark.parametrize("axis", sorted(HISTORICAL_LOOPS))
def test_sweep_expands_in_historical_loop_order(axis):
    args = build_parser().parse_args(
        ["sweep", axis, "4", "2", "--seed", "3", "--warmup-ms", "1",
         "--duration-ms", "2"])
    base = baseline_config(warmup=args.warmup_ms * 1e-3,
                           duration=args.duration_ms * 1e-3, seed=3)
    iommu_states, point = HISTORICAL_LOOPS[axis]
    oracle = []
    for enabled in iommu_states or (None,):
        config = base if enabled is None else replace(
            base, host=replace(base.host, iommu=replace(
                base.host.iommu, enabled=enabled)))
        oracle.extend(point(config, value) for value in (4, 2))
    assert sweep_configs(args) == oracle


def test_sweep_fidelity_flag_reaches_every_config():
    args = build_parser().parse_args(
        ["sweep", "cores", "2", "4", "--fidelity", "fluid"])
    assert {c.fidelity for c in sweep_configs(args)} == {"fluid"}


def test_sweep_csv_byte_identical_across_workers(tmp_path, capsys):
    csvs = []
    for workers in ("1", "2"):
        path = tmp_path / f"workers{workers}.csv"
        assert main(["sweep", "cores", "2", "4", "--warmup-ms", "0.5",
                     "--duration-ms", "1", "--no-cache", "--workers",
                     workers, "--csv", str(path)]) == 0
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]


def test_run_metrics_out_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main(["run", "--cores", "2", "--senders", "4",
                 "--warmup-ms", "0.5", "--duration-ms", "1.5",
                 "--metrics-out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "nic.dropped_packets" in payload["counters"]
    assert "iommu.iotlb_misses" in payload["counters"]
    assert "nic.drop_rate" in payload["gauges"]
    assert "memory.bandwidth_GBps" in payload["gauges"]
    assert payload["histograms"]["nic.host_delay_us"]["count"] > 0
    assert payload["meta"]["events_dispatched"] > 0


def test_sweep_metrics_out_writes_one_snapshot_per_run(tmp_path):
    out = tmp_path / "metrics.json"
    code = main(["sweep", "antagonists", "0", "2",
                 "--warmup-ms", "0.5", "--duration-ms", "1",
                 "--metrics-out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    # One snapshot per config: 2 antagonist counts x 2 IOMMU states.
    assert isinstance(payload, list) and len(payload) == 4
    assert all("nic.rx_packets" in snap["counters"] for snap in payload)
    assert [snap["meta"]["params"]["antagonist_cores"]
            for snap in payload] == [0, 2, 0, 2]


def test_trace_command_writes_perfetto_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["trace", "--cores", "2", "--senders", "4",
                 "--warmup-ms", "0.5", "--duration-ms", "1",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert any(e.get("name") == "dma" and e["ph"] == "X"
               for e in doc["traceEvents"])
    stdout = capsys.readouterr().out
    assert "kept" in stdout
    assert "ui.perfetto.dev" in stdout


def test_trace_excludes_warmup_by_default(tmp_path):
    out = tmp_path / "trace.json"
    main(["trace", "--cores", "2", "--senders", "4",
          "--warmup-ms", "1", "--duration-ms", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    timed = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    # All events inside the measurement window (after 1 ms warmup).
    assert min(e["ts"] for e in timed) >= 1_000  # µs


def test_profile_command_reports(tmp_path, capsys):
    out = tmp_path / "profile.json"
    code = main(["profile", "--cores", "2", "--senders", "4",
                 "--warmup-ms", "0.5", "--duration-ms", "1",
                 "--out", str(out)])
    assert code == 0
    assert "events/sec" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["events"] > 0
    assert "ReceiverThread" in report["components"]


def test_model_table(capsys):
    code = main(["model", "--cores", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound (Gbps)" in out
    rows = [line for line in out.splitlines()[1:] if line.strip()]
    values = [float(row.split()[1]) for row in rows]
    assert values == sorted(values, reverse=True)  # monotone in misses


def test_fleet_command(capsys):
    code = main(["fleet", "--hosts", "2",
                 "--warmup-ms", "0.5", "--duration-ms", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hosts dropping" in out


#: ``repro fleet``'s footer timing, which varies run to run.
_FLEET_TIMING = re.compile(r"\([0-9.]+s wall, [0-9]+ hosts/s, ")


def test_fleet_report_matches_golden(capsys):
    # Captured before `repro fleet` moved onto the scenario path: its
    # stdout must stay byte-identical except the footer's timing.
    golden = Path(__file__).parent / "data" / "fleet_cli_tiny.txt"
    assert main(["fleet", "--hosts", "12", "--fidelity", "fluid",
                 "--warmup-ms", "0.5", "--duration-ms", "1"]) == 0
    out = _FLEET_TIMING.sub("(Xs wall, X hosts/s, ",
                            capsys.readouterr().out)
    assert out == golden.read_text()


def test_figure_choices_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "2"])  # fig 2 is a diagram


def test_workers_flag_parses():
    args = build_parser().parse_args(["sweep", "cores", "2",
                                      "--workers", "auto"])
    assert args.workers == "auto"
    args = build_parser().parse_args(["sweep", "cores", "2",
                                      "--workers", "3"])
    assert args.workers == 3
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "cores", "2",
                                   "--workers", "0"])


def test_sweep_parallel_matches_serial_output(capsys):
    argv = ["sweep", "cores", "2", "--warmup-ms", "1",
            "--duration-ms", "2", "--no-cache"]
    assert main(argv) == 0
    serial_out = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_sweep_second_run_hits_cache(capsys):
    argv = ["sweep", "antagonists", "0",
            "--warmup-ms", "0.5", "--duration-ms", "1"]
    assert main(argv) == 0
    assert "cache:" not in capsys.readouterr().out  # cold: all misses
    assert main(argv) == 0
    assert "cache: 2 hit(s)" in capsys.readouterr().out


def test_sweep_timeout_prints_failed_rows(capsys):
    code = main(["sweep", "cores", "2", "--warmup-ms", "1",
                 "--duration-ms", "2", "--no-cache",
                 "--timeout-s", "0.0001"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("FAILED (timeout)") == 2


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = tmp_path / "cli-cache"
    sweep = ["sweep", "antagonists", "0", "--warmup-ms", "0.5",
             "--duration-ms", "1", "--cache-dir", str(cache_dir)]
    assert main(sweep) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries   : 2" in out
    assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
    assert "removed 2" in capsys.readouterr().out


def test_fleet_workers_flag(capsys):
    code = main(["fleet", "--hosts", "2", "--workers", "2",
                 "--warmup-ms", "0.5", "--duration-ms", "1"])
    assert code == 0
    assert "hosts dropping" in capsys.readouterr().out


def test_fleet_sharded_checkpoint_resume_and_merge(tmp_path, capsys):
    """The streaming flags end to end: sharded checkpointed run,
    deterministic stop, resume, and aggregate merge."""
    checkpoint = tmp_path / "fleet.ckpt.json"
    clean_json = tmp_path / "clean.json"
    resumed_json = tmp_path / "resumed.json"
    merged_json = tmp_path / "merged.json"
    base = ["fleet", "--hosts", "12", "--fidelity", "fluid",
            "--warmup-ms", "0.5", "--duration-ms", "1"]

    assert main([*base, "--json-out", str(clean_json)]) == 0
    assert main([*base, "--shards", "3",
                 "--checkpoint", str(checkpoint),
                 "--stop-after-shard", "0"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint:" in out
    assert main([*base, "--shards", "3",
                 "--checkpoint", str(checkpoint), "--resume",
                 "--json-out", str(resumed_json)]) == 0
    assert "hosts dropping" in capsys.readouterr().out

    from repro.workload.fleet_agg import FleetAggregate

    from repro.core.cache import code_version

    clean_state = json.loads(clean_json.read_text())
    assert set(clean_state["run_info"]) == {
        "fidelity", "backend", "hosts_per_s", "elapsed_s", "batch_size",
        "workers", "code_version"}
    assert clean_state["run_info"]["code_version"] == code_version()
    assert clean_state["run_info"]["backend"] == "batched"
    clean = FleetAggregate.from_dict(clean_state)
    resumed = FleetAggregate.from_dict(
        json.loads(resumed_json.read_text()))
    assert resumed == clean
    assert clean.hosts == 12

    # merge accepts aggregate JSON and checkpoint files alike.
    assert main(["fleet", "merge", str(resumed_json),
                 str(checkpoint), "--json-out",
                 str(merged_json)]) == 0
    assert "merged 2 shard summaries" in capsys.readouterr().out
    merged = FleetAggregate.from_dict(
        json.loads(merged_json.read_text()))
    assert merged.hosts == 24  # both inputs cover the same 12 hosts


@pytest.mark.parametrize("flags, named", [
    (["--shards", "x"], "--shards"),
    (["--hosts", "0"], "--hosts"),
    (["--batch-size", "0"], "--batch-size"),
    (["--shard-index", "5"], "--shard-index"),
    (["--backend", "batched", "--fidelity", "packet"], "--backend"),
    (["--checkpoint-every", "0"], "--checkpoint-every"),
    (["--stop-after-shard", "-1"], "--stop-after-shard"),
    (["--shards", "2", "--stop-after-shard", "2"], "--stop-after-shard"),
    (["--duration-ms", "-1"], "--duration-ms"),
])
def test_fleet_rejects_bad_arguments_before_running(monkeypatch, capsys,
                                                    flags, named):
    from repro.workload.fleet import FleetSampler

    def must_not_run(*args, **kwargs):
        raise AssertionError("the fleet ran")

    monkeypatch.setattr(FleetSampler, "run_aggregate", must_not_run)
    try:
        code = main(["fleet", "--warmup-ms", "0.5", "--duration-ms", "1",
                     *flags])
    except SystemExit as exc:  # argparse type errors exit 2
        code = exc.code
    assert code != 0
    captured = capsys.readouterr()
    errors = [line for line in (captured.out + captured.err).splitlines()
              if "error:" in line]
    assert len(errors) == 1 and named in errors[0], errors


@pytest.mark.parametrize("content", ["", "{}", "[1, 2]"])
def test_fleet_merge_rejects_a_file_that_is_not_an_aggregate(
        tmp_path, capsys, content):
    path = tmp_path / "not-an-aggregate.json"
    path.write_text(content)
    assert main(["fleet", "merge", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"error: {path}: ")


# ---------------------------------------------------------------------------
# scenario subcommand
# ---------------------------------------------------------------------------

TINY_SPEC = """
[scenario]
name = "tiny"
title = "Tiny test scenario"

[base]
"sim.warmup" = 5e-4
"sim.duration" = 1e-3
"workload.senders" = 8

[[axes]]
path = "host.cpu.cores"
values = [2, 4]

[render]
style = "table"
x = "cores"
"""


def test_scenario_list_shows_bundled_specs(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("figure1", "figure3", "figure6", "iommu_contention",
                 "memory_antagonist"):
        assert name in out


def test_scenario_validate_all_bundled(capsys):
    assert main(["scenario", "validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "figure3" in out


def test_scenario_validate_reports_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[scenario]\nname = "bad"\n'
                   '[base]\n"host.cpu.coresies" = 2\n')
    assert main(["scenario", "validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "coresies" in out


def test_scenario_run_spec_file(tmp_path, capsys):
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_SPEC)
    csv_path = tmp_path / "tiny.csv"
    code = main(["scenario", "run", str(spec), "--no-cache",
                 "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tput Gbps" in out
    data_rows = [line for line in out.splitlines()
                 if line.strip() and line.lstrip()[0].isdigit()]
    assert len(data_rows) == 2
    assert csv_path.exists()


def test_scenario_run_second_time_hits_cache(tmp_path, capsys):
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_SPEC)
    argv = ["scenario", "run", str(spec)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert "cache: 2 hit(s)" in capsys.readouterr().out


def test_scenario_run_unknown_name_fails(capsys):
    assert main(["scenario", "run", "no-such-scenario"]) == 1
    assert "no-such-scenario" in capsys.readouterr().out


def test_scenario_sweep_and_cli_sweep_share_cache(tmp_path, capsys):
    """`repro sweep` and `repro scenario run` expand to the same
    configs, so one's runs are the other's cache hits."""
    spec = tmp_path / "cores.toml"
    spec.write_text("""
[scenario]
name = "cores"

[base]
"sim.warmup" = 1e-3
"sim.duration" = 2e-3

[[axes]]
path = "host.iommu.enabled"
values = [true, false]

[[axes]]
path = "host.cpu.cores"
values = [2]

[render]
style = "table"
x = "cores"
""")
    assert main(["sweep", "cores", "2",
                 "--warmup-ms", "1", "--duration-ms", "2"]) == 0
    capsys.readouterr()
    assert main(["scenario", "run", str(spec)]) == 0
    assert "cache: 2 hit(s)" in capsys.readouterr().out


@pytest.mark.parametrize("name, driver, flag", [
    ("figure1", "fleet", "--metrics-out"),
    ("figure1", "fleet", "--csv"),
    ("one_host_day", "day", "--csv"),
    ("isolation", "isolation", "--out"),
])
def test_scenario_run_rejects_ignored_output_flag(monkeypatch, tmp_path,
                                                  capsys, name, driver,
                                                  flag):
    from repro.core.scenario import ScenarioSpec

    def must_not_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(ScenarioSpec, "run", must_not_run)
    monkeypatch.setattr(ScenarioSpec, "run_fleet_aggregate", must_not_run)
    code = main(["scenario", "run", name, "--quality", "quick",
                 flag, str(tmp_path / "out")])
    assert code != 0
    out = capsys.readouterr().out
    assert flag in out and driver in out and name in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, flags", [
    ("iommu_contention", []),          # a ``table`` spec renders none
])
def test_scenario_sweep_rejects_out_without_a_figure(monkeypatch, tmp_path,
                                                     capsys, name, flags):
    from repro.core.scenario import ScenarioSpec

    def must_not_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(ScenarioSpec, "run", must_not_run)
    args = ["scenario", "run", name, "--quality", "quick",
            "--out", str(tmp_path / "figure")]
    for flag in flags:
        args += [flag, str(tmp_path / flag.strip("-"))]
    assert main(args) != 0
    out = capsys.readouterr().out
    assert "--out" in out and "sweep" in out and name in out
    assert list(tmp_path.iterdir()) == []


#: ``TINY_SPEC`` rendered as a one-panel figure.
TINY_PANELS_SPEC = TINY_SPEC.replace('style = "table"\nx = "cores"\n',
                                     '''style = "panels"

[[render.panels]]
name = "throughput"
x = "cores"
x_label = "receiver cores"
y_label = "Gbps"

[[render.panels.series]]
label = "App Throughput"
metric = "app_throughput_gbps"
''')


def test_scenario_sweep_accepts_every_output_flag(tmp_path, capsys):
    # A panels sweep runs once and writes its figure, table and
    # snapshots together.
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_PANELS_SPEC)
    figure_dir = tmp_path / "figure"
    csv_path, metrics_path = tmp_path / "tiny.csv", tmp_path / "tiny.json"
    assert main(["scenario", "run", str(spec), "--no-cache",
                 "--fidelity", "fluid", "--csv", str(csv_path),
                 "--out", str(figure_dir),
                 "--metrics-out", str(metrics_path)]) == 0
    assert "==== tiny: Tiny test scenario ====" in capsys.readouterr().out
    assert list(figure_dir.glob("*.csv"))
    assert len(csv_path.read_text().splitlines()) == 3
    assert len(json.loads(metrics_path.read_text())) == 2


def test_scenario_panels_sweep_lists_failed_runs(tmp_path, capsys):
    # Every run times out: the figure still renders, from no rows, and
    # the failed rows are listed under it.
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_PANELS_SPEC)
    assert main(["scenario", "run", str(spec), "--no-cache",
                 "--timeout-s", "0.0001"]) == 0
    out = capsys.readouterr().out
    assert "==== tiny: Tiny test scenario ====" in out
    assert out.count("FAILED (timeout)") == 2


@pytest.mark.parametrize("name, driver, flags", [
    ("figure1", "fleet", ["--timeout-s", "1"]),
    ("one_host_day", "day", ["--keep-failed"]),
    ("isolation", "isolation", ["--timeout-s", "1"]),
    ("one_host_day", "day", ["--workers", "2"]),
    ("one_host_day", "day", ["--ledger"]),
    ("isolation", "isolation", ["--live"]),
    ("figure1", "fleet", ["--cache-dir", "{tmp}/cache"]),
    ("one_host_day", "day", ["--cache-dir", "{tmp}/cache"]),
    ("isolation", "isolation", ["--cache-dir", "{tmp}/cache"]),
])
def test_scenario_run_rejects_ignored_run_flag(monkeypatch, tmp_path,
                                               capsys, name, driver, flags):
    from repro.core.scenario import ScenarioSpec

    def must_not_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(ScenarioSpec, "run", must_not_run)
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert main(["scenario", "run", name, *flags]) != 0
    out = capsys.readouterr().out
    assert flags[0] in out and driver in out and name in out
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("flags, named", [
    (["--cache-dir", "{tmp}/cache"], "--cache-dir"),
    (["--hosts", "0"], "--hosts"),
])
def test_figure_rejects_bad_run_flag(monkeypatch, tmp_path, capsys,
                                     flags, named):
    from repro.core.scenario import ScenarioSpec

    def must_not_run(*args, **kwargs):
        raise AssertionError("the figure ran")

    monkeypatch.setattr(ScenarioSpec, "run", must_not_run)
    monkeypatch.setattr(ScenarioSpec, "run_fleet_aggregate", must_not_run)
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    try:
        code = main(["figure", "1", *flags])
    except SystemExit as exc:  # argparse type errors exit 2
        code = exc.code
    assert code != 0
    captured = capsys.readouterr()
    assert named in captured.out + captured.err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("command", [
    ["fleet", "--hosts", "1"], ["sweep", "cores", "2"], ["run"]])
@pytest.mark.parametrize("flag, value", [
    ("--duration-ms", "-1"), ("--duration-ms", "0"),
    ("--duration-ms", "inf"), ("--warmup-ms", "-1"),
    ("--warmup-ms", "nan")])
def test_bad_run_window_names_the_flag(monkeypatch, capsys, command,
                                       flag, value):
    from repro.core.scenario import ScenarioSpec

    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(ScenarioSpec, "run", must_not_run)
    monkeypatch.setattr(ScenarioSpec, "run_fleet_aggregate", must_not_run)
    monkeypatch.setattr("repro.cli.run_experiment", must_not_run)
    with pytest.raises(SystemExit) as exc:  # argparse type errors exit 2
        main([*command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a number" in capsys.readouterr().err


def test_zero_warmup_is_accepted():
    args = build_parser().parse_args(["run", "--warmup-ms", "0"])
    assert args.warmup_ms == 0.0


def test_fleet_spec_without_render_prints_the_aggregate(tmp_path, capsys):
    spec = tmp_path / "fleet.toml"
    spec.write_text("""
[scenario]
name = "tiny-fleet"
driver = "fleet"
fidelity = "fluid"

[base]
"sim.warmup" = 5e-4
"sim.duration" = 1e-3

[driver_args]
n_hosts = 2
""")
    assert main(["scenario", "run", str(spec)]) == 0
    out = capsys.readouterr().out
    # The same report `repro fleet` prints: scatter, summary, footer.
    assert "fleet drop rate vs utilization" in out
    assert "hosts: 2 folded" in out
    assert "/2 hosts dropping (" in out and "fluid/batched)" in out


def _bundled_spec_names():
    from repro.core.scenario import bundled_scenarios

    return sorted(bundled_scenarios())


@pytest.mark.parametrize("name", _bundled_spec_names())
def test_bundled_spec_runs_through_the_cli(tmp_path, capsys, name):
    # Every bundled spec runs at fluid fidelity with every output flag
    # its driver declares, and writes each of them.
    from repro.analysis.figures import supported_flags
    from repro.core.scenario import load_bundled

    spec = load_bundled(name)
    argv = ["scenario", "run", name, "--fidelity", "fluid", "--no-cache"]
    if "quick" in spec.quality:
        argv += ["--quality", "quick"]
    outputs = {flag: tmp_path / flag.strip("-")
               for flag in supported_flags(spec)
               if flag in ("--metrics-out", "--csv", "--out")}
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    assert main(argv) == 0
    for path in outputs.values():
        assert path.exists(), path


def test_scenario_validate_keeps_going_past_a_rejected_expansion(
        tmp_path, capsys):
    bad = tmp_path / "bad_axis.toml"
    bad.write_text('[scenario]\nname = "bad_axis"\n'
                   '[[axes]]\npath = "host.cpu.cores"\nvalues = [0, 2]\n')
    assert main(["scenario", "validate", str(bad), "figure3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(
        f"FAIL {bad}: bad_axis.toml: axes[0] 'host.cpu.cores' = 0")
    assert lines[1].startswith("OK   figure3")


# ---------------------------------------------------------------------------
# Flags -> config through the one flag table
# ---------------------------------------------------------------------------

def _historical_config(args, trace=False, trace_max_records=1_000_000):
    """Frozen copy of the config ``run``/``trace``/``profile`` built by
    hand before the flag table: the reference the table must match."""
    return ExperimentConfig(
        host=HostConfig(
            cpu=CpuConfig(cores=args.cores),
            iommu=IommuConfig(enabled=not args.no_iommu),
            hugepages=not args.no_hugepages,
            antagonist_cores=args.antagonists,
            rx_region_bytes=args.region_mb * 2**20,
        ),
        workload=WorkloadConfig(senders=args.senders,
                                receivers=args.receivers),
        transport=args.transport,
        fabric=FabricConfig(
            topology=args.topology,
            routing=args.routing,
            fattree_k=args.fattree_k,
            trunk_links=args.trunk_links,
        ),
        fidelity=getattr(args, "fidelity", "packet"),
        sim=SimConfig(warmup=args.warmup_ms * 1e-3,
                      duration=args.duration_ms * 1e-3,
                      seed=args.seed,
                      trace=trace,
                      trace_max_records=trace_max_records),
    )


class _Built(Exception):
    """Carries what a command built out before anything runs."""


def _built(monkeypatch, argv, *targets):
    """The first argument ``repro <argv>`` hands any of ``targets``."""
    def capture(built, *args, **kwargs):
        raise _Built(built)

    for target in targets:
        monkeypatch.setattr(target, capture)
    with pytest.raises(_Built) as built:
        main(argv)
    return built.value.args[0]


#: Each config flag set away from its default, by argparse dest.
FLAG_VALUES = {
    "cores": ["--cores", "4"],
    "no_iommu": ["--no-iommu"],
    "no_hugepages": ["--no-hugepages"],
    "antagonists": ["--antagonists", "3"],
    "region_mb": ["--region-mb", "4"],
    "senders": ["--senders", "8"],
    "receivers": ["--receivers", "2"],
    "transport": ["--transport", "dctcp"],
    "topology": ["--topology", "fattree"],
    "routing": ["--routing", "ecmp"],
    "fattree_k": ["--fattree-k", "6"],
    "trunk_links": ["--trunk-links", "3"],
    "fidelity": ["--fidelity", "fluid"],
    "seed": ["--seed", "9"],
    "warmup_ms": ["--warmup-ms", "0.5"],
    "duration_ms": ["--duration-ms", "1.5"],
    "max_records": ["--max-records", "500"],
    "sample_interval_us": ["--sample-interval-us", "20"],
}

#: Flag combinations; ``()`` is the defaults, ``None`` every flag the
#: command has.
FLAG_COMBOS = [
    (),
    ("cores", "no_iommu", "senders", "warmup_ms", "duration_ms"),
    ("no_hugepages", "region_mb", "antagonists", "seed", "fidelity"),
    ("receivers", "transport", "topology", "routing", "fattree_k",
     "trunk_links", "max_records"),
    ("sample_interval_us",),
    None,
]


def test_flag_values_cover_the_flag_table():
    from repro.cli import FLAG_PATHS

    assert set(FLAG_VALUES) == set(FLAG_PATHS)


@pytest.mark.parametrize("combo", FLAG_COMBOS)
@pytest.mark.parametrize("command", ["run", "trace", "profile"])
def test_one_run_commands_build_the_historical_config(monkeypatch,
                                                      command, combo):
    own = {"run": {"fidelity"},
           "trace": {"max_records", "sample_interval_us"}}.get(command,
                                                              set())
    others = {"fidelity", "max_records", "sample_interval_us"} - own
    argv = [command]
    for dest in FLAG_VALUES if combo is None else combo:
        if dest not in others:
            argv += FLAG_VALUES[dest]
    args = build_parser().parse_args(argv)
    if command == "trace":
        oracle = _historical_config(args, trace=True,
                                    trace_max_records=args.max_records)
        if args.sample_interval_us is not None:
            oracle = replace(oracle, sim=replace(
                oracle.sim, sample_interval=args.sample_interval_us * 1e-6))
    else:
        oracle = _historical_config(args)
    assert _built(monkeypatch, argv, "repro.cli.run_experiment",
                  "repro.core.experiment.ExperimentHandle") == oracle


@pytest.mark.parametrize("cores", [None, "8"])
def test_model_builds_the_historical_config(monkeypatch, cores):
    argv = ["model"] + ([] if cores is None else ["--cores", cores])
    args = build_parser().parse_args(argv)
    base = baseline_config()
    oracle = replace(base, host=replace(base.host,
                                        cpu=CpuConfig(cores=args.cores)))
    assert _built(monkeypatch, argv, "repro.cli.ThroughputModel") == oracle


WINDOW_FLAGS = ["--seed", "9", "--warmup-ms", "0.5", "--duration-ms",
                "1.5", "--fidelity", "fluid"]


@pytest.mark.parametrize("flags", [[], WINDOW_FLAGS])
def test_sweep_and_fleet_bases_match_the_historical_ones(monkeypatch,
                                                         flags):
    for command, seeded in ((["sweep", "cores", "2", "4"], True),
                            (["fleet", "--hosts", "2"], False)):
        args = build_parser().parse_args(command + flags)
        spec = _built(monkeypatch, command + flags, "repro.cli._run_scenario")
        # The fleet's --seed seeds its sampler, not sim.seed.
        oracle = ExperimentConfig(
            fidelity=args.fidelity or "packet",
            sim=SimConfig(warmup=args.warmup_ms * 1e-3,
                          duration=args.duration_ms * 1e-3,
                          seed=args.seed if seeded else 1))
        assert spec.base_config(fidelity=args.fidelity) == oracle


@pytest.mark.parametrize("argv, key", [
    (["run", "--cores", "0"], "host.cpu.cores"),
    (["run", "--senders", "0"], "workload.senders"),
    (["run", "--fattree-k", "3"], "fabric.fattree_k"),
    (["run", "--region-mb", "0"], "host.rx_region_bytes"),
    (["trace", "--max-records", "0"], "sim.trace_max_records"),
    (["model", "--cores", "0"], "host.cpu.cores"),
])
def test_rejected_flag_value_is_one_error_line_naming_the_key(
        monkeypatch, capsys, argv, key):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr("repro.cli.run_experiment", must_not_run)
    monkeypatch.setattr("repro.core.experiment.ExperimentHandle",
                        must_not_run)
    assert main(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert line.startswith("error: ") and f"'{key}'" in line
    assert "Traceback" not in captured.err


def test_scenario_run_renders_a_base_its_axes_complete(tmp_path, capsys):
    # fabric.buffer_bytes is valid only off the star, which the axis,
    # not [base], sets: the run and its report both build.
    spec = tmp_path / "buffer.toml"
    spec.write_text('[scenario]\nname = "buffer"\nfidelity = "fluid"\n'
                    '[base]\n"fabric.buffer_bytes" = 150000\n'
                    '"sim.warmup" = 5e-4\n"sim.duration" = 1e-3\n'
                    '[[axes]]\npath = "fabric.topology"\n'
                    'values = ["fattree", "dumbbell"]\n')
    assert main(["scenario", "run", str(spec), "--no-cache"]) == 0
    assert "tput Gbps" in capsys.readouterr().out
