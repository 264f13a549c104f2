"""Model-vs-simulation cross-validation over the operating grid.

The paper validates its Little's-law model against the testbed for the
credit-bottlenecked regime ("the observed throughput closely matches
the above model").  Here both sides are ours, so the grid is wider:
CPU-bound, line-rate-bound, interconnect-bound, and memory-contended
points all have to agree.
"""

from repro.analysis.xval import compare_model
from repro.core.config import baseline_config
from repro.core.scenario import ScenarioSpec, SweepAxis, run_configs

#: Antagonists outermost, then IOMMU, then cores.
GRID = ScenarioSpec(name="model-grid", axes=(
    SweepAxis("host.antagonist_cores", (0, 15)),
    SweepAxis("host.iommu.enabled", (True, False)),
    SweepAxis("host.cpu.cores", (4, 8, 12, 16)),
))


def test_model_agrees_with_simulation(benchmark):
    configs = GRID.expand(base=baseline_config(warmup=4e-3, duration=8e-3))
    table = benchmark.pedantic(run_configs, args=(configs,), rounds=1,
                               iterations=1)
    # Blind-spot operating points include CC-induced underutilization
    # the model doesn't capture: every point within 25%, the mean
    # within 10% (xval.MODEL_RTOL / MODEL_MEAN_RTOL).
    report = compare_model("model-grid", configs, table)
    print()
    for disagreement in report.disagreements:
        print(disagreement.format_row())
    print(f"{report.checks} model checks, "
          f"{len(report.disagreements)} disagreement(s)")
    assert report.ok
