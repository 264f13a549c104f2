"""Record the digests every run at the reference seed is checked against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at ``SEED``, requires every row to hold
the invariants, and confirms the paper's claims on the benchmark's own
outputs before it writes ``perfbench/reference.json``:

- ``fig3-packet``: every figure-3 shape check (``check_figure``) passes;
- ``fabric-packet``: the incast drop onset does not move with the
  routing policy, and the dumbbell's fabric drop onset orders static
  before ECMP before flowlet, with flowlet winning the top load.

Record again only after a change meant to move simulated results; a
change meant only to make the simulator faster must leave every digest
as it is.
"""

import json
import sys
from pathlib import Path

import worker
from repro.analysis.compare import check_figure
from repro.analysis.figures import figure_from_scenario
from repro.analysis.xval import ROUTING_CLAIMS, compare_routing_sweep
from repro.core.results import ResultTable

SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def figure3_claims(bench, claims: list, problems: list) -> ResultTable:
    """Run figure 3 through the figure pipeline and check its shape."""
    fig = figure_from_scenario(bench.spec("figure3"), bench.quality,
                               base=worker.seeded(SEED),
                               fidelity=bench.fidelity, workers=1)
    for finding in check_figure(fig):
        (claims if finding.passed else problems).append(str(finding))
    return fig.table


def routing_claims(bench, table: ResultTable, claims: list,
                   problems: list) -> None:
    """Check each spec's routing claim on its rows of ``table``."""
    start = 0
    for name in bench.specs:
        spec = bench.spec(name)
        base = worker.seeded(SEED)
        rows = len(spec.expand(bench.quality, base=base))
        packet = ResultTable(table.results[start:start + rows])
        start += rows
        fluid = spec.run(bench.quality, base=base, fidelity="fluid",
                         workers=1)
        claim = ROUTING_CLAIMS[name]
        report = compare_routing_sweep(name, packet, fluid,
                                       spec.render.panels[0].x, claim)
        if report.ok:
            claims.append(f"{name}: routing claim {claim!r} holds")
        else:
            problems += [f"{name}: {d}" for d in report.disagreements]


def main() -> int:
    claims: list = []
    problems: list = []
    digests = {}
    for name, bench in worker.WORKLOADS.items():
        state = bench.prepare(SEED)
        if name == "fig3-packet":
            outcome = figure3_claims(bench, claims, problems)
        else:
            outcome = bench.run(state)
        if name == "fabric-packet":
            routing_claims(bench, outcome, claims, problems)
        check = bench.check(state, outcome)
        problems += check.errors
        digests[name] = check.digests
    for line in claims:
        print(f"ok   {line}")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    if problems:
        return 1
    REFERENCE.write_text(json.dumps(
        {"seed": SEED, "claims": claims, "digests": digests},
        indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
