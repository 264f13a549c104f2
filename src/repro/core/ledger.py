"""Durable JSONL run ledger: what happened during a sweep, on disk.

Every sweep/fleet invocation with telemetry enabled appends its
lifecycle event stream (the dicts emitted by
:func:`repro.core.parallel.run_many`) to one append-only JSONL file —
one file per invocation, one event per line, flushed per line so a
crashed or killed run still leaves a readable prefix.  The ledger is
the durable half of the telemetry plane: ``repro runs show``
reconstructs a sweep's summary from the file alone, with no result
table in sight, by folding rows through
:class:`~repro.obs.telemetry.RunAggregate`.

Layout: ``$REPRO_LEDGER_DIR`` if set, else ``<cache dir>/ledger``
(which tests already isolate via ``REPRO_CACHE_DIR``).  File names are
``<label>-<utc timestamp>-<pid>.jsonl``; ``resolve_run("latest")``
picks the newest by modification time.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.core.cache import code_version, default_cache_dir
from repro.obs.telemetry import RunAggregate

__all__ = [
    "LedgerWriter",
    "RunInfo",
    "default_ledger_dir",
    "iter_run",
    "list_runs",
    "read_run",
    "resolve_run",
    "summarize_run",
]

LEDGER_VERSION = 1


def default_ledger_dir() -> Path:
    """``$REPRO_LEDGER_DIR`` > ``<default cache dir>/ledger``."""
    env = os.environ.get("REPRO_LEDGER_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "ledger"


class LedgerWriter:
    """Append-only JSONL sink for one invocation's event stream.

    Usable directly as the ``events=`` callable of ``run_many`` (it is
    callable), or composed with other sinks.  ``close(ok=...)`` writes
    the terminal ``end`` row; the context-manager form closes with
    ``ok=False`` on an exception, so an aborted sweep is visibly
    unfinished in the ledger.
    """

    def __init__(self, directory: str | Path | None = None,
                 label: str = "run",
                 meta: Optional[Dict] = None):
        self.directory = Path(directory) if directory is not None \
            else default_ledger_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        base = f"{label}-{stamp}-{os.getpid()}"
        path = self.directory / f"{base}.jsonl"
        serial = 1
        while path.exists():
            serial += 1
            path = self.directory / f"{base}-{serial}.jsonl"
        self.path = path
        self.run_id = path.stem
        self.label = label
        self.rows = 0
        self._fh = open(path, "w")
        self._closed = False
        begin = {"ev": "begin", "v": LEDGER_VERSION,
                 "run_id": self.run_id, "label": label,
                 "code_version": code_version(), "ts": time.time()}
        if meta:
            begin["meta"] = meta
        self.append(begin)

    def append(self, event: Dict) -> None:
        if self._closed:
            return
        if "ts" not in event:
            event = {**event, "ts": time.time()}
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.rows += 1

    #: ``run_many(events=ledger)`` works: the writer *is* a sink.
    __call__ = append

    def close(self, ok: bool = True) -> None:
        if self._closed:
            return
        self.append({"ev": "end", "ok": ok, "rows": self.rows,
                     "ts": time.time()})
        self._closed = True
        self._fh.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(ok=exc_type is None)


# -- reading ---------------------------------------------------------------


@dataclass(frozen=True)
class RunInfo:
    """One ledger file's identity and coarse shape."""

    run_id: str
    path: Path
    label: str
    started_ts: Optional[float]
    rows: int
    finished: bool


def iter_run(path: str | Path) -> Iterator[Dict]:
    """Yield parsed rows; raises ``ValueError`` naming a corrupt line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: corrupt ledger row: {exc}") from exc


def read_run(path: str | Path) -> List[Dict]:
    return list(iter_run(path))


def _info(path: Path) -> RunInfo:
    label = ""
    started = None
    rows = 0
    finished = False
    for event in iter_run(path):
        rows += 1
        kind = event.get("ev")
        if kind == "begin":
            label = event.get("label", "")
            started = event.get("ts")
        elif kind == "end":
            finished = True
    return RunInfo(run_id=path.stem, path=path, label=label,
                   started_ts=started, rows=rows, finished=finished)


def list_runs(directory: str | Path | None = None) -> List[RunInfo]:
    """Every ledger in ``directory``, oldest first (mtime order)."""
    base = Path(directory) if directory is not None \
        else default_ledger_dir()
    if not base.is_dir():
        return []
    paths = sorted(base.glob("*.jsonl"),
                   key=lambda p: (p.stat().st_mtime, p.name))
    return [_info(path) for path in paths]


def resolve_run(token: str = "latest",
                directory: str | Path | None = None) -> Path:
    """Map a CLI run token to a ledger path.

    ``latest`` (or empty) picks the newest file; anything else must be
    a run id, a unique run-id prefix, or a literal path.
    """
    base = Path(directory) if directory is not None \
        else default_ledger_dir()
    literal = Path(token)
    if literal.is_file():
        return literal
    runs = list_runs(base)
    if not runs:
        raise FileNotFoundError(f"no ledgers under {base}")
    if token in ("", "latest"):
        return runs[-1].path
    matches = [info for info in runs if info.run_id == token]
    if not matches:
        matches = [info for info in runs
                   if info.run_id.startswith(token)]
    if not matches:
        raise FileNotFoundError(
            f"no ledger matching {token!r} under {base}")
    if len(matches) > 1:
        names = ", ".join(info.run_id for info in matches)
        raise ValueError(f"ambiguous run {token!r}: {names}")
    return matches[0].path


def summarize_run(path: str | Path,
                  alpha: float = 0.01) -> RunAggregate:
    """Fold one ledger file into a :class:`RunAggregate` — the whole
    point of the ledger: a sweep summary with no result table needed."""
    return RunAggregate(alpha=alpha).fold_all(iter_run(path))
