"""On-disk experiment result cache.

Every experiment is a pure function of its :class:`ExperimentConfig`
(the simulation derives all randomness from ``config.sim.seed``), so
results can be memoized on disk: re-running ``figures`` / ``sweep`` /
``report`` after an analysis-only change is near-instant.

Keys are the SHA-256 of the canonicalized config dataclass (a
``sort_keys`` JSON dump of ``dataclasses.asdict``) salted with a code
version, so any config change — however deep in the nesting — misses.
The code version (:data:`CODE_VERSION`) is a hash of the source of
every module a result depends on, so editing simulation code
invalidates the cache by itself, while analysis, rendering and CLI
edits keep it warm.

Entries are single JSON files under ``<cache_dir>/<aa>/<digest>.json``
(two-level fan-out keeps directories small), written atomically via a
rename so concurrent sweep workers never observe torn entries.  The
cache directory resolves from, in order: an explicit ``--cache-dir`` /
constructor argument, ``$REPRO_CACHE_DIR``, ``$XDG_CACHE_HOME/repro``,
``~/.cache/repro``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.config import ExperimentConfig
from repro.core.results import ExperimentResult

__all__ = [
    "CODE_VERSION",
    "CacheStats",
    "CachedRun",
    "ResultCache",
    "code_version",
    "config_digest",
    "default_cache_dir",
]

#: The ``repro`` source a result depends on: these packages whole, plus
#: the core modules that build, run and shape a result.
_SALT_PACKAGES = ("sim", "net", "host", "transport", "workload", "obs")
_SALT_CORE_MODULES = ("config", "calibration", "experiment", "fluid",
                      "topology", "results")
_REPRO_ROOT = Path(__file__).resolve().parent.parent


def _read_source(path: Path) -> bytes:
    return path.read_bytes()


def source_digest() -> str:
    """SHA-256 over the path and bytes of every salted source file."""
    files = [path for package in _SALT_PACKAGES
             for path in sorted((_REPRO_ROOT / package).rglob("*.py"))]
    files += [_REPRO_ROOT / "core" / f"{name}.py"
              for name in _SALT_CORE_MODULES]
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(_REPRO_ROOT).as_posix().encode())
        digest.update(b"\0" + _read_source(path) + b"\0")
    return f"repro-src/{digest.hexdigest()}"


@functools.lru_cache(maxsize=None)
def code_version() -> str:
    """The code-version salt folded into every cache key: the
    :func:`source_digest`, computed once per process on first use (a
    physics edit changes it, an analysis edit does not)."""
    return source_digest()


def __getattr__(name: str) -> str:
    # ``CODE_VERSION`` stays importable, hashed on first use rather
    # than at import.
    if name == "CODE_VERSION":
        return code_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro"


def config_digest(config: ExperimentConfig,
                  salt: Optional[str] = None) -> str:
    """Stable SHA-256 key for a config (canonical JSON + code salt,
    :func:`code_version` unless given)."""
    payload = {
        "salt": code_version() if salt is None else salt,
        "transport": config.transport,
        "config": dataclasses.asdict(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CachedRun:
    """One cache hit: the result plus (optionally) its metrics snapshot."""

    result: ExperimentResult
    snapshot: Optional[dict]


@dataclass(frozen=True)
class CacheStats:
    """Aggregate cache state for ``repro cache stats``."""

    path: str
    entries: int
    total_bytes: int
    hits: int
    misses: int


class ResultCache:
    """Config-keyed store of experiment results + metrics snapshots."""

    def __init__(self, directory: str | Path | None = None,
                 salt: Optional[str] = None):
        self.directory = (Path(directory) if directory is not None
                          else default_cache_dir())
        self.salt = code_version() if salt is None else salt
        #: Hit/miss counters for this process (reported by the CLI).
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.json"

    def get(self, config: ExperimentConfig,
            want_snapshot: bool = False) -> Optional[CachedRun]:
        """The cached run for ``config``, or ``None`` on a miss.

        A stored entry without a metrics snapshot does not satisfy a
        ``want_snapshot`` lookup — the caller re-runs, and ``put``
        upgrades the entry in place.
        """
        path = self._path(config_digest(config, self.salt))
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if want_snapshot and payload.get("snapshot") is None:
            self.misses += 1
            return None
        self.hits += 1
        result = ExperimentResult(
            params=payload["params"],
            metrics=payload["metrics"],
            message_latency_us=payload.get("message_latency_us", {}),
        )
        return CachedRun(result=result, snapshot=payload.get("snapshot"))

    def put(self, config: ExperimentConfig, result: ExperimentResult,
            snapshot: Optional[dict] = None) -> Path:
        """Store (or upgrade) the entry for ``config``; returns its path."""
        digest = config_digest(config, self.salt)
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "digest": digest,
            "params": result.params,
            "metrics": result.metrics,
            "message_latency_us": result.message_latency_us,
            "snapshot": snapshot,
        }
        # Atomic publish: a unique temp name per process, then rename,
        # so parallel workers caching the same config cannot tear it.
        tmp = path.with_name(f".{digest}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        return path

    def _entry_paths(self):
        if not self.directory.is_dir():
            return
        for shard in sorted(self.directory.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def stats(self) -> CacheStats:
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            entries += 1
            total_bytes += path.stat().st_size
        return CacheStats(path=str(self.directory), entries=entries,
                          total_bytes=total_bytes, hits=self.hits,
                          misses=self.misses)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entry_paths():
            path.unlink(missing_ok=True)
            removed += 1
        return removed
