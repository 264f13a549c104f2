"""Declarative scenario layer: one spec-driven pipeline from config
expansion to rendered figures.

A :class:`ScenarioSpec` describes an experiment *as data*:

- **base overrides** — dotted paths into the nested config dataclasses
  (``"host.iommu.enabled"``, ``"sim.warmup"``) applied to a base
  :class:`~repro.core.config.ExperimentConfig`;
- **sweep axes** — one or more ``(path, values)`` axes expanded as a
  cartesian product (first axis outermost) or zipped pairwise;
- **repeats** — each expanded point is run ``repeats`` times with a
  deterministically derived seed per repeat (repeat 0 keeps the
  configured seed, so single-repeat specs are byte-identical to the
  pre-scenario code path);
- **quality presets** — named bundles of overrides plus per-axis value
  grids (``quick`` vs ``full``), selected at run time;
- **output selectors** — panel/series/axes rendering metadata consumed
  by :mod:`repro.analysis.figures`, so a paper figure is a spec file,
  not code.

Specs load from TOML or JSON files with schema validation that names
the offending key and its location, or are built programmatically
(``repro sweep <axis>`` builds an in-memory spec).  However a spec is
built, execution flows through :func:`run_configs` — the same parallel
executor and on-disk result cache as every other entry point, so
``workers=``, per-run timeouts, ``FailedRun`` rows, and config-digest
memoization come for free.

Drivers other than the default config sweep expose the workload studies
as specs too: ``driver = "fleet"`` samples a heterogeneous fleet
(Fig. 1), ``driver = "day"`` runs one host through a diurnal schedule,
and ``driver = "isolation"`` runs the small-RPC victim study.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.cache import ResultCache
from repro.core.config import FIDELITIES, ExperimentConfig
from repro.core.parallel import Workers, run_many
from repro.core.results import ExperimentResult, ResultTable

try:  # Python >= 3.11
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

__all__ = [
    "PanelSpec",
    "QualityPreset",
    "RenderSpec",
    "ScenarioError",
    "ScenarioSpec",
    "SeriesSpec",
    "SweepAxis",
    "apply_overrides",
    "bundled_scenarios",
    "derive_seed",
    "find_scenario",
    "load_scenario_dir",
    "load_scenario_file",
    "run_configs",
]

#: Drivers a spec may name and the study each one runs.
DRIVERS = ("sweep", "fleet", "day", "isolation")

#: Flat parameter keys every run reports (``ExperimentConfig.describe``)
#: — the vocabulary for render ``x`` keys and ``where`` filters.
PARAM_KEYS = tuple(ExperimentConfig().describe())


class ScenarioError(ValueError):
    """A spec failed validation; the message names the bad key and the
    file (or in-memory source) it came from."""


# ---------------------------------------------------------------------------
# Dotted-path overrides over the nested config dataclasses
# ---------------------------------------------------------------------------

@functools.cache
def _field_types(cls) -> Dict[str, Any]:
    """Resolved annotation per dataclass field (PEP 563 strings undone)."""
    return typing.get_type_hints(cls)


def _unwrap_optional(leaf_type) -> Tuple[Any, bool]:
    """(concrete type, allows_none) for ``X | None`` annotations."""
    origin = typing.get_origin(leaf_type)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        args = [a for a in typing.get_args(leaf_type)
                if a is not type(None)]
        if len(args) == 1:
            return args[0], True
    return leaf_type, False


def _resolve_leaf(path: str, *, source: str, context: str):
    """Walk ``path`` down from :class:`ExperimentConfig`.

    Returns the leaf field's resolved type.  Raises
    :class:`ScenarioError` naming the first missing segment, the class
    it was looked up on, and that class's actual fields.
    """
    parts = path.split(".")
    cls = ExperimentConfig
    for depth, part in enumerate(parts):
        if not dataclasses.is_dataclass(cls):
            prefix = ".".join(parts[:depth])
            raise ScenarioError(
                f"{source}: {context}{path!r}: {prefix!r} is a "
                f"{cls.__name__}, not a config section — the path ends "
                f"too deep")
        types_by_name = _field_types(cls)
        if part not in types_by_name:
            options = ", ".join(sorted(types_by_name))
            raise ScenarioError(
                f"{source}: {context}{path!r}: {cls.__name__} has no "
                f"field {part!r} (fields: {options})")
        cls = types_by_name[part]
    if dataclasses.is_dataclass(cls):
        raise ScenarioError(
            f"{source}: {context}{path!r} names the whole "
            f"{cls.__name__} section; give a full dotted path to one "
            f"of its fields")
    return cls


def _coerce_value(path: str, value: Any, leaf_type, *, source: str,
                  context: str) -> Any:
    """Type-check ``value`` against the leaf annotation.

    TOML integers are accepted for float fields (coerced, so digests
    and dataclass equality match Python-built configs exactly); bools
    are never accepted as ints and vice versa.
    """
    concrete, allows_none = _unwrap_optional(leaf_type)
    if value is None:
        if allows_none:
            return None
        raise ScenarioError(
            f"{source}: {context}{path!r}: null is not allowed "
            f"(expected {getattr(concrete, '__name__', concrete)})")
    if concrete is bool:
        if isinstance(value, bool):
            return value
    elif concrete is float:
        if isinstance(value, bool):
            pass  # fall through to the error
        elif isinstance(value, int):
            return float(value)
        elif isinstance(value, float):
            return value
    elif concrete is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif concrete is str:
        if isinstance(value, str):
            return value
    else:  # exotic leaf: pass through untyped
        return value
    raise ScenarioError(
        f"{source}: {context}{path!r}: expected "
        f"{getattr(concrete, '__name__', concrete)}, got "
        f"{type(value).__name__} ({value!r})")


def apply_overrides(
    config: ExperimentConfig,
    overrides: Mapping[str, Any],
    *,
    source: str = "<overrides>",
    context: str = "",
) -> ExperimentConfig:
    """Apply dotted-path overrides, validating each path and value.

    Each touched dataclass is rebuilt once, with all of its overrides,
    so the result does not depend on key order.  A value the config
    itself rejects (``__post_init__``) is re-raised as a
    :class:`ScenarioError` naming the offending key.
    """
    return _apply(config, {path: (value, context)
                           for path, value in overrides.items()}, source)


def _apply(config: ExperimentConfig, given: Mapping[str, Tuple[Any, str]],
           source: str) -> ExperimentConfig:
    """:func:`apply_overrides` with ``given`` mapping each path to
    ``(value, context)``.  Each touched dataclass is rebuilt once,
    children before parents, so every ``__post_init__``, the root's
    cross-field checks included, sees the finished values."""
    values: Dict[str, Any] = {}
    tree: Dict[str, Any] = {}
    for path in sorted(given):
        value, context = given[path]
        leaf_type = _resolve_leaf(path, source=source, context=context)
        *sections, name = path.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = values[path] = _coerce_value(
            path, value, leaf_type, source=source, context=context)

    def rebuild(target, node: Dict[str, Any], prefix: str):
        # A dict is a section: leaf values are scalars (_coerce_value).
        fields = {name: rebuild(getattr(target, name), sub,
                                f"{prefix}{name}.")
                  if isinstance(sub, dict) else sub
                  for name, sub in node.items()}
        try:
            return dataclasses.replace(target, **fields)
        except ValueError as exc:
            # Name the keys under each field rejected on its own, else
            # (a cross-field check) every key under the section.
            alone = []
            for name, value in fields.items():
                try:
                    dataclasses.replace(target, **{name: value})
                except ValueError:
                    alone.append(f"{prefix}{name}.")
            keys = ", ".join(f"{given[path][1]}{path!r} = {value!r}"
                             for path, value in values.items()
                             if f"{path}.".startswith(tuple(alone)
                                                      or prefix))
            raise ScenarioError(f"{source}: {keys} rejected by config "
                                f"validation: {exc}") from exc

    return rebuild(config, tree, "") if given else config


def derive_seed(seed: int, repeat: int) -> int:
    """Seed for repeat ``repeat`` of a run configured with ``seed``.

    Repeat 0 keeps the configured seed (so ``repeats = 1`` expands to
    exactly the config it would without repeats); later repeats draw a
    disjoint, deterministic stream via SHA-256 of ``"seed:repeat"``.
    """
    if repeat == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{repeat}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Spec model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted config path and its value grid."""

    path: str
    values: Tuple[Any, ...]
    #: Multiplier applied to numeric values before they hit the config
    #: (lets a spec say ``rx_region_bytes`` in MB: ``scale = 1048576``).
    scale: float = 1

    def scaled(self, values: Optional[Sequence[Any]] = None) -> Tuple:
        raw = self.values if values is None else tuple(values)
        if self.scale == 1:
            return raw
        return tuple(v * self.scale if isinstance(v, (int, float))
                     and not isinstance(v, bool) else v for v in raw)


@dataclass(frozen=True)
class QualityPreset:
    """A named run-time fidelity level: overrides + axis value grids."""

    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: axis path -> replacement values (unscaled) for this preset.
    axis_values: Mapping[str, Tuple[Any, ...]] = field(
        default_factory=dict)


@dataclass(frozen=True)
class SeriesSpec:
    """One rendered curve.

    ``kind`` selects the y-value source:

    - ``"metric"`` — a result-table metric filtered by ``where``;
    - ``"model"`` — the Little's-law bound fed with measured misses
      (rows matching ``where`` with x >= ``min_x``; ``config_path``
      says which config field the panel x maps to);
    - ``"max_goodput"`` — the constant achievable-goodput line.
    """

    label: str
    kind: str = "metric"
    metric: Optional[str] = None
    where: Mapping[str, Any] = field(default_factory=dict)
    scale: float = 1
    min_x: Optional[float] = None
    config_path: Optional[str] = None


@dataclass(frozen=True)
class PanelSpec:
    """One figure panel: axes metadata plus its series."""

    name: str
    x: str
    x_label: str
    y_label: str
    series: Tuple[SeriesSpec, ...] = ()


@dataclass(frozen=True)
class RenderSpec:
    """How a scenario's results become a figure or table."""

    style: str = "table"            # "panels" | "scatter" | "table"
    panels: Tuple[PanelSpec, ...] = ()
    #: Param key for the x column of ``style = "table"`` output.
    x: Optional[str] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative experiment description."""

    name: str
    title: str = ""
    description: str = ""
    driver: str = "sweep"
    #: Engine the spec runs on: "packet" (event-level kernel) or
    #: "fluid" (rate-based solver).  Applied to the base config before
    #: overrides, so a dotted-path ``fidelity`` override (or an
    #: explicit ``fidelity=`` at run time) still wins.
    fidelity: str = "packet"
    #: Dotted-path overrides applied to the base config first.
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Tuple[SweepAxis, ...] = ()
    expansion: str = "product"      # "product" | "zip"
    repeats: int = 1
    quality: Mapping[str, QualityPreset] = field(default_factory=dict)
    default_quality: Optional[str] = None
    #: Driver-specific knobs (fleet: n_hosts/seed; day: n_bins/...).
    driver_args: Mapping[str, Any] = field(default_factory=dict)
    render: Optional[RenderSpec] = None
    #: Provenance for error messages ("figure3.toml", "<sweep_cores>").
    source: str = "<memory>"

    def __post_init__(self) -> None:
        # Checked on every construction (``dataclasses.replace`` too),
        # not only when parsed from a file.
        object.__setattr__(self, "driver_args", _validate_driver_args(
            self.driver_args, self.driver, self.source))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSpec":
        """Load and validate a ``.toml`` or ``.json`` spec file."""
        path = Path(path)
        return cls.from_text(path.read_text(), source=path.name,
                             fmt=path.suffix.lstrip("."))

    @classmethod
    def from_text(cls, text: str, *, source: str = "<string>",
                  fmt: str = "toml") -> "ScenarioSpec":
        if fmt == "json":
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise ScenarioError(
                    f"{source}: JSON parse error: {exc}") from exc
        elif fmt == "toml":
            if _toml is None:  # pragma: no cover - 3.10 without tomli
                raise ScenarioError(
                    f"{source}: no TOML parser available on this "
                    f"Python (need tomllib >= 3.11 or the tomli "
                    f"package); use a .json spec instead")
            try:
                data = _toml.loads(text)
            except _toml.TOMLDecodeError as exc:
                raise ScenarioError(
                    f"{source}: TOML parse error: {exc}") from exc
        else:
            raise ScenarioError(
                f"{source}: unknown spec format {fmt!r} "
                f"(expected toml or json)")
        return cls.from_dict(data, source=source)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *,
                  source: str = "<dict>") -> "ScenarioSpec":
        """Validate a raw mapping into a spec.

        Every rejection is a :class:`ScenarioError` whose message
        contains the offending key and ``source``.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(f"{source}: spec must be a table, got "
                                f"{type(data).__name__}")
        _check_keys(data, {"scenario", "base", "quality", "axes",
                           "render", "driver_args"}, source, "")

        meta = data.get("scenario")
        if not isinstance(meta, Mapping):
            raise ScenarioError(
                f"{source}: missing [scenario] table (with at least "
                f"'name')")
        _check_keys(meta, {"name", "title", "description", "driver",
                           "fidelity", "expansion", "repeats",
                           "default_quality"},
                    source, "[scenario] ")
        name = meta.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError(
                f"{source}: [scenario] 'name' must be a non-empty "
                f"string")
        driver = _str_choice(meta, "driver", DRIVERS, "sweep", source)
        fidelity = _str_choice(meta, "fidelity", FIDELITIES, "packet",
                               source)
        expansion = _str_choice(meta, "expansion", ("product", "zip"),
                                "product", source)
        repeats = meta.get("repeats", 1)
        if not isinstance(repeats, int) or isinstance(repeats, bool) \
                or repeats < 1:
            raise ScenarioError(
                f"{source}: [scenario] 'repeats' must be an integer "
                f">= 1, got {repeats!r}")

        base = _validate_overrides(data.get("base", {}), source,
                                   "[base] ")
        axes = _validate_axes(data.get("axes", []), source)
        if driver != "sweep" and axes:
            raise ScenarioError(
                f"{source}: 'axes' only apply to driver = \"sweep\" "
                f"(driver is {driver!r})")

        quality = _validate_quality(data.get("quality", {}), axes,
                                    source)
        default_quality = meta.get("default_quality")
        if default_quality is not None and default_quality not in quality:
            raise ScenarioError(
                f"{source}: [scenario] 'default_quality' "
                f"{default_quality!r} is not a defined [quality.*] "
                f"preset (have: {sorted(quality)})")

        render = _validate_render(data.get("render"), source)

        return cls(name=name,
                   title=str(meta.get("title", "")),
                   description=str(meta.get("description", "")),
                   driver=driver, fidelity=fidelity, base=base,
                   axes=axes,
                   expansion=expansion, repeats=repeats,
                   quality=quality, default_quality=default_quality,
                   driver_args=data.get("driver_args", {}),
                   render=render,
                   source=source)

    # -- expansion ---------------------------------------------------------

    def _preset(self, quality: Optional[str]) -> Optional[QualityPreset]:
        name = quality if quality is not None else self.default_quality
        if name is None:
            return None
        try:
            return self.quality[name]
        except KeyError:
            raise ScenarioError(
                f"{self.source}: scenario {self.name!r} has no quality "
                f"preset {name!r} (have: {sorted(self.quality)})"
            ) from None

    def _given(self, quality: Optional[str],
               fidelity: Optional[str]) -> Dict[str, Tuple[Any, str]]:
        """The overrides every point starts from, each with its
        context: the spec's fidelity (or ``fidelity``), then ``[base]``,
        then the quality preset's, later ones winning."""
        preset = self._preset(quality) or QualityPreset()
        context = f"[quality.{quality or self.default_quality}] "
        return {"fidelity": (fidelity or self.fidelity, "[scenario] "),
                **{path: (value, "[base] ")
                   for path, value in self.base.items()},
                **{path: (value, context)
                   for path, value in preset.overrides.items()}}

    def base_config(
        self,
        quality: Optional[str] = None,
        base: Optional[ExperimentConfig] = None,
        fidelity: Optional[str] = None,
    ) -> ExperimentConfig:
        """The config every expanded point starts from: ``base`` (or
        the defaults) + the spec's fidelity (or the ``fidelity``
        argument — the CLI's ``--fidelity``) + base overrides + the
        quality preset's, applied in one :func:`apply_overrides`."""
        return _apply(base if base is not None else ExperimentConfig(),
                      self._given(quality, fidelity), self.source)

    def axis_grid(self, quality: Optional[str] = None) -> List[Tuple]:
        """Scaled value grid per axis under the chosen preset."""
        preset = self._preset(quality)
        grids = []
        for axis in self.axes:
            values = None
            if preset is not None:
                values = preset.axis_values.get(axis.path)
            grids.append(axis.scaled(values))
        return grids

    def expand(
        self,
        quality: Optional[str] = None,
        base: Optional[ExperimentConfig] = None,
        fidelity: Optional[str] = None,
    ) -> List[ExperimentConfig]:
        """Every concrete :class:`ExperimentConfig` this spec names.

        Product expansion nests axes in declaration order (first axis
        outermost); zip expansion pairs them index by index.  Repeats
        are innermost, with seeds from :func:`derive_seed`.  Each point
        is one :func:`apply_overrides`, base and axis values together.
        """
        if self.driver != "sweep":
            raise ScenarioError(
                f"{self.source}: scenario {self.name!r} uses driver "
                f"{self.driver!r}; only sweep scenarios expand to "
                f"config lists")
        config = base if base is not None else ExperimentConfig()
        given = self._given(quality, fidelity)
        grids = self.axis_grid(quality)
        if self.expansion == "zip":
            lengths = {axis.path: len(grid)
                       for axis, grid in zip(self.axes, grids)}
            if len(set(lengths.values())) > 1:
                detail = ", ".join(f"{path} has {n}"
                                   for path, n in lengths.items())
                raise ScenarioError(
                    f"{self.source}: zip expansion needs equal-length "
                    f"axes ({detail})")
            combos: Iterable[Tuple] = zip(*grids) if grids else [()]
        else:
            combos = itertools.product(*grids)

        configs: List[ExperimentConfig] = []
        for combo in combos:
            for i, (axis, value) in enumerate(zip(self.axes, combo)):
                given[axis.path] = (value, f"axes[{i}] ")
            point = _apply(config, given, self.source)
            configs.append(point)
            configs += [apply_overrides(point, {"sim.seed": derive_seed(
                point.sim.seed, repeat)}, source=self.source)
                for repeat in range(1, self.repeats)]
        return configs

    @property
    def renders_model(self) -> bool:
        """Whether a panel draws a ``model`` series, the one render
        input built from :meth:`base_config` rather than from the
        runs, so that config must resolve without the axes."""
        return self.render is not None and any(
            series.kind == "model" for panel in self.render.panels
            for series in panel.series)

    def validate(self) -> str:
        """Resolve every config the spec names, under each quality
        preset, and summarize its size (``repro scenario validate``)."""
        if self.driver != "sweep":
            self.base_config()
            return f"driver {self.driver}"
        if self.renders_model:
            for quality in (None, *self.quality):
                self.base_config(quality)
        grids = ", ".join(f"{q}: {len(self.expand(quality=q))}"
                          for q in sorted(self.quality))
        return f"{len(self.expand())} config(s)" + (
            f" ({grids})" if grids else "")

    # -- execution ---------------------------------------------------------

    def run(
        self,
        quality: Optional[str] = None,
        base: Optional[ExperimentConfig] = None,
        progress: Optional[Callable[[int, ExperimentResult],
                                    None]] = None,
        snapshots_out: Optional[list] = None,
        *,
        fidelity: Optional[str] = None,
        workers: Workers = None,
        timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        events: Optional[Callable[[dict], None]] = None,
        failures: str = "raise",
        **stream_args,
    ):
        """Run the scenario through the shared execution pipeline.

        ``fidelity`` overrides the spec's engine choice at run time
        (the CLI's ``--fidelity``); results are cached under distinct
        keys per fidelity.

        Returns a :class:`ResultTable` for sweep scenarios, a
        :class:`~repro.workload.fleet_agg.FleetAggregate` for fleet
        ones, a list of :class:`~repro.workload.day.DayBin` for day
        ones, and a dict of
        :class:`~repro.workload.isolation.IsolationResult` for
        isolation ones.  ``workers``/``events`` reach the sweep and
        fleet drivers, ``stream_args`` the fleet driver only (as in
        :meth:`run_fleet_aggregate`), the other keywords the sweep
        driver only (as in :func:`run_configs`).
        """
        if stream_args and self.driver != "fleet":
            raise TypeError(f"{self.driver} driver: unexpected stream "
                            f"arguments {sorted(stream_args)}")
        if self.driver == "sweep":
            return run_configs(self.expand(quality, base, fidelity),
                               progress=progress,
                               snapshots_out=snapshots_out,
                               workers=workers, timeout=timeout,
                               cache=cache, events=events,
                               failures=failures)
        if self.driver == "fleet":
            return self.run_fleet_aggregate(quality, base, fidelity,
                                            workers=workers,
                                            events=events, **stream_args)
        if self.driver == "day":
            return self._run_day(quality, base, fidelity)
        from repro.workload.isolation import congested_vs_uncongested

        return congested_vs_uncongested(
            self.base_config(quality, base, fidelity))

    def fleet_sampler(self, quality=None, base=None, fidelity=None):
        """Build the spec's :class:`~repro.workload.fleet.FleetSampler`
        (fleet driver only) plus its configured host count."""
        from repro.workload.fleet import FleetSampler

        if self.driver != "fleet":
            raise ScenarioError(
                f"{self.source}: fleet_sampler() needs driver = "
                f"'fleet', got {self.driver!r}")
        config = self.base_config(quality, base, fidelity)
        sampler = FleetSampler(
            seed=self.driver_args.get("seed", 7),
            warmup=config.sim.warmup,
            duration=config.sim.duration,
            fidelity=config.fidelity)
        return sampler, self.driver_args.get("n_hosts", 30)

    def fleet_knobs(self) -> Dict[str, Any]:
        """The fleet's ``shards``, ``backend`` (``"auto"`` = batched
        for fluid fleets) and ``batch_size``, defaults filled in."""
        args = self.driver_args
        return {"shards": args.get("shards", 1),
                "backend": args.get("backend", "auto"),
                "batch_size": args.get("batch_size", 4096)}

    def run_fleet_aggregate(self, quality=None, base=None,
                            fidelity=None, *,
                            workers: Workers = None, events=None,
                            progress=None, n_hosts=None, **stream_args):
        """Run the fleet driver through the constant-memory streaming
        pipeline, returning a merged
        :class:`~repro.workload.fleet_agg.FleetAggregate`.

        ``stream_args`` pass straight to
        :meth:`~repro.workload.fleet.FleetSampler.run_aggregate`
        (``shards=``, ``checkpoint=``, ``resume=``, ...); the spec's
        :meth:`fleet_knobs` supply the default shard count, execution
        backend, and batch size.
        """
        sampler, spec_hosts = self.fleet_sampler(quality, base,
                                                 fidelity)
        return sampler.run_aggregate(
            spec_hosts if n_hosts is None else int(n_hosts),
            workers=workers, events=events, progress=progress,
            **{**self.fleet_knobs(), **stream_args})

    def _run_day(self, quality, base, fidelity=None):
        from repro.workload.day import diurnal_schedule, simulate_day

        # Only the keys the spec sets, so each default lives in one
        # signature; the rest of ``[driver_args]`` shapes the schedule.
        args = dict(self.driver_args)
        if "schedule_seed" in args:
            args["seed"] = args.pop("schedule_seed")
        run_args = {key: args.pop(key)
                    for key in ("bin_duration", "warmup_per_bin")
                    if key in args}
        return simulate_day(self.base_config(quality, base, fidelity),
                            diurnal_schedule(**args), **run_args)


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def _check_keys(table: Mapping[str, Any], allowed: set, source: str,
                context: str) -> None:
    for key in table:
        if key not in allowed:
            raise ScenarioError(
                f"{source}: {context}unknown key {key!r} "
                f"(allowed: {sorted(allowed)})")


def _str_choice(table: Mapping[str, Any], key: str,
                choices: Tuple[str, ...], default: str,
                source: str) -> str:
    value = table.get(key, default)
    if value not in choices:
        raise ScenarioError(
            f"{source}: [scenario] {key!r} must be one of {choices}, "
            f"got {value!r}")
    return value


def _validate_overrides(raw: Any, source: str,
                        context: str) -> Dict[str, Any]:
    if not isinstance(raw, Mapping):
        raise ScenarioError(
            f"{source}: {context.strip() or 'overrides'} must be a "
            f"table of dotted-path keys")
    overrides: Dict[str, Any] = {}
    for path, value in raw.items():
        leaf_type = _resolve_leaf(path, source=source, context=context)
        overrides[path] = _coerce_value(path, value, leaf_type,
                                        source=source, context=context)
    return overrides


def _validate_axes(raw: Any, source: str) -> Tuple[SweepAxis, ...]:
    if not isinstance(raw, (list, tuple)):
        raise ScenarioError(
            f"{source}: 'axes' must be an array of tables")
    axes: List[SweepAxis] = []
    seen_paths = set()
    for i, entry in enumerate(raw):
        context = f"axes[{i}] "
        if not isinstance(entry, Mapping):
            raise ScenarioError(
                f"{source}: {context}must be a table with 'path' and "
                f"'values'")
        _check_keys(entry, {"path", "values", "scale"}, source, context)
        path = entry.get("path")
        if not isinstance(path, str) or not path:
            raise ScenarioError(
                f"{source}: {context}'path' must be a dotted config "
                f"path string")
        if path in seen_paths:
            raise ScenarioError(
                f"{source}: {context}duplicate axis path {path!r}")
        seen_paths.add(path)
        leaf_type = _resolve_leaf(path, source=source, context=context)
        values = entry.get("values")
        if not isinstance(values, (list, tuple)) or not values:
            raise ScenarioError(
                f"{source}: {context}{path!r}: 'values' must be a "
                f"non-empty array")
        scale = entry.get("scale", 1)
        if not isinstance(scale, (int, float)) \
                or isinstance(scale, bool):
            raise ScenarioError(
                f"{source}: {context}{path!r}: 'scale' must be a "
                f"number, got {scale!r}")
        axis = SweepAxis(path=path, values=tuple(values), scale=scale)
        for value in axis.scaled():
            _coerce_value(path, value, leaf_type, source=source,
                          context=context)
        axes.append(axis)
    return tuple(axes)


def _validate_quality(raw: Any, axes: Tuple[SweepAxis, ...],
                      source: str) -> Dict[str, QualityPreset]:
    if not isinstance(raw, Mapping):
        raise ScenarioError(
            f"{source}: 'quality' must be a table of presets")
    axis_paths = {axis.path for axis in axes}
    presets: Dict[str, QualityPreset] = {}
    for name, body in raw.items():
        context = f"[quality.{name}] "
        if not isinstance(body, Mapping):
            raise ScenarioError(
                f"{source}: {context}must be a table of overrides")
        body = dict(body)
        axis_values_raw = body.pop("axes", {})
        overrides = _validate_overrides(body, source, context)
        if not isinstance(axis_values_raw, Mapping):
            raise ScenarioError(
                f"{source}: {context}'axes' must be a table of "
                f"axis-path -> values")
        axis_values: Dict[str, Tuple] = {}
        for path, values in axis_values_raw.items():
            if path not in axis_paths:
                raise ScenarioError(
                    f"{source}: {context}axes override for {path!r} "
                    f"does not match any declared axis "
                    f"(axes: {sorted(axis_paths)})")
            if not isinstance(values, (list, tuple)) or not values:
                raise ScenarioError(
                    f"{source}: {context}{path!r}: values must be a "
                    f"non-empty array")
            axis_values[path] = tuple(values)
        presets[name] = QualityPreset(overrides=overrides,
                                      axis_values=axis_values)
    return presets


def _integer(low: Optional[int] = None) -> Tuple[type, Any, str]:
    return (int, None if low is None else (lambda v: v >= low),
            "an integer" + ("" if low is None else f" >= {low}"))


#: Per driver: each ``[driver_args]`` key's type, range check (None:
#: any value of the type) and what the error message says it must be.
_DRIVER_ARGS: Dict[str, Dict[str, Tuple[type, Any, str]]] = {
    "sweep": {},
    "fleet": {
        "n_hosts": _integer(1),
        "seed": _integer(),
        "shards": _integer(1),
        "backend": (str, lambda v: v in ("auto", "batched", "scalar"),
                    "one of 'auto', 'batched', 'scalar'"),
        "batch_size": _integer(1),
    },
    "day": {
        "n_bins": _integer(1),
        "schedule_seed": _integer(),
        "base_load": (float, lambda v: 0.0 < v <= 1.0,
                      "a number in (0, 1]"),
        "swing": (float, lambda v: v >= 0.0, "a number >= 0"),
        "antagonist_peak": _integer(0),
        "bin_duration": (float, lambda v: v > 0.0, "a number > 0"),
        "warmup_per_bin": (float, lambda v: v >= 0.0, "a number >= 0"),
    },
    "isolation": {},
}


def _validate_driver_args(raw: Any, driver: str,
                          source: str) -> Dict[str, Any]:
    """``raw`` checked against the driver's table, floats as floats:
    the drivers read the values as they are."""
    if not isinstance(raw, Mapping):
        raise ScenarioError(
            f"{source}: 'driver_args' must be a table")
    allowed = _DRIVER_ARGS.get(driver)
    if allowed is None:
        raise ScenarioError(f"{source}: unknown driver {driver!r} "
                            f"(expected one of {', '.join(DRIVERS)})")
    args: Dict[str, Any] = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ScenarioError(
                f"{source}: [driver_args] unknown key {key!r} for "
                f"driver {driver!r} (allowed: {sorted(allowed) or '∅'})")
        kind, check, what = allowed[key]
        # A TOML integer is a number too; a bool is neither.
        if isinstance(value, bool):
            ok = False
        elif kind is float:
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        else:
            ok = isinstance(value, kind)
        if ok:
            value = kind(value)
            ok = check is None or check(value)
        if not ok:
            raise ScenarioError(
                f"{source}: [driver_args] {key} must be {what}, got "
                f"{value!r}")
        args[key] = value
    return args


_SERIES_KINDS = ("metric", "model", "max_goodput")


def _validate_render(raw: Any, source: str) -> Optional[RenderSpec]:
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{source}: 'render' must be a table")
    _check_keys(raw, {"style", "panels", "x"}, source, "[render] ")
    style = raw.get("style", "table")
    if style not in ("panels", "scatter", "table"):
        raise ScenarioError(
            f"{source}: [render] 'style' must be panels, scatter, or "
            f"table, got {style!r}")
    x = raw.get("x")
    if x is not None and x not in PARAM_KEYS:
        raise ScenarioError(
            f"{source}: [render] 'x' {x!r} is not a run parameter "
            f"(parameters: {PARAM_KEYS})")
    panels: List[PanelSpec] = []
    for i, entry in enumerate(raw.get("panels", [])):
        context = f"[render] panels[{i}] "
        if not isinstance(entry, Mapping):
            raise ScenarioError(f"{source}: {context}must be a table")
        _check_keys(entry, {"name", "x", "x_label", "y_label",
                            "series"}, source, context)
        for key in ("name", "x", "x_label", "y_label"):
            if not isinstance(entry.get(key), str):
                raise ScenarioError(
                    f"{source}: {context}missing or non-string "
                    f"{key!r}")
        if entry["x"] not in PARAM_KEYS:
            raise ScenarioError(
                f"{source}: {context}'x' {entry['x']!r} is not a run "
                f"parameter (parameters: {PARAM_KEYS})")
        series: List[SeriesSpec] = []
        for j, sentry in enumerate(entry.get("series", [])):
            scontext = f"{context}series[{j}] "
            if not isinstance(sentry, Mapping):
                raise ScenarioError(
                    f"{source}: {scontext}must be a table")
            _check_keys(sentry, {"label", "kind", "metric", "where",
                                 "scale", "min_x", "config_path"},
                        source, scontext)
            label = sentry.get("label")
            if not isinstance(label, str) or not label:
                raise ScenarioError(
                    f"{source}: {scontext}'label' must be a non-empty "
                    f"string")
            kind = sentry.get("kind", "metric")
            if kind not in _SERIES_KINDS:
                raise ScenarioError(
                    f"{source}: {scontext}'kind' must be one of "
                    f"{_SERIES_KINDS}, got {kind!r}")
            metric = sentry.get("metric")
            if kind == "metric" and not isinstance(metric, str):
                raise ScenarioError(
                    f"{source}: {scontext}kind \"metric\" requires a "
                    f"'metric' name")
            where = sentry.get("where", {})
            if not isinstance(where, Mapping):
                raise ScenarioError(
                    f"{source}: {scontext}'where' must be a table")
            for key in where:
                if key not in PARAM_KEYS:
                    raise ScenarioError(
                        f"{source}: {scontext}where key {key!r} is "
                        f"not a run parameter (parameters: "
                        f"{PARAM_KEYS})")
            config_path = sentry.get("config_path")
            if config_path is not None:
                _resolve_leaf(config_path, source=source,
                              context=scontext)
            series.append(SeriesSpec(
                label=label, kind=kind, metric=metric,
                where=dict(where),
                scale=sentry.get("scale", 1),
                min_x=sentry.get("min_x"),
                config_path=config_path))
        panels.append(PanelSpec(
            name=entry["name"], x=entry["x"],
            x_label=entry["x_label"], y_label=entry["y_label"],
            series=tuple(series)))
    return RenderSpec(style=style, panels=tuple(panels), x=x)


# ---------------------------------------------------------------------------
# Execution (the single path every entry point funnels through)
# ---------------------------------------------------------------------------

def run_configs(
    configs: Iterable[ExperimentConfig],
    progress: Optional[Callable[[int, ExperimentResult], None]] = None,
    snapshots_out: Optional[list] = None,
    *,
    workers: Workers = None,
    timeout: Optional[float] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[Callable[[dict], None]] = None,
    failures: str = "raise",
) -> ResultTable:
    """Run every config and collect results, optionally in parallel.

    This is the one execution path behind ``repro sweep``, every
    figure, ``repro scenario run``, and programmatic sweeps: the
    parallel executor (``workers=``), per-run ``timeout`` →
    :class:`~repro.core.results.FailedRun` rows, the on-disk result
    ``cache``, and the telemetry event stream (``events=`` /
    ``failures=``, see :func:`~repro.core.parallel.run_many`) all
    apply uniformly.
    """
    outcomes = run_many(configs, workers=workers, timeout=timeout,
                        want_snapshots=snapshots_out is not None,
                        cache=cache, progress=progress, events=events,
                        failures=failures)
    table = ResultTable()
    for outcome in outcomes:
        table.append(outcome.result)
        if snapshots_out is not None:
            snapshots_out.append(outcome.snapshot)
    return table


# ---------------------------------------------------------------------------
# Bundled and on-disk spec discovery
# ---------------------------------------------------------------------------

_SPEC_SUFFIXES = (".toml", ".json")


def load_scenario_file(path: str | Path) -> ScenarioSpec:
    """Load one spec file (TOML or JSON by suffix)."""
    return ScenarioSpec.from_file(path)


def _collect(entries, specs: Dict[str, ScenarioSpec],
             origin: Dict[str, str]) -> None:
    for entry in entries:
        spec = ScenarioSpec.from_text(
            entry.read_text(), source=entry.name,
            fmt=entry.name.rsplit(".", 1)[-1])
        if spec.name in specs:
            raise ScenarioError(
                f"duplicate scenario name {spec.name!r}: defined in "
                f"both {origin[spec.name]} and {entry.name}")
        specs[spec.name] = spec
        origin[spec.name] = entry.name


def load_scenario_dir(directory: str | Path) -> Dict[str, ScenarioSpec]:
    """All specs in a directory, keyed by scenario name.

    Two files declaring the same name is an error — names are the CLI
    handle, so they must be unambiguous.
    """
    directory = Path(directory)
    entries = sorted(p for p in directory.iterdir()
                     if p.suffix in _SPEC_SUFFIXES)
    specs: Dict[str, ScenarioSpec] = {}
    _collect(entries, specs, {})
    return specs


def bundled_scenarios() -> Dict[str, ScenarioSpec]:
    """The spec files shipped inside ``repro.scenarios``."""
    from importlib import resources

    root = resources.files("repro.scenarios")
    entries = sorted(
        (e for e in root.iterdir()
         if e.name.endswith(_SPEC_SUFFIXES)),
        key=lambda e: e.name)
    specs: Dict[str, ScenarioSpec] = {}
    _collect(entries, specs, {})
    return specs


def load_bundled(name: str) -> ScenarioSpec:
    """One bundled spec by scenario name."""
    specs = bundled_scenarios()
    try:
        return specs[name]
    except KeyError:
        raise ScenarioError(
            f"no bundled scenario named {name!r} "
            f"(bundled: {sorted(specs)})") from None


def find_scenario(name_or_path: str) -> ScenarioSpec:
    """Resolve a CLI argument: a spec file path, else a bundled name."""
    path = Path(name_or_path)
    if path.suffix in _SPEC_SUFFIXES and path.exists():
        return load_scenario_file(path)
    specs = bundled_scenarios()
    if name_or_path in specs:
        return specs[name_or_path]
    raise ScenarioError(
        f"no scenario named {name_or_path!r} and no such spec file; "
        f"bundled scenarios: {sorted(specs)}")
