"""Declarative pipeline configuration: YAML file plus environment overrides.

Any key can be overridden with APP__<SECTION>__<KEY> (top-level keys use a
single segment, e.g. APP__RUN_ID). Values are coerced to the type of the
default they replace. Validation errors always name the offending key path.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .audit.ledger import (
    DEFAULT_BLOCK_INTERVAL,
    DEFAULT_MAX_BLOCK_ENTRIES,
    DEFAULT_SENDER,
    SimulatedLedger,
)

ENV_PREFIX = "APP__"

# Defaults of the settings that the audio, text and guardrails modules read.
# They live here, and those modules import them, so that loading a
# configuration (as the verify and anchor-status commands do) loads neither
# numpy nor PyYAML.
DEFAULT_NORM_FACTOR = 0.2
DEFAULT_ALPHA = 0.3
DEFAULT_THRESHOLDS: Dict[str, float] = {"fear": 0.7, "sadness": 0.85}
DEFAULT_NEGATION_MARKERS: Tuple[str, ...] = ("no", "nunca", "jamás", "sin", "tampoco")

#: Multipliers applied to the content token following the intensifier.
#: Multiword intensifiers win over their single-word prefixes ("un poco"
#: before "poco").
DEFAULT_INTENSIFIERS: Dict[str, float] = {
    "muy": 1.5,
    "extremadamente": 2.0,
    "sumamente": 1.8,
    "totalmente": 1.6,
    "algo": 0.8,
    "un poco": 0.7,
    "poco": 0.6,
}


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the key path."""


@dataclass
class AudioConfig:
    alpha_ema: float = DEFAULT_ALPHA
    norm_factor: float = DEFAULT_NORM_FACTOR
    use_mfcc: bool = True


@dataclass
class TextConfig:
    lexicon_path: Optional[str] = None
    lemmas_path: Optional[str] = None
    negation_markers: List[str] = field(default_factory=lambda: list(DEFAULT_NEGATION_MARKERS))
    intensifiers: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_INTENSIFIERS))


@dataclass
class FusionConfig:
    rule_base_path: Optional[str] = None


@dataclass
class GuardrailConfig:
    thresholds: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    keywords_path: Optional[str] = None
    templates_path: Optional[str] = None
    escalation_webhook: Optional[str] = None


@dataclass
class AuditConfig:
    log_path: str = "audit/events.jsonl"
    artifacts_dir: str = "audit/fired_rules"


@dataclass
class AnchoringConfig:
    enabled: bool = True
    ledger_path: str = "audit/ledger.json"
    pending_path: str = "audit/pending.json"
    sender: str = DEFAULT_SENDER
    block_interval: float = DEFAULT_BLOCK_INTERVAL
    max_block_entries: int = DEFAULT_MAX_BLOCK_ENTRIES


def open_ledger(
    config: PipelineConfig, clock: Optional[Callable[[], str]] = None, auto_seal: bool = False
) -> SimulatedLedger:
    """The ledger that ``config.anchoring`` describes."""
    anchoring = config.anchoring
    return SimulatedLedger(
        ledger_path=anchoring.ledger_path,
        pending_path=anchoring.pending_path,
        sender=anchoring.sender,
        block_interval=anchoring.block_interval,
        max_block_entries=anchoring.max_block_entries,
        clock=clock,
        auto_seal=auto_seal,
    )


@dataclass
class MetricsConfig:
    port: int = 9109


@dataclass
class PipelineConfig:
    audio: AudioConfig = field(default_factory=AudioConfig)
    text: TextConfig = field(default_factory=TextConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    guardrails: GuardrailConfig = field(default_factory=GuardrailConfig)
    audit: AuditConfig = field(default_factory=AuditConfig)
    anchoring: AnchoringConfig = field(default_factory=AnchoringConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    model_size: str = "stub"
    run_id: str = "local"


_SECTIONS = ("audio", "text", "fusion", "guardrails", "audit", "anchoring", "metrics")


def _number(raw: Any, key_path: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key_path}: expected a number, got {raw!r}") from exc


def _coerce(raw: Any, default: Any, key_path: str) -> Any:
    if default is None or isinstance(default, str):
        return str(raw)
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key_path}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key_path}: expected an integer, got {raw!r}") from exc
    if isinstance(default, float):
        return _number(raw, key_path)
    if isinstance(default, list):
        if isinstance(raw, (list, tuple)):
            for item in raw:
                if not isinstance(item, str):  # a bare `no` in YAML is false, not "no"
                    raise ConfigError(f"{key_path}: expected strings, got {item!r}")
            return list(raw)
        return [part.strip() for part in str(raw).split(",") if part.strip()]
    if isinstance(default, dict):
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{key_path}: expected a mapping")
        return {str(k): _number(v, f"{key_path}.{k}") for k, v in raw.items()}
    raise ConfigError(f"{key_path}: unsupported value type")


def _apply_mapping(section: Any, values: Mapping[str, Any], prefix: str) -> None:
    valid = {f.name for f in dataclasses.fields(section)}
    for key, raw in values.items():
        key = str(key)
        if key not in valid:
            raise ConfigError(f"unknown configuration key {prefix}{key}")
        default = getattr(section, key)
        setattr(section, key, _coerce(raw, default, f"{prefix}{key}"))


def _apply_file(config: PipelineConfig, path: str) -> None:
    from .core import load_yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    data = load_yaml(text, path) or {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    base = Path(path).resolve().parent
    for key, value in data.items():
        key = str(key)
        if key in _SECTIONS:
            if not isinstance(value, Mapping):
                raise ConfigError(f"{key}: expected a mapping of settings")
            _apply_mapping(getattr(config, key), value, f"{key}.")
        elif key in ("model_size", "run_id"):
            setattr(config, key, str(value))
        else:
            raise ConfigError(f"unknown configuration key {key}")
    _resolve_paths(config, base)


def _resolve_paths(config: PipelineConfig, base: Path) -> None:
    # Relative paths in a config file resolve against the file's directory.
    def resolve(value: Optional[str]) -> Optional[str]:
        if value is None:
            return None
        path = Path(value)
        return str(path if path.is_absolute() else base / path)

    config.text.lexicon_path = resolve(config.text.lexicon_path)
    config.text.lemmas_path = resolve(config.text.lemmas_path)
    config.fusion.rule_base_path = resolve(config.fusion.rule_base_path)
    config.guardrails.keywords_path = resolve(config.guardrails.keywords_path)
    config.guardrails.templates_path = resolve(config.guardrails.templates_path)
    config.audit.log_path = resolve(config.audit.log_path)
    config.audit.artifacts_dir = resolve(config.audit.artifacts_dir)
    config.anchoring.ledger_path = resolve(config.anchoring.ledger_path)
    config.anchoring.pending_path = resolve(config.anchoring.pending_path)


def _apply_environment(config: PipelineConfig, environ: Mapping[str, str]) -> None:
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        segments = name[len(ENV_PREFIX):].lower().split("__")
        raw = environ[name]
        if len(segments) == 1:
            key = segments[0]
            if key not in ("model_size", "run_id"):
                raise ConfigError(f"unknown configuration key {key} (from {name})")
            setattr(config, key, raw)
        elif len(segments) == 2 and segments[0] in _SECTIONS:
            _apply_mapping(getattr(config, segments[0]), {segments[1]: raw}, f"{segments[0]}.")
        else:
            raise ConfigError(f"cannot map environment variable {name} to a configuration key")


def _check_range(value: float, lo: float, hi: float, key: str, *, open_lo: bool = False) -> None:
    ok = (value > lo if open_lo else value >= lo) and value <= hi
    if not ok:
        bounds = f"({lo}, {hi}]" if open_lo else f"[{lo}, {hi}]"
        raise ConfigError(f"{key}: value {value} outside {bounds}")


def _check_file(path: Optional[str], key: str) -> None:
    if path is not None and not Path(path).is_file():
        raise ConfigError(f"{key}: file not found: {path}")


def validate_config(config: PipelineConfig) -> PipelineConfig:
    from .core import InvalidScore, canonical_label

    _check_range(config.audio.alpha_ema, 0.0, 1.0, "audio.alpha_ema", open_lo=True)
    _check_range(config.audio.norm_factor, 0.0, 1e6, "audio.norm_factor", open_lo=True)
    thresholds: Dict[str, float] = {}  # keyed by canonical label, so each can fire
    for key, limit in config.guardrails.thresholds.items():
        try:
            label = canonical_label(key)
        except InvalidScore as exc:
            raise ConfigError(f"guardrails.thresholds.{key}: {exc}") from exc
        if label in thresholds:
            raise ConfigError(f"guardrails.thresholds.{key}: a second threshold for {label}")
        _check_range(limit, 0.0, 1.0, f"guardrails.thresholds.{key}", open_lo=True)
        thresholds[label] = limit
    config.guardrails.thresholds = thresholds
    if config.anchoring.block_interval <= 0:
        raise ConfigError("anchoring.block_interval: must be > 0")
    if config.anchoring.max_block_entries < 1:
        raise ConfigError("anchoring.max_block_entries: must be >= 1")
    if not 1 <= config.metrics.port <= 65535:
        raise ConfigError("metrics.port: must be a valid TCP port")
    for mult_key, mult in config.text.intensifiers.items():
        if mult <= 0:
            raise ConfigError(f"text.intensifiers.{mult_key}: multiplier must be > 0")
    _check_file(config.text.lexicon_path, "text.lexicon_path")
    _check_file(config.text.lemmas_path, "text.lemmas_path")
    _check_file(config.fusion.rule_base_path, "fusion.rule_base_path")
    _check_file(config.guardrails.keywords_path, "guardrails.keywords_path")
    _check_file(config.guardrails.templates_path, "guardrails.templates_path")
    return config


def load_config(
    path: Optional[str] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> PipelineConfig:
    """Build the effective configuration: defaults < YAML file < environment."""
    config = PipelineConfig()
    if path is not None:
        _apply_file(config, path)
    _apply_environment(config, os.environ if environ is None else environ)
    return validate_config(config)
