"""Declarative pipeline configuration: YAML file plus environment overrides.

Any key can be overridden with APP__<SECTION>__<KEY> (top-level keys use a
single segment, e.g. APP__RUN_ID), and one entry of a mapping setting with
APP__<SECTION>__<KEY>__<ENTRY>. Values are coerced to the type of the
setting's default; null unsets only a setting whose default is unset.
Validation errors always name the offending key path.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .audit.ledger import DEFAULT_BLOCK_INTERVAL, DEFAULT_MAX_BLOCK_ENTRIES, DEFAULT_SENDER

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

#: Settings that name a file: relative ones in a config file resolve against
#: the file's directory. The input files must exist.
_INPUT_FILES = ("text.lexicon_path", "text.lemmas_path", "fusion.rule_base_path",
                "guardrails.keywords_path", "guardrails.templates_path")
_PATHS = (*_INPUT_FILES, "audit.log_path", "audit.artifacts_dir",
          "anchoring.ledger_path", "anchoring.pending_path")


def _coerce(raw: Any, default: Any, key_path: str) -> Any:
    if raw is None:  # YAML null
        if default is None:
            return None
        raise ConfigError(f"{key_path}: cannot be null; only an optional setting can be unset")
    if default is None or isinstance(default, str):
        if isinstance(raw, (bool, list, Mapping)):  # str() would store "True" or "['a']"
            raise ConfigError(f"{key_path}: expected a string, got {raw!r}")
        return str(raw)
    if isinstance(default, bool):
        text = str(raw).strip().lower()  # str(True) is "True"
        if text not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ConfigError(f"{key_path}: expected a boolean, got {raw!r}")
        return text in ("1", "true", "yes", "on")
    if isinstance(default, (int, float)):
        kind = "an integer" if isinstance(default, int) else "a number"
        value = raw
        if isinstance(default, int) and isinstance(raw, str):
            for parse in (int, float):  # "3.0" and "1e3" read as numbers, then checked as YAML's are
                try:
                    value = parse(raw)
                    break
                except ValueError:
                    pass
        fractional = isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) or (fractional and isinstance(default, int)):
            # float(True) would store 1.0 and int(2.7) would store 2
            raise ConfigError(f"{key_path}: expected {kind}, got {raw!r}")
        try:
            return type(default)(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key_path}: expected {kind}, got {raw!r}") from exc
    if isinstance(default, list):
        if isinstance(raw, (bool, Mapping)):  # str(True).split(",") would store ["True"]
            raise ConfigError(f"{key_path}: expected a list of strings, got {raw!r}")
        if isinstance(raw, (list, tuple)):
            for item in raw:
                if not isinstance(item, str):  # a bare `no` in YAML is false, not "no"
                    raise ConfigError(f"{key_path}: expected strings, got {item!r}")
            return list(raw)
        return [part.strip() for part in str(raw).split(",") if part.strip()]
    if isinstance(default, dict):
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{key_path}: expected a mapping")
        return {str(k): _coerce(v, 0.0, f"{key_path}.{k}") for k, v in raw.items()}
    raise ConfigError(f"{key_path}: unsupported value type")


def _set(config: PipelineConfig, key_path: str, raw: Any, source: str = "") -> None:
    """Set one setting from a raw value, coerced by the setting's declared default.

    ``key_path`` is a top-level key (``run_id``), a section key
    (``audio.alpha_ema``) or one entry of a mapping setting
    (``guardrails.thresholds.fear``). ``source`` follows the key path in the
    unknown-key error, naming the variable the value came from.
    """
    name, *rest = key_path.split(".")
    owner: Any = config
    if rest and name in _SECTIONS:
        owner = getattr(config, name)
        name, *rest = rest
    default = getattr(type(owner)(), name, None)
    known = {f.name for f in dataclasses.fields(owner)} - set(_SECTIONS)
    if name not in known or len(rest) > (1 if isinstance(default, dict) else 0):
        raise ConfigError(f"unknown configuration key {key_path}{source}")
    if rest:
        getattr(owner, name)[rest[0]] = _coerce(raw, 0.0, key_path)
    else:
        setattr(owner, name, _coerce(raw, default, key_path))


def _apply_file(config: PipelineConfig, path: str) -> None:
    from .core import load_yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    data = load_yaml(text, path) or {}
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path}: top level must be a mapping")
    for key, value in data.items():
        if key not in _SECTIONS:
            _set(config, str(key), value)
        elif not isinstance(value, Mapping):
            raise ConfigError(f"{key}: expected a mapping of settings")
        else:
            for name, raw in value.items():
                _set(config, f"{key}.{name}", raw)
    base = Path(path).resolve().parent
    for key_path in _PATHS:
        value = attrgetter(key_path)(config)
        if value is not None:  # an absolute path replaces the base
            _set(config, key_path, str(base / value))


def _apply_environment(config: PipelineConfig, environ: Mapping[str, str]) -> None:
    for name in sorted(environ):
        if name.startswith(ENV_PREFIX):
            key_path = ".".join(name[len(ENV_PREFIX):].lower().split("__"))
            _set(config, key_path, environ[name], f" (from {name})")


def _check_range(value: float, lo: float, hi: float, key: str, *, open_lo: bool = False) -> None:
    ok = (value > lo if open_lo else value >= lo) and value <= hi
    if not ok:
        bounds = f"({lo}, {hi}]" if open_lo else f"[{lo}, {hi}]"
        raise ConfigError(f"{key}: value {value} outside {bounds}")


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
    for key_path in _INPUT_FILES:
        path = attrgetter(key_path)(config)
        if path is not None and not Path(path).is_file():
            raise ConfigError(f"{key_path}: file not found: {path}")
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
