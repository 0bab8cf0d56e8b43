from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from affectfuse.config import ConfigError, PipelineConfig, load_config, validate_config
from affectfuse.core import load_yaml, read_data_file


def test_defaults_load_without_file():
    config = load_config(environ={})
    assert config.audio.alpha_ema == 0.3
    assert config.audio.norm_factor == 0.2
    assert config.guardrails.escalation_webhook is None
    assert config.text.intensifiers["muy"] == 1.5
    assert config.text.intensifiers["un poco"] == 0.7


def test_yaml_file_overrides(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text(
        "audio:\n  alpha_ema: 0.5\n  use_mfcc: false\nrun_id: exp-1\n",
        encoding="utf-8",
    )
    config = load_config(str(path), environ={})
    assert config.audio.alpha_ema == 0.5
    assert config.audio.use_mfcc is False
    assert config.run_id == "exp-1"


def test_environment_beats_file(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("audio:\n  alpha_ema: 0.3\n", encoding="utf-8")
    config = load_config(str(path), environ={"APP__AUDIO__ALPHA_EMA": "0.5"})
    assert config.audio.alpha_ema == 0.5


def test_top_level_env_override():
    config = load_config(environ={"APP__RUN_ID": "from-env", "APP__MODEL_SIZE": "demo"})
    assert config.run_id == "from-env"
    assert config.model_size == "demo"


def test_alpha_out_of_range_names_key():
    with pytest.raises(ConfigError) as err:
        load_config(environ={"APP__AUDIO__ALPHA_EMA": "1.5"})
    assert "audio.alpha_ema" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("audio:\n  alpha: 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(str(path), environ={})
    assert "audio.alpha" in str(err.value)


def test_range_normalized_coherence_is_not_a_key(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text(yaml.safe_dump({"fusion": {"range_normalized_coherence": True}}), encoding="utf-8")
    with pytest.raises(ConfigError, match="fusion.range_normalized_coherence"):
        load_config(str(path), environ={})


# Model constants that were settings once; each is set to its old default.
FORMER_KEYS = [
    ("audio", "snr_block_size", 512),
    ("audio", "base_valence", 0.0),
    ("fusion", "snr_low_db", 5.0),
    ("fusion", "snr_mid_db", 12.0),
    ("fusion", "snr_low_factor", 0.6),
    ("fusion", "snr_mid_factor", 0.85),
    ("guardrails", "hedge_probability", 0.5),
    ("guardrails", "hedge_coherence", 0.4),
]


@pytest.mark.parametrize("section, key, value", FORMER_KEYS, ids=[k for _, k, _ in FORMER_KEYS])
def test_a_model_constant_is_not_a_key(tmp_path, section, key, value):
    named = f"unknown configuration key {section}.{key}"
    path = tmp_path / "app.yaml"
    path.write_text(yaml.safe_dump({section: {key: value}}), encoding="utf-8")
    with pytest.raises(ConfigError, match=named):
        load_config(str(path), environ={})
    with pytest.raises(ConfigError, match=named):
        load_config(environ={f"APP__{section.upper()}__{key.upper()}": str(value)})


def _settings(config):
    """(key path, value) of every settable field, sections walked in order."""
    for section in dataclasses.fields(config):
        value = getattr(config, section.name)
        if dataclasses.is_dataclass(value):
            for item in dataclasses.fields(value):
                yield f"{section.name}.{item.name}", getattr(value, item.name)
        else:
            yield section.name, value


def test_the_configuration_has_23_settings():
    assert len(list(_settings(PipelineConfig()))) == 23


def test_the_example_config_loads_and_keeps_every_default():
    example = Path(__file__).resolve().parents[1] / "config.example.yaml"
    loaded = dict(_settings(load_config(str(example), {})))
    defaults = dict(_settings(PipelineConfig()))
    assert loaded.keys() == defaults.keys()
    for key, value in defaults.items():
        if not key.endswith(("_path", "_dir")):  # paths resolve against the file's directory
            assert loaded[key] == value, key


@pytest.mark.parametrize("with_file", [False, True], ids=["over_defaults", "over_file"])
def test_an_environment_variable_sets_one_entry_of_a_mapping(tmp_path, with_file):
    path = None
    if with_file:
        path = tmp_path / "app.yaml"
        path.write_text("guardrails:\n  thresholds: {fear: 0.5}\ntext:\n  intensifiers: {algo: 0.9}\n", encoding="utf-8")
    environ = {"APP__GUARDRAILS__THRESHOLDS__FEAR": "0.6", "APP__TEXT__INTENSIFIERS__MUY": "2"}
    config = load_config(path and str(path), environ)
    if with_file:  # the file's mapping replaced the default one
        assert config.guardrails.thresholds == {"fear": 0.6}
        assert config.text.intensifiers == {"algo": 0.9, "muy": 2.0}
    else:
        assert config.guardrails.thresholds == {"fear": 0.6, "sadness": 0.85}
        assert config.text.intensifiers == {**PipelineConfig().text.intensifiers, "muy": 2.0}


def test_a_second_threshold_from_the_environment_names_its_key():
    with pytest.raises(ConfigError, match="guardrails.thresholds.miedo: a second threshold for fear"):
        load_config(environ={"APP__GUARDRAILS__THRESHOLDS__MIEDO": "0.5"})


OPTIONAL_KEYS = [
    ("guardrails", "escalation_webhook"),
    ("text", "lexicon_path"),
    ("text", "lemmas_path"),
    ("fusion", "rule_base_path"),
    ("guardrails", "keywords_path"),
    ("guardrails", "templates_path"),
]


@pytest.mark.parametrize("section, key", OPTIONAL_KEYS, ids=[k for _, k in OPTIONAL_KEYS])
def test_yaml_null_unsets_an_optional_setting(tmp_path, section, key):
    path = tmp_path / "app.yaml"
    path.write_text(f"{section}:\n  {key}: null\n", encoding="utf-8")
    assert getattr(getattr(load_config(str(path), {}), section), key) is None


@pytest.mark.parametrize(
    "text, named",
    [
        ("text:\n  negation_markers: null\n", "text.negation_markers"),
        ("run_id: null\n", "run_id"),
        ("audit:\n  log_path: null\n", "audit.log_path"),
        ("audio:\n  alpha_ema: null\n", "audio.alpha_ema"),
    ],
    ids=["negation_markers", "run_id", "log_path", "alpha_ema"],
)
def test_yaml_null_is_refused_where_the_default_is_set(tmp_path, text, named):
    path = tmp_path / "app.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{named}: cannot be null"):
        load_config(str(path), {})


UNKNOWN_KEY_PATHS = [
    "nosuch", "audio.nosuch", "fusion.snr_low_db", "metrics.alpha_ema", "audio.alpha_ema.x",
    "guardrails.thresholds.fear.x",
]


@pytest.mark.parametrize("key_path", UNKNOWN_KEY_PATHS)
def test_the_file_and_the_environment_reject_the_same_unknown_key_paths(tmp_path, key_path):
    section, _, rest = key_path.partition(".")
    path = tmp_path / "app.yaml"
    path.write_text(yaml.safe_dump({section: {rest: "1"}} if rest else {section: "1"}), encoding="utf-8")
    with pytest.raises(ConfigError) as from_file:
        load_config(str(path), {})
    assert str(from_file.value) == f"unknown configuration key {key_path}"
    name = "APP__" + key_path.upper().replace(".", "__")
    with pytest.raises(ConfigError) as from_environment:
        load_config(None, {name: "1"})
    assert str(from_environment.value) == f"unknown configuration key {key_path} (from {name})"


def test_unknown_env_key_rejected():
    with pytest.raises(ConfigError):
        load_config(environ={"APP__AUDIO__NOSUCH": "1"})


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/app.yaml", environ={})


def test_missing_referenced_file_named(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("text:\n  lexicon_path: missing.tsv\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(str(path), environ={})
    assert "text.lexicon_path" in str(err.value)


def test_relative_paths_resolve_against_config_dir(tmp_path):
    lex = tmp_path / "lex.tsv"
    lex.write_text("bueno\tjoy\t0.5\t0.4\n", encoding="utf-8")
    path = tmp_path / "app.yaml"
    path.write_text("text:\n  lexicon_path: lex.tsv\n", encoding="utf-8")
    config = load_config(str(path), environ={})
    assert config.text.lexicon_path == str(lex)


def test_bool_coercion_from_env():
    config = load_config(environ={"APP__AUDIO__USE_MFCC": "false"})
    assert config.audio.use_mfcc is False
    with pytest.raises(ConfigError):
        load_config(environ={"APP__AUDIO__USE_MFCC": "maybe"})


def test_webhook_absent_means_disabled():
    config = load_config(environ={})
    assert config.guardrails.escalation_webhook is None
    config2 = load_config(environ={"APP__GUARDRAILS__ESCALATION_WEBHOOK": "http://127.0.0.1:1/x"})
    assert config2.guardrails.escalation_webhook == "http://127.0.0.1:1/x"


def test_threshold_validation_names_label():
    config = PipelineConfig()
    config.guardrails.thresholds["fear"] = 1.5
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert "guardrails.thresholds.fear" in str(err.value)


def test_threshold_keys_resolve_spanish_aliases_to_their_label(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("guardrails:\n  thresholds:\n    miedo: 0.5\n    Tristeza: 0.8\n", encoding="utf-8")
    config = load_config(str(path), environ={})
    assert config.guardrails.thresholds == {"fear": 0.5, "sadness": 0.8}


@pytest.mark.parametrize(
    "thresholds, named",
    [
        ({"feer": 0.7, "miedo": 0.5}, "guardrails.thresholds.feer"),
        ({"fear": 0.7, "miedo": 0.5}, "guardrails.thresholds.miedo"),
    ],
    ids=["unknown_label", "label_twice"],
)
def test_a_threshold_key_must_name_one_label_once(thresholds, named):
    config = PipelineConfig()
    config.guardrails.thresholds = thresholds
    with pytest.raises(ConfigError, match=named):
        validate_config(config)


def test_invalid_yaml_names_the_file(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("audio: [alpha_ema: 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="app.yaml: not valid YAML"):
        load_config(str(path), environ={})


def test_non_numeric_threshold_names_its_key_path(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("guardrails:\n  thresholds:\n    fear: abc\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="guardrails.thresholds.fear: expected a number, got 'abc'"):
        load_config(str(path), environ={})


def test_a_bare_yaml_no_in_a_list_of_words_names_its_key_path(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("text:\n  negation_markers: [no, nunca]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="text.negation_markers: expected strings, got False"):
        load_config(str(path), environ={})


WRONG_KIND = [
    pytest.param("run_id: [a, b]\n", "run_id: expected a string, got ['a', 'b']", id="list-for-string"),
    pytest.param("guardrails:\n  escalation_webhook: {x: 1}\n",
                 "guardrails.escalation_webhook: expected a string, got {'x': 1}", id="mapping-for-url"),
    pytest.param("run_id: yes\n", "run_id: expected a string, got True", id="bool-for-string"),
    pytest.param("audio:\n  alpha_ema: true\n", "audio.alpha_ema: expected a number, got True",
                 id="bool-for-float"),
    pytest.param("metrics:\n  port: true\n", "metrics.port: expected an integer, got True",
                 id="bool-for-integer"),
    pytest.param("anchoring:\n  block_interval: yes\n",
                 "anchoring.block_interval: expected a number, got True", id="yes-for-float"),
    pytest.param("guardrails:\n  thresholds: {fear: true}\n",
                 "guardrails.thresholds.fear: expected a number, got True", id="bool-for-threshold"),
    pytest.param("anchoring:\n  max_block_entries: 2.7\n",
                 "anchoring.max_block_entries: expected an integer, got 2.7", id="fraction-for-integer"),
    pytest.param("text:\n  negation_markers: yes\n",
                 "text.negation_markers: expected a list of strings, got True", id="bool-for-word-list"),
]


@pytest.mark.parametrize("text, message", WRONG_KIND)
def test_a_value_of_the_wrong_kind_names_its_key_path(tmp_path, text, message):
    path = tmp_path / "app.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path), environ={})


def test_a_whole_float_for_an_integer_and_a_number_for_a_string_still_load(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text(
        "model_size: 3\naudio:\n  norm_factor: 2\nanchoring:\n  max_block_entries: 3.0\n",
        encoding="utf-8",
    )
    config = load_config(str(path), environ={})
    assert config.model_size == "3"
    assert config.audio.norm_factor == 2.0 and isinstance(config.audio.norm_factor, float)
    assert config.anchoring.max_block_entries == 3


@pytest.mark.parametrize("layer", ["file", "environment"])
@pytest.mark.parametrize("raw, want", [("3.0", 3), ("1e3", 1000), ("2.5", None)])
def test_an_integer_setting_reads_a_number_alike_from_either_layer(tmp_path, layer, raw, want):
    path, environ = None, {}
    if layer == "file":
        path = tmp_path / "app.yaml"
        path.write_text(f"anchoring:\n  max_block_entries: {raw}\n", encoding="utf-8")
    else:
        environ = {"APP__ANCHORING__MAX_BLOCK_ENTRIES": raw}
    if want is None:
        with pytest.raises(ConfigError, match="anchoring.max_block_entries: expected an integer, got"):
            load_config(path and str(path), environ)
    else:
        entries = load_config(path and str(path), environ).anchoring.max_block_entries
        assert entries == want and type(entries) is int


def test_a_word_list_from_the_environment_splits_on_commas():
    config = load_config(environ={"APP__TEXT__NEGATION_MARKERS": "jamás, nunca"})
    assert config.text.negation_markers == ["jamás", "nunca"]


def test_block_interval_validated():
    config = PipelineConfig()
    config.anchoring.block_interval = 0.0
    with pytest.raises(ConfigError):
        validate_config(config)


def _yaml_file_text(name):
    if name == "config.example.yaml":
        return (Path(__file__).resolve().parents[1] / name).read_text(encoding="utf-8")
    return read_data_file(None, name)[0]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", ["rules_default.yaml", "rules_trace.yaml", "config.example.yaml"])
def test_shipped_yaml_parses_equal_under_both_loaders(name):
    text = _yaml_file_text(name)
    pure = yaml.load(text, Loader=yaml.SafeLoader)
    assert pure
    # repr also tells 1 from 1.0 and True from 1
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(pure)
    assert repr(load_yaml(text)) == repr(pure)
