from __future__ import annotations

import json

import pytest

from affectfuse.audit.artifacts import ExportError, export_explainability_artifact
from affectfuse.fuzzy import infer_w_text, load_rule_base

TRACE_BASE = load_rule_base(builtin="trace")
GOLDEN = (0.9582073547338185, 0.12, 0.02)
TXID = "ab" * 32


@pytest.fixture
def golden_block():
    """The ``fusion_fuzzy`` block a turn with the golden inputs seals."""
    return infer_w_text(TRACE_BASE, *GOLDEN).as_dict()


def test_artifact_files_created(tmp_path, golden_block):
    paths = export_explainability_artifact(golden_block, TXID, TRACE_BASE, str(tmp_path))
    names = sorted(p.name for p in paths)
    assert names == [f"{TXID}.csv", f"{TXID}.json", f"{TXID}.ppm"]
    for path in paths:
        assert path.exists() and path.stat().st_size > 0


def test_artifact_json_structure(tmp_path, golden_block):
    export_explainability_artifact(golden_block, TXID, TRACE_BASE, str(tmp_path))
    payload = json.loads((tmp_path / f"{TXID}.json").read_text())
    assert payload["txid"] == TXID
    assert len(payload["fired_rules"]) == 3
    assert payload["out_sets"]["mid"] == 1.0
    assert payload["out_sets"]["low"] == 0.0
    assert payload["out_sets"]["high"] == pytest.approx(0.9164147, abs=1e-6)
    assert set(payload["inputs"]) == {"asr_conf", "arousal", "valence"}
    for rule in payload["fired_rules"]:
        assert set(rule) == {"if", "then", "strength"}


def test_ppm_dimensions_and_intensities(tmp_path, golden_block):
    export_explainability_artifact(golden_block, TXID, TRACE_BASE, str(tmp_path))
    data = (tmp_path / f"{TXID}.ppm").read_bytes()
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"\n255\n", 1)
    width, height = map(int, header.split(b"\n")[1].split())
    # 4 distinct conditions + strength column, 3 rules, 16 px cells
    assert width == 5 * 16
    assert height == 3 * 16
    assert len(rest) == width * height * 3
    pixels = memoryview(rest)

    def cell_value(row, col):
        offset = (row * 16 * width + col * 16) * 3
        return pixels[offset]

    # rule 2 fired at strength 0 -> black strength cell; rule 3 at 1.0 -> white
    assert cell_value(1, 4) == 0
    assert cell_value(2, 4) == 255


def test_csv_matrix(tmp_path, golden_block):
    export_explainability_artifact(golden_block, TXID, TRACE_BASE, str(tmp_path))
    lines = (tmp_path / f"{TXID}.csv").read_text().strip().splitlines()
    assert lines[0].startswith("rule,")
    assert lines[0].endswith(",strength")
    assert len(lines) == 4
    # first rule's strength column equals the high-ramp membership
    assert lines[1].split(",")[-1] == f"{0.9164147094676369:.6f}"


def test_export_error_on_unwritable_target(tmp_path, golden_block):
    blocker = tmp_path / "occupied"
    blocker.write_text("file, not a directory")
    with pytest.raises(ExportError):
        export_explainability_artifact(golden_block, TXID, TRACE_BASE, str(blocker))


@pytest.mark.parametrize("change", ["extra txid", "missing out_sets"])
def test_export_refuses_a_block_with_other_keys(tmp_path, golden_block, change):
    if change == "extra txid":
        golden_block["txid"] = "cd" * 32
    else:
        del golden_block["out_sets"]
    with pytest.raises(ExportError, match="fusion_fuzzy block has keys"):
        export_explainability_artifact(golden_block, TXID, TRACE_BASE, str(tmp_path))
    assert list(tmp_path.iterdir()) == []
