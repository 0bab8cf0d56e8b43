"""Per-inference explainability artifacts.

``affectfuse explain`` writes three files from the ``fusion_fuzzy`` block of
a sealed event under the artifacts directory, named by txid: a JSON file with
the fired rules and engine inputs, a CSV rules-conditions matrix, and a
grayscale raster of the same matrix (binary portable pixmap, 16x16 px per
cell, intensity = 255 * value) for quick visual inspection of which
conditions drove the weight. A turn writes none of them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping

from ..fuzzy import RuleBase
from .canonical import canonicalize

CELL_PX = 16
BLOCK_KEYS = {"inputs", "fired_rules", "out_sets"}


class ExportError(RuntimeError):
    """Artifact files could not be written or the block is malformed; ``affectfuse explain`` exits 3."""


def _condition_degree(condition: str, rule_base: RuleBase, inputs: Dict[str, float]) -> float:
    var_name, set_label = condition.split(" is ", 1)
    variable = rule_base.variables[var_name]
    return variable.sets[set_label](variable.clamp_input(inputs[var_name]))


def _matrix(block: Mapping[str, object], rule_base: RuleBase) -> tuple[List[str], List[List[float]]]:
    conditions: List[str] = []
    for rule in block["fired_rules"]:
        for condition in rule["if"]:
            if condition not in conditions:
                conditions.append(condition)
    rows: List[List[float]] = []
    for rule in block["fired_rules"]:
        row = [
            _condition_degree(c, rule_base, block["inputs"]) if c in rule["if"] else 0.0
            for c in conditions
        ]
        row.append(rule["strength"])
        rows.append(row)
    return conditions + ["strength"], rows


def _render_ppm(rows: List[List[float]]) -> bytes:
    height = len(rows) * CELL_PX
    width = len(rows[0]) * CELL_PX if rows else 0
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    body = bytearray()
    for row in rows:
        scan = bytearray()
        for value in row:
            level = max(0, min(255, round(255 * value)))
            scan.extend(bytes((level, level, level)) * CELL_PX)
        body.extend(bytes(scan) * CELL_PX)
    return header + bytes(body)


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def export_explainability_artifact(
    block: Mapping[str, object],
    txid: str,
    rule_base: RuleBase,
    output_dir: str,
) -> List[Path]:
    """Write <txid>.json, <txid>.csv, and <txid>.ppm; returns the paths.

    ``block`` is a ``fusion_fuzzy`` mapping, the layout of ``FuzzyTrace.as_dict``;
    a block with other keys is refused.
    """
    if set(block) != BLOCK_KEYS:
        raise ExportError(f"fusion_fuzzy block has keys {sorted(block)}, expected {sorted(BLOCK_KEYS)}")
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / f"{txid}.json"
        csv_path = out / f"{txid}.csv"
        ppm_path = out / f"{txid}.ppm"
        json_path.write_bytes(canonicalize({"txid": txid, **block}))

        header, rows = _matrix(block, rule_base)
        lines = ["rule," + ",".join(_csv_quote(h) for h in header)]
        for rule, row in zip(block["fired_rules"], rows):
            name = f"IF {' AND '.join(rule['if'])} THEN {rule['then']}"
            lines.append(_csv_quote(name) + "," + ",".join(f"{v:.6f}" for v in row))
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        ppm_path.write_bytes(_render_ppm(rows))
        return [json_path, csv_path, ppm_path]
    except OSError as exc:
        raise ExportError(f"cannot write artifacts under {output_dir}: {exc}") from exc
