"""How the fuzzy gate decides how much to trust the transcript.

Runs the small "trace" rule base on one input triple and prints the full
inference trace (every rule with its firing strength, the clipped output
sets, and the defuzzified weight), then sweeps ASR confidence on the shipped
default base to show the soft-gating curve.
"""

import numpy as np

from affectfuse.fuzzy import infer_w_text, load_rule_base

trace_base = load_rule_base(builtin="trace")
default_base = load_rule_base(builtin="default")

print("=== one inference, fully traced (trace base) ===")
trace = infer_w_text(trace_base, asr_conf=0.9582073547338185, arousal=0.12, valence=0.02)
print(f"inputs: {trace.inputs}")
for rule in trace.fired_rules:
    conditions = " AND ".join(rule.conditions)
    print(f"  IF {conditions:38s} THEN {rule.consequent:15s} strength={rule.strength:.10f}")
print(f"out_sets: { {k: round(v, 6) for k, v in trace.out_sets.items()} }")
print(f"w_text (centroid): {trace.w_text:.6f}")

print()
print("=== soft gating on the default base (arousal 0.9, neutral valence) ===")
print("asr_conf  w_text   reading")
for conf in np.linspace(0.1, 0.9, 9):
    w = infer_w_text(default_base, float(conf), 0.9, 0.0).w_text
    reading = "audio leads" if w < 0.45 else ("balanced" if w < 0.55 else "text leads")
    print(f"  {conf:.2f}    {w:.4f}   {reading}")

print()
print("A noisy, excited turn with a shaky transcript never lets the text")
print("channel dominate; a confident transcript pulls the weight above 0.5.")
