"""Per-layer metrics from the spans of one traced pass.

A layer is a scaledss module; a span's self time is its duration minus the
durations of its direct children.  Every ``*_s`` metric is summed over the
pass, like the end-to-end pass time it should move.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# the per-layer metrics, with their units, in report order
PER_LAYER = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))["per_layer"]
TOWER_BUILDERS = ("tower.ts_plus", "tower.ts_minus", "tower.ts_glued", "tower.theta_complexes")
TOWER_CHECKS = ("tower.check_cosimplicial_identities", "tower.rev_duality_check",
                "tower.thin_audit")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(spans: list, lo: float, hi: float) -> float:
    """Time in [lo, hi] covered by top-level spans (nested spans lie inside
    their parents, so the top level is the union)."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if parent == -1:
            total += max(0.0, min(end, hi) - max(start, lo))
    return total


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """``children``: one dict per traced child with keys ``trace`` (the
    dumped record), ``wall`` (seconds, measured by the parent), ``dump_s``
    (seconds the child spent writing its spans), ``bytes_in``,
    and for certify commands ``units`` (replay units of the certificate
    written), ``cert_steps`` and ``cert_bytes``."""
    m: dict[str, float] = defaultdict(float)
    hits = misses = 0
    in_process = covered = 0.0
    certify_apply = certify_units = 0
    for child in children:
        rec = child["trace"]
        spans = rec["spans"]
        t_run, t_end = rec["run"]
        in_process += t_end - t_run
        covered += _covered(spans, t_run, t_end)
        m["cli.startup_s"] += max(0.0, child["wall"] - rec["install_s"] - child["dump_s"]
                                  - (t_end - t_run))
        m["serialize.bytes_in"] += child["bytes_in"]
        for info in rec["caches"].values():
            hits += info["hits"]
            misses += info["misses"]

        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        distinct = set()
        applies = 0
        for idx, (name, start, end, parent, attr) in enumerate(spans):
            dur = end - start
            self_s = dur - child_time[idx]
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += self_s
            pname = spans[parent][0] if parent >= 0 else ""
            if name == "certificates.apply_step":
                applies += 1
                m[f"certificates.apply_step.calls.{attr}"] += 1
                m[f"certificates.apply_step.self_s.{attr}"] += self_s
                if pname.startswith("search."):
                    m["_search_applies"] += 1
            elif name == "certificates.verify_certificate":
                m["certificates.verify.calls"] += 1
                m["certificates.verify.self_s"] += self_s
                if pname == "certificates.apply_step":
                    m["certificates.transport_reverify_s"] += dur
            elif name == "search.search_steps":
                m["search.calls"] += 1
                m["_search_kept"] += attr or 0
                if pname.startswith("proofs."):
                    m["proofs.search_calls"] += 1
            elif name == "complexes.ordered_complex":
                m["complexes.ordered_complex.calls"] += 1
                m["complexes.ordered_complex.tuples"] += attr or 0
                m["complexes.ordered_complex.self_s"] += self_s
            elif name == "complexes.complex_map":
                m["complexes.complex_map.self_s"] += self_s
            elif name == "generators.instantiate":
                m["generators.instantiate.calls"] += 1
                m["generators.instantiate.self_s"] += self_s
                distinct.add(attr)
            elif name == "generators.gen_horn_admissible":
                m["generators.gen_horn_admissible.self_s"] += self_s
            elif name == "scaling.check_scaled_map":
                m["scaling.check_scaled_map.calls"] += 1
            elif name == "scaling.restrict_scaling":
                m["scaling.restrict_scaling.self_s"] += self_s
            elif name in TOWER_BUILDERS:
                if attr is True and not _inside_build(spans, parent):
                    m["tower.build_s"] += dur
            elif name == "tower.boundary_face":
                m["tower.boundary_face.calls"] += 1
                m["tower.boundary_face.self_s"] += self_s
            elif name in TOWER_CHECKS:
                m["tower.check.self_s"] += self_s
            elif name == "grid.plus_nerve":
                m["grid.plus_nerve.self_s"] += self_s
            elif name.startswith("serialize."):
                if name.endswith("_from_json"):
                    m["serialize.load.self_s"] += self_s
                elif name.endswith("_to_json") or name == "serialize.canonical_dumps":
                    m["serialize.dump.self_s"] += self_s
                if name == "serialize.canonical_dumps":
                    m["serialize.bytes_out"] += attr or 0
        m["generators.instantiate.distinct"] += len(distinct)
        if "units" in child:
            certify_apply += applies
            certify_units += child["units"]
            m["cert_steps"] += child["cert_steps"]
            m["cert_bytes"] += child["cert_bytes"]
    m["search.step_yield"] = _ratio(m.pop("_search_kept", 0.0), m.pop("_search_applies", 0.0))
    m["certificates.replay_factor"] = _ratio(certify_apply, certify_units)
    m["tower.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["trace.coverage"] = _ratio(covered, in_process)
    return {spec["name"]: float(m.get(spec["name"], 0.0)) for spec in PER_LAYER
            if spec["name"] != "trace.overhead_ratio"}


def _inside_build(spans: list, idx: int) -> bool:
    """Whether span ``idx`` or an ancestor is a tower build that missed."""
    while idx >= 0:
        name, _, _, parent, attr = spans[idx]
        if name in TOWER_BUILDERS and attr is True:
            return True
        idx = parent
    return False
