"""``python -m perfbench compare A.json B.json`` — B measured against A.

One row per (workload, end-to-end metric): both values, the ratio with
its base, and a verdict by the bound fixed in
:data:`perfbench.metrics.END_TO_END`:

* ``ok``          B is not worse than A by more than the bound;
* ``regression``  it is;
* ``unresolved``  the spread either record measured on itself (the gap
  between the estimator on the two halves of its blocks) is wider than
  the bound, so the pair cannot tell — never reported as unchanged.

This is also the tool for the two-set agreement criterion: two records
of the *same* commit must compare without a regression in either order.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from perfbench import metrics


def worsening(metric: metrics.Metric, base: float, new: float) -> float:
    """By what share of ``base`` did ``new`` get worse (negative: better)."""
    if base == 0:  # only failed_share is ever zero, and any failure is worse
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: metrics.Metric, base: float, new: float, spread: float) -> str:
    if spread > metric.bound and not metric.exact:
        return "unresolved"
    return "regression" if worsening(metric, base, new) > metric.bound + 1e-12 else "ok"


def rows(a: Dict, b: Dict) -> List[Tuple[str, str, Optional[float], Optional[float], str]]:
    """``(workload, metric, value in A, value in B, verdict)`` for every
    metric both records have."""
    out = []
    for name, section in a["workloads"].items():
        other = b["workloads"].get(name, {})
        if "end_to_end" not in section or "end_to_end" not in other:
            continue
        ea, eb = section["end_to_end"], other["end_to_end"]
        for metric, va in ea["metrics"].items():
            vb = eb["metrics"].get(metric)
            if va is None or vb is None:
                out.append((name, metric, va, vb, "unmeasured"))
                continue
            spread = max(ea["spread"].get(metric, 0.0), eb["spread"].get(metric, 0.0))
            out.append((name, metric, va, vb, verdict(metrics.BY_NAME[metric], va, vb, spread)))
    return out


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    table = rows(a, b)
    print(f"base A = {path_a} ({a['meta']['git_commit'][:12]}, seed {a['meta']['seed']})")
    print(f"     B = {path_b} ({b['meta']['git_commit'][:12]}, seed {b['meta']['seed']})")
    print(f"{'workload':<18}{'metric':<22}{'A':>14}{'B':>14}{'B/A':>9}  {'bound':>6}  verdict")
    for workload, metric, va, vb, v in table:
        m = metrics.BY_NAME[metric]
        if va is None or vb is None:
            print(f"{workload:<18}{metric:<22}{va!s:>14}{vb!s:>14}{'':>9}  {m.bound:>6.0%}  {v}")
            continue
        ratio = f"{vb / va:.4f}" if va else "n/a"
        print(f"{workload:<18}{metric:<22}{va:>14.6g}{vb:>14.6g}{ratio:>9}  {m.bound:>6.0%}  {v}"
              f" ({m.better} is better, unit {m.unit})")
    counts = {v: sum(1 for r in table if r[4] == v) for v in ("ok", "regression", "unresolved")}
    print(f"{counts['ok']} ok, {counts['regression']} regression, {counts['unresolved']} unresolved")
    return 1 if counts["regression"] else 0
