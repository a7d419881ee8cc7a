"""``--compare A.json B.json``: B against A, metric by metric and workload by workload.

For every (end-to-end metric, workload) pair the relative change of the
median is set against the metric's fixed bound.  Where either side's
run-to-run spread — (max − min) ÷ median over its ``--runs`` — is wider
than the bound, the pair is reported as *unresolved*, not as unchanged.
Per-layer metrics are listed with their change but never gate.  Exit
status is 1 when any pair regressed or either side had failed ops.
"""

from __future__ import annotations

import json
from typing import Optional

from .metrics import END_TO_END


def _spread(stat: dict) -> float:
    if not stat["median"]:
        return 0.0
    return (stat["max"] - stat["min"]) / abs(stat["median"])


def _worsening(before: float, after: float, better: str) -> Optional[float]:
    """Relative change in the direction that counts as worse (> 0 = worse)."""
    if not before:
        return None
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    regressions = 0
    print(f"{'workload':14s} {'metric':22s} {'A':>12s} {'B':>12s} {'worse by':>9s} "
          f"{'bound':>6s} {'spread':>7s}  verdict")
    for workload, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload:14s} missing from {path_b}")
            regressions += 1
            continue
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["failed"] or not entry["correct"]:
                print(f"{workload:14s} {side}: failed={entry['failed']} "
                      f"correct={entry['correct']}  REGRESSION")
                regressions += side == "B"
        for name, unit, better, bound in END_TO_END:
            stat_a = entry_a["end_to_end"][name]
            stat_b = entry_b["end_to_end"][name]
            worse = _worsening(stat_a["median"], stat_b["median"], better)
            spread = max(_spread(stat_a), _spread(stat_b))
            if worse is None:
                verdict = "n/a"
            elif spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "ok"
            shown = "n/a" if worse is None else f"{worse:+.1%}"
            print(f"{workload:14s} {name:22s} {stat_a['median']:12.5g} "
                  f"{stat_b['median']:12.5g} {shown:>9s} {bound:6.0%} {spread:7.1%}  {verdict}")
        for name, stat_a in entry_a["per_layer"].items():
            stat_b = entry_b["per_layer"].get(name)
            if stat_b is None or stat_a["median"] is None or stat_b["median"] is None:
                continue
            if stat_a["median"] == stat_b["median"]:
                continue
            base = abs(stat_a["median"])
            shown = f"{(stat_b['median'] - stat_a['median']) / base:+.1%}" if base else "new"
            print(f"{workload:14s}   {name:34s} {stat_a['median']:12.5g} "
                  f"{stat_b['median']:12.5g} {shown:>9s}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
