"""Median, quartiles and spread of benchmark results files.

    python3 perfbench/summarize.py perfbench/.work/results/*.json
    python3 perfbench/summarize.py --write perfbench/baseline perfbench/.work/results/*.json

Groups untraced results by workload and prints, for each end-to-end metric
of BENCHMARK.json, the run count, median, quartiles and the spread (third
minus first quartile, as a share of the median) next to the metric's bound.
Quartiles are ``statistics.quantiles(values, n=4)``.  Also lists any failed
run and any output digest that differs between runs of one seed.

With ``--write DIR``, also writes ``DIR/<workload>.json``: the environment,
each run's end-to-end figures and output digests, their summary, and the
per-layer figures of any traced run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(paths: list[str], write_dir: str | None = None) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    by_workload: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["trace"]:
            traced[result["workload"]] = result
        else:
            by_workload.setdefault(result["workload"], []).append(result)

    lines = []
    for workload, results in sorted(by_workload.items()):
        results.sort(key=lambda r: r["seed"])
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        lines.append(f"{workload}: {len(results)} runs, fail_rate {failed}/{attempted}")
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "n": len(values), "unit": metric["unit"]}
            lines.append(
                f"  {metric['name']:12s} median {median:10.4f} {metric['unit']:3s} "
                f"q1 {q1:10.4f} q3 {q3:10.4f}  spread {spread:6.3f} "
                f"(bound {metric['bound']}, n={len(values)})"
            )
        if write_dir:
            _write_baseline(write_dir, workload, results, summary, traced.get(workload))
        seen: dict[int, dict] = {}
        for r in results:
            for run in r["runs"]:
                if run["problems"]:
                    lines.append(f"  seed {r['seed']} run {run['index']}: {run['problems'][0]}")
                if not run["digests"]:
                    continue
                first = seen.setdefault(r["seed"], run["digests"])
                changed = sorted(k for k in first if run["digests"].get(k) != first[k])
                if changed:
                    lines.append(f"  seed {r['seed']}: outputs differ between runs: {changed}")
    return lines


def _write_baseline(directory, workload, results, summary, traced) -> None:
    baseline = {
        "workload": workload,
        "environment": results[0]["environment"],
        "summary": summary,
        "fail_rate": {"failed": sum(r["failed"] for r in results),
                      "attempted": sum(r["attempted"] for r in results)},
        "runs": [
            {"seed": r["seed"], "metrics": r["metrics"], "speed": r["speed"],
             "raw_setup_s": r["raw_setup_s"], "raw_wall_s": [run["wall_s"] for run in r["runs"]],
             "digests": next((run["digests"] for run in r["runs"] if run["digests"]), {})}
            for r in results
        ],
    }
    if traced:
        baseline["traced"] = {"seed": traced["seed"], "metrics": traced["metrics"],
                              "zero_call_boundaries": traced["zero_call_boundaries"]}
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    write_dir = None
    if args[:1] == ["--write"]:
        write_dir, args = args[1], args[2:]
    if not args:
        sys.stderr.write(__doc__)
        sys.exit(2)
    print("\n".join(summarize(args, write_dir)))
