#!/usr/bin/env python3
"""Summarizes end-to-end benchmark runs; run.sh calls it.

  summarize.py results RUNS.jsonl HOST.json OUT.json
      OUT holds the host block and every run's result.
  summarize.py record RUNS.jsonl HOST.json OUT.json BENCHMARK.json
      OUT holds, per set of runs, every metric's per-run values, median,
      quartiles and spread ((q3 - q1) / median); and, per workload and
      end-to-end metric, how far the second set's median moved from the
      first's, against the metric's bound, and the bound the spreads call
      for, max(0.05, 2 x spread). Prints that comparison.

Quartiles are statistics.quantiles(values, n=4), the method the bounds in
BENCHMARK.json are checked with.
"""

import json
import statistics
import sys


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                runs.append(json.loads(line))
            except json.JSONDecodeError:
                runs.append({"unparsed": line})
    return runs


def describe(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "values": values,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
    }


def results(runs_path, host_path, out_path):
    with open(host_path) as f:
        host = json.load(f)
    out = {"host": host, "runs": load_runs(runs_path)}
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"wrote {out_path}")


def record(runs_path, host_path, out_path, bench_path):
    with open(host_path) as f:
        host = json.load(f)
    with open(bench_path) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    runs = load_runs(runs_path)
    bad = [r for r in runs if "result" not in r or not r["result"].get("correct")]

    sets = {}
    for r in runs:
        if r not in bad:
            sets.setdefault(r["set"], []).append(r)
    summary = []
    for set_index in sorted(sets):
        groups = {}
        seeds = set()
        for r in sets[set_index]:
            kind = "per_layer" if r["trace"] else "end_to_end"
            if not r["trace"]:
                seeds.add(r["seed"])
            w = groups.setdefault(kind, {}).setdefault(r["workload"], {})
            for name, m in r["result"]["metrics"].items():
                w.setdefault(name, []).append(m["value"])
            w.setdefault("_failed", []).append(r["result"]["failed"])
            w.setdefault("_attempted", []).append(r["result"]["attempted"])
        summary.append({
            "set": set_index,
            "seeds": sorted(seeds),
            **{kind: {w: {name: describe(v) for name, v in ms.items()}
                      for w, ms in g.items()}
               for kind, g in groups.items()},
        })

    comparison = {}
    failures = []
    if len(summary) >= 2:
        first, second = summary[0]["end_to_end"], summary[1]["end_to_end"]
        print(f"{'workload':14} {'metric':24} {'median 1':>12} {'median 2':>12} "
              f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6} "
              f"{'formula':>7}")
        for w in sorted(first):
            for name, m in e2e.items():
                a, b = first[w][name], second[w][name]
                m1, m2 = a["median"], b["median"]
                worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                bound = m["bound"]
                formula = max(0.05, 2 * max(a["spread"], b["spread"]))
                spread_ok = name == "setup_s" or max(a["spread"], b["spread"]) < bound / 3
                ok = abs(m2 - m1) / abs(m1) < bound and spread_ok
                comparison.setdefault(w, {})[name] = {
                    "median_1": m1, "median_2": m2, "worse_by": worse,
                    "spread_1": a["spread"], "spread_2": b["spread"],
                    "bound": bound, "formula_bound": formula, "ok": ok}
                if not ok:
                    failures.append(f"{w} {name}")
                print(f"{w:14} {name:24} {m1:12.5g} {m2:12.5g} {worse:9.3f} "
                      f"{a['spread']:9.3f} {b['spread']:9.3f} {bound:6.2f} "
                      f"{formula:7.3f}"
                      f"{'' if ok else '  <-- outside'}")

    out = {
        "host": host,
        "run_seconds": bench["run_seconds"],
        "sets": summary,
        "comparison": comparison,
        "failed_runs": bad,
    }
    with open(out_path, "w") as f:
        json.dump(out, f, indent=1)
    print(f"wrote {out_path}; {len(bad)} failed runs; "
          f"{len(failures)} metrics outside their bound or a third of it")
    return 1 if bad or failures else 0


def main(argv):
    if len(argv) == 5 and argv[1] == "results":
        results(argv[2], argv[3], argv[4])
        return 0
    if len(argv) == 6 and argv[1] == "record":
        return record(argv[2], argv[3], argv[4], argv[5])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
