"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --runs 10 [--first-seed 1] [--label TEXT] [--out FILE]

Runs `perfbench/run.py` one process at a time from the repository root, for
every workload in BENCHMARK.json and for its `run_seconds`: `--runs` untraced
runs with seeds first-seed.., then one traced run with the first seed.
Prints, for each workload, every metric by name with its unit,
median, quartiles, spread ((q3 - q1) / median) and sample counts, and the
derived teacher/student speed-up with its base. `--out` writes the same as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    samples = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] in result["metrics"] and parts[3].isdigit():
            samples[parts[0]] = int(parts[3])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"result": result, "samples": samples, "env": env, "wall_s": wall}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seconds = BENCH["run_seconds"]
    report = {"label": args.label, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in BENCH["workloads"]):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        untraced = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, args.first_seed, seconds, 1)]
        report["env"] = untraced[0]["env"]
        e2e = {}
        for m in BENCH["end_to_end"]:
            name = m["name"]
            entry = summarise([r["result"]["metrics"][name]["value"] for r in untraced])
            entry["unit"] = m["unit"]
            entry["samples_per_run"] = statistics.median(r["samples"].get(name, 0) for r in untraced)
            e2e[name] = entry
        layers = {}
        for m in BENCH["per_layer"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in traced]
            layers[m["name"]] = {"median": statistics.median(values),
                                 "unit": m["unit"], "runs": len(values)}
        t50, s50 = e2e["teacher_ms_p50"]["median"], e2e["student_ms_p50"]["median"]
        report["workloads"][workload] = {
            "seeds": list(seeds),
            "wall_s_per_run": statistics.median(r["wall_s"] for r in untraced + traced),
            "correct": all(r["result"]["correct"] for r in untraced + traced),
            "end_to_end": e2e,
            "per_layer": layers,
            "speedup_teacher_over_student_p50": {
                "value": t50 / s50, "base": {"teacher_ms_p50": t50, "student_ms_p50": s50}},
        }
        print(f"== {workload}: {len(untraced)} untraced runs, {len(traced)} traced, "
              f"all correct: {report['workloads'][workload]['correct']}, "
              f"{report['workloads'][workload]['wall_s_per_run']:.1f} s per run")
        print(f"{'metric':<26}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'n/run':>7}")
        for name, e in e2e.items():
            print(f"{name:<26}{e['unit']:<7}{e['median']:>12.5g}{e['q1']:>12.5g}{e['q3']:>12.5g}"
                  f"{e['spread']:>9.4f}{bounds[name]:>7}{e['samples_per_run']:>7g}")
        print(f"speed-up teacher/student p50: {t50 / s50:.4f}x "
              f"(base: {t50:.4f} ms / {s50:.4f} ms)")
        for name, e in layers.items():
            print(f"{name:<26}{e['unit']:<11}{e['median']:>12.5g}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
