#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py

Runs every workload of BENCHMARK.json ten times per set, each run with its
own seed (set 1 uses seeds 1-10, set 2 seeds 11-20), with the run length
from BENCHMARK.json. For each end-to-end metric it prints each set's median
and its spread (distance between the first and third quartile over the
median), and how far the second median lies from the first. A metric passes
when both spreads and that distance stay within its bound; the share of
failed operations must be the same in both sets. A second table sets the
spreads of the reported (host-scaled, see `calibrate` in run.py) `ops_per_s`
and `setup_s` beside those of the raw figures of the same runs, which shows
whether the scaling lowers the spread. Raw figures go to bench/out/steady.json. Exits 0 when
everything passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    figures = [line for line in proc.stderr.splitlines() if line.startswith("figures ")]
    result["figures"] = json.loads(figures[-1].removeprefix("figures "))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results: dict[str, tuple[list[dict], list[dict]]] = {}
    for w in names:
        sets = ([], [])
        for k, runs in enumerate(sets):
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                runs.append(run_once(w, seed, spec["run_seconds"]))
                values = {m: round(v["value"], 4) for m, v in runs[-1]["metrics"].items()}
                print(f"set {k + 1} {w} seed {seed}: correct={runs[-1]['correct']} {values}", file=sys.stderr, flush=True)
        results[w] = sets

    ok = True
    print(f"{'workload':18} {'metric':12} {'bound':>6} {'median1':>12} {'spread1':>8} "
          f"{'median2':>12} {'spread2':>8} {'moved':>7}  verdict")
    for w, sets in results.items():
        fail_share = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        all_correct = all(r["correct"] for runs in sets for r in runs)
        if len(fail_share) != 1 or not all_correct:
            ok = False
            print(f"{w}: failed shares {sorted(fail_share)}, all correct: {all_correct}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            (med1, med2), spreads = [median(v) for v in per_set], [spread(v) for v in per_set]
            moved = abs(med2 - med1) / med1
            passed = moved <= bound and max(spreads) <= bound
            ok &= passed
            verdict = ("pass" if passed else "FAIL") + ("" if max(spreads) < bound / 3 else " (spread above bound/3)")
            print(f"{w:18} {name:12} {bound:6.2f} {med1:12.4f} {spreads[0]:8.3f} "
                  f"{med2:12.4f} {spreads[1]:8.3f} {moved:7.3f}  {verdict}")
    print(f"\n{'workload':18} {'metric':12} {'scaled spread1':>15} {'scaled spread2':>15} {'raw spread1':>12} {'raw spread2':>12}")
    for w, sets in results.items():
        for name in ("ops_per_s", "setup_s"):
            scaled = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            raw = [spread([r["figures"][f"{name}_raw"] for r in runs]) for runs in sets]
            print(f"{w:18} {name:12} {scaled[0]:15.3f} {scaled[1]:15.3f} {raw[0]:12.3f} {raw[1]:12.3f}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
