"""Measure which calls gain from forking worker processes.

    PYTHONPATH=src python3 tests/record_fork_crossover.py [--rounds 9] [--grid-rounds 5] [--out PATH]

``experiments._map_cells`` forks a call only when every process's share
holds at least a minimum number of cells: ``experiments._MIN_SHARE[scheme]``
for a ``run_scheme`` call whose cells run no MUSIC trials, and one cell or
point otherwise (a ``monte_carlo_mse`` study's points always run them).
This script times calls under two fork rules, each in its own Python
process (a process that has forked runs its next calls slower on
copy-on-write page faults, so the sides must not share one), the sides
alternating round by round and which one goes first alternating too, and
reports the medians in ms:

- ``crossover``: ``run_scheme`` of ``ris_comm_only`` and
  ``no_ris_with_sensing`` at one SNR point (0, 15 and 30 dB) with 6 to 50
  seed indices, forked (one share per CPU) against one process; the
  smallest share at which forking breaks even is the scheme's minimum
  share;
- ``trials``: the same for ``no_ris_with_sensing`` with 50 MUSIC trials a
  cell and 6, 8 and 16 seed indices, whose calls fork at one cell a share;
- ``study``: ``monte_carlo_mse`` of each scheme at the default 7 points of
  200 trials, with no angle bound (so every point is feasible), forked
  against one process;
- ``baseline_sweep``: the ``run_scheme`` calls of perfbench's
  ``baseline-sweep`` panel (three schemes, 0-30 dB in 5 dB steps, one
  call per scheme and point, 6 seed indices), under the program's rule and
  under the previous one, which forked every call of a scheme other than
  ``no_ris_comm_only``;
- ``full_grid``: ``run_scheme`` of the default 350-cell grid of each
  scheme under both rules.

No MUSIC trials run in the other ``run_scheme`` calls (``mse_trials``
0), as in perfbench's sweeps, except in ``full_grid``, which keeps the
default.  Needs at least 2 CPUs in the affinity mask and numpy on
OpenBLAS, or nothing forks.  Prints the JSON, or writes it to PATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from fdjcas import experiments
from fdjcas.experiments import SCHEMES

SRC = Path(__file__).resolve().parent.parent / "src"
CROSSOVER_SCHEMES = ("ris_comm_only", "no_ris_with_sensing")
CROSSOVER_CELLS = (6, 12, 16, 24, 32, 40, 50)
CROSSOVER_SNR_DB = (0.0, 15.0, 30.0)
TRIAL_CELLS = (6, 8, 16)
TRIALS_PER_CELL = 50
BASELINE_SCHEMES = ("no_ris_with_sensing", "ris_comm_only", "no_ris_comm_only")
BASELINE_SNR_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
BASELINE_SEEDS = 6
# minimum shares per scheme, for every call; None: the scheme's calls never fork
FORKED = dict.fromkeys(SCHEMES, 1)
ONE_PROCESS = dict.fromkeys(SCHEMES)
# the rule before per-scheme minimum shares: fork any call of more than one cell
PREVIOUS_RULE = {**FORKED, "no_ris_comm_only": None}

# runs every call under a rule (null: the program's own) and answers each
# config line with the seconds the call took
SIDE = """
import json, math, sys, time
import numpy as np
from fdjcas import experiments
from fdjcas.experiments import ExperimentConfig, monte_carlo_mse, run_scheme
from fdjcas.steering import PathCoefficients
rule = json.loads(sys.argv[1])
if rule is not None:
    least = {scheme: math.inf if n is None else n for scheme, n in rule.items()}
    map_cells = experiments._map_cells
    def ruled(share_fn, config, cells, _):
        return map_cells(share_fn, config, cells, least[config.scheme])
    experiments._map_cells = ruled
for line in sys.stdin:
    config = json.loads(line)
    study = config.pop("study", False)
    config = ExperimentConfig.from_dict(config)
    start = time.perf_counter()
    if study:
        monte_carlo_mse(config, np.deg2rad(20.0), PathCoefficients.random(3))
    else:
        run_scheme(config)
    print(time.perf_counter() - start, flush=True)
"""


class _Side:
    """A Python process that runs calls under one fork rule (None: the program's own)."""

    def __init__(self, rule: dict | None):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-c", SIDE, json.dumps(rule)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def seconds(self, config: dict) -> float:
        self.proc.stdin.write(json.dumps(config) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"side process exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def compare(configs, rules: dict, rounds: int) -> list:
    """Per config dict, ``{f"{name}_ms": median}`` of running it under each
    rule of ``rules``; one warm-up run per config and side first."""
    sides = {name: _Side(rule) for name, rule in rules.items()}
    try:
        for config in configs:
            for side in sides.values():
                side.seconds(config)
        times = [{name: [] for name in sides} for _ in configs]
        for round_ in range(rounds):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for config, samples in zip(configs, times):
                for name in order:
                    samples[name].append(sides[name].seconds(config))
    finally:
        for side in sides.values():
            side.close()
    return [{f"{name}_ms": round(1e3 * statistics.median(samples[name]), 3) for name in rules} for samples in times]


def _call(scheme: str, snr_db: float, seeds: int, trials_per_cell: int = 0) -> dict:
    return {"scheme": scheme, "snr_grid_db": [snr_db], "seeds": seeds, "mse_trials": trials_per_cell * seeds}


def crossover(rounds: int, schemes=CROSSOVER_SCHEMES, sizes=CROSSOVER_CELLS, trials_per_cell: int = 0) -> list:
    rows = []
    for scheme in schemes:
        for cells in sizes:
            configs = [_call(scheme, snr, cells, trials_per_cell) for snr in CROSSOVER_SNR_DB]
            medians = compare(configs, {"forked": FORKED, "one_process": ONE_PROCESS}, rounds)
            for snr, ms in zip(CROSSOVER_SNR_DB, medians):
                rows.append({"scheme": scheme, "cells": cells, "snr_db": snr, **ms})
                print(rows[-1], file=sys.stderr)
    return rows


RULES = {"previous_rule": PREVIOUS_RULE, "min_share_rule": None}


def study(rounds: int) -> list:
    configs = [{"scheme": scheme, "crb_threshold": math.inf, "study": True} for scheme in SCHEMES]
    medians = compare(configs, {"forked": FORKED, "one_process": ONE_PROCESS}, rounds)
    rows = [{"scheme": config["scheme"], **ms} for config, ms in zip(configs, medians)]
    print(rows, file=sys.stderr)
    return rows


def baseline_sweep(rounds: int) -> dict:
    configs = [_call(scheme, snr, BASELINE_SEEDS) for scheme in BASELINE_SCHEMES for snr in BASELINE_SNR_DB]
    calls = [
        {"scheme": config["scheme"], "snr_db": config["snr_grid_db"][0], **ms}
        for config, ms in zip(configs, compare(configs, RULES, rounds))
    ]
    totals = {f"{name}_ms": round(sum(call[f"{name}_ms"] for call in calls), 3) for name in RULES}
    print(totals, file=sys.stderr)
    return {"calls": calls, "total_of_medians": totals}


def full_grid(rounds: int) -> list:
    configs = [{"scheme": scheme} for scheme in SCHEMES]
    rows = [{"scheme": config["scheme"], **ms} for config, ms in zip(configs, compare(configs, RULES, rounds))]
    print(rows, file=sys.stderr)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9, help="alternating rounds per comparison (default 9)")
    parser.add_argument("--grid-rounds", type=int, default=5, help="rounds of the default full grid (default 5)")
    parser.add_argument("--out", help="write the JSON here instead of printing it")
    args = parser.parse_args(argv)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2 or experiments._openblas_threads() is None:
        print("needs at least 2 CPUs and numpy on OpenBLAS: no call would fork", file=sys.stderr)
        return 1
    record = {
        "environment": {"cpus": cpus, "python": platform.python_version(), "numpy": np.__version__},
        "method": f"calls timed in process, one Python process per side, medians of {args.rounds} alternating rounds "
        f"({args.grid_rounds} for full_grid) after one warm-up run per side",
        # None: the scheme's run_scheme calls never fork
        "min_share": {scheme: n if math.isfinite(n) else None for scheme, n in experiments._MIN_SHARE.items()},
        "crossover": crossover(args.rounds),
        "trials": crossover(args.rounds, ("no_ris_with_sensing",), TRIAL_CELLS, TRIALS_PER_CELL),
        "study": study(args.rounds),
        "baseline_sweep": baseline_sweep(args.rounds),
        "full_grid": full_grid(args.grid_rounds),
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
