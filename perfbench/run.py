"""thzris benchmark: seeded `thzris run` workloads, end-to-end timing, and a
traced per-module breakdown.

Usage (from the repository root):
  python3 perfbench/run.py --workload desk-phimax --seed 1 --seconds 30 --trace 0

Each operation runs in a fresh Python process that calls the public CLI entry
point `thzris.cli.cli_main` in-process. With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics from wrapped module functions. The environment is used as
found: no BLAS or OpenMP thread variable is set, only recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

from thzbench import checks, stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULT_DIR = os.path.join(ROOT, ".bench_results")

REFERENCE_SEED = 1      # master_seed of every preset; references are recorded at it
# Fresh set-up processes of an untraced run, spread over the gaps between its
# operations so that the set-up samples span the same minutes as the runs.
SETUP_PROBES = 20
DEADLINE_S = 170.0      # hard stop for one benchmark invocation
# Printed and recorded, but not declared in BENCHMARK.json (see NOTES.md).
UNDECLARED_UNITS = {"replay_ms_p50": "ms", "replay_ms_p80": "ms", "error_rate": "ratio"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Why each workload exists is recorded in BENCHMARK.json and perfbench/NOTES.md.
WORKLOADS = {
    "desk-phimax": {"preset": "fig5-desk",
                    "overrides": {"n_realizations": 20, "sweep_grid": [306.82, 360.0]},
                    "replay": False},
    "paper-snr": {"preset": "fig7-paper", "overrides": {"n_realizations": 20},
                  "replay": False},
    "desk-dump-replay": {"preset": "fig7-desk", "overrides": {}, "replay": True},
}


def environment(versions: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **versions,
            "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
            "git_commit": commit}


class Runner:
    """Starts child processes under one deadline and kills any that overrun."""

    def __init__(self, deadline: float, work_dir: str):
        self.deadline = deadline
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), BENCH_DIR]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def child(self, spec: dict):
        """Run one child; returns (result dict or None, wall seconds, stderr)."""
        self.count += 1
        spec = dict(spec, result=os.path.join(self.work_dir, f"result{self.count}.json"))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "thzbench.child", json.dumps(spec)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            return None, time.perf_counter() - start, "killed at the deadline"
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            return None, wall, err[-2000:]
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh), wall, err[-2000:]


def evaluate(res, err: str, wl: dict, reference: str, compare_values: bool) -> dict:
    """Output checks of one operation (run plus its replays)."""
    if res is None:
        return {"run_ok": False, "replays": 0, "replays_failed": 0, "byte_equal": None,
                "csv": None, "problems": [f"operation process failed: {err.strip()}"]}
    problems, csv_text, byte_equal = [], None, None
    if res["exit"] != 0:
        problems.append(f"run exit {res['exit']}: {res['stderr'].strip()}")
    else:
        with open(res["csv"], encoding="utf-8", newline="") as fh:
            csv_text = fh.read()
        csv = checks.check_csv(csv_text, reference, res["n_real"], compare_values)
        problems += csv["problems"]
        byte_equal = csv["byte_equal"]
        if wl["replay"]:
            dump = res["dump_check"]
            if dump["bad"] or dump["checked"] != res["n_real"]:
                problems.append(f"dump reload check: {dump}")
    replays_failed = sum(not r["ok"] for r in res["replays"])
    run_ok = not problems
    if replays_failed:
        problems.append(f"{replays_failed} replays failed")
    return {"run_ok": run_ok, "replays": len(res["replays"]), "replays_failed": replays_failed,
            "byte_equal": byte_equal, "csv": csv_text, "problems": problems}


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            overrides: dict | None = None, work_dir: str = WORK_DIR) -> dict:
    """Run one benchmark invocation; returns the full result record.

    `overrides` shrink the workload (self-tests); the CSV is then checked for
    structure only.
    """
    wl = dict(WORKLOADS[workload])
    standard = overrides is None
    if overrides:
        wl["overrides"] = {**wl["overrides"], **overrides}
    with open(os.path.join(REFERENCE_DIR, workload + ".csv"),
              encoding="utf-8", newline="") as fh:
        reference = fh.read()
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(time.monotonic() + DEADLINE_S, work_dir)
    base = {"preset": wl["preset"], "overrides": wl["overrides"], "seed": seed,
            "replay": wl["replay"]}

    # Untimed warm-up: compiles bytecode once and reports library versions.
    warm, _, err = runner.child({**base, "mode": "setup"})
    if warm is None:
        raise RuntimeError(f"thzris set-up failed: {err}")
    env = environment(warm["versions"])

    setup = []

    def probe(count: int):
        for _ in range(0 if trace else count):
            res, _, _ = runner.child({**base, "mode": "setup"})
            if res is not None:
                setup.append(res["setup_s"])

    ops = []

    def op(traced: bool):
        res, wall, err = runner.child({**base, "mode": "op", "trace": traced,
                                       "workdir": os.path.join(work_dir, f"op{len(ops)}")})
        check = evaluate(res, err, wl, reference,
                         compare_values=standard and seed == REFERENCE_SEED)
        ops.append({"traced": traced, "wall_s": wall, "result": res, "check": check})

    while True:
        # A traced run alternates untraced and traced operations: the untraced
        # ones give the tracing overhead and the CSV the traced ones must match.
        op(trace and len(ops) % 2 == 1)
        # The measuring window holds the operations only, not the set-up probes.
        busy = sum(o["wall_s"] for o in ops)
        typical = stats.median([o["wall_s"] for o in ops])
        gaps = 1 + max(0, int((seconds - busy) // typical))   # this one and those to come
        probe(math.ceil((SETUP_PROBES - len(setup)) / gaps))
        if trace and len(ops) < 2:
            continue
        if (busy + typical > seconds
                or runner.deadline - time.monotonic() < 2 * typical):
            break

    attempted = sum(1 + o["check"]["replays"] for o in ops)
    failed = sum((not o["check"]["run_ok"]) + o["check"]["replays_failed"] for o in ops)
    measured = [o for o in ops if o["traced"] == trace and o["result"] is not None]
    problems = [p for o in ops for p in o["check"]["problems"]]
    if trace and ops[0]["check"]["csv"] is not None:
        if any(o["check"]["csv"] != ops[0]["check"]["csv"] for o in measured):
            problems.append("traced CSV differs from the untraced CSV")
            failed += 1
    correct = failed == 0 and not problems and bool(measured)

    run_s = [o["result"]["run_s"] for o in measured]
    replay_ms = [r["ms"] for o in measured for r in o["result"]["replays"]]
    values = {"error_rate": failed / attempted}
    untraced = [o["result"]["run_s"] for o in ops if not o["traced"] and o["result"]]
    if measured and trace:
        for name in measured[0]["result"]["layers"]:
            values[name] = stats.median([o["result"]["layers"][name] for o in measured])
        values["trace.overhead_s"] = (stats.median(run_s) - stats.median(untraced)
                                      if untraced else float("nan"))
    elif measured:
        setup += [o["result"]["setup_s"] for o in measured]
        values.update(run_s=stats.median(run_s), setup_s=stats.median(setup),
                      peak_rss_mb=max(o["result"]["peak_rss_mb"] for o in measured))
        if replay_ms:
            values["replay_ms_p50"] = stats.median(replay_ms)
            values["replay_ms_p80"] = stats.percentile(replay_ms, 80)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "config": wl, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed, "problems": problems,
              "values": values,
              "byte_equal_to_reference": [o["check"]["byte_equal"] for o in ops],
              "samples": {"setup_s": setup, "run_s": run_s, "replay_ms": replay_ms,
                          "untraced_run_s": untraced if trace else [],
                          "op_wall_s": [o["wall_s"] for o in ops]},
              "spans": measured[-1]["result"].get("spans", []) if measured else []}
    shutil.rmtree(work_dir, ignore_errors=True)
    return record


def report(record: dict, declared: list) -> dict:
    """Print the human-readable summary; return the result-line object."""
    v = record["values"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"commit {record['environment']['git_commit']}")
    env = record["environment"]
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas {env['blas']}, thread vars {env['thread_vars']}")
    n_runs = len(record["samples"]["run_s"])
    n_replay = len(record["samples"]["replay_ms"])
    units = {**UNDECLARED_UNITS, **{m["name"]: m["unit"] for m in declared}}
    counts = {"setup_s": len(record["samples"]["setup_s"]),
              "replay_ms_p50": n_replay, "replay_ms_p80": n_replay}
    for name in sorted(v):
        print(f"  {name:<44} {v[name]:>14.6g} {units[name]:<6} "
              f"(n={counts.get(name, n_runs)})")
    if n_replay:
        print(f"  replay tail percentile with >= {stats.MIN_TAIL} samples beyond it: "
              f"p{stats.tail_percentile(n_replay)} (n={n_replay})")
    print(f"  csv byte-equal to reference: {record['byte_equal_to_reference']}")
    for problem in record["problems"]:
        print(f"  FAIL: {problem}")
    missing = [m["name"] for m in declared if m["name"] not in v]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": v[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's CSV as the workload's reference "
                             "(reference seed only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "thzris", "cli.py")):
        print(f"thzris sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args.workload)
    declared = declared_metrics(bool(args.trace))
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(RESULT_DIR, exist_ok=True)
    path = os.path.join(RESULT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = report(record, declared)
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_reference(workload: str) -> int:
    """Run the workload once at the reference seed and store its CSV."""
    wl = WORKLOADS[workload]
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    runner = Runner(time.monotonic() + DEADLINE_S * 5, WORK_DIR)
    res, _, err = runner.child({"preset": wl["preset"], "overrides": wl["overrides"],
                                "seed": REFERENCE_SEED, "replay": False, "mode": "op",
                                "trace": False,
                                "workdir": os.path.join(WORK_DIR, "ref")})
    if res is None or res["exit"] != 0:
        print(f"reference run failed: {err or res['stderr']}", file=sys.stderr)
        return 1
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    shutil.copyfile(res["csv"], os.path.join(REFERENCE_DIR, workload + ".csv"))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
