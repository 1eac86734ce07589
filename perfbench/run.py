#!/usr/bin/env python3
"""The repository benchmark: recursive queries, live-view serving and
durable ingest, driven over the wire protocol.

Run from the root of the repository:

  python3 perfbench/run.py --workload closure --seed 1 --seconds 10 --trace 0
      one run; the last line of output is the result as JSON
  python3 perfbench/run.py all --seeds 1,2 --seconds 10 --out results.jsonl
      every workload, every end-to-end metric printed by name and unit
  python3 perfbench/run.py compare before.jsonl after.jsonl
      per workload: each side's runs and failed operations; per workload
      and metric: each side's median and quartiles, marked worse (median
      worse by more than the metric's bound), better (at least ten runs
      paired in file order, nine tenths of them won, the medians further
      apart than the before side's quartile spread, and no more failed
      operations after than before) or unresolved

The program is built from source (dune, release profile) into
.bench_build/; servers, sockets and data directories live under
.bench_run/.  --out FILE appends one JSON record per run
({"workload", "seed", "trace", "result"}); compare reads such files.

--trace 1 prints the per-layer metrics instead, each next to the
end-to-end metric and workload it is predicted to move
(perfbench/spec.json), and the tracing overhead; the in-process spans
(id, parent, name, start, stop) are written to
.bench_run/spans-<workload>.tsv.
--inject-wrong-answer corrupts the first answer before it is checked;
the run must then fail.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
GENERATOR = os.path.join(BUILD_DIR, "default", "perfbench", "dcbench.exe")
SERVER = os.path.join(BUILD_DIR, "default", "bin", "dbpl.exe")
RUN_TIMEOUT_S = 175


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_config():
    bench = load_json("BENCHMARK.json")
    spec = load_json(os.path.join(HERE, "spec.json"))
    return bench, spec


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/dcbench.exe", "./bin/dbpl.exe"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: build failed")


def run_one(bench, spec, workload, seed, seconds, trace, inject=False):
    """Run the generator once; returns (result dict, exit code)."""
    wl = spec["workloads"][workload]
    params = dict(spec["workloads"][wl["base"]]["params"]) if "base" in wl else {}
    params.update(wl["params"])
    run_dir = os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [GENERATOR, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", SERVER, "--run-dir", run_dir]
    for k, v in params.items():
        cmd += ["--param", "%s=%s" % (k, v)]
    if trace:
        cmd += ["--spans", os.path.join(RUN_DIR, "spans-%s.tsv" % workload)]
    if inject:
        cmd.append("--inject-wrong-answer")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()  # the generator's at_exit kills its servers
        proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
        raise SystemExit("perfbench: %s timed out" % workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise SystemExit("perfbench: generator printed no result (exit %d)"
                         % proc.returncode)
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    expected = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    got = raw["metrics"]
    if sorted(got) != sorted(expected):
        raise SystemExit("perfbench: %s reported %s, expected %s"
                         % (workload, sorted(got), sorted(expected)))
    metrics = {}
    for name in expected:
        value = got[name]
        if value is None:
            raise SystemExit("perfbench: %s measured no value for %s"
                             % (workload, name))
        metrics[name] = {"value": value, "unit": units[name]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, proc.returncode


def print_layer_map(spec, workload, result):
    print("# per-layer metrics on %s, each with the end-to-end metric it is "
          "predicted to move" % workload)
    for name, m in result["metrics"].items():
        print("#   %-28s %14.6g %-6s -> %s"
              % (name, m["value"], m["unit"], spec["layers"][name]))


def print_metrics(workload, result):
    print("# %s: attempted %d, failed %d, correct %s"
          % (workload, result["attempted"], result["failed"],
             result["correct"]))
    for name, m in result["metrics"].items():
        print("#   %-16s %14.6g %s" % (name, m["value"], m["unit"]))


def append_record(path, workload, seed, trace, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "trace": trace, "result": result}) + "\n")


def cmd_run(args):
    bench, spec = load_config()
    if args.workload not in spec["workloads"]:
        raise SystemExit("perfbench: unknown workload %s" % args.workload)
    build()
    result, code = run_one(bench, spec, args.workload, args.seed,
                           args.seconds, args.trace, args.inject_wrong_answer)
    if args.trace:
        print_layer_map(spec, args.workload, result)
    else:
        print_metrics(args.workload, result)
    if args.out:
        append_record(args.out, args.workload, args.seed, args.trace, result)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def cmd_all(args):
    bench, spec = load_config()
    build()
    status = 0
    for seed in [int(s) for s in args.seeds.split(",")]:
        for workload in spec["workloads"]:
            result, code = run_one(bench, spec, workload, seed, args.seconds,
                                   args.trace)
            print("# seed %d" % seed)
            if args.trace:
                print_layer_map(spec, workload, result)
            else:
                print_metrics(workload, result)
            if args.out:
                append_record(args.out, workload, seed, args.trace, result)
            if code != 0 or not result["correct"]:
                status = 1
    return status


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(args):
    bench, _ = load_config()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    def load(path):
        runs, failed = {}, {}
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec.get("trace"):
                    continue
                n, f_ = failed.get(rec["workload"], (0, 0))
                failed[rec["workload"]] = (n + 1, f_ + rec["result"]["failed"])
                for name, m in rec["result"]["metrics"].items():
                    runs.setdefault((rec["workload"], name), []).append(
                        m["value"])
        return runs, failed

    (a, fa), (b, fb) = load(args.before), load(args.after)
    for workload in sorted(set(fa) & set(fb)):
        print("%-12s before: %d runs, %d failed operations; "
              "after: %d runs, %d failed operations"
              % ((workload,) + fa[workload] + fb[workload]))
    print("%-12s %-16s %-32s %-32s %8s  %s"
          % ("workload", "metric", "before q1/median/q3",
             "after q1/median/q3", "change", "verdict"))
    for key in sorted(set(a) & set(b)):
        workload, name = key
        m = bounds[name]
        sign = 1.0 if m["better"] == "lower" else -1.0
        va, vb = a[key], b[key]
        qa, qb = quartiles(va), quartiles(vb)
        change = (qb[1] - qa[1]) / qa[1]
        worse_by = sign * change
        spread = (qa[2] - qa[0]) / qa[1]
        pairs = list(zip(va, vb))
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        more_failed = fb[workload][1] > fa[workload][1]
        if worse_by > m["bound"]:
            verdict = "worse"
        elif (-worse_by > spread and len(pairs) >= 10
              and wins >= 0.9 * len(pairs) and not more_failed):
            verdict = "better"
        else:
            verdict = "unresolved"
        fmt = "%.4g/%.4g/%.4g"
        print("%-12s %-16s %-32s %-32s %+7.1f%%  %s (bound %.0f%%, "
              "before spread %.1f%%, %d/%d pairs won)"
              % (workload, name, fmt % qa, fmt % qb, 100 * change, verdict,
                 100 * m["bound"], 100 * spread, wins, len(pairs)))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("before")
        p.add_argument("after")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "all":
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--seeds", default="1")
        p.add_argument("--seconds", type=int, default=10)
        p.add_argument("--trace", type=int, default=0)
        p.add_argument("--out")
        return cmd_all(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--inject-wrong-answer", action="store_true")
    return cmd_run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
