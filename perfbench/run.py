#!/usr/bin/env python3
"""MultiEM benchmark runner.

    python3 perfbench/run.py --workload geo-exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (into `$CARGO_TARGET_DIR`, default
`.bench_build`); later runs reuse the build while the sources are unchanged.
One JVM then sets the workload up and runs MultiEM in a closed loop for
`--seconds` (see `src/main/scala/perfbench/Main.scala`). This script checks the
outputs against `workloads.json` and prints each metric with its unit, then,
as the last line, one JSON object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer ones with `--trace 1`).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
DEADLINE_S = 170  # every run must end within 180 s
BUILD_DEADLINE_S = 880  # the first run of a checkout may take 900 s

END_TO_END = {
    "run_s": "s",
    "entities_per_s": "1/s",
    "tuple_f1": "%",
    "pair_f1": "%",
    "setup_s": "s",
}

LAYERS = ["eer", "embed", "ann", "merge", "prune", "eval"]
SPARK_UNITS = {"jobs": "count", "tasks": "count", "task_s": "s", "shuffle_write_bytes": "bytes",
               "shuffle_read_bytes": "bytes", "failed_tasks": "count"}
PER_LAYER = dict(
    [("trace.run_s", "s"), ("trace.total_s", "s"), ("trace.overhead_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("eer.select_s", "s"), ("eer.attrs_scored", "count"), ("eer.sample_rows", "count"),
       ("embed.explode_s", "s"), ("embed.weights_s", "s"), ("embed.vectors_s", "s"), ("embed.keys_s", "s"),
       ("embed.features", "count"), ("embed.distinct_features", "count"), ("embed.keys_per_entity", "keys/entity"),
       ("ann.mutual_pairs_s", "s"), ("ann.candidate_pairs", "count"), ("ann.mutual_pairs", "count"),
       ("ann.pair_yield", "ratio"), ("ann.max_bucket", "count")]
    + [(f"merge.level{i}_s", "s") for i in range(1, 4)]
    + [("merge.two_table_s", "s"), ("merge.merges", "count"), ("merge.items_in", "count"),
       ("merge.matched_items", "count"), ("merge.passthrough_items", "count"), ("merge.level_overlap", "ratio"),
       ("prune.s", "s"), ("prune.tuples_in", "count"), ("prune.pair_rows", "count"), ("prune.core", "count"),
       ("prune.reachable", "count"), ("prune.outlier", "count"), ("prune.tuples_out", "count"),
       ("eval.s", "s")]
    + [(f"{layer}.spark.{k}", u) for layer in LAYERS for k, u in SPARK_UNITS.items()]
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp(out_dir):
    """Digest of every file the build reads and of where it reads and writes
    them, so a changed source or another checkout rebuilds."""
    h = hashlib.sha256()
    h.update(f"{ROOT}\n{out_dir}\n".encode())
    tops = [PROGRAM_SRC, os.path.join(HERE, "src", "main"), os.path.join(HERE, "build.sbt"),
            os.path.join(HERE, "project", "build.properties")]
    for top in tops:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build(out_dir):
    """Compile with sbt, into `out_dir/sbt-target`, once per source state;
    returns the runtime classpath."""
    cp_file = os.path.join(out_dir, "classpath.txt")
    stamp_file = os.path.join(out_dir, "stamp.txt")
    stamp = source_stamp(out_dir)
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f, open(cp_file) as g:
            same, classpath = f.read() == stamp, g.read()
        if same and all(os.path.exists(e) for e in classpath.split(os.pathsep)):
            return classpath
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dperfbench.target={os.path.join(out_dir, 'sbt-target')}", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = [ln.strip() for ln in p.stdout.splitlines() if ln.strip()]
    cps = [ln for ln in lines if os.pathsep in ln and ln.endswith((".jar", "classes"))]
    if p.returncode != 0 or not cps:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed")
    os.makedirs(out_dir, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cps[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cps[-1]


def check(res, refs, seed):
    """Problems with a run's outputs, against the recorded reference for its
    seed when there is one (the leading hex digits of the SHA-256 of the sorted
    tuple set, and both F1 scores), else against an F1 floor: ten points below
    the lowest recorded score."""
    problems = list(res["errors"])
    ref = refs.get(str(seed))
    if ref is not None:
        if not res["digest"].startswith(ref["digest"]):
            problems.append(f"tuple digest {res['digest']} != recorded {ref['digest']}")
        for k in ("tuple_f1", "pair_f1"):
            if abs(res[k] - ref[k]) > 1e-9:
                problems.append(f"{k} {res[k]} != recorded {ref[k]}")
    else:
        for k in ("tuple_f1", "pair_f1"):
            floor = math.floor(min(r[k] for r in refs.values()) - 10)
            if res[k] < floor:
                problems.append(f"{k} {res[k]} below floor {floor}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isdir(PROGRAM_SRC):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SRC, os.getcwd())}; run from a checkout root")
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
    w = workloads[args.workload]

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    classpath = build(out_dir)
    built = time.monotonic()

    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    out_file = os.path.join(out_dir, f"result-{os.getpid()}.json")
    if os.path.exists(out_file):
        os.remove(out_file)
    kv = {"dataset": w["dataset"], "scale": w["scale"], "seed": args.seed, "m": w["m"], "eps": w["eps"],
          "gamma": w["gamma"], "sample_ratio": w["sample_ratio"], "exact": str(w["exact"]).lower(),
          "parallel": str(w["parallel"]).lower(), "seconds": args.seconds, "trace": args.trace,
          "out": out_file}
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-cp", classpath, "perfbench.Main"]
    cmd += [str(x) for k, v in kv.items() for x in (k, v)]
    left = DEADLINE_S - (time.monotonic() - built)
    jvm_start = time.monotonic()
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=left)
    except subprocess.TimeoutExpired:
        fail("benchmark JVM timed out")  # subprocess.run kills and reaps it
    if p.returncode != 0 or not os.path.exists(out_file):
        fail(f"benchmark JVM exited with {p.returncode}")
    jvm_s = time.monotonic() - jvm_start
    with open(out_file) as f:
        res = json.load(f)
    os.remove(out_file)

    # A run whose tuples differ from the recorded reference makes every run
    # of the process wrong, as all of them reproduce the same tuples.
    problems = check(res, w["reference"], args.seed)
    failed = res["attempted"] if len(problems) > len(res["errors"]) else res["failed"]
    runs = res["run_s"]
    if not runs or (args.trace and res["trace"] is None):
        problems.append("no run completed")

    run_s = statistics.median(runs) if runs else math.nan
    if args.trace:
        t = dict(res["trace"] or {})
        t["trace.run_s"] = run_s
        t["trace.overhead_s"] = t.get("trace.total_s", math.nan) - run_s
        values = {k: t.get(k, math.nan) for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = {"run_s": run_s, "entities_per_s": res["entities"] / run_s, "tuple_f1": res["tuple_f1"],
                  "pair_f1": res["pair_f1"], "setup_s": res["setup_s"]}
        units = END_TO_END
    missing = [k for k, v in values.items() if v is None or not math.isfinite(v)]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
        values.update({k: 0.0 for k in missing})
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} {res['dataset']} entities={res['entities']} "
          f"selected={','.join(res['selected'])} tuples={res['tuples']} digest={res['digest'][:16]} "
          f"runs={len(runs)} traced_runs={res['traced_runs']} run_s_all={','.join(f'{x:.3f}' for x in runs)} "
          f"setup: spark={res['spark_start_s']:.2f}s gen={statistics.median(res['gen_s']):.2f}s "
          f"cold={res['cold_s']:.2f}s eval={res['eval_s']:.2f}s bench={res['bench_s']:.2f}s "
          f"build={built - started:.1f}s jvm={jvm_s:.1f}s wall={time.monotonic() - started:.1f}s")
    for k, v in values.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"], "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))


if __name__ == "__main__":
    main()
