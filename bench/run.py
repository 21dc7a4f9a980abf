"""qzonal benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a source checkout; the engine is imported from ./src.
Each op runs in a fresh worker process (bench/worker.py), so the engine's
memo tables start empty as they do for every ``qz`` invocation.  One client
and one worker at a time: a closed loop.  Ops repeat until ``--seconds`` have
passed; each op's output is checked against golden bytes (or, for the
Macdonald suite, against its identities and golden bytes).

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full record (run environment, every sample) goes to
bench/results/<workload>-seed<N>-trace<T>.json.  Exit status: 0 when every
op passed its check, 1 when one failed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden")
RESULTS = os.path.join(BENCH, "results")

RUN_LIMIT_S = 170          # a run must end well inside the 180 s budget
SETUP_PROBES = 3           # set-up-only workers started before the ops

# The speed of a shared machine switches between states up to half apart,
# within a second and over tens of seconds, for wall and CPU time alike.
# Each worker therefore times a fixed reference loop before its op, every
# 10 ms during it and after it (worker.timed), and every reported time is
# rescaled to reference speed:
#     t_ref = t_measured * mean(CAL_REF_S / reference-loop time)
# For set-up only the samples taken before the op count.  CAL_REF_S is the
# loop's time on the reference machine (2-core x86-64 sandbox, 2.1 GHz,
# Python 3.11.7), so reference seconds read as seconds there.  Measured
# times and every loop time stay in the result file.
CAL_REF_S = 0.00025


def _cli(*argv):
    return {"kind": "cli", "argv": list(argv)}


def _macdonald(n, max_degree):
    return {"kind": "macdonald", "n": n, "max_degree": max_degree}


# The reason for each workload is in bench/README.md.
WORKLOADS = {
    "pfaffian-n8": _cli("pfaffian", "--N", "8", "--verify"),
    "verify-n6-d2": _cli("verify", "--suite", "all", "--N", "6", "--deg", "2"),
    "zonal-2-n4": _cli("zonal", "--mu", "2", "--N", "4", "--compare"),
    "macdonald-n3": _macdonald(3, 4),
    # tiny versions, run by bench/selftest.py
    "smoke-pfaffian-n4": _cli("pfaffian", "--N", "4", "--verify"),
    "smoke-verify-n4": _cli("verify", "--suite", "all", "--N", "4", "--deg", "2"),
    "smoke-zonal-1-n4": _cli("zonal", "--mu", "1", "--N", "4", "--compare"),
    "smoke-macdonald-n2": _macdonald(2, 3),
}
MAIN_WORKLOADS = [w for w in WORKLOADS if not w.startswith("smoke-")]

# name -> (unit, sample key in a worker record); times in reference seconds
END_TO_END = {
    "op_s_p50": ("s", "op_s_ref"),
    "op_cpu_s_p50": ("s", "op_cpu_s_ref"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
    "setup_s": ("s", "setup_s_ref"),
}

PER_LAYER = {
    "coeff.laurent.mul_calls": "count",
    "coeff.laurent.gcd_calls": "count",
    "coeff.laurent.self_s": "s",
    "coeff.qt.gcd_calls": "count",
    "coeff.qt.self_s": "s",
    "qmatrix.mul_calls": "count",
    "qmatrix.insert_table.entries": "count",
    "qmatrix.self_s": "s",
    "uq_action.act_calls": "count",
    "uq_action.atom_table.entries": "count",
    "uq_action.self_s": "s",
    "symplectic.pfaffian_calls": "count",
    "symplectic.self_s": "s",
    "isotypic.unknowns": "count",
    "isotypic.rank": "count",
    "isotypic.blocks": "count",
    "isotypic.largest_block": "count",
    "isotypic.sp_kernel_table.entries": "count",
    "isotypic.self_s": "s",
    "macdonald.d1_calls": "count",
    "macdonald.dr_calls": "count",
    "macdonald.self_s": "s",
    "cli.output_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def golden_sha256(workload):
    """Checksum an op's output must have: the SHA256SUMS entry for the
    workload's golden bytes.  None when the golden file no longer has that
    checksum, so that every op fails."""
    name = f"{workload}.json"
    with open(os.path.join(GOLDEN, "SHA256SUMS")) as fh:
        sums = dict(reversed(line.split()) for line in fh if line.strip())
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    return actual if actual == sums.get(name) else None


def run_worker(spec, *, trace=False, probe=False, timeout=RUN_LIMIT_S):
    """One fresh worker process; returns its record (``ok`` False on any
    exception, nonzero exit or timeout)."""
    spec = dict(spec, trace=trace, probe=probe, t_spawn_ns=time.monotonic_ns())
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec = {"ok": False, "error": "no record"}
    if proc.returncode != 0:
        rec["ok"] = False
        rec.setdefault("error", f"worker exited with {proc.returncode}")
    if not rec["ok"] and proc.stderr:
        rec["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    if rec["ok"]:
        speeds = [CAL_REF_S / c for c in rec["cal_s"]]
        rec["setup_s_ref"] = rec["setup_s"] * statistics.mean(
            speeds[:rec["cal_setup_n"]])
        if "op_s" in rec:
            rec["speed"] = statistics.mean(speeds)
            rec["op_s_ref"] = rec["op_s"] * rec["speed"]
            rec["op_cpu_s_ref"] = rec["op_cpu_s"] * rec["speed"]
    return rec


def check_output(rec, expected_sha):
    if not rec["ok"]:
        return rec
    if expected_sha is None:
        rec["ok"] = False
        rec["error"] = "golden file does not match its SHA256SUMS entry"
    elif rec["output_sha256"] != expected_sha:
        rec["ok"] = False
        rec["error"] = (f"output sha256 {rec['output_sha256']} differs from "
                        f"golden {expected_sha}")
    return rec


def _median(recs, key):
    vals = [r[key] for r in recs if key in r]
    return statistics.median(vals) if vals else None


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the full run record."""
    t_start = time.monotonic()
    expected = golden_sha256(workload)
    spec = dict(WORKLOADS[workload], src=SRC, seed=seed)
    probes = [run_worker(spec, probe=True) for _ in range(SETUP_PROBES)]
    ops = []
    while True:
        traced = trace and len(ops) % 2 == 1
        left = RUN_LIMIT_S - (time.monotonic() - t_start)
        rec = check_output(run_worker(spec, trace=traced, timeout=left), expected)
        rec["traced"] = traced
        ops.append(rec)
        if not rec["ok"]:
            print(f"op {len(ops)} FAILED: {rec.get('error')}", file=sys.stderr)
        elapsed = time.monotonic() - t_start
        if elapsed >= RUN_LIMIT_S - 1 or \
                (elapsed >= seconds and (not trace or len(ops) >= 2)):
            break
    failed = sum(1 for r in ops if not r["ok"])
    plain = [r for r in ops if r["ok"] and not r["traced"]]
    traced_ops = [r for r in ops if r["ok"] and r["traced"]]

    metrics = {}
    if not trace:
        for name, (unit, key) in END_TO_END.items():
            pool = plain + probes if name == "setup_s" else plain
            value = _median(pool, key)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    else:
        metrics, repeat = layer_metrics(traced_ops, plain)
        if not repeat:
            print("warning: layer counts differ between traced ops",
                  file=sys.stderr)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "spec": spec,
        "environment": environment(t_start),
        "wall_s": time.monotonic() - t_start,
        "attempted": len(ops), "failed": failed,
        "samples": {"ops": len(plain), "traced_ops": len(traced_ops),
                    "setups": len(plain) + len(probes)},
        "metrics": metrics, "ops": ops, "probes": probes,
    }


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced ops: counts from the first (they
    must repeat exactly), self times as medians.  Returns (metrics, whether
    every traced op gave the same counts)."""
    metrics = {}
    if not traced:
        return metrics, True
    first = traced[0]["layers"]
    repeat = all({k: v for k, v in r["layers"].items() if not k.endswith("_s")}
                 == {k: v for k, v in first.items() if not k.endswith("_s")}
                 for r in traced)
    for name, unit in PER_LAYER.items():
        if name.endswith("_s"):
            vals = [r["layers"][name] * r["speed"] for r in traced
                    if name in r["layers"]]
            value = statistics.median(vals) if vals else None
        elif name == "trace.overhead_frac":
            t, p = _median(traced, "op_s_ref"), _median(plain, "op_s_ref")
            value = t / p - 1 if t is not None and p else None
        elif name == "cli.output_bytes":
            value = first.get(name, 0)
        else:
            value = first.get(name)
        if value is None:
            print(f"note: {name} is absent in this engine version",
                  file=sys.stderr)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def environment(t_start):
    """What the numbers depend on, so runs from different machines are not
    compared blindly."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        / 2**20,
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
        "started_unix": time.time() - (time.monotonic() - t_start),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git gives None)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def tree_digest(top):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def tail_percentile(vals):
    """(p, value) for the highest percentile above the median, in steps of
    ten, that has at least ten samples beyond it; None if there is none."""
    n = len(vals)
    p = int(10 * (n - 10) / n) * 10 if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(vals, n=10)[p // 10 - 1]


def summary_lines(rec):
    n = rec["samples"]
    yield (f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
           f"{rec['attempted']} ops attempted, {rec['failed']} failed, "
           f"ops_failed_frac={rec['failed'] / rec['attempted']:.3f}, "
           f"{n['ops']} untraced / {n['traced_ops']} traced samples, "
           f"{n['setups']} set-ups, {rec['wall_s']:.1f} s")
    for name, m in rec["metrics"].items():
        yield f"#   {name:36} {m['value']:>14.6g} {m['unit']}"
    plain = [r for r in rec["ops"] if r["ok"] and not r["traced"]]
    tail = tail_percentile([r["op_s_ref"] for r in plain])
    if tail:
        yield (f"#   op_s p{tail[0]} {tail[1]:.6g} s (at least 10 of "
               f"{len(plain)} samples beyond it)")
    if plain:
        yield ("#   measured (not rescaled) medians: "
               f"op {_median(plain, 'op_s'):.4g} s, "
               f"cpu {_median(plain, 'op_cpu_s'):.4g} s, "
               f"set-up {_median(plain + rec['probes'], 'setup_s'):.4g} s, "
               f"speed {_median(plain, 'speed'):.3f} of reference")


def save(rec):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qzonal", "__init__.py")):
        print(f"error: no engine source at {SRC}/qzonal; run from the root of "
              "a qzonal checkout", file=sys.stderr)
        return 2
    names = MAIN_WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        save(rec)
        for line in summary_lines(rec):
            print(line)
        print(json.dumps({"correct": rec["failed"] == 0,
                          "attempted": rec["attempted"],
                          "failed": rec["failed"],
                          "metrics": rec["metrics"]}), flush=True)
        if rec["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
