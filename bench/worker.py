"""Run one benchmark op in a fresh process and print its record as JSON.

Usage: worker.py '<op spec as JSON>'

The spec names the op (a ``qz`` command line, or a Macdonald suite), the
source tree to import ``qzonal`` from, the parent's clock reading when it
started this process, whether to trace, and whether to stop after set-up
(a set-up probe).  The last line of standard output is the record.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback


def _import_engine(src):
    sys.path.insert(0, src)
    import qzonal
    import qzonal.cli
    where = os.path.dirname(os.path.abspath(qzonal.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"qzonal imported from {where}, not from {src}")
    return qzonal


def cli_op(qzonal, spec):
    argv = list(spec["argv"]) + ["--format", "json", "--no-timing"]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qzonal.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"qz exited with {rc}")
        return buf.getvalue().encode()
    return call


def macdonald_op(qzonal, spec):
    """Criterion-7 identities for every partition of at most ``max_degree``
    with at most ``n`` parts, visited in an order shuffled by the seed.

    Returns the P_lambda tables, sorted so the bytes do not depend on the
    order the partitions were visited in.
    """
    from qzonal.coeff import QTPoly, QTRational
    from qzonal.partitions import dominance_lt, partitions
    M = qzonal.macdonald
    n = spec["n"]
    order = [lam for d in range(1, spec["max_degree"] + 1)
             for lam in partitions(d, n)]
    random.Random(spec["seed"]).shuffle(order)
    Q = QTRational.from_poly(QTPoly.gen_q())

    def check(ok, what, lam):
        if not ok:
            raise AssertionError(f"{what} fails for lambda={lam}, n={n}")

    def call():
        tables = {}
        for lam in order:
            img = M.macdonald_d1(M.SymPolynomial.monomial_symmetric(lam, n)).m_basis()
            check(all(nu == lam or dominance_lt(nu, lam) for nu in img),
                  "D_1 triangularity", lam)
            P = M.macdonald_polynomial(lam, n)
            f = M.SymPolynomial.from_m_basis(P, n)
            ev = M.macdonald_eigenvalue(lam, n)
            check((M.macdonald_d1(f) - f.scale(ev)).is_zero(), "D_1 eigenvalue", lam)
            for r in range(n + 1):
                evr = M.elementary_symmetric_eigenvalue(lam, n, r)
                check((M.macdonald_dr(f, r) - f.scale(evr)).is_zero(),
                      f"D_{r} eigenvalue", lam)
            check(M.macdonald_specialize(P, Q, Q) == M.schur_polynomial(lam, n),
                  "Schur specialization t = q", lam)
            check({k: v.invert_parameters() for k, v in P.items()} == P,
                  "parameter inversion", lam)
            tables[",".join(map(str, lam))] = [
                [list(mu), repr(c)] for mu, c in sorted(P.items(), reverse=True)]
        doc = {"n": n, "P": dict(sorted(tables.items()))}
        return (json.dumps(doc, indent=1) + "\n").encode()
    return call


OPS = {"cli": cli_op, "macdonald": macdonald_op}


def _reference_loop():
    """Fixed pure-Python work shaped like the engine's inner loops:
    products of small exponent->integer dicts, keyed into a dict."""
    a = {e: e * e + 1 for e in range(-6, 7)}
    table = {}
    for r in range(10):
        out = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        table[(r, tuple(sorted(out))[:3])] = out
    return table


def _time_reference_loop(samples):
    t0 = time.perf_counter()
    _reference_loop()
    d = time.perf_counter() - t0
    samples.append(d)
    return d


def calibrate(samples, reps=5):
    for _ in range(reps):
        _time_reference_loop(samples)


def timed(call, samples, exclude=None, tick_s=0.01):
    """Run ``call``, timing the reference loop every ``tick_s`` of wall time
    from a SIGALRM handler, so the machine's speed is sampled throughout
    the call.  Returns (result, seconds in the call minus those samples).
    ``exclude`` gets each sample's duration, so a tracer can keep it out
    of the layer it interrupted."""
    def on_tick(signum, frame):
        d = _time_reference_loop(during)
        if exclude is not None:
            exclude(d)

    during = []
    old = signal.signal(signal.SIGALRM, on_tick)
    signal.setitimer(signal.ITIMER_REAL, tick_s, tick_s)
    try:
        t0 = time.perf_counter()
        out = call()
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    samples.extend(during)
    return out, elapsed - sum(during)


def run(spec) -> dict:
    rec = {"ok": False}
    qzonal = _import_engine(spec["src"])
    tracer = None
    if spec.get("trace"):
        from layers import Tracer
        tracer = Tracer()
        tracer.install(qzonal)
    call = OPS[spec["kind"]](qzonal, spec)
    rec["setup_s"] = (time.monotonic_ns() - spec["t_spawn_ns"]) / 1e9
    rec["cal_s"] = []
    calibrate(rec["cal_s"])
    rec["cal_setup_n"] = len(rec["cal_s"])
    if spec.get("probe"):
        rec["ok"] = True
        return rec

    exclude = None
    if tracer is not None:
        call = functools.partial(
            tracer.root, "cli" if spec["kind"] == "cli" else "macdonald", call)
        exclude = tracer.exclude
    cpu0 = time.process_time()
    out, rec["op_s"] = timed(call, rec["cal_s"], exclude)
    rec["op_cpu_s"] = time.process_time() - cpu0 - \
        sum(rec["cal_s"][rec["cal_setup_n"]:])
    calibrate(rec["cal_s"])
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["output_sha256"] = hashlib.sha256(out).hexdigest()
    rec["output_bytes"] = len(out)
    if tracer is not None:
        from layers import table_sizes
        layers = dict(tracer.counts)
        layers.update(table_sizes(qzonal))
        layers.update({f"{k}.self_s": v for k, v in tracer.self_s.items()})
        if spec["kind"] == "cli":
            layers["cli.output_bytes"] = len(out)
        rec["layers"] = layers
    rec["ok"] = True
    return rec


def main():
    spec = json.loads(sys.argv[1])
    try:
        rec = run(spec)
    except Exception as exc:  # reported to the parent, which counts the op failed
        rec = {"ok": False, "error": f"{type(exc).__name__}: {exc}",
               "traceback": traceback.format_exc().splitlines()[-8:]}
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
