"""Command-line front end.

Verbs: detq, pfaffian, verify, zonal, macdonald, act.  Reports are printed
as text or canonical JSON; exit code 0 means every requested check passed,
1 is a usage error, 2 a verification failure or a problem over the size cap.
A reader that closes standard output early ends the report quietly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from itertools import combinations_with_replacement

from . import __version__
from .cap import ComponentTooLarge, InvalidCap, check_cap
from .coeff import Laurent, QTPoly
from .macdonald import (NoConventionMatches, SingularSubstitution,
                        compare_zonal, macdonald_polynomial,
                        macdonald_specialize)
from .isotypic import (NotOneDimensional, NotRelativeInvariant, SubspaceBasis,
                       graded_bi_invariant_dimension, two_sided_sp_kernel,
                       zonal_vector)
from .partitions import count_partitions, trim
from .qmatrix import QPolynomial, quantum_det
from .symplectic import (bi_invariant_generator, invariance_kernel_check,
                         left_invariant_generator, partial_pfaffian,
                         pfaffian_equals_det, quantum_pfaffian, sp_full_set,
                         sp_generating_set, verify_z_relations, z_generator,
                         z_relation_count)
from .uq_action import LEFT, RIGHT, UqElement, act, gen_e, gen_f, q_weight


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(low, what):
    def parse(text) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what} integer")
        return int(text)
    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _parse_partition(text) -> tuple:
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad partition {text!r}")
    if any(a < 0 for a in parts) or any(a < b for a, b in zip(parts, parts[1:])):
        raise UsageError(f"{text!r} is not a weakly decreasing partition")
    return parts


_ATOM_RE = re.compile(r"([ef])(\d+)|q(½|h)?\[([-\d,\s]*)\]|([vq])\^(-?\d+)|(-?\d+)|(\S)")


def parse_uq_expression(text: str, N: int) -> UqElement:
    """Flat expression language: terms joined by '+'/'-', each term an
    optional scalar prefix (integers, v^k, q^k) followed by atoms e<k>,
    f<k>, q[..] (integer weight) or q½[..]/qh[..] (doubled half-integers),
    composed by juxtaposition.  Every sign must be followed by a term, and
    there must be at least one ("0" is the zero operator)."""
    total = UqElement.zero(N)
    term = UqElement.one(N)
    sign = 1
    seen = False

    def flush():
        nonlocal total, term, seen
        if seen:
            total = total + term.scale(sign)

    pos = 0
    text = text.strip()
    while pos < len(text):
        ch = text[pos]
        if ch.isspace() or ch == "*":
            pos += 1
            continue
        if ch in "+-":
            if not seen:
                # sign of the upcoming term
                if ch == "-":
                    sign = -sign
                pos += 1
                continue
            if _looks_like_term_break(text, pos):
                flush()
                term = UqElement.one(N)
                sign = 1 if ch == "+" else -1
                seen = False
                pos += 1
                continue
        m = _ATOM_RE.match(text, pos)
        if not m:
            raise UsageError(f"cannot parse operator expression at {text[pos:]!r}")
        pos = m.end()
        seen = True
        if m.group(1):
            k = int(m.group(2))
            term = term * (gen_e(N, k) if m.group(1) == "e" else gen_f(N, k))
        elif m.group(4) is not None:
            coords = [int(x) for x in m.group(4).replace(" ", "").split(",") if x]
            if m.group(3) is None:
                coords = [2 * c for c in coords]
            term = term * q_weight(N, coords)
        elif m.group(5):
            e = int(m.group(6))
            if m.group(5) == "q":
                e *= 2
            term = term.scale(Laurent.v_power(e))
        elif m.group(7) is not None:
            term = term.scale(int(m.group(7)))
        else:
            raise UsageError(f"unexpected token {m.group(8)!r}")
    if not seen:
        # "", "+" or a dangling sign after the last term
        raise UsageError(f"operator expression {text!r} ends without a term")
    flush()
    return total


def _looks_like_term_break(text, pos):
    # a +/- between atoms starts a new term; inside a scalar it is a sign
    before = text[:pos].rstrip()
    return bool(before) and (before[-1].isalnum() or before[-1] in "]")


def _parse_qt_value(text: str) -> QTPoly:
    """Monomial values c*q^a*t^b for the macdonald substitutions; a leading
    '-' on a q or t factor is a factor -1."""
    c, exps = 1, {"q": 0, "t": 0}
    for tok in text.replace("*", " ").split():
        m = re.fullmatch(r"(-?)([qt])(?:\^(-?\d+))?", tok)
        if m:
            e = int(m.group(3) or 1)
            if e < 0:
                raise UsageError("negative substitution powers are not supported")
            exps[m.group(2)] += e
            if m.group(1):
                c = -c
        elif re.fullmatch(r"-?\d+", tok):
            c *= int(tok)
        else:
            raise UsageError(f"cannot parse substitution value {text!r}")
    return QTPoly.monomial(exps["q"], exps["t"], c)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _report(verb, inputs, checks, extra=None):
    if not checks:
        raise UsageError("these inputs select no checks")
    obj = {
        "verb": verb,
        "inputs": inputs,
        "engine_version": __version__,
        "pass": all(c.get("pass", True) for c in checks),
        "checks": checks,
    }
    if extra:
        obj.update(extra)
    return obj


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, indent=2))
        return
    print(f"[{obj['verb']}] pass={obj['pass']}")
    for c in obj.get("checks", []):
        status = "ok" if c.get("pass", True) else "FAIL"
        detail = {k: v for k, v in c.items() if k not in ("pass",)}
        print(f"  {status:4} {detail}")
    for key, val in obj.items():
        if key in ("verb", "inputs", "engine_version", "pass", "checks", "timing_ms"):
            continue
        print(f"  {key}: {json.dumps(val)}")
    if "timing_ms" in obj:
        print(f"  timing_ms: {obj['timing_ms']}")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_detq(args):
    # det and Pf have N! terms: refuse a count over the cap before any work
    check_cap(math.factorial(args.N), f"(= {args.N}!) terms")
    d = quantum_det(args.N)
    checks = [{"name": "terms", "value": d.term_count(), "pass": True}]
    return _report("detq", {"N": args.N}, checks, {"polynomial": d.to_json()})


def _cmd_pfaffian(args):
    if args.N % 2:
        raise UsageError("pfaffian needs an even ambient size")
    check_cap(math.factorial(args.N), f"(= {args.N}!) terms")
    if args.verify:
        terms, residual = pfaffian_equals_det(args.N)
        checks = [{"name": "terms", "value": terms, "pass": True},
                  {"name": "pfaffian_equals_det", "residual_terms": residual,
                   "pass": residual == 0}]
        extra = {}
    else:
        p = quantum_pfaffian(args.N)
        checks = [{"name": "terms", "value": p.term_count(), "pass": True}]
        extra = {"polynomial": p.to_json()}
    return _report("pfaffian", {"N": args.N, "verify": args.verify}, checks, extra)


def _invariance_checks(N, deg):
    m = N // 2
    gens = sp_generating_set(N)
    checks = []

    def add(name, idx, poly, side, ops=gens, opset="generating"):
        ok = invariance_kernel_check(poly, side, ops)
        checks.append({"name": name, "indices": list(idx), "side": side,
                       "operators": opset, "pass": ok})

    # products of the two-sided generators up to the degree cap, built before
    # any check runs and checked against the cap as they grow
    prods = []
    for k in range(1, deg // 2 + 1):
        for combo in combinations_with_replacement(range(1, m + 1), k):
            if 2 * sum(combo) <= deg:
                prods.append(combo)
    products = []
    for combo in sorted(prods, key=lambda c: (2 * sum(c), c)):
        poly = QPolynomial.unit(N)
        for r in combo:
            gen = bi_invariant_generator(r, N)
            check_cap(gen.term_count(), "terms of a bi-invariant generator")
            poly = poly * gen
            check_cap(poly.term_count(), "terms of a bi-invariant product")
        products.append((combo, poly))
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            add("z_left", (i, j), z_generator("L", i, j, N), LEFT)
            add("z_right", (i, j), z_generator("R", i, j, N), RIGHT)
    for r in range(1, m + 1):
        if 2 * r <= deg:
            add("paired_minor_row_sum", (r,), left_invariant_generator(r, N), LEFT)
    for combo, poly in products:
        add("bi_invariant_product", combo, poly, LEFT)
        add("bi_invariant_product", combo, poly, RIGHT)
    if N == 4:
        full = sp_full_set(N)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                add("z_left_full_set", (i, j), z_generator("L", i, j, N), LEFT,
                    full, "full")
        for combo, poly in products:
            add("bi_invariant_product_full_set", combo, poly, LEFT, full, "full")
            add("bi_invariant_product_full_set", combo, poly, RIGHT, full, "full")
    # partial pfaffian annihilation
    if N >= 4:
        pf2 = partial_pfaffian(2, N)
        for k in range(1, N):
            checks.append({"name": "partial_pfaffian_f", "indices": [2, k],
                           "side": RIGHT,
                           "pass": act(RIGHT, gen_f(N, k), pf2).is_zero()})
        checks.append({"name": "partial_pfaffian_e1", "indices": [2, 1],
                       "side": RIGHT,
                       "pass": act(RIGHT, gen_e(N, 1), pf2).is_zero()})
    return checks


def _cmd_verify(args):
    if args.N % 2:
        raise UsageError("verification suites need an even ambient size")
    checks = []
    suites = ("relations", "invariance", "dimensions") if args.suite == "all" \
        else (args.suite,)
    if "relations" in suites:
        # both sides' relation instances, refused before any work
        check_cap(2 * z_relation_count(args.N), "relation checks")
    for suite in suites:
        if suite == "relations":
            for side in ("L", "R"):
                for entry in verify_z_relations(side, args.N):
                    entry = dict(entry)
                    entry["name"] = f"relation_{side}"
                    checks.append(entry)
        elif suite == "invariance":
            checks.extend(_invariance_checks(args.N, args.deg))
        elif suite == "dimensions":
            for m in range(1, args.deg // 2 + 1):
                expected = count_partitions(m, args.N // 2)
                got = graded_bi_invariant_dimension(m, args.N)
                checks.append({"name": "bi_invariant_dimension", "m": m,
                               "expected": expected, "computed": got,
                               "pass": expected == got})
            if args.N == 4 and args.deg >= 4:
                kern = two_sided_sp_kernel(4, 2)
                span = SubspaceBasis()
                span.insert(bi_invariant_generator(1, 4).terms)
                checks.append({"name": "kernel_span_degree2",
                               "pass": kern.equals(span)})
                kern = two_sided_sp_kernel(4, 4)
                span = SubspaceBasis()
                e1 = bi_invariant_generator(1, 4)
                span.insert((e1 * e1).terms)
                span.insert(bi_invariant_generator(2, 4).terms)
                checks.append({"name": "kernel_span_degree4",
                               "pass": kern.equals(span)})
        else:
            raise UsageError(f"unknown suite {suite!r}")
    return _report("verify", {"suite": args.suite, "N": args.N, "deg": args.deg},
                   checks)


def _cmd_zonal(args):
    if args.N % 2:
        raise UsageError("zonal extraction needs an even ambient size")
    mu = _parse_partition(args.mu)
    if len(trim(mu)) > args.N // 2:
        raise UsageError("partition is longer than the paired ambient size")
    checks = []
    extra = {}
    zv = zonal_vector(mu, args.N)
    checks.append({"name": "one_dimensional", "pass": True})
    srest = {("s^" + ",".join(map(str, k)) if k else "1"): repr(Laurent(v))
             for k, v in sorted(zv.s_restriction.items(), reverse=True)}
    extra["vector"] = zv.to_json()
    extra["normalization"] = repr(zv.normalization)
    extra["s_restriction"] = srest
    if args.compare:
        report = compare_zonal(zv)
        extra["comparison"] = report["conventions"]
        checks.append({"name": "convention_match",
                       "matching": [e["convention"] for e in report["conventions"]
                                    if e["match"]],
                       "pass": any(e["match"] for e in report["conventions"])})
    return _report("zonal", {"mu": list(mu), "N": args.N,
                             "compare": args.compare}, checks, extra)


def _cmd_macdonald(args):
    lam = _parse_partition(args.lam)
    if len(trim(lam)) > args.n:
        raise UsageError("partition has more parts than variables")
    P = macdonald_polynomial(lam, args.n)
    if args.q_sub or args.t_sub:
        q_to = _parse_qt_value(args.q_sub) if args.q_sub else QTPoly.gen_q()
        t_to = _parse_qt_value(args.t_sub) if args.t_sub else QTPoly.gen_t()
        P = macdonald_specialize(P, q_to, t_to)
    coeffs = [{"lambda": list(k), "value": v.to_json()}
              for k, v in sorted(P.items(), reverse=True)]
    return _report("macdonald",
                   {"lambda": list(lam), "n": args.n,
                    "q": args.q_sub or "q", "t": args.t_sub or "t"},
                   [{"name": "coefficients", "value": len(coeffs), "pass": True}],
                   {"polynomial": {"n": args.n, "basis": "monomial-symmetric",
                                   "coeffs": coeffs}})


def _cmd_act(args):
    try:
        with open(args.input) as fh:
            poly = QPolynomial.from_json(json.load(fh))
        u = parse_uq_expression(args.expr, poly.N)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad act input: {type(exc).__name__}: {exc}")
    result = act(args.side, u, poly)
    obj = _report("act", {"expr": args.expr, "side": args.side,
                          "input": args.input},
                  [{"name": "terms", "value": result.term_count(), "pass": True}],
                  {"polynomial": result.to_json()})
    if args.output:
        try:
            with open(args.output, "w") as fh:
                json.dump(result.to_json(), fh, indent=2)
        except OSError as exc:
            raise UsageError(f"cannot write --output: {type(exc).__name__}: {exc}")
    return obj


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    ap = _Parser(prog="qz", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--no-timing", action="store_true",
                        help="omit timing for byte-identical output")
    sub = ap.add_subparsers(dest="verb", required=True,
                            parser_class=lambda **kw: _Parser(parents=[common], **kw))

    p = sub.add_parser("detq", help="quantum determinant")
    p.add_argument("--N", type=_positive_int, required=True)
    p.set_defaults(fn=_cmd_detq)

    p = sub.add_parser("pfaffian", help="quantum Pfaffian")
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="check Pf = det exactly")
    p.set_defaults(fn=_cmd_pfaffian)

    p = sub.add_parser("verify", help="identity suites")
    p.add_argument("--suite", choices=("relations", "invariance",
                                       "dimensions", "all"), required=True)
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--deg", type=_nonnegative_int, default=4)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("zonal", help="zonal vector extraction")
    p.add_argument("--mu", required=True, help="partition, e.g. 2,1")
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--compare", action="store_true")
    p.set_defaults(fn=_cmd_zonal)

    p = sub.add_parser("macdonald", help="Macdonald polynomial coefficients")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--q", dest="q_sub", default=None,
                   help="substitute the q parameter (e.g. 'q^2')")
    p.add_argument("--t", dest="t_sub", default=None,
                   help="substitute the t parameter (e.g. 'q')")
    p.set_defaults(fn=_cmd_macdonald)

    p = sub.add_parser("act", help="apply an operator expression to a JSON polynomial")
    p.add_argument("--expr", required=True)
    p.add_argument("--side", choices=(LEFT, RIGHT), default=LEFT)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_act)
    return ap


# options whose value may be a signed expression such as -3*t^2 or -e1
_SIGNED_VALUE_OPTIONS = ("--q", "--t", "--expr")


def _attach_signed_values(argv) -> list:
    """Join `--t -3*t^2` into `--t=-3*t^2`: argparse reads a separate value
    that starts with '-' (other than a plain negative number) as an option.
    A value that starts with '--' stays an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = ap.parse_args(_attach_signed_values(argv))
        t0 = time.perf_counter()
        obj = args.fn(args)
        if not args.no_timing:
            obj["timing_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        code = 0 if obj["pass"] else 2
        _emit(obj, args.format)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (UsageError, InvalidCap, SingularSubstitution) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NotOneDimensional, NotRelativeInvariant, NoConventionMatches,
            ComponentTooLarge) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
