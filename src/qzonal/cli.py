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
from itertools import combinations, combinations_with_replacement

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
                         left_invariant_generator, pfaffian_equals_det,
                         quantum_pfaffian, right_invariant_generator,
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


# whitespace matches no token, so finditer skips it
_TOKEN_RE = re.compile(r"([ef])(\d+)|q(½|h)?\[([-\d,\s]*)\]|([vq])\^(-?\d+)"
                       r"|\*\s*(-\d+)|(\d+)|(\S)")
_COORD_RE = re.compile(r"-?\d+")


def parse_uq_expression(text: str, N: int) -> UqElement:
    """Flat expression language: terms joined by '+'/'-', each term an
    optional scalar prefix (integers, v^k, q^k) followed by atoms e<k>,
    f<k>, q[..] (integer weight) or q½[..]/qh[..] (doubled half-integers),
    composed by juxtaposition; a weight's coordinates are comma-separated
    integers.  A sign after a factor starts a new term, one before a term's
    first factor is part of its sign, and after '*' only a '-' directly
    before digits may stand, as their sign.  Every sign must be followed by
    a term, and there must be one ("0" is the zero operator)."""
    text = text.strip()
    total, term = UqElement.zero(N), UqElement.one(N)
    seen = star = False          # the term has a factor; a '*' follows it
    for m in _TOKEN_RE.finditer(text):
        ef, k, half, coords, vq, power, neg, n, tok = m.groups()
        if tok is None:              # a factor
            seen, star = True, False
        if ef:
            term = term * (gen_e if ef == "e" else gen_f)(N, int(k))
        elif coords is not None:
            w = [x.strip() for x in coords.split(",")]
            if not all(_COORD_RE.fullmatch(x) for x in w):
                raise UsageError(f"bad weight {m.group()!r}: "
                                 "coordinates are comma-separated integers")
            w = [int(x) for x in w]
            term = term * q_weight(N, w if half else [2 * c for c in w])
        elif vq:
            term = term.scale(Laurent.v_power(int(power) * (2 if vq == "q" else 1)))
        elif neg or n:
            term = term.scale(int(neg or n))
        elif tok == "*":
            star = True
        elif tok in "+-" and not (seen and star):
            if seen:
                total, term, seen = total + term, UqElement.one(N), False
            if tok == "-":
                term = term.scale(-1)
        else:
            raise UsageError(f"unexpected token {tok!r}")
    if not seen:  # "", "+" or a dangling sign after the last term
        raise UsageError(f"operator expression {text!r} ends without a term")
    return total + term


def _parse_qt_value(text: str) -> QTPoly:
    """Monomial values c*q^a*t^b for the macdonald substitutions; a leading
    '-' on a q or t factor is a factor -1."""
    c, exps = 1, {"q": 0, "t": 0}
    # a blank value is its own one token, which parses as nothing
    for tok in text.replace("*", " ").split() or [text]:
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
    """The invariance suite.  z(1,2) decides every pair i < j on its side:
    sending the rows 1, 2 in order to i, j (the columns, for right z's) is an
    injective algebra map that commutes with the left (right) U_q action and
    sends z(1,2) to a power of v times z(i,j).  At N = 4 the left z's and the
    products are also reported against Noumi's full operator set.  As
    sp_X(2,1) = q^2 sp_X(1,2) for X = e, f, it adds only sp_f(1,2) to his
    generating set, which decides what sp_generating_set decides, so each
    full-set row equals its generating row.

    Product rows read the AND of their factors' rows; no product is formed.
    Lemma: if sp_generating_set kills p and p' on one side, it kills p p'.
    Proof (left; the right mirrors it, letters acting left to right): e_x,
    f_x (x odd) kill p and p', so K_x is 1 on each weight component of both.
    By the coproduct y -> y (x) K_y^-1/2 + K_y^1/2 (x) y, a word acts on p p'
    as a sum over splits of its letters between the factors, each taking its
    letters in order, with K-twists diagonal on weight components.  So
    e_x(p p') = e_x(p) K_x^-1/2(p') + K_x^1/2(p) e_x(p') = 0, and so for f_x.
    In s_i = -e_a e_b e_c - e_c e_b e_a + q^-2 f_c (a = 2i-1, c = 2i, b = 2i+1)
    letters act right to left, and a factor whose first letter is e_a or e_b
    gives 0: in e_c e_b e_a the one taking e_a, in e_a e_b e_c the one
    without e_c unless it takes none.  Only whole words survive, twisted by
    K_a^-1/2 K_b^-1/2 K_c^-1/2 = K_c^-1/2 on p' or K_c^1/2 on p as f_c is:
    s_i(p p') = s_i(p) K_c^-1/2(p') + K_c^1/2(p) s_i(p') = 0.  By induction a
    row whose factors pass passes; a failing row has a failing factor row.

    g_r decides e_r on the left and h_r on the right; no e_r is formed.  As
    e_r = sum_I q^(2|I|) phi_I(g_r), phi_I sending the rows 1..2r in order to
    the rows paired by I, an injective algebra map commuting with the left
    action (which moves and weighs columns only), and the phi_I(X g_r) have
    distinct row weights, X e_r = 0 iff X g_r = 0.  On the right, exchange
    rows and columns and read h_r.
    """
    sides = (LEFT, RIGHT)
    gens = sp_generating_set(N)
    top, half = min(N // 2, deg // 2), deg // 2
    # 2 rows per partition of 1..deg/2 into parts <= N/2, then the generators
    check_cap(2 * count_partitions(half, N // 2, up_to=True) - 2, "bi-invariant product rows")
    one_sided = {(r, side): build(r, N) for r in range(1, top + 1) for side, build in
                 ((LEFT, left_invariant_generator), (RIGHT, right_invariant_generator))}
    z = {side: z_generator(side, 1, 2, N) for side in sides}
    z_pass = {side: invariance_kernel_check(z[side], side, gens) for side in sides}
    e_pass = {(r, s): invariance_kernel_check(p, s, gens) for (r, s), p in one_sided.items()}

    def row(name, idx, side, ok, opset="generating"):
        return {"name": name, "indices": list(idx), "side": side,
                "operators": opset, "pass": ok}

    checks = [row(f"z_{side}", idx, side, z_pass[side])
              for idx in combinations(range(1, N + 1), 2) for side in sides]
    checks += [row("paired_minor_row_sum", (r,), LEFT, e_pass[r, LEFT])
               for r in range(1, top + 1)]
    combos = sorted((c for k in range(1, half + 1) for c in combinations_with_replacement(
        range(1, top + 1), k) if sum(c) <= half), key=lambda c: (sum(c), c))
    checks += [row("bi_invariant_product", combo, side,
                   all(e_pass[r, side] for r in combo))
               for combo in combos for side in sides]
    if N == 4:
        checks += [row(c["name"] + "_full_set", c["indices"], c["side"], c["pass"], "full")
                   for c in checks if c["name"] in ("z_left", "bi_invariant_product")]
    if N >= 4:
        # Pf(2) = z_L(1,2): the one matching (1, 2) has the factor (-q)^0
        pf2 = z[LEFT]
        checks += [{"name": "partial_pfaffian_f", "indices": [2, k], "side": RIGHT,
                    "pass": act(RIGHT, gen_f(N, k), pf2).is_zero()} for k in range(1, N)]
        checks.append({"name": "partial_pfaffian_e1", "indices": [2, 1], "side": RIGHT,
                       "pass": act(RIGHT, gen_e(N, 1), pf2).is_zero()})
    return checks


def _cmd_verify(args):
    if args.N % 2:
        raise UsageError("verification suites need an even ambient size")
    checks = []
    if args.suite in ("relations", "all"):
        # both sides' relation instances, refused before any work
        check_cap(2 * z_relation_count(args.N), "relation checks")
        checks.extend(dict(entry, name=f"relation_{side}")
                      for side in "LR" for entry in verify_z_relations(side, args.N))
    if args.suite in ("invariance", "all"):
        checks.extend(_invariance_checks(args.N, args.deg))
    if args.suite in ("dimensions", "all"):
        for m in range(1, args.deg // 2 + 1):
            expected = count_partitions(m, args.N // 2)
            got = graded_bi_invariant_dimension(m, args.N)
            checks.append({"name": "bi_invariant_dimension", "m": m,
                           "expected": expected, "computed": got,
                           "pass": expected == got})
        if args.N == 4 and args.deg >= 4:
            e1 = bi_invariant_generator(1, 4)
            check_cap((e11 := e1 * e1).term_count(), "terms of a bi-invariant product")
            for d, basis in ((2, [e1]), (4, [e11, bi_invariant_generator(2, 4)])):
                span = SubspaceBasis()
                for poly in basis:
                    span.insert(poly.terms)
                checks.append({"name": f"kernel_span_degree{d}",
                               "pass": two_sided_sp_kernel(4, d).equals(span)})
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
    q_to = QTPoly.gen_q() if args.q_sub is None else _parse_qt_value(args.q_sub)
    t_to = QTPoly.gen_t() if args.t_sub is None else _parse_qt_value(args.t_sub)
    P = macdonald_polynomial(lam, args.n)
    if args.q_sub is not None or args.t_sub is not None:
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
