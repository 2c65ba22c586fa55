"""Command-line driver.

Exit codes: 0 ok; otherwise the kind of the SoldensError raised, through
errors.EXIT_CODES: 1 invariant-failure (a certificate or re-verification
failed; the counterexample is serialized on stdout), 2 bad-input (malformed,
unknown, out-of-range or empty values), 3 size-guard (a well-formed value
above an enforced cap). Errors print {"error": ..., "kind": ...} on stdout,
except that argparse rejects unparsable arguments with exit 2 and an empty
stdout. A bare ValueError or AssertionError counts as an invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import random
import sys
from enum import Enum
from fractions import Fraction

from . import densities as dn
from . import games as gm
from . import groups as gr
from . import measures as ms
from . import partitions as pt
from . import perms as pm
from . import words as wd
from . import zline as zl
from .errors import BAD_INPUT, EXIT_CODES, INVARIANT_FAILURE, SoldensError


# Printed forms of the types whose output is not their dataclass fields.
_WIRE_FORMS = {
    gr.Group: lambda g: {"order": g.order, "table": [v for row in g.table for v in row], "label": g.label},
    ms.FinSuppMeasure: lambda mu: {"carrier": mu.carrier.label if mu.carrier else None, "entries": mu.entries},
    pm.FinSuppPermutation: lambda f: {"cycles": f.cycles()},
    pt.PartitionVerdict: lambda v: {
        "group": v.group_label, "n": v.cells_max, "bound": v.bound, "pass": v.passed,
        "checked": v.partitions_checked, "worst_partition": v.worst_partition,
        "worst_best_cov": v.worst_best_cov},
}


def jsonable(obj):
    """The JSON value printed for obj: Fraction as "p/q", sets as sorted lists, Enum by
    value, a dataclass by its _WIRE_FORMS entry or else field by field."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else list(obj)
        return [jsonable(v) for v in seq]
    if isinstance(obj, Enum):
        return obj.value
    form = _WIRE_FORMS.get(type(obj))
    if form is not None:
        return jsonable(form(obj))
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return repr(obj)


def dumps(obj):
    return json.dumps(jsonable(obj), sort_keys=True)


def emit(payload):
    print(dumps(payload))


def _parse_set(text):
    """argparse type for comma- or space-separated integers."""
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of integers") from None


def _fraction(text):
    """argparse type for an exact rational p/q."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction") from None


def _target(text):
    """argparse type for a conjugation target: tail:N or mod:R/M."""
    kind, _, arg = text.partition(":")
    try:
        if kind == "tail":
            return pm.tail(int(arg))
        if kind == "mod":
            r, m = arg.split("/")
            return pm.residue_class(int(r), int(m))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not tail:N or mod:R/M")


def _read(path):
    """The text of a file named on the command line; an unreadable one is bad input."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SoldensError(f"cannot read {path}: {e}", kind=BAD_INPUT) from None


def cmd_group(args):
    g = gr.build_group(args.spec)
    if args.validate:
        bad = gr.validate_table([list(row) for row in g.table])
        emit({"group": g, "valid": bad is None, "violation": str(bad) if bad else None})
    else:
        emit(g)
    return 0


def cmd_measure(args):
    g = gr.build_group(args.group)
    if args.kind == "uniform":
        mu = ms.uniform_on(gr.subset(g, args.set))
    elif args.kind == "dirac":
        if len(args.set) != 1:
            raise ms.MeasureError("dirac takes exactly one index", kind=BAD_INPUT)
        (x,) = gr.subset(g, args.set)
        mu = ms.dirac(x, g)
    else:
        mu = ms.haar_uniform(g)
    emit(mu)
    return 0


def cmd_density(args):
    g = gr.build_group(args.group)
    a = gr.subset(g, args.set)
    kind = dn.DensityKind(args.kind)
    if args.mode == "exact":
        emit({"value": dn.density_closed_form(g, a, kind)})
    else:
        value, witness = dn.density_bruteforce(g, a, kind)
        closed = dn.density_closed_form(g, a, kind)
        if value != closed:
            emit({"error": "brute force disagrees with the closed form", "kind": INVARIANT_FAILURE,
                  "brute": value, "closed": closed, "witness": witness})
            return EXIT_CODES[INVARIANT_FAILURE]
        emit({"value": value, "witness": witness})
    return 0


def cmd_game(args):
    if args.what == "solve":
        text = sys.stdin.read() if args.file == "-" else _read(args.file)
        emit(gm.solve_game(gm.MatrixGame.from_json(text)))
        return 0
    if args.group is None:
        raise gm.GameError(f"game {args.what} needs --group", kind=BAD_INPUT)
    g = gr.build_group(args.group)
    a = gr.subset(g, args.set)
    if args.what == "sigma-r":
        value, minimax, maximin = gm.sigma_R_via_game(g, a)
        emit({"value": value, "minimax": minimax, "maximin": maximin})
        return 0
    if args.what == "sigma":
        emit({"value": gm.sigma_via_game(g, a)})
        return 0
    shape, result = gm.eval_extremal(gm.ExtremalPattern.parse(args.pattern), g, a)
    if shape == "exact":
        emit({"pattern": args.pattern, "exact": result})
    else:
        emit({"pattern": args.pattern, "interval": list(result)})
    return 0


def cmd_zline(args):
    if args.what == "primes":
        rows = zl.primes_bound_table(args.kmax, args.horizon)
        if args.csv:
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["k", "n_k", "phi", "bound_num", "bound_den", "empirical_max"])
            for r in rows:
                w.writerow([r["k"], r["n_k"], r["phi"],
                            r["bound"].numerator, r["bound"].denominator, r["empirical_max"]])
            sys.stdout.write(buf.getvalue())
        else:
            emit({"rows": rows})
        return 0
    a = zl.zset(args.m, args.residues, add=args.add, remove=args.remove)
    if args.what == "ip":
        emit(zl.ip_witness_search(a, args.k, args.bound))
    elif args.what == "dstar":
        emit({"dstar": zl.dstar(a)})
    elif args.what == "delta":
        eps = args.eps if args.eps is not None else zl.dstar(a)
        emit({"eps": eps, "delta": zl.delta_eps(a, eps)})
    elif args.what == "classify":
        emit(zl.classify(a))
    elif args.what == "ergodic":
        emit(zl.ergodic_sup_check(a))
    else:
        emit(zl.jin_witness(a, zl.zset(args.bm, args.bresidues)))
    return 0


def cmd_words(args):
    report = wd.fgroup_nonsubadditivity_certificate(args.n, check_len=args.check_len)
    emit(report)
    return 0


def cmd_perms(args):
    perms = [pm.FinSuppPermutation.from_json(t) for t in args.perm]
    emit(pm.conjugation_witness(perms, args.target))
    return 0


def cmd_partitions(args):
    g = gr.build_group(args.group)
    if args.what == "verify":
        fn = pt.verify_thm139 if args.theorem == "13.9" else pt.verify_thm137
        emit(fn(g, args.cells))
    elif args.what == "odd":
        emit(pt.odd_group_check(g))
    elif args.what == "protasov":
        hit = pt.protasov_search(g, args.cells)
        emit({"counterexample": hit})
        return 1 if hit else 0
    elif args.what == "cov":
        value, f = pt.cov(g, gr.subset(g, args.set))
        emit({"cov": value, "f": f})
    else:
        value, e = pt.pack(g, gr.subset(g, args.set))
        emit({"pack": value, "e": e})
    return 0


# ---------------------------------------------------------------------------
# invariant battery


def _catalog(max_order):
    groups = [gr.cyclic(n) for n in range(2, 9)]
    groups += [gr.symmetric(3), gr.dihedral(4)]
    groups += [
        gr.direct_product(gr.cyclic(2), gr.cyclic(2)),
        gr.direct_product(gr.cyclic(2), gr.cyclic(4)),
        gr.direct_product(gr.cyclic(2), gr.direct_product(gr.cyclic(2), gr.cyclic(2))),
    ]
    return [g for g in groups if g.order <= max_order]


def _random_measure(rng, g):
    support = rng.sample(range(g.order), rng.randint(1, g.order))
    weights = [rng.randint(1, 5) for _ in support]
    total = sum(weights)
    return ms.measure(g, {p: Fraction(w, total) for p, w in zip(support, weights)})


def _random_subset(rng, g, allow_empty=False):
    lo = 0 if allow_empty else 1
    return gr.subset(g, rng.sample(range(g.order), rng.randint(lo, g.order)))


def verify_all(max_order=8, seed=0, trials=5):
    """The exact invariant battery; returns a list of named check results. A
    failed check is reported, not raised (the caller picks the exit code).
    max_order below 2 is refused: the catalog would be empty and every check
    would pass vacuously."""
    if max_order < 2:
        raise SoldensError(f"max_order {max_order} is below 2, the smallest catalog order",
                           kind=BAD_INPUT)
    rng = random.Random(seed)
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except Exception as e:  # report, never crash the battery
            checks.append({"name": name, "ok": False, "detail": f"{type(e).__name__}: {e}"})

    groups = _catalog(max_order)

    def conv_assoc():
        for g in groups:
            for _ in range(trials):
                m1, m2, m3 = (_random_measure(rng, g) for _ in range(3))
                left = ms.convolve(ms.convolve(m1, m2), m3)
                right = ms.convolve(m1, ms.convolve(m2, m3))
                assert left == right, f"associativity broke on {g.label}"

    def absorption():
        for g in groups:
            haar = ms.haar_uniform(g)
            for _ in range(trials):
                mu = _random_measure(rng, g)
                assert ms.convolve(haar, mu) == haar, f"left absorption broke on {g.label}"
                assert ms.convolve(mu, haar) == haar, f"right absorption broke on {g.label}"

    def pushforward_invariance():
        for g in groups:
            haar = ms.haar_uniform(g)
            for x in g.elements():
                n = gr.subgroup_generated(g, gr.subset(g, [x]))
                if not gr.is_normal(g, n) or len(n) == g.order:
                    continue
                hom = gr.quotient_map(g, n)
                assert ms.pushforward(hom, haar) == ms.haar_uniform(hom.target)
                for _ in range(trials):
                    b = _random_subset(rng, hom.target, allow_empty=True)
                    pre = hom.preimage(b)
                    assert dn.density_closed_form(g, pre) == dn.density_closed_form(hom.target, b), \
                        f"quotient density broke on {g.label}"

    def translate_invariance():
        for g in groups:
            for _ in range(trials):
                a = _random_subset(rng, g, allow_empty=True)
                x, y = rng.randrange(g.order), rng.randrange(g.order)
                moved = gr.translate(g, a, x, y)
                assert dn.density_closed_form(g, moved) == dn.density_closed_form(g, a)

    def subadditivity():
        for g in groups:
            for _ in range(trials):
                a = _random_subset(rng, g, allow_empty=True)
                b = _random_subset(rng, g, allow_empty=True)
                lhs = dn.density_closed_form(g, a.union(b))
                assert lhs <= dn.density_closed_form(g, a) + dn.density_closed_form(g, b)

    def translate_blowup():
        # density of FA never beats |F| times the density of A
        for g in groups:
            for _ in range(trials):
                a = _random_subset(rng, g)
                f = _random_subset(rng, g)
                fa = gr.product_set(g, f, a)
                assert dn.density_closed_form(g, fa) <= len(f) * dn.density_closed_form(g, a)

    def mirror():
        for g in groups:
            for _ in range(trials):
                a = _random_subset(rng, g, allow_empty=True)
                inv = gr.invert_set(g, a)
                assert dn.density_closed_form(g, inv) == dn.density_closed_form(g, a)
                if g.order <= 6 and a.mask:
                    va, _, _ = gm.sigma_R_via_game(g, a)
                    vi, _, _ = gm.sigma_R_via_game(g, inv)
                    assert va == vi, f"inversion broke the game value on {g.label}"

    check("convolution-associativity", conv_assoc)
    check("uniform-absorption", absorption)
    check("pushforward-invariance", pushforward_invariance)
    check("translate-invariance", translate_invariance)
    check("sigma-subadditivity", subadditivity)
    check("translate-blowup-bound", translate_blowup)
    check("inversion-mirror", mirror)
    return checks


def cmd_verify_all(args):
    checks = verify_all(max_order=args.max_order, seed=args.seed)
    ok = all(c["ok"] for c in checks)
    emit({"seed": args.seed, "max_order": args.max_order, "checks": checks, "pass": ok})
    return 0 if ok else 1


def cmd_suite(args):
    text = _read(args.config)
    try:
        config = json.loads(text)
        commands = [(entry.get("id", i), entry["argv"])
                    for i, entry in enumerate(config.get("commands", []))]
    except (ValueError, TypeError, KeyError, AttributeError) as e:
        raise SoldensError(f"malformed suite config: {e!r}", kind=BAD_INPUT) from None
    if not all(isinstance(argv, list) and all(isinstance(a, str) for a in argv)
               for _, argv in commands):
        raise SoldensError("suite argv must be lists of strings", kind=BAD_INPUT)
    if any(argv[:1] == ["suite"] for _, argv in commands):
        raise SoldensError("a suite entry cannot run suite", kind=BAD_INPUT)
    results = []
    worst = 0
    for ident, argv in commands:
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            code = run(argv)
        finally:
            sys.stdout = old
        results.append({"id": ident, "argv": argv, "code": code,
                        "output": buf.getvalue().strip()})
        worst = max(worst, code)
    emit({"suite": config.get("name", args.config), "seed": config.get("seed"),
          "results": results, "pass": worst == 0})
    return worst


def _positive_int(text):
    """argparse type for counts that must be >= 1; anything else exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="soldens", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("group", help="build or validate a group table")
    g.add_argument("--spec", required=True)
    g.add_argument("--validate", action="store_true")
    g.set_defaults(fn=cmd_group)

    m = sub.add_parser("measure", help="construct a measure")
    m.add_argument("kind", choices=["uniform", "dirac", "haar"])
    m.add_argument("--group", required=True)
    m.add_argument("--set", type=_parse_set, default="")
    m.set_defaults(fn=cmd_measure)

    d = sub.add_parser("density", help="density of a subset")
    d.add_argument("mode", choices=["exact", "brute"])
    d.add_argument("--group", required=True)
    d.add_argument("--set", type=_parse_set, required=True)
    d.add_argument("--kind", default="sigma", choices=[k.value for k in dn.ALL_KINDS])
    d.set_defaults(fn=cmd_density)

    ga = sub.add_parser("game", help="matrix games and density games")
    ga.add_argument("what", choices=["solve", "sigma-r", "sigma", "extremal"])
    ga.add_argument("--file", default="-")
    ga.add_argument("--group")
    ga.add_argument("--set", type=_parse_set, default="")
    ga.add_argument("--pattern", default="is12")
    ga.set_defaults(fn=cmd_game)

    z = sub.add_parser("zline", help="eventually periodic integer sets")
    z.add_argument("what", choices=["dstar", "delta", "classify", "ergodic", "jin", "primes", "ip"])
    z.add_argument("--m", type=int, default=1)
    z.add_argument("--residues", type=_parse_set, default="")
    z.add_argument("--add", type=_parse_set, default="")
    z.add_argument("--remove", type=_parse_set, default="")
    z.add_argument("--eps", type=_fraction)
    z.add_argument("--bm", type=int, default=1)
    z.add_argument("--bresidues", type=_parse_set, default="")
    z.add_argument("--kmax", type=int, default=6)
    z.add_argument("--horizon", type=int, default=10 ** 6)
    z.add_argument("--csv", action="store_true")
    z.add_argument("--k", type=int, default=3)
    z.add_argument("--bound", type=int, default=100)
    z.set_defaults(fn=cmd_zline)

    w = sub.add_parser("words", help="free-group certificates")
    w.add_argument("action", choices=["fgroup-cert"])
    w.add_argument("--n", type=_positive_int, default=4)
    w.add_argument("--check-len", type=_positive_int, default=8, dest="check_len")
    w.set_defaults(fn=cmd_words)

    pe = sub.add_parser("perms", help="finitely supported permutations")
    pe.add_argument("action", choices=["conjugate-witness"])
    pe.add_argument("--perm", action="append", required=True,
                    help='cycle JSON, e.g. {"cycles": [[1, 2]]}; repeatable')
    pe.add_argument("--target", type=_target, required=True, help="tail:N or mod:R/M")
    pe.set_defaults(fn=cmd_perms)

    pa = sub.add_parser("partitions", help="covering and partition theorems")
    pa.add_argument("what", choices=["verify", "odd", "protasov", "cov", "pack"])
    pa.add_argument("--group", required=True)
    pa.add_argument("--cells", type=_positive_int, default=2)
    pa.add_argument("--theorem", default="13.7", choices=["13.7", "13.9"])
    pa.add_argument("--set", type=_parse_set, default="")
    pa.set_defaults(fn=cmd_partitions)

    s = sub.add_parser("suite", help="run a JSON experiment suite")
    s.add_argument("config")
    s.set_defaults(fn=cmd_suite)

    v = sub.add_parser("verify-all", help="run the invariant battery")
    v.add_argument("--max-order", type=int, default=8, dest="max_order")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify_all)

    return p


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except SoldensError as e:
        error, kind = e, e.kind
    except (ValueError, AssertionError) as e:  # a bare assert is an invariant check
        error, kind = e, INVARIANT_FAILURE
    emit({"error": str(error), "kind": kind})
    return EXIT_CODES[kind]


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
