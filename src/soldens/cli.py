"""Command-line driver.

Exit codes: 0 ok, 1 invariant/verification failure (the counterexample is
serialized on stdout), 2 unknown subcommand or bad arguments, 3 size guard.
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
    if not text:
        return []
    return [int(t) for t in text.replace(",", " ").split()]


def _zset_from_args(prefix, args):
    get = lambda name: getattr(args, f"{prefix}{name}" if prefix else name)
    return zl.zset(get("m"), _parse_set(get("residues")),
                   add=_parse_set(get("add") or ""), remove=_parse_set(get("remove") or ""))


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
        mu = ms.uniform_on(gr.subset(g, _parse_set(args.set)))
    elif args.kind == "dirac":
        mu = ms.dirac(_parse_set(args.set)[0], g)
    else:
        mu = ms.haar_uniform(g)
    emit(mu)
    return 0


def cmd_density(args):
    g = gr.build_group(args.group)
    a = gr.subset(g, _parse_set(args.set))
    kind = dn.DensityKind(args.kind)
    if args.mode == "exact":
        emit({"value": dn.density_closed_form(g, a, kind)})
    else:
        value, witness = dn.density_bruteforce(g, a, kind)
        closed = dn.density_closed_form(g, a, kind)
        if value != closed:
            emit({"error": "brute force disagrees with the closed form",
                  "brute": value, "closed": closed, "witness": witness})
            return 1
        emit({"value": value, "witness": witness})
    return 0


def cmd_game(args):
    if args.what == "solve":
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
        sol = gm.solve_game(gm.MatrixGame.from_json(text))
        emit(sol)
        return 0
    g = gr.build_group(args.group)
    a = gr.subset(g, _parse_set(args.set))
    if args.what == "sigma-r":
        value, minimax, maximin = gm.sigma_R_via_game(g, a)
        emit({"value": value, "minimax": minimax, "maximin": maximin})
        return 0
    if args.what == "sigma":
        emit({"value": gm.sigma_via_game(g, a)})
        return 0
    if args.what == "extremal":
        shape, result = gm.eval_extremal(gm.ExtremalPattern.parse(args.pattern), g, a)
        if shape == "exact":
            emit({"pattern": args.pattern, "exact": result})
        else:
            emit({"pattern": args.pattern, "interval": list(result)})
        return 0
    raise ValueError(f"unknown game action {args.what}")


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
    if args.what == "ip":
        a = _zset_from_args("", args)
        emit(zl.ip_witness_search(a, args.k, args.bound))
        return 0
    a = _zset_from_args("", args)
    if args.what == "dstar":
        emit({"dstar": zl.dstar(a)})
    elif args.what == "delta":
        eps = Fraction(args.eps) if args.eps is not None else zl.dstar(a)
        emit({"eps": eps, "delta": zl.delta_eps(a, eps)})
    elif args.what == "classify":
        emit(zl.classify(a))
    elif args.what == "ergodic":
        emit(zl.ergodic_sup_check(a))
    elif args.what == "jin":
        b = zl.zset(args.bm, _parse_set(args.bresidues))
        emit(zl.jin_witness(a, b))
    else:
        raise ValueError(f"unknown zline action {args.what}")
    return 0


def cmd_words(args):
    report = wd.fgroup_nonsubadditivity_certificate(args.n, check_len=args.check_len)
    emit(report)
    return 0


def cmd_perms(args):
    perms = [pm.FinSuppPermutation.from_json(t) for t in args.perm]
    if args.target.startswith("tail:"):
        target = pm.tail(int(args.target.split(":")[1]))
    elif args.target.startswith("mod:"):
        r, m = args.target.split(":")[1].split("/")
        target = pm.residue_class(int(r), int(m))
    else:
        raise ValueError(f"unknown target {args.target!r}")
    emit(pm.conjugation_witness(perms, target))
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
        value, f = pt.cov(g, gr.subset(g, _parse_set(args.set)))
        emit({"cov": value, "f": f})
    elif args.what == "pack":
        value, e = pt.pack(g, gr.subset(g, _parse_set(args.set)))
        emit({"pack": value, "e": e})
    else:
        raise ValueError(f"unknown partitions action {args.what}")
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
    """The exact invariant battery; returns a list of named check results and
    raises nothing (failures are reported, the caller picks the exit code)."""
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
                if g.order <= 6 and a.members:
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
    with open(args.config) as fh:
        config = json.load(fh)
    results = []
    worst = 0
    for i, entry in enumerate(config.get("commands", [])):
        argv = entry["argv"]
        buf = io.StringIO()
        old = sys.stdout
        sys.stdout = buf
        try:
            code = run(argv)
        finally:
            sys.stdout = old
        results.append({"id": entry.get("id", i), "argv": argv, "code": code,
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
    m.add_argument("--set", default="")
    m.set_defaults(fn=cmd_measure)

    d = sub.add_parser("density", help="density of a subset")
    d.add_argument("mode", choices=["exact", "brute"])
    d.add_argument("--group", required=True)
    d.add_argument("--set", required=True)
    d.add_argument("--kind", default="sigma", choices=[k.value for k in dn.ALL_KINDS])
    d.set_defaults(fn=cmd_density)

    ga = sub.add_parser("game", help="matrix games and density games")
    ga.add_argument("what", choices=["solve", "sigma-r", "sigma", "extremal"])
    ga.add_argument("--file", default="-")
    ga.add_argument("--group")
    ga.add_argument("--set", default="")
    ga.add_argument("--pattern", default="is12")
    ga.set_defaults(fn=cmd_game)

    z = sub.add_parser("zline", help="eventually periodic integer sets")
    z.add_argument("what", choices=["dstar", "delta", "classify", "ergodic", "jin", "primes", "ip"])
    z.add_argument("--m", type=int, default=1)
    z.add_argument("--residues", default="")
    z.add_argument("--add", default="")
    z.add_argument("--remove", default="")
    z.add_argument("--eps")
    z.add_argument("--bm", type=int, default=1)
    z.add_argument("--bresidues", default="")
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
    pe.add_argument("--target", required=True, help="tail:N or mod:R/M")
    pe.set_defaults(fn=cmd_perms)

    pa = sub.add_parser("partitions", help="covering and partition theorems")
    pa.add_argument("what", choices=["verify", "odd", "protasov", "cov", "pack"])
    pa.add_argument("--group", required=True)
    pa.add_argument("--cells", type=int, default=2)
    pa.add_argument("--theorem", default="13.7", choices=["13.7", "13.9"])
    pa.add_argument("--set", default="")
    pa.set_defaults(fn=cmd_partitions)

    s = sub.add_parser("suite", help="run a JSON experiment suite")
    s.add_argument("config")
    s.set_defaults(fn=cmd_suite)

    v = sub.add_parser("verify-all", help="run the invariant battery")
    v.add_argument("--max-order", type=int, default=8, dest="max_order")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify_all)

    return p


_GUARD_MARKERS = ("cap", "guard", "k_max must", "horizon too small", "must be in 1..")


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except pt.SizeGuardError as e:
        emit({"error": str(e), "kind": "size-guard"})
        return 3
    except (ValueError, AssertionError) as e:
        if any(marker in str(e) for marker in _GUARD_MARKERS):
            emit({"error": str(e), "kind": "size-guard"})
            return 3
        emit({"error": str(e), "kind": "invariant-failure"})
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
