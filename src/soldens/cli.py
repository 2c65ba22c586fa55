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
import contextlib
import csv
import dataclasses
import io
import json
import random
import shutil
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
from .errors import BAD_INPUT, EXIT_CODES, INVARIANT_FAILURE, SIZE_GUARD, SoldensError, reading


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


def _form(obj):
    """json.dumps's hook for a value it cannot print: Fraction as "p/q", sets as sorted
    lists, Enum by value, a dataclass by its _WIRE_FORMS entry or else field by field,
    anything else by repr. It goes one level deep; json.dumps walks what it returns.
    Every dict key of a payload is a str: json.dumps sorts int keys by number and
    prints a bool key as true."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, Enum):
        return obj.value
    form = _WIRE_FORMS.get(type(obj))
    if form is not None:
        return form(obj)
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return repr(obj)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, default=_form)


def emit(payload):
    """Print payload as one JSON line; an int too long to print is refused before printing."""
    try:
        text = dumps(payload)
    except ValueError as e:
        raise SoldensError(f"result too large to print: {e}", kind=SIZE_GUARD) from None
    print(text)


def _arg(what, convert):
    """An argparse type that returns convert(text): the one refusal rule for argv values.
    A ValueError or ZeroDivisionError raised by convert refuses the value as
    "'<text>' is not <what>", which argparse prints on stderr before it exits 2."""
    def parse(text):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}") from None
    return parse


def _positive(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _target(text):
    """A conjugation target, tail:N or mod:R/M."""
    kind, _, arg = text.partition(":")
    if kind == "tail":
        return pm.tail(int(arg))
    if kind != "mod":
        raise ValueError(f"unknown target kind {kind!r}")
    r, m = arg.split("/")
    return pm.residue_class(int(r), int(m))


def _read(path):
    """The text of a file named on the command line; an unreadable one is bad input."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SoldensError(f"cannot read {path}: {e}", kind=BAD_INPUT) from None


def cmd_group(args):
    g = gr.build_group(args.spec)
    if not args.validate:
        return 0, g
    bad = gr.validate_table([list(row) for row in g.table])
    return 0, {"group": g, "valid": bad is None, "violation": str(bad) if bad else None}


def cmd_measure(args):
    g = gr.build_group(args.group)
    if args.kind == "uniform":
        return 0, ms.uniform_on(gr.subset(g, args.set))
    if args.kind == "haar":
        return 0, ms.haar_uniform(g)
    if len(args.set) != 1:
        raise SoldensError("dirac takes exactly one index", kind=BAD_INPUT)
    (x,) = gr.subset(g, args.set)
    return 0, ms.dirac(x, g)


def cmd_density(args):
    g = gr.build_group(args.group)
    a = gr.subset(g, args.set)
    kind = dn.DensityKind(args.kind)
    if args.mode == "exact":
        return 0, {"value": dn.density_closed_form(g, a, kind)}
    value, witness = dn.density_bruteforce(g, a, kind)
    closed = dn.density_closed_form(g, a, kind)
    if value != closed:
        return EXIT_CODES[INVARIANT_FAILURE], {
            "error": "brute force disagrees with the closed form", "kind": INVARIANT_FAILURE,
            "brute": value, "closed": closed, "witness": witness}
    return 0, {"value": value, "witness": witness}


def cmd_game(args):
    if args.what == "solve":
        text = sys.stdin.read() if args.file == "-" else _read(args.file)
        return 0, gm.solve_game(gm.MatrixGame.from_json(text))
    if args.group is None:
        raise SoldensError(f"game {args.what} needs --group", kind=BAD_INPUT)
    g = gr.build_group(args.group)
    a = gr.subset(g, args.set)
    if args.what == "sigma-r":
        value, minimax, maximin = gm.sigma_R_via_game(g, a)
        return 0, {"value": value, "minimax": minimax, "maximin": maximin}
    if args.what == "sigma":
        return 0, {"value": gm.sigma_via_game(g, a)}
    shape, result = gm.eval_extremal(gm.ExtremalPattern.parse(args.pattern), g, a)
    return 0, {"pattern": args.pattern, shape: result}  # shape is "exact" or "interval"


def cmd_zline(args):
    if args.what == "primes":
        rows = zl.primes_bound_table(args.kmax, args.horizon)
        if not args.csv:
            return 0, {"rows": rows}
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["k", "n_k", "phi", "bound_num", "bound_den", "empirical_max"])
        for r in rows:
            w.writerow([r["k"], r["n_k"], r["phi"],
                        r["bound"].numerator, r["bound"].denominator, r["empirical_max"]])
        return 0, buf.getvalue()
    a = zl.zset(args.m, args.residues, add=args.add, remove=args.remove)
    if args.what == "ip":
        return 0, zl.ip_witness_search(a, args.k, args.bound)
    if args.what == "dstar":
        return 0, {"dstar": zl.dstar(a)}
    if args.what == "delta":
        eps = args.eps if args.eps is not None else zl.dstar(a)
        return 0, {"eps": eps, "delta": zl.delta_eps(a, eps)}
    if args.what == "classify":
        return 0, zl.classify(a)
    if args.what == "ergodic":
        return 0, zl.ergodic_sup_check(a)
    return 0, zl.jin_witness(a, zl.zset(args.bm, args.bresidues))


def cmd_words(args):
    return 0, wd.fgroup_nonsubadditivity_certificate(args.n, check_len=args.check_len)


def cmd_perms(args):
    perms = [pm.FinSuppPermutation.from_json(t) for t in args.perm]
    return 0, pm.conjugation_witness(perms, args.target)


def cmd_partitions(args):
    g = gr.build_group(args.group)
    if args.what == "verify":
        fn = pt.verify_thm139 if args.theorem == "13.9" else pt.verify_thm137
        return 0, fn(g, args.cells)
    if args.what == "odd":
        return 0, pt.odd_group_check(g)
    if args.what == "protasov":
        hit = pt.protasov_search(g, args.cells)
        return (EXIT_CODES[INVARIANT_FAILURE] if hit else 0), {"counterexample": hit}
    if args.what == "cov":
        value, f = pt.cov(g, gr.subset(g, args.set))
        return 0, {"cov": value, "f": f}
    value, e = pt.pack(g, gr.subset(g, args.set))
    return 0, {"pack": value, "e": e}


# ---------------------------------------------------------------------------
# invariant battery


def _catalog(max_order):
    specs = [f"cyclic:{n}" for n in range(2, 9)]
    specs += ["s3", "d4", "cyclic:2*cyclic:2", "cyclic:2*cyclic:4", "cyclic:2*cyclic:2*cyclic:2"]
    return [g for g in map(gr.build_group, specs) if g.order <= max_order]


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
    return (0 if ok else EXIT_CODES[INVARIANT_FAILURE]), {"seed": args.seed, "max_order": args.max_order, "checks": checks, "pass": ok}


def cmd_suite(args):
    text = _read(args.config)
    with reading("suite config"):
        config = json.loads(text)
        commands = [(entry.get("id", i), entry["argv"])
                    for i, entry in enumerate(config.get("commands", []))]
    if not all(isinstance(argv, list) and all(isinstance(a, str) for a in argv)
               for _, argv in commands):
        raise SoldensError("suite argv must be lists of strings", kind=BAD_INPUT)
    if any(argv[:1] == ["suite"] for _, argv in commands):
        raise SoldensError("a suite entry cannot run suite", kind=BAD_INPUT)
    results = []
    for ident, argv in commands:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = run(argv)
        results.append({"id": ident, "argv": argv, "code": code, "output": buf.getvalue().strip()})
    worst = max((r["code"] for r in results), default=0)
    return worst, {"suite": config.get("name", args.config), "seed": config.get("seed"),
                   "results": results, "pass": worst == 0}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that formats its usage line once per terminal width."""
    _usages = {}  # (parser, columns) -> usage line

    def format_usage(self):
        key = (self, shutil.get_terminal_size().columns)  # read per call, as argparse reads it
        if key not in self._usages:
            self._usages[key] = super().format_usage()
        return self._usages[key]


_parser = None
_commands = {}  # subcommand name -> its own parser, filled by build_parser


def build_parser():
    """The CLI's argparse parser, built on the first call and shared by every later
    one. Its subcommand parsers, of the same class, are kept by name in _commands."""
    global _parser
    if _parser is not None:
        return _parser
    p = _Parser(prog="soldens", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    ints = _arg("a list of integers", lambda text: [int(t) for t in text.replace(",", " ").split()])
    positive = _arg("a positive integer", _positive)
    integer = _arg("an integer", int)

    def command(name, fn, summary):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        return sp

    g = command("group", cmd_group, "build or validate a group table")
    g.add_argument("--spec", required=True)
    g.add_argument("--validate", action="store_true")

    m = command("measure", cmd_measure, "construct a measure")
    m.add_argument("kind", choices=["uniform", "dirac", "haar"])
    m.add_argument("--group", required=True)
    m.add_argument("--set", type=ints, default="")

    d = command("density", cmd_density, "density of a subset")
    d.add_argument("mode", choices=["exact", "brute"])
    d.add_argument("--group", required=True)
    d.add_argument("--set", type=ints, required=True)
    d.add_argument("--kind", default="sigma", choices=[k.value for k in dn.ALL_KINDS])

    ga = command("game", cmd_game, "matrix games and density games")
    ga.add_argument("what", choices=["solve", "sigma-r", "sigma", "extremal"])
    ga.add_argument("--file", default="-")
    ga.add_argument("--group")
    ga.add_argument("--set", type=ints, default="")
    ga.add_argument("--pattern", default="is12")

    z = command("zline", cmd_zline, "eventually periodic integer sets")
    z.add_argument("what", choices=["dstar", "delta", "classify", "ergodic", "jin", "primes", "ip"])
    z.add_argument("--m", type=integer, default=1)
    z.add_argument("--residues", type=ints, default="")
    z.add_argument("--add", type=ints, default="")
    z.add_argument("--remove", type=ints, default="")
    z.add_argument("--eps", type=_arg("a fraction", gm.rational))
    z.add_argument("--bm", type=integer, default=1)
    z.add_argument("--bresidues", type=ints, default="")
    z.add_argument("--kmax", type=integer, default=6)
    z.add_argument("--horizon", type=integer, default=10 ** 6)
    z.add_argument("--csv", action="store_true")
    z.add_argument("--k", type=integer, default=3)
    z.add_argument("--bound", type=integer, default=100)

    w = command("words", cmd_words, "free-group certificates")
    w.add_argument("action", choices=["fgroup-cert"])
    w.add_argument("--n", type=positive, default=4)
    w.add_argument("--check-len", type=positive, default=8, dest="check_len")

    pe = command("perms", cmd_perms, "finitely supported permutations")
    pe.add_argument("action", choices=["conjugate-witness"])
    pe.add_argument("--perm", action="append", required=True,
                    help='cycle JSON, e.g. {"cycles": [[1, 2]]}; repeatable')
    pe.add_argument("--target", type=_arg("tail:N or mod:R/M", _target), required=True,
                    help="tail:N or mod:R/M")

    pa = command("partitions", cmd_partitions, "covering and partition theorems")
    pa.add_argument("what", choices=["verify", "odd", "protasov", "cov", "pack"])
    pa.add_argument("--group", required=True)
    pa.add_argument("--cells", type=positive, default=2)
    pa.add_argument("--theorem", default="13.7", choices=["13.7", "13.9"])
    pa.add_argument("--set", type=ints, default="")

    s = command("suite", cmd_suite, "run a JSON experiment suite")
    s.add_argument("config")

    v = command("verify-all", cmd_verify_all, "run the invariant battery")
    v.add_argument("--max-order", type=integer, default=8, dest="max_order")
    v.add_argument("--seed", type=integer, default=0)

    _commands.update(sub.choices)
    _parser = p
    return p


def run(argv):
    """Parse argv once, by the parser of the subcommand it names, else by the top-level
    parser; run its handler and print its result (a str as it is, anything else as one
    JSON line through emit) or its error: the one writer to stdout. Returns the exit code."""
    parser = build_parser()
    command = _commands.get(argv[0]) if argv else None
    try:
        args, extra = (parser.parse_known_args(argv) if command is None
                       else command.parse_known_args(argv[1:]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        code, payload = args.fn(args)
        if isinstance(payload, str):
            sys.stdout.write(payload)
        else:
            emit(payload)
        return code
    except (ValueError, AssertionError) as e:  # a bare assert is an invariant check
        kind = e.kind if isinstance(e, SoldensError) else INVARIANT_FAILURE
        emit({"error": str(e), "kind": kind})
        return EXIT_CODES[kind]


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
