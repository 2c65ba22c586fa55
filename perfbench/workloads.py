"""The four seeded workloads.

A workload is a list of pools with a per-pass count each. A pool is a fixed,
seed-independent list of candidate inputs to one soldens call, plus the check
for its output; `reference.json` holds the frozen digest of every candidate
whose output is not fully checked independently. The seed only chooses which
candidates fill each pool's share of a pass (balanced over size classes, so
every pass of every seed does a comparable amount of work) and the order of
the items. Pools of the heaviest items are taken whole, so the tail of a pass
is the same items for every seed. The program only ever receives the
generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks as ck
from checks import need

CATALOG8 = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "cyclic:7", "cyclic:8",
            "s3", "d4", "cyclic:2*cyclic:2", "cyclic:2*cyclic:4", "cyclic:2*cyclic:2*cyclic:2")
SEARCH_EXTRA = ("cyclic:9", "cyclic:10", "cyclic:11", "cyclic:12", "dihedral:6")

EXACT2 = ("is12", "si12", "is21", "si21", "iS12", "Is12", "sI21", "Si12")
EXACT3 = ("iss213", "iss123", "ssi123", "sii123", "iis123", "Ssi231", "ssI132")
INTERVAL3 = ("sis123", "isi132", "sis213")


@dataclass
class Pool:
    name: str
    kind: str
    inputs: list
    call: Callable  # input -> output; calls the program
    check: Callable  # (input, output) -> payload for the frozen digest, or None
    size_class: Callable | None = None
    span: str | None = None  # a span the benchmark opens around each call
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    why: str
    specs: tuple  # groups built during set-up
    module: str  # the module imported during set-up
    build: Callable  # (modules, groups) -> [(Pool, count per pass)]


def subset_candidates(n, per_size, tag):
    """Nonempty proper subsets of range(n): all of each size when there are
    at most per_size of them, else a fixed sample."""
    out = []
    for size in range(1, n):
        if math.comb(n, size) <= per_size:
            out.extend(itertools.combinations(range(n), size))
            continue
        rng = random.Random(f"{tag}/{size}")
        seen = set()
        while len(seen) < per_size:
            seen.add(tuple(sorted(rng.sample(range(n), size))))
        out.extend(sorted(seen))
    return out


def pick(pool, count, rng):
    """count candidate indices, spread evenly over the pool's size classes."""
    classes = {}
    for i, inp in enumerate(pool.inputs):
        classes.setdefault(pool.size_class(inp) if pool.size_class else 0, []).append(i)
    keys = sorted(classes)
    wanted = {}
    for j in range(count):
        key = keys[(2 * j + 1) * len(keys) // (2 * count)] if count <= len(keys) else keys[j % len(keys)]
        wanted[key] = wanted.get(key, 0) + 1
    out = []
    for key, k in wanted.items():
        members = classes[key]
        out.extend(rng.sample(members, min(k, len(members))))
        out.extend(rng.choice(members) for _ in range(k - len(members)))
    return out


def make_items(mix, seed):
    rng = random.Random(seed)
    items = [(pool, i) for pool, count in mix for i in pick(pool, count, rng)]
    rng.shuffle(items)
    return items


# -- lp-sweep ------------------------------------------------------------------


def lp_sweep(M, groups):
    gm, gr = M.games, M.groups
    mix = []
    for spec, g in groups.items():
        n = g.order
        subsets = [gr.subset(g, s) for s in subset_candidates(n, 24, spec)]
        d = {len(a): Fraction(len(a), n) for a in subsets}

        def sigma_r(a, out, g=g):
            value, minimax, maximin = out
            need(value == minimax.value == maximin.value == ck.density(g, a.members),
                 "game value differs from |A|/|G|")
            return [minimax, maximin]

        def extremal_check(inp, out, d=d):
            p, a = inp
            if p in INTERVAL3:
                shape, (lo, hi) = out
                need(shape == "interval" and lo <= d[len(a)] <= hi, "interval misses |A|/|G|")
                return [lo, hi]
            need(out == ("exact", d[len(a)]), "extremal value differs from |A|/|G|")

        def extremal(inp, g=g):
            return gm.eval_extremal(gm.ExtremalPattern.parse(inp[0]), g, inp[1])

        # Every pattern runs on one fixed subset of each group, as in a full
        # extremal sweep. The subset is not seeded: these items repeat each
        # other's LP work and their cost depends on the labelling (Bland's
        # rule), so a seeded subset would move the median and the tail of a
        # pass from seed to seed.
        middle = next(a for a in subsets if len(a) == n // 2)
        patterns = EXACT2 + (EXACT3 + INTERVAL3 if n <= 6 else ())
        mix += [
            (Pool(f"sigma_r/{spec}", "sigma_r", subsets,
                  lambda a, g=g: gm.sigma_R_via_game(g, a), sigma_r, len), n - 1),
            (Pool(f"intersection/{spec}", "intersection",
                  [(a, ck.left_translates(g.table, a.members)) for a in subsets],
                  lambda inp: gm.intersection_number(inp[1]),
                  lambda inp, out, d=d: need(out == d[len(inp[0])], "intersection number differs"),
                  lambda inp: len(inp[0])), n - 1),
            (Pool(f"extremal/{spec}", "extremal", [(p, middle) for p in patterns],
                  extremal, extremal_check), len(patterns)),
        ]
    return mix


# -- search-sweep ----------------------------------------------------------------


# The partition scans are the heaviest items; they are fixed, and the seeded
# items stay well below them, so the tail of a pass is the same for every seed.
THM137 = (("cyclic:8", 3), ("d4", 3), ("cyclic:2*cyclic:4", 2), ("cyclic:2*cyclic:2*cyclic:2", 2),
          ("cyclic:7", 3), ("cyclic:6", 4), ("s3", 4), ("cyclic:5", 4))
THM139 = (("cyclic:2*cyclic:2*cyclic:2", 3), ("d4", 2), ("cyclic:7", 2), ("cyclic:6", 3), ("s3", 2))
PROTASOV = (("cyclic:6", 3), ("s3", 3), ("cyclic:7", 2), ("cyclic:2*cyclic:2", 4))
PROP122 = ("cyclic:6", "s3", "cyclic:8")
COVPACK = ("cyclic:8", "d4", "cyclic:2*cyclic:4", "cyclic:2*cyclic:2*cyclic:2",
           "cyclic:9", "cyclic:10", "cyclic:12", "dihedral:6")
ODD = ("cyclic:3", "cyclic:5", "cyclic:7", "cyclic:9", "cyclic:11",
       "cyclic:6", "s3", "d4", "cyclic:8", "cyclic:10", "cyclic:12")
DENSITY = ("cyclic:5", "cyclic:6", "s3", "cyclic:7")
DIFFPOW = ("cyclic:6", "s3", "cyclic:8", "d4", "cyclic:9", "cyclic:10", "cyclic:12", "dihedral:6")


def thm139_bound(n):
    return max(sum(k ** i for i in range(n - k + 1)) for k in range(1, n + 1))


def search_sweep(M, groups):
    pt, gr, dn = M.partitions, M.groups, M.densities

    def verdict(bound_of):
        def check(inp, v):
            spec, n = inp
            order = groups[spec].order
            cells = v.worst_partition
            need(v.passed and v.cells_max == n and v.bound == bound_of(n), "verdict bound wrong")
            need(v.partitions_checked == ck.stirling_upto(order, n), "partition count wrong")
            need(sorted(x for c in cells for x in c) == list(range(order)) and len(cells) <= n,
                 "worst partition is not a partition")
            need(v.worst_best_cov <= v.bound, "worst cell exceeds the bound")
            return v
        return check

    def prop122(spec, rep):
        n = groups[spec].order
        need(rep["checked"] == 2 ** n - 1, "prop 12.2 skipped subsets")
        for a, c, p, cap in rep["tight"]:
            need(c <= p == cap == n // len(a), "tight entry breaks cov <= pack = |G|/|A|")
        return rep["tight"]

    def cov(g):
        def check(a, out):
            value, f = out
            need(len(f) == value and {g.table[x][y] for x in f for y in a.members} == set(g.elements()),
                 "cov witness F does not satisfy F A = G")
            return f
        return check

    def pack(g):
        def check(a, out):
            value, e = out
            translates = [frozenset(g.table[x][y] for y in a.members) for x in e]
            need(len(e) == value and len(frozenset().union(*translates)) == len(a) * value,
                 "pack witness translates are not pairwise disjoint")
            return e
        return check

    def odd(spec, rep):
        g = groups[spec]
        need(rep["odd"] == ck.element_orders_odd(g.table) == rep["property_holds"],
             "oddness verdict wrong")
        if rep["witness"] is not None:
            a, b = rep["witness"]
            full = set(g.elements())
            need(sorted(a + b) == sorted(full), "odd witness is not a 2-partition")
            need(ck.difference(g.table, a) != full and ck.difference(g.table, b) != full,
                 "odd witness has a full difference set")
        return rep["witness"]

    def diffpow(g):
        def check(inp, out):
            a, n = inp
            d, exponent, index = out
            need(ck.is_subgroup(g.table, d.members) and ck.difference(g.table, a.members) <= d.members,
                 "difference power is not a subgroup containing A A^-1")
            need(index == g.order // len(d) <= n and exponent <= 4 ** (n - 1), "index or exponent wrong")
            return [d.members, exponent]
        return check

    def density_check(g):
        def check(inp, out):
            kind, a = inp
            value, witness = out
            need(value == ck.density(g, a.members), "brute-force density differs from |A|/|G|")
            return witness
        return check

    def cert_check(g):
        def check(inp, cert):
            a, f = inp
            t = g.table
            sup = max(sum(1 for q in a.members if t[t[x][q]][y] in f)
                      for x in g.elements() for y in g.elements())
            need(cert.bound == cert.verified_sup == Fraction(sup, len(f)),
                 "certificate supremum differs from the recomputed one")
        return check

    fixed = lambda inp: inp  # one size class per candidate: every candidate, every pass
    mix = [
        (Pool("thm137", "scan", list(THM137), lambda inp: pt.verify_thm137(groups[inp[0]], inp[1]),
              verdict(lambda n: n), fixed), len(THM137)),
        (Pool("thm139", "scan", list(THM139), lambda inp: pt.verify_thm139(groups[inp[0]], inp[1]),
              verdict(thm139_bound), fixed), len(THM139)),
        (Pool("protasov", "scan", list(PROTASOV), lambda inp: pt.protasov_search(groups[inp[0]], inp[1]),
              lambda inp, out: need(out is None, "protasov search reported a counterexample"), fixed),
         len(PROTASOV)),
        (Pool("prop122", "prop122", list(PROP122), lambda spec: pt.verify_prop122(groups[spec]),
              prop122, fixed), len(PROP122)),
        (Pool("odd", "odd", list(ODD), lambda spec: pt.odd_group_check(groups[spec]), odd, fixed),
         len(ODD)),
    ]
    for spec in COVPACK:
        g = groups[spec]
        subsets = [gr.subset(g, s) for s in subset_candidates(g.order, 16, spec)]
        mix += [
            (Pool(f"cov/{spec}", "cov", subsets, lambda a, g=g: pt.cov(g, a), cov(g), len), g.order - 1),
            (Pool(f"pack/{spec}", "pack", subsets, lambda a, g=g: pt.pack(g, a), pack(g), len),
             g.order - 1),
        ]
    for spec in DIFFPOW:
        g = groups[spec]
        inputs = [(gr.subset(g, s), -(-g.order // len(s)))
                  for s in subset_candidates(g.order, 16, spec) if 3 * len(s) >= g.order]
        mix.append((Pool(f"diffpow/{spec}", "diffpow", inputs,
                         lambda inp, g=g: pt.difference_power_subgroup(g, *inp), diffpow(g),
                         lambda inp: len(inp[0])), 4))
    for spec in DENSITY:
        g = groups[spec]
        subsets = subset_candidates(g.order, 12, spec)
        kinds = dn.ALL_KINDS
        inputs = [(kinds[len(s) % len(kinds)], gr.subset(g, s)) for s in subsets]
        mix.append((Pool(f"density/{spec}", "density", inputs,
                         lambda inp, g=g: dn.density_bruteforce(g, inp[1], inp[0]),
                         density_check(g), lambda inp: len(inp[1])), g.order - 1))
        rng = random.Random(f"cert/{spec}")
        inputs = [(gr.subset(g, s), frozenset(rng.sample(range(g.order), rng.randint(1, 3))))
                  for s in subsets]
        mix.append((Pool(f"certificate/{spec}", "certificate", inputs,
                         lambda inp, g=g: dn.certificate_from_witness(g, inp[0], sorted(inp[1])),
                         cert_check(g), lambda inp: len(inp[0])), g.order - 1))
    return mix


# -- enum-sweep ------------------------------------------------------------------


def _zset_params(rng, moduli, patches):
    m = rng.choice(moduli)
    res = sorted(rng.sample(range(m), rng.randint(1, m)))
    pts = rng.sample(range(-2 * m, 3 * m), rng.randint(0, patches))
    return (m, tuple(res), tuple(sorted(p for p in pts if p % m not in res)),
            tuple(sorted(p for p in pts if p % m in res)))


def _member(params, x):
    m, res, add, remove = params
    return x in add or (x % m in res and x not in remove)


def enum_sweep(M, groups):
    wd, zl, pm = M.words, M.zline, M.perms

    def words_check(max_len, out):
        letters = [w.letters for w in out]
        need(len(letters) == 2 * 3 ** max_len - 1, "wrong number of reduced words")
        need(all(ck.reduce_letters(w) == w for w in letters), "a word is not reduced")
        need(all((len(u), u) < (len(v), v) for u, v in zip(letters, letters[1:])),
             "words are not in strict length-lex order")

    def cert_check(inp, rep):
        n, check_len = inp
        for cert in (rep["cert_class_a"], rep["cert_class_b"]):
            need(cert.bound == cert.verified_sup == Fraction(1, n) and cert.scope == "EXACT",
                 "free-group certificate bound wrong")
        need(rep["union_density"] == 1 and rep["subadditivity_gap"] == 1 - Fraction(2, n)
             and rep["max_row_count_checked"] <= 1 and rep["check_len"] == check_len,
             "free-group certificate report wrong")
        return [rep["cert_class_a"], rep["cert_class_b"], rep["max_row_count_checked"]]

    def row_check(inp, out):
        y, n = inp
        want = sum(1 for i in range(1, n + 1) if ck.reduce_letters("b" * i + y.letters)[:1] in ("a", "A"))
        need(out == want, "row count differs from direct reduction")

    def primes_check(inp, rows):
        k, _ = inp
        want = ck.primorials(k)
        need([(r["n_k"], r["phi"]) for r in rows] == want, "primorial or totient wrong")
        for i, r in enumerate(rows, start=1):
            need(r["bound"] == Fraction(i + 2 * r["phi"], r["n_k"]) and r["empirical_max"] <= i + 2 * r["phi"],
                 "primes window bound wrong")
        return [r["empirical_max"] for r in rows]

    rng = random.Random("enum")
    letters = "aAbB"
    words = []
    for i in range(400):
        text = "".join(rng.choice(letters) for _ in range(rng.randint(0, 14)))
        words.append((wd.word(text), 1 + i % 8))

    zsets = [_zset_params(rng, range(2, 13), 3) for _ in range(120)]
    periodic = [_zset_params(rng, (2, 3, 4, 6), 0) for _ in range(60)]
    small = [_zset_params(rng, (2, 3, 4, 6), 2) for _ in range(60)]
    as_zset = {p: zl.zset(p[0], p[1], add=p[2], remove=p[3]) for p in zsets + periodic + small}

    def classify_check(p, out):
        m, res = p[0], p[1]
        need(out["thick"] == (len(res) == m) and out["large"] == bool(res) and out["small"] == (not res),
             "classification wrong")
        return out

    def delta_check(inp, out):
        p, eps = inp
        m, res = p[0], set(p[1])
        good = {x for x in range(m) if Fraction(len(res & {(r + x) % m for r in res}), m) >= eps}
        need(out.m == m and set(out.residues) == good and not out.add and not out.remove,
             "delta_eps residues wrong")

    def jin_check(inp, rep):
        a, b = inp
        limit = math.ceil(1 / (Fraction(len(a[1]), a[0]) * Fraction(len(b[1]), b[0])))
        need(rep["bound"] == limit and len(rep["f"]) <= limit, "jin witness exceeds the bound")
        return rep

    def ip_check(inp, rep):
        p, k, bound = inp
        gens = rep["found"]
        if gens is not None:
            need(len(gens) == k and list(gens) == sorted(set(gens)) and gens[-1] <= bound,
                 "ip generators malformed")
            sums = {sum(c) for r in range(1, k + 1) for c in itertools.combinations(gens, r)}
            need(all(_member(p, s) for s in sums), "an ip subset sum leaves the set")
        return rep

    perm_sets = []
    for _ in range(200):
        perms = []
        for _ in range(rng.randint(1, 4)):
            pts = rng.sample(range(30), rng.randint(2, 5))
            perms.append(dict(zip(pts, pts[1:] + pts[:1])))
        if rng.random() < 0.5:
            target = ("tail", rng.randint(5, 50))
        else:
            m = rng.randint(2, 5)
            target = ("mod", rng.randrange(m), m)
        perm_sets.append(([pm.perm(p) for p in perms], target))

    def conj_call(inp):
        perms, target = inp
        t = pm.tail(target[1]) if target[0] == "tail" else pm.residue_class(target[1], target[2])
        return pm.conjugation_witness(perms, t)

    def conj_check(inp, rep):
        perms, target = inp
        inside = (lambda x: x >= target[1]) if target[0] == "tail" else \
            (lambda x: x % target[2] == target[1])
        f = dict(rep["f"].mapping)
        for s, c in zip(perms, rep["conjugates"]):
            s, c = dict(s.mapping), dict(c.mapping)
            need(all(inside(x) for x in c), "a conjugate's support leaves the target")
            pts = set(s) | set(f) | set(c)
            need(all(c.get(f.get(x, x), f.get(x, x)) == f.get(s.get(x, x), s.get(x, x)) for x in pts),
                 "conjugate is not f s f^-1")
            need(len(c) == len(s), "conjugation changed the support size")
        need(len(rep["conjugates"]) == len(perms), "missing conjugates")
        return rep["f"]

    battery = "zline.battery"
    eps_values = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    fixed = lambda inp: inp
    return [
        (Pool("words", "words", [7, 8, 9], lambda n: wd.all_reduced_words(n), words_check, fixed), 3),
        (Pool("fgroup_cert", "words", [(n, 6) for n in range(2, 9)] + [(n, 5) for n in range(5, 9)],
              lambda inp: wd.fgroup_nonsubadditivity_certificate(*inp), cert_check, fixed), 11),
        (Pool("row_count", "words", words, lambda inp: wd.fgroup_row_count(*inp), row_check,
              lambda inp: (inp[1], len(inp[0]))), 160),
        (Pool("primes", "primes", [(k, 5 * 10 ** 4) for k in range(1, 7)],
              lambda inp: zl.primes_bound_table(*inp), primes_check, fixed), 6),
        (Pool("z_classify", "zline", zsets, lambda p: zl.classify(as_zset[p]), classify_check,
              span=battery), 20),
        (Pool("z_delta", "zline", [(p, e) for p in zsets for e in eps_values],
              lambda inp: zl.delta_eps(as_zset[inp[0]], inp[1]), delta_check, span=battery), 20),
        (Pool("z_sumset", "zline", list(zip(small, reversed(small))),
              lambda inp: zl.sumset(as_zset[inp[0]], as_zset[inp[1]]),
              lambda inp, out: out, span=battery), 20),
        (Pool("z_jin", "zline", list(zip(periodic, reversed(periodic))),
              lambda inp: zl.jin_witness(as_zset[inp[0]], as_zset[inp[1]]), jin_check, span=battery), 20),
        (Pool("z_ip", "zline", [(p, 2 + i % 2, 40) for i, p in enumerate(zsets)],
              lambda inp: zl.ip_witness_search(as_zset[inp[0]], inp[1], inp[2]), ip_check,
              span=battery), 20),
        (Pool("conjugation", "perms", perm_sets, conj_call, conj_check), 40),
    ]


# -- cli-requests ----------------------------------------------------------------


def run_cli(cli, argv):
    """One in-process request: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


# Exit codes from the README contract: 0 ok, 1 invariant or verification
# failure, 2 unknown subcommand or bad arguments, 3 size guard. No request in
# the mix should fail an invariant, so 1 is never expected.
EXIT_OK, EXIT_BAD_INPUT, EXIT_SIZE_GUARD = 0, 2, 3

SMALL = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6", "s3", "cyclic:2*cyclic:2")
ORDER = {"cyclic:2": 2, "cyclic:3": 3, "cyclic:4": 4, "cyclic:5": 5, "cyclic:6": 6, "s3": 6,
         "cyclic:2*cyclic:2": 4, "cyclic:7": 7, "cyclic:8": 8, "d4": 8, "cyclic:2*cyclic:4": 8}


def _sets(spec, per_size):
    return [",".join(map(str, s)) for s in subset_candidates(ORDER[spec], per_size, f"cli/{spec}")]


def cli_requests(M, groups):
    cli = M.cli
    rng = random.Random("cli")

    def family(name, argvs, expected, count, known_defect=None):
        def check(argv, out):
            code, stdout = out
            need(code == expected, f"exit {code}, README contract says {expected}")
            return stdout if expected == EXIT_OK else None
        return (Pool(f"cli/{name}", "cli", [list(a) for a in argvs],
                     lambda argv: run_cli(cli, argv), check, known_defect=known_defect), count)

    specs12 = [f"cyclic:{n}" for n in range(2, 13)] + [f"dihedral:{n}" for n in range(3, 7)] + \
        ["s3", "d4", "cyclic:2*cyclic:3", "cyclic:2*cyclic:4", "cyclic:3*cyclic:3"]
    order5 = [s for s in SMALL if ORDER[s] <= 5]
    order8 = list(SMALL) + ["cyclic:7", "cyclic:8", "d4", "cyclic:2*cyclic:4"]
    kinds = ("sigma", "sigma_l", "sigma_cap_l", "sigma_r", "sigma_cap_r")
    zsets = [_zset_params(rng, range(2, 9), 2) for _ in range(40)]
    periodic = [_zset_params(rng, (2, 3, 4, 6), 0) for _ in range(20)]

    def zargs(p):
        m, res, add, remove = p
        join = lambda xs: ",".join(map(str, xs))
        out = ["--m", str(m), "--residues", join(res)]
        if add:
            out += ["--add=" + join(add)]
        if remove:
            out += ["--remove=" + join(remove)]
        return out

    perms = []
    for _ in range(30):
        argv = ["perms", "conjugate-witness"]
        for _ in range(rng.randint(1, 2)):
            pts = rng.sample(range(12), rng.randint(2, 4))
            argv += ["--perm", json.dumps({"cycles": [pts]})]
        m = rng.randint(2, 4)
        argv += ["--target", f"tail:{rng.randint(3, 20)}" if rng.random() < 0.5 else f"mod:{rng.randrange(m)}/{m}"]
        perms.append(argv)

    ok = [
        ("group", [["group", "--spec", s] + v for s in specs12 for v in ([], ["--validate"])], 20),
        ("measure", [["measure", "uniform", "--group", s, "--set", x] for s in SMALL for x in _sets(s, 3)]
         + [["measure", "haar", "--group", s] for s in specs12], 15),
        ("density-exact", [["density", "exact", "--group", s, "--set", x, "--kind", k]
                           for s in order8 for x in _sets(s, 2) for k in kinds], 25),
        ("density-brute", [["density", "brute", "--group", s, "--set", x, "--kind", k]
                           for s in SMALL for x in _sets(s, 2) for k in kinds], 15),
        ("game-sigma-r", [["game", "sigma-r", "--group", s, "--set", x] for s in order5 for x in _sets(s, 4)], 15),
        ("game-sigma", [["game", "sigma", "--group", s, "--set", x] for s in order5 for x in _sets(s, 4)], 10),
        ("game-extremal", [["game", "extremal", "--pattern", p, "--group", s, "--set", x]
                           for p in EXACT2 for s in order5 for x in _sets(s, 2)], 15),
        ("partitions-cov", [["partitions", w, "--group", s, "--set", x]
                            for w in ("cov", "pack") for s in order8 for x in _sets(s, 3)], 25),
        ("partitions-verify", [["partitions", "verify", "--group", s, "--cells", "2", "--theorem", t]
                               for s in SMALL for t in ("13.7", "13.9")]
         + [["partitions", "odd", "--group", s] for s in SMALL]
         + [["partitions", "protasov", "--group", s, "--cells", "2"] for s in order5], 15),
        ("zline", [["zline", w] + zargs(p) for w in ("dstar", "delta", "classify", "ergodic") for p in zsets]
         + [["zline", "jin"] + zargs(p) + ["--bm", str(q[0]), "--bresidues", ",".join(map(str, q[1]))]
            for p, q in zip(periodic, reversed(periodic))]
         + [["zline", "ip"] + zargs(p) + ["--k", "2", "--bound", "30"] for p in zsets], 30),
        ("primes", [["zline", "primes", "--kmax", str(k), "--horizon", "1000"] + c
                    for k in range(1, 5) for c in ([], ["--csv"])], 5),
        ("words", [["words", "fgroup-cert", "--n", str(n), "--check-len", str(c)]
                   for n in range(1, 5) for c in range(1, 5)], 10),
        ("perms", perms, 15),
        # Fixed and heavier than every seeded request, so that the tail of a
        # pass is the same requests for every seed.
        ("heavy", [["partitions", "verify", "--group", s, "--cells", "2", "--theorem", t]
                   for s in ("cyclic:8", "d4", "cyclic:2*cyclic:4") for t in ("13.7", "13.9")]
         + [["game", "sigma-r", "--group", s, "--set", x] for s in ("cyclic:8", "d4") for x in ("0,1,2", "0,1,3,5")]
         + [["words", "fgroup-cert", "--n", str(n), "--check-len", "5"] for n in (3, 4)], 12),
    ]
    bad_input = [
        ["frobnicate"], [], ["density", "approx", "--group", "s3", "--set", "0"],
        ["density", "exact", "--set", "0"], ["zline", "dstar", "--m", "x"], ["partitions", "cov"],
        ["words", "fgroup-cert", "--n", "two"], ["game", "solve-all"], ["group"],
        ["perms", "conjugate-witness", "--target", "tail:3"],
    ]
    size_guard = [
        ["partitions", "verify", "--group", "cyclic:9", "--cells", "2"],
        ["partitions", "verify", "--group", "cyclic:4", "--cells", "5"],
        ["partitions", "protasov", "--group", "cyclic:4", "--cells", "6"],
        ["zline", "primes", "--kmax", "9"], ["group", "--spec", "cyclic:65"],
        ["partitions", "odd", "--group", "cyclic:17"], ["partitions", "pack", "--group", "cyclic:25", "--set", "0"],
    ]
    defect = "known exit-code defect (ROADMAP item 3)"
    mix = [family(name, argvs, EXIT_OK, count) for name, argvs, count in ok]
    mix += [
        family("bad-input", bad_input, EXIT_BAD_INPUT, 20),
        family("size-guard", size_guard, EXIT_SIZE_GUARD, 14),
        family("defect-capital-pattern",
               [["game", "extremal", "--pattern", p, "--group", s, "--set", "0,1"]
                for p in ("IS12", "SI12", "IS21") for s in ("s3", "cyclic:4", "cyclic:2*cyclic:2")],
               EXIT_BAD_INPUT, 2, defect),
        family("defect-unknown-group",
               [["density", "exact", "--group", s, "--set", "0"] for s in ("foo", "bar", "torus:3", "ring:4")],
               EXIT_BAD_INPUT, 2, defect),
        family("defect-index-range",
               [["density", "exact", "--group", s, "--set", str(ORDER[s] + k)] for s in SMALL for k in (0, 5)],
               EXIT_BAD_INPUT, 2, defect),
    ]
    return mix


WORKLOADS = {
    "lp-sweep": Workload(
        "lp-sweep",
        "simplex and games do almost all the work; mixes LPs that share little work (sigma_R) with "
        "LPs that share a lot (extremal), so kernel speed-ups and caching both show",
        CATALOG8, "soldens", lp_sweep),
    "search-sweep": Workload(
        "search-sweep",
        "partitions branch and bound and groups set algebra dominate and no LP runs; an LP change "
        "should read no change here",
        CATALOG8 + SEARCH_EXTRA, "soldens", search_sweep),
    "enum-sweep": Workload(
        "enum-sweep",
        "words, zline and perms would otherwise never dominate a workload; reduced-word "
        "construction is a named optimisation target",
        (), "soldens", enum_sweep),
    "cli-requests": Workload(
        "cli-requests",
        "closed loop, one client, many tiny in-process cli.run calls with bad-input and size-guard "
        "argv: per-call overhead dominates; process start-up is outside this workload",
        (), "soldens.cli", cli_requests),
}
