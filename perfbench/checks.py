"""Output checks that do not come from the code under test.

Each item's output goes through an independent check first (values
recomputed from the group table, |A| and |G|, primorials, permutation
supports, ...). Whatever certified output is left (witnesses, strategies,
tie-broken choices) is reduced to a canonical JSON payload whose digest must
match `reference.json`, which was frozen from the seed commit.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
DIGEST_CHARS = 12


class CheckFailed(Exception):
    pass


def need(cond, why):
    if not cond:
        raise CheckFailed(why)


def canon(x):
    """Canonical JSON-able form of a soldens result, by value only."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(canon(v) for v in x)
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    kind = type(x).__name__
    if kind == "FinSuppMeasure":
        return canon(x.entries)
    if kind == "GameSolution":
        return canon([x.value, x.row_strategy, x.col_strategy])
    if kind == "BoundCertificate":
        return canon([x.kind.value, x.direction, x.bound, x.witness, x.scope, x.verified_sup])
    if kind == "ZSet":
        return canon([x.m, x.residues, x.add, x.remove])
    if kind == "FinSuppPermutation":
        return canon(x.mapping)
    if kind == "ReducedWord":
        return x.letters
    if kind == "PartitionVerdict":
        return canon([x.group_label, x.cells_max, x.bound, x.passed, x.partitions_checked,
                      x.worst_partition, x.worst_best_cov])
    raise TypeError(f"no canonical form for {kind}")


def digest(payload):
    text = json.dumps(canon(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def load_reference():
    with open(REFERENCE) as fh:
        data = json.load(fh)
    need(data["digest_chars"] == DIGEST_CHARS, "reference digest width changed")
    return data["pools"]


def compare(reference, pool, index, payload):
    table = reference.get(pool)
    need(table is not None, f"no frozen reference for pool {pool}")
    want = table[index * DIGEST_CHARS:(index + 1) * DIGEST_CHARS]
    need(len(want) == DIGEST_CHARS, f"no frozen reference for {pool}[{index}]")
    need(digest(payload) == want, f"output differs from the frozen reference at {pool}[{index}]")


# -- independent recomputations on the group table --------------------------


def density(group, members):
    return Fraction(len(members), group.order)


def left_translates(table, members):
    return [frozenset(table[x][g] for g in members) for x in range(len(table))]


def is_subgroup(table, members):
    m = set(members)
    return 0 in m and all(table[a][b] in m for a in m for b in m)


def difference(table, members):
    inv = {g: next(h for h in range(len(table)) if table[g][h] == 0) for g in range(len(table))}
    return {table[a][inv[b]] for a in members for b in members}


def element_orders_odd(table):
    for g in range(len(table)):
        k, x = 1, g
        while x != 0:
            x, k = table[x][g], k + 1
        if k % 2 == 0:
            return False
    return True


def stirling_upto(n, k):
    """Number of partitions of an n-set into at most k nonempty cells."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row)


def primorials(k_max):
    primes = [p for p in range(2, 30) if all(p % q for q in range(2, p))][:k_max]
    rows, n, phi = [], 1, 1
    for p in primes:
        n, phi = n * p, phi * (p - 1)
        rows.append((n, phi))
    return rows


def reduce_letters(text):
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    out = []
    for c in text:
        if out and inv[out[-1]] == c:
            out.pop()
        else:
            out.append(c)
    return "".join(out)
