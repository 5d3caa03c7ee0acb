"""The three workloads' inputs, made from the seed, with their expected answers.

Every round of a workload runs three parts: the five verify suites, CLI
queries on a ladder of family boundaries, and reads and writes on a corpus
of general graphs.  Each workload runs one part at full
size and the other two small, so that every end-to-end metric is measured on
every workload while each workload still stresses its own layers:

- suites: many small boundaries, the verify suites at FULL_SUITES;
- long-runs: boundaries whose (-2)-runs grow to 10^5, on LONG_LADDER;
- general-graphs: vertex-level graphs with cycles or star centers, on the
  full-size corpus.

The ladder does not depend on the seed: its isomorphism calls fail on every
rung today (see README), and a failing operation must fail the same way on
every seed.  The seed picks the corpus and the threshold-suite sample.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checkers as ck

SUITES = ("fujita", "threshold", "trichotomy", "axioms", "contraction")


def _budget(max_det, max_len, max_n, max_m, max_b_len, max_b_weight) -> dict:
    """The fields of dualgraph.verify.Budget."""
    return dict(max_det=max_det, max_len=max_len, max_n=max_n, max_m=max_m,
                max_b_len=max_b_len, max_b_weight=max_b_weight)


# The suites workload runs every suite at one budget.  Fujita sweeps every
# twig of length <= max_len with weights <= max_b_weight (19,530 here); the
# other suites take twigs by determinant, and no twig of length 6 has a
# determinant <= 6, so max_len=6 adds fujita twigs only.
FULL_SUITES = dict.fromkeys(SUITES, _budget(6, 6, 2, 2, 2, 6))
# Elsewhere each suite gets a budget of its own, sized so that each takes
# 0.1 to 0.3 s: one shared small budget leaves axioms and threshold at a few
# hundredths of a second, too short to time steadily on a shared machine.
SMALL_SUITES = {
    "fujita": _budget(5, 5, 2, 1, 1, 6),
    "threshold": _budget(7, 4, 2, 1, 2, 5),
    "trichotomy": _budget(5, 4, 2, 1, 1, 6),
    "axioms": _budget(7, 4, 2, 1, 2, 6),
    "contraction": _budget(5, 4, 2, 1, 1, 6),
}

A_LADDER, N_LADDER = (1000,), 2  # l_bound 1,998,998; type threshold 2,999
_B, _M = (3,), 1
_T = ck.trivial_threshold(A_LADDER, N_LADDER)
# (family, l, run graph contract): family (3) climbs to 10^5 and stops at
# the type threshold on the way; (4) and (5) stop at 10^3, so that a round
# stays near ten seconds and a run holds three rounds.  contract_all is
# quadratic in l today, so it stops at 10^3 (300 on the short ladder).
LONG_LADDER = (
    [(3, l, l <= 1000) for l in (100, 1000, _T, 10**4, 10**5)]
    + [(f, l, True) for f in (4, 5) for l in (100, 1000)]
)
SHORT_LADDER = [(f, l, l <= 300) for f in (3, 4, 5) for l in (100, 300, 1000)]

# corpus sizes: (star graphs, graphs with cycles, cycle length range)
BIG_CORPUS = (80, 24, (40, 100))
SMALL_CORPUS = (32, 8, (30, 60))

WORKLOADS = {
    "suites": (FULL_SUITES, SHORT_LADDER, SMALL_CORPUS),
    "long-runs": (SMALL_SUITES, LONG_LADDER, SMALL_CORPUS),
    "general-graphs": (SMALL_SUITES, SHORT_LADDER, BIG_CORPUS),
}
THRESHOLD_SAMPLE = 40
ROUND_TRIPS, BLOW_UPS = 6, 24  # edits per corpus graph


def spec_dict(family: int, l: int) -> dict:
    spec = {"family": family, "A": list(A_LADDER), "n": N_LADDER, "l": l}
    if family >= 4:
        spec["b"] = list(_B)
    if family == 5:
        spec["m"] = _M
    return spec


def _family_args(spec: dict):
    return (
        spec["family"], tuple(spec["A"]), spec["n"], spec["l"],
        tuple(spec.get("b", ())), spec.get("m", 0),
    )


# -- suites --------------------------------------------------------------------


def suite_counts(budgets: dict) -> dict:
    """Instance counts of the fujita and threshold suites under their budgets."""
    fb = budgets["fujita"]
    fujita = sum((fb["max_b_weight"] - 1) ** k for k in range(1, fb["max_len"] + 1))
    budget = budgets["threshold"]
    b4 = [b for b in ((3,), (4, 2)) if _b_fits(b, budget)]
    b5 = [b for b in ((3,),) if _b_fits(b, budget)]
    ms = {0, min(1, budget["max_m"])}
    shapes = 1 + len(b4) + len(b5) * len(ms)
    threshold = sum(
        shapes * (ck.l_bound(a, n) + 3)
        for a in ck.admissible_twigs_by_det(budget["max_det"], budget["max_len"])
        for n in range(2, budget["max_n"] + 1)
    )
    return {"fujita": fujita, "threshold": threshold}


def _b_fits(b, budget) -> bool:
    return len(b) <= budget["max_b_len"] and max(b) <= budget["max_b_weight"]


def threshold_sample(budget: dict, rng: random.Random) -> list[dict]:
    """Seeded instances of the threshold stream, each with negdef of the
    boundary minus C decided here by elimination."""
    twigs = ck.admissible_twigs_by_det(budget["max_det"], budget["max_len"])
    out = []
    for _ in range(THRESHOLD_SAMPLE):
        a = rng.choice(twigs)
        n = rng.randint(2, budget["max_n"])
        family = rng.choice((3, 4, 5))
        b = () if family == 3 else (3,)
        m = rng.randint(0, min(1, budget["max_m"])) if family == 5 else 0
        bound = ck.l_bound(a, n)
        l = rng.choice((rng.randint(0, bound + 2), bound, bound + 1))
        weights, edges, c = ck.family_graph(family, a, n, l, b, m)
        negdef, _, _ = ck.eliminate(*ck.minus(weights, edges, c))
        spec = {"family": family, "A": list(a), "n": n, "l": l}
        if family >= 4:
            spec["b"] = list(b)
        if family == 5:
            spec["m"] = m
        out.append({"spec": spec, "negdef": negdef, "within": l <= bound})
    return out


# -- ladder --------------------------------------------------------------------


def ladder(rungs, dgn_dir) -> list[dict]:
    """Rungs with their DGN files written and their expected answers."""
    out = []
    for family, l, contract in rungs:
        spec = spec_dict(family, l)
        args = _family_args(spec)
        weights, edges, c = ck.family_graph(*args)
        path = f"{dgn_dir}/f{family}-l{l}.dgn"
        with open(path, "w") as fh:
            fh.write(ck.to_dgn(weights, edges, c))
        out.append({
            "spec": spec,
            "dgn": path,
            "vertices": ck.family_vertex_count(*args),
            "ktype": ck.expected_ktype(*args[:5]),
            "shape": ck.shape_kinds(weights, edges, c),
            "contract": contract,
            # family classify misreads family (5) DGN files once w's id
            # passes 256 (see CHANGES.md), so only (3) and (4) are asked
            "classify": family != 5,
        })
    return out


def bound_rungs() -> list[dict]:
    """Specs at the run bound and one past it, for the negdef iff check."""
    bound = ck.l_bound(A_LADDER, N_LADDER)
    return [
        {"spec": spec_dict(f, l), "negdef": l <= bound}
        for f in (3, 4, 5)
        for l in (bound, bound + 1)
    ]


# -- corpus --------------------------------------------------------------------


def _random_twig(rng, max_len=4, max_w=6):
    return tuple(rng.randint(2, max_w) for _ in range(rng.randint(1, max_len)))


def _scatter(rng, count: int) -> list[int]:
    """count distinct ids spread over a range ten times wider."""
    return rng.sample(range(1, 10 * count + 1), count)


def _attach_c(rng, g: dict, spots: list[int], c: int) -> None:
    """Mark a new C(-1) next to one of spots.  A spot where the pairing
    would be exactly 1 with fractional coefficients is passed over:
    k_type_report reports that as a defect, and a random graph is no
    boundary."""
    alpha = ck.adjunction(g["weights"], g["edges"])
    fractional = any(a.denominator != 1 for a in alpha.values())
    at = next(v for v in rng.sample(spots, len(spots))
              if alpha[v] != 1 or not fractional)
    g["weights"][c] = -1
    g["edges"].append((at, c))
    g["c"] = c
    g["pairing"] = str(alpha[at])


# The seed shapes the graphs, but not which operations run on them nor the
# sizes that set their cost: the index fixes each graph's size, whether it
# is definite (so solved) and whether it carries C, so every seed does the
# same amount of work.


def star_graph(rng, index: int) -> dict:
    arms = [_random_twig(rng) for _ in range(3 + index % 3)]
    s = sum((ck.inductance(a) for a in arms), Fraction(0))
    # b <= s is not definite (b may be 0 or 1 then), b > s is
    b = int(s) if index % 4 == 3 else max(2, int(s) + 1)
    negdef, det = ck.star_criterion(b, arms)
    ids = _scatter(rng, 2 + sum(map(len, arms)))
    weights = {ids[0]: -b}
    edges = []
    k = 1
    tips = []
    for arm in arms:
        prev = ids[0]
        for a in arm:
            weights[ids[k]] = -a
            edges.append((prev, ids[k]))
            prev = ids[k]
            k += 1
        tips.append(prev)
    g = {
        "kind": "star", "weights": weights, "edges": edges, "c": None,
        "center": ids[0], "negdef": negdef, "det": det,
    }
    if negdef and index % 2 == 0:
        _attach_c(rng, g, tips, ids[k])
    return g


def cycle_graph(rng, index: int, size: int) -> dict:
    ids = _scatter(rng, size + 1)
    ring = ids[:size]
    edges = [(ring[i], ring[(i + 1) % size]) for i in range(size)]
    have = {frozenset(e) for e in edges}
    while len(edges) < size + max(2, size // 10):
        u, v = rng.sample(ring, 2)
        if frozenset((u, v)) not in have:
            have.add(frozenset((u, v)))
            edges.append((u, v))
    deg = {v: 0 for v in ring}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if index % 4 == 3:
        # all -2 on a cycle with chords: the adjacency's top eigenvalue
        # exceeds 2, so the form is indefinite
        weights = {v: -2 for v in ring}
    else:
        # |w| > degree everywhere: strictly dominant, so definite
        weights = {v: -(deg[v] + rng.randint(1, 2)) for v in ring}
    negdef, det, _ = ck.eliminate(weights, edges)
    g = {
        "kind": "cycle", "weights": weights, "edges": edges, "c": None,
        "negdef": negdef, "det": det,
    }
    if negdef and index % 2 == 0:
        _attach_c(rng, g, ring, ids[size])
    return g


def _blow_ups(rng, edges, fresh: int, count: int) -> list[list[int]]:
    """A sequence of edge blow-ups [u, v, new id], each on a current edge."""
    cur = [tuple(e) for e in edges]
    seq = []
    for k in range(count):
        u, v = cur.pop(rng.randrange(len(cur)))
        w = fresh + k
        cur += [(u, w), (v, w)]
        seq.append([u, v, w])
    return seq


def corpus(size, rng) -> list[dict]:
    stars, cycles, (lo, hi) = size
    graphs = [star_graph(rng, i) for i in range(stars)]
    graphs += [
        cycle_graph(rng, i, lo + (hi - lo) * i // max(1, cycles - 1))
        for i in range(cycles)
    ]
    out = []
    for g in graphs:
        weights, edges, c = g["weights"], g["edges"], g["c"]
        off_weights, off_edges = (
            ck.minus(weights, edges, c) if c is not None else (weights, edges)
        )
        fresh = max(weights) + 1
        item = {
            "kind": g["kind"],
            "dgn": ck.to_dgn(weights, edges, c),
            "c": c,
            "weights": [[v, w] for v, w in weights.items()],
            "edges": [list(e) for e in edges],
            "negdef": g["negdef"],
            "det": g["det"],
            "round_trips": [
                list(rng.choice(off_edges)) + [fresh + k] for k in range(ROUND_TRIPS)
            ],
            "blow_ups": _blow_ups(rng, off_edges, fresh, BLOW_UPS),
            "shape": ck.shape_kinds(weights, edges, c),
            "pairing": g.get("pairing"),
        }
        if g["kind"] == "star":
            item["center"] = g["center"]
            # the same graph under shuffled ids, and with one weight moved
            ids = sorted(weights)
            perm = dict(zip(ids, rng.sample(ids, len(ids))))
            item["relabelled"] = ck.to_dgn(weights, edges, c, relabel=perm)
            bumped = dict(weights)
            v = rng.choice([u for u in ids if u != c])
            bumped[v] -= 1
            item["perturbed"] = ck.to_dgn(bumped, edges, c)
        out.append(item)
    return out


def build(workload: str, seed: int, dgn_dir: str) -> dict:
    """All inputs of one run and the answers they must produce."""
    budgets, rungs, corpus_size = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return {
        "workload": workload,
        "budgets": budgets,
        "suite_counts": suite_counts(budgets),
        "threshold_sample": threshold_sample(budgets["threshold"], rng),
        "ladder": ladder(rungs, dgn_dir),
        "bound_rungs": bound_rungs(),
        "corpus": corpus(corpus_size, rng),
    }
