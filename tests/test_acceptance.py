"""Acceptance gate: eight end-to-end checks, one test per line item.

Each test prints one `ACCEPTANCE <n> PASS - <label>` line on success; a
failing assertion marks the corresponding line item red.  Runtime limits are
wall-clock via time.monotonic, measured around the library call only.
"""

import hashlib
import heapq
import itertools
import json
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import pytest

from dualgraph.canonical import (
    KType,
    c_pairing,
    classify_k_type,
    compute_dnatural,
    k_type_report,
)
from dualgraph.errors import InvalidFamilyParams
from dualgraph.families import (
    FamilyInstance,
    build_family,
    figure1_graph,
    l_bound,
    predicted_k_type,
    trivial_threshold,
)
from dualgraph.graphs import (
    DualGraph,
    chain_graph,
    contract_all,
    is_negative_definite,
    isomorphic,
)
from dualgraph.twigs import adjoint, twig_determinant
from dualgraph.verify import (
    Budget,
    verify_boundary_axioms_suite,
    verify_fujita_suite,
    verify_threshold_suite,
    verify_trichotomy_suite,
)

from oracles import (
    charpoly_negdef,
    dense_adjunction_solve,
    graph_neg_matrix,
    principal_minor_negdef,
)


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} PASS - {label}")


@pytest.fixture(scope="module")
def trichotomy_run():
    t0 = time.monotonic()
    report = verify_trichotomy_suite(Budget())
    return report, time.monotonic() - t0


# -- 1: twig identities ----------------------------------------------------------


def test_acceptance_1_twig_identities_under_ten_seconds():
    t0 = time.monotonic()
    report = verify_fujita_suite(6, 6)
    elapsed = time.monotonic() - t0
    assert report["instances"] == 19530  # sum of 5^k, k = 1..6
    assert report["failures"] == []
    assert report["pass"] is True
    assert elapsed < 10.0, f"fujita suite took {elapsed:.1f}s"
    _passed(1, "twig identities and inductance round-trip")


# -- 2: contractibility threshold --------------------------------------------------


def test_acceptance_2_threshold_iff_under_sixty_seconds():
    t0 = time.monotonic()
    report = verify_threshold_suite(Budget())
    elapsed = time.monotonic() - t0
    assert report["instances"] == 181180
    assert report["failures"] == []
    assert report["pass"] is True
    assert elapsed < 60.0, f"threshold suite took {elapsed:.1f}s"
    _passed(2, "negative definite iff run within bound")


# -- 3: trichotomy agreement -------------------------------------------------------


def test_acceptance_3_trichotomy_agreement(trichotomy_run):
    report, _ = trichotomy_run
    assert report["instances"] > 100000
    assert report["failures"] == []
    assert report["pass"] is True
    sweep = {}
    for l in range(0, 9):
        spec = FamilyInstance(family=3, A=(2,), n=3, l=l)
        g = build_family(spec)
        computed = classify_k_type(g)
        assert predicted_k_type(spec) is computed
        sweep[l] = computed
    assert all(sweep[l] is KType.ANTI_CANONICAL_AMPLE for l in range(0, 7))
    assert sweep[7] is KType.NUMERICALLY_TRIVIAL
    assert sweep[8] is KType.CANONICAL_AMPLE
    _passed(3, "predicted vs computed canonical type")


# -- 4: the numerically trivial boundary shape ---------------------------------------


def _small_twigs(max_det: int, max_len: int):
    out = []

    def rec(prefix):
        if len(prefix) >= max_len:
            return
        for a in range(2, max_det + 1):
            t = prefix + (a,)
            if twig_determinant(t) <= max_det:
                out.append(t)
                rec(t)

    rec(())
    return out


def test_acceptance_4_trivial_instances_are_the_pinned_shape(trichotomy_run):
    budget = Budget()
    count = 0
    for a in _small_twigs(budget.max_det, budget.max_len):
        for n in range(2, budget.max_n + 1):
            for m in range(0, budget.max_m + 1):
                if a == (2,) and m == 0 and n == 2:
                    with pytest.raises(InvalidFamilyParams):
                        figure1_graph(a, m, n)
                    continue
                g = figure1_graph(a, m, n)
                ktype, pairing = k_type_report(g)
                assert pairing == Fraction(1)
                assert ktype is KType.NUMERICALLY_TRIVIAL
                alpha = compute_dnatural(g.minus_c()).coefficients
                assert all(x.denominator == 1 for x in alpha.values())
                count += 1
    assert count == 40 * 4 * 5 - 1
    # the suite checked the converse on its whole stream: every trivial
    # instance matches the pinned shape up to isomorphism
    report, _ = trichotomy_run
    assert report["pass"] is True
    assert isomorphic(
        build_family(FamilyInstance(family=3, A=(2,), n=3, l=7)),
        figure1_graph((2,), 0, 3),
    )
    # threshold coincidence making the excluded case the unique overlap
    assert trivial_threshold((2,), 2) - 1 == 4
    assert l_bound((2,), 2) == 4
    _passed(4, "trivial type pins the boundary shape")


# -- 5: boundary determinant ---------------------------------------------------------


def test_acceptance_5_boundary_determinant_is_minus_one():
    report = verify_boundary_axioms_suite(Budget())
    assert report["instances"] == 84007
    assert report["failures"] == []
    assert report["pass"] is True
    _passed(5, "determinant -1 with sign parity on every instance")


# -- 6: adjoint contraction law --------------------------------------------------------


def _all_twigs_lw(max_len: int, max_weight: int):
    out = []

    def rec(prefix):
        if len(prefix) >= max_len:
            return
        for a in range(2, max_weight + 1):
            t = prefix + (a,)
            out.append(t)
            rec(t)

    rec(())
    return out


def test_acceptance_6_chain_contracts_iff_adjoint_underline():
    a_twigs = _all_twigs_lw(4, 5)
    b_cands = [()] + a_twigs
    assert len(a_twigs) == 340 and len(b_cands) == 341
    runs = 0
    for a in a_twigs:
        target = adjoint(a)[:-1]
        negs_a = [-x for x in a]
        for m in range(2, 6):
            for b in b_cands:
                ws = [-m] + negs_a + [-1] + [-x for x in b]
                h = contract_all(chain_graph(ws))
                ids = h.vertex_ids
                got = (
                    len(ids) == 2
                    and len(h.edges) == 1
                    and (h.weight(ids[0]), h.weight(ids[1])) == (-m, -1)
                )
                assert got == (b == target), (a, m, b)
                runs += 1
    assert runs == 463760
    _passed(6, "contracts to the two-vertex normal form iff B matches")


# -- 7: oracle agreement ----------------------------------------------------------------


def _tree_from_prufer(seq, k):
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = (v for v in range(k) if degree[v] == 1)
    edges.append((u, w))
    return edges


def _ahu_form(edges, k):
    if k == 1:
        return "()"
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = {v: len(adj[v]) for v in range(k)}
    remaining, layer = k, [v for v in range(k) if deg[v] == 1]
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 1:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = layer

    def enc(v, parent):
        return "(" + "".join(sorted(enc(u, v) for u in adj[v] if u != parent)) + ")"

    return min(enc(c, -1) for c in centers)


def _tree_shapes(k):
    if k == 1:
        return [[]]
    if k == 2:
        return [[(0, 1)]]
    seen = {}
    for seq in itertools.product(range(k), repeat=k - 2):
        edges = _tree_from_prufer(seq, k)
        seen.setdefault(_ahu_form(edges, k), edges)
    return [seen[key] for key in sorted(seen)]


_TREE_WEIGHT_RANGES = {
    1: range(-6, 2),
    2: range(-6, 2),
    3: range(-6, 2),
    4: range(-6, 2),
    5: range(-5, 1),
    6: range(-3, 1),
    7: range(-3, 0),
}


def _cycle_edges(k):
    return [(i, (i + 1) % k) for i in range(k)]


def _complete_edges(k):
    return list(itertools.combinations(range(k), 2))


def test_acceptance_7a_negdef_matches_charpoly_oracle_on_trees():
    shape_counts = {}
    checked = 0
    exact_checked = 0
    for k in range(1, 8):
        shapes = _tree_shapes(k)
        shape_counts[k] = len(shapes)
        for edges in shapes:
            for ws in itertools.product(_TREE_WEIGHT_RANGES[k], repeat=k):
                g = DualGraph(dict(enumerate(ws)), edges)
                got = is_negative_definite(g)
                m = graph_neg_matrix(g)
                assert got == charpoly_negdef(m), (edges, ws)
                if k <= 5:
                    assert got == principal_minor_negdef(m), (edges, ws)
                    exact_checked += 1
                checked += 1
    assert [shape_counts[k] for k in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    assert checked == 80737
    assert exact_checked == 32104
    _passed(7, "tree negdef agrees with both oracles (80737 graphs)")


def test_acceptance_7b_negdef_matches_oracle_on_dense_graphs():
    checked = 0
    cases = [_cycle_edges(k) for k in range(3, 7)]
    cases.append(_complete_edges(4))
    cases.append(_complete_edges(5))
    for edges in cases:
        k = max(max(e) for e in edges) + 1
        for ws in itertools.product(range(-4, 1), repeat=k):
            g = DualGraph(dict(enumerate(ws)), edges)
            assert is_negative_definite(g) == charpoly_negdef(graph_neg_matrix(g))
            checked += 1
    assert checked == 125 + 625 + 3125 + 15625 + 625 + 3125
    _passed(7, "cycle and clique negdef agrees with the oracle")


def _family_spec_stream():
    for a in ((2,), (2, 2), (3,)):
        for n in (2, 3):
            yield FamilyInstance(family=1, n=n)
            yield FamilyInstance(family=2, A=a, n=n)
            for l in (0, 1, 2):
                yield FamilyInstance(family=3, A=a, n=n, l=l)
                yield FamilyInstance(family=4, A=a, n=n, l=l, b=(3,))
                for m in (0, 1):
                    yield FamilyInstance(family=5, A=a, n=n, l=l, b=(3,), m=m)
            yield FamilyInstance(family=6, A=a, n=n, b=(3,))
            for m in (0, 1):
                yield FamilyInstance(family=7, A=a, n=n, b=(3,), m=m)


def test_acceptance_7c_family_boundaries_against_oracle():
    checked = 0
    for spec in _family_spec_stream():
        g = build_family(spec, strict=False).minus_c()
        if len(g) > 7:
            continue
        assert is_negative_definite(g) == charpoly_negdef(graph_neg_matrix(g))
        checked += 1
    assert checked >= 30
    _passed(7, f"family off-C boundaries agree with the oracle ({checked})")


def test_acceptance_7d_adjunction_solver_matches_reverse_order_solve():
    checked = 0
    for spec in _family_spec_stream():
        if checked == 100:
            break
        try:
            g = build_family(spec)
        except InvalidFamilyParams:
            continue
        d = g.minus_c()
        alpha = compute_dnatural(d).coefficients
        order = sorted(d.weights)
        rhs = [-d.weight(v) - 2 for v in order]
        oracle = dense_adjunction_solve(graph_neg_matrix(d), rhs)
        assert [alpha[v] for v in order] == oracle
        checked += 1
    assert checked == 100
    _passed(7, "adjunction coefficients match the reverse-order dense solve")


# -- 8: byte determinism -------------------------------------------------------------


def test_acceptance_8_verify_all_is_byte_identical(tmp_path):
    argv = [
        sys.executable,
        "-m",
        "dualgraph.cli",
        "verify",
        "--suite",
        "all",
        "--max-det",
        "6",
        "--max-n",
        "3",
        "--max-m",
        "2",
        "--max-len",
        "4",
    ]
    outs = []
    files = []
    for run in (1, 2):
        path = tmp_path / f"report{run}.json"
        proc = subprocess.run(
            argv + ["--json", str(path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
        files.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert files[0] == files[1]
    # the bytes themselves are pinned, so a refactor must keep every one
    assert hashlib.sha256(outs[0].encode()).hexdigest() == (
        "f7b1dd8b9a8616dc539328be65f26c519f67e5be7e4b42d283e090beb4bdf1c7"
    )
    report = json.loads(outs[0])
    assert report["pass"] is True
    assert set(report["suites"]) == {
        "fujita",
        "threshold",
        "trichotomy",
        "axioms",
        "contraction",
    }
    _passed(8, "verify all twice is byte-identical")
