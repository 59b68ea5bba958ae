"""Experiment drivers behind the CLI and the acceptance suite.

Each driver runs one verification campaign at desk scale and returns a
plain-dict report; `ok` is True iff every checked claim held.  All drivers
are deterministic given their seed.
"""

import math
from itertools import combinations

from .constraints import (
    CompleteK,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    family_admissible,
    hit_masks,
    instantiate,
    sample_classified_configuration,
    sample_configuration,
    witness_search,
)
from .complexes import (
    SimplicialComplex,
    c_cones,
    chessboard,
    chessboard_on,
    complex_C,
    complex_D,
    complex_E,
    deleted_join_of_simplex,
    good_subcomplex,
    goodness_check,
    invariance_check,
    nerve,
    regular_prime_power_action,
    verify_intersection_identities,
    vertex_orbit_sizes,
)
from .config_io import format_scalar
from .errors import InvalidParameters
from .geometry import PointConfiguration
from .homology import homology_vanishes_through
from .partitions import enumerate_candidate_partitions, point_count
from .rng import SplitMix64
from .tverberg import (
    birch_records,
    counting_report,
    tverberg_records,
    tverberg_records_oracle,
)

FACTOR_FACET_BUDGET = 25_000  # goodness campaign: largest factor checked
STAR_WITNESS_D, STAR_WITNESS_Q = 2, 3  # where K_{1,2} is inadmissible
STAR_WITNESS_GRAPH = instantiate(Star(2), point_count(STAR_WITNESS_D, STAR_WITNESS_Q))
BIRCH_PAIRS = ((1, 2), (1, 3), (2, 2))  # (d, k) of the Birch campaign
STRUCTURAL_MAX_L = 5  # largest l of the C/D/E facet-count checks
IDENTITY_CASES = ((3, 5), (4, 5), (5, 5))  # (l, q) of the intersection identities


def radon_baseline():
    """d=1, q=2, points 0,1,2: exactly one Tverberg partition, type I at
    the middle point."""
    config = PointConfiguration(1, 2, ((0,), (1,), (2,)))
    records = tverberg_records(config)
    oracle = tverberg_records_oracle(config)
    ok = (
        len(records) == 1
        and records[0].k == 1
        and records[0].point == (1,)
        and records[0].partition == ((0, 2), (1,))
        and [r.partition for r in records] == oracle
    )
    return {"ok": ok, "T": len(records), "oracle_T": len(oracle)}


def counting_campaign(d, q, samples, seed):
    """Seeded configurations with their counting reports (evenness and the
    lower bounds, as applicable for (d, q))."""
    rng = SplitMix64(seed)
    results = []
    for index in range(samples):
        config, records = sample_classified_configuration(d, q, rng)
        report = counting_report(config, records)
        report["sample"] = index
        results.append(report)
    ok = all(r["ok"] for r in results)
    return {"d": d, "q": q, "samples": samples, "seed": seed, "ok": ok, "reports": results}


def single_edge_constraint_campaign(samples, seed, d=2, q=3):
    """Every single-edge constraint graph leaves at least one avoiding
    Tverberg partition, on each seeded configuration.  The claim is K_2's
    admissibility, so (d, q) outside the family list (q not a prime power
    > 2) is refused before any draw."""
    family_admissible(CompleteK(2), d, q)
    rng = SplitMix64(seed)
    n = point_count(d, q)
    edges = list(combinations(range(n), 2))
    violations = []
    for index in range(samples):
        _, records = sample_classified_configuration(d, q, rng)
        masks = hit_masks(records, n)
        every = (1 << len(records)) - 1
        violations += (
            {"sample": index, "edge": (a, b)} for a, b in edges if masks[a][b] == every
        )
    return {
        "d": d, "q": q, "samples": samples, "seed": seed,
        "ok": not violations, "edges_per_sample": len(edges), "violations": violations,
    }


def witness_report(d, q, graph, seed, budget):
    """Search for a configuration with no partition avoiding the graph, and
    check a found witness once with the exact LP oracle.

    `verified` is the oracle's verdict that no avoiding candidate's hulls
    meet, and `ok` follows it; a search that finds nothing is ok.  Three
    graphs are refused before any draw: one with no edges (every
    configuration has a Tverberg partition, and each one avoids it), one
    that no candidate avoids (every placement on every draw would be a
    witness, which no LP would check), and, by `witness_search`, one with
    an edge outside the labels of (d, q) (LabelMismatch)."""
    if not graph.edges:
        raise InvalidParameters("a graph with no edges has no witness")
    if next(enumerate_candidate_partitions(d, q, graph.edges), None) is None:
        raise InvalidParameters(
            f"no candidate at (d, q) = ({d}, {q}) avoids {sorted(graph.edges)}"
        )
    witness = witness_search(d, q, graph, seed, budget)
    report = {"found": witness is not None}
    if witness is not None:
        hits = tverberg_records_oracle(witness, graph.edges)
        report["witness"] = [[format_scalar(c) for c in p] for p in witness.points]
        report["verified"] = not hits
    report["ok"] = report.get("verified", True)
    return report


def birch_campaign(samples, seed):
    """B_0(X) is even and at least k! whenever positive, on seeded
    instances at each (d, k): k(d+1) drawn points and p, the origin, last."""
    rng = SplitMix64(seed)
    results = []
    for d, k in BIRCH_PAIRS:
        for index in range(samples):
            config = sample_configuration(d, k + 1, rng, tail=((0,) * d,))
            count = len(birch_records(config))
            entry = {
                "d": d,
                "k": k,
                "sample": index,
                "B": count,
                "even": count % 2 == 0,
                "lower_ok": count == 0 or count >= math.factorial(k),
            }
            results.append(entry)
    ok = all(r["even"] and r["lower_ok"] for r in results)
    return {"ok": ok, "samples": samples, "seed": seed, "results": results}


def chessboard_connectivity_campaign(max_mn):
    """Reduced homology of the chessboard complex vanishes through nu-2
    for all m, n up to the cap."""
    results = []
    for m in range(1, max_mn + 1):
        for n in range(m, max_mn + 1):
            nu = min(m, n, (m + n + 1) // 3)
            K = chessboard(m, n)
            passed = homology_vanishes_through(K, nu - 2)
            results.append({"m": m, "n": n, "nu": nu, "ok": passed})
    return {"ok": all(r["ok"] for r in results), "max": max_mn, "results": results}


def lemma_connectivity_campaign():
    """Homological connectivity bounds of the C, D, and E complexes."""
    cases = []
    for l in (1, 2, 3):
        cases.append(("C", l, 5, complex_C(l, 5), l - 1))
    for q in (4, 5):
        for l in range(1, 5):
            cases.append(("D", l, q, complex_D(l, q), l - 1))
    for l in (3, 4, 5):
        cases.append(("E", l, 5, complex_E(l, 5), l - 2))
    results = []
    for family, l, q, K, bound in cases:
        passed = homology_vanishes_through(K, bound)
        results.append({"family": family, "l": l, "q": q, "bound": bound, "ok": passed})
    return {"ok": all(r["ok"] for r in results), "results": results}


def structural_identities_campaign(max_q):
    """Facet-count formulas, the E_3 = 3-row chessboard coincidence, the
    nerve of the C cones, and the D/E intersection identities."""
    checks = []

    def add(name, ok, **extra):
        checks.append({"name": name, "ok": ok, **extra})

    for q in range(2, max_q + 1):
        for m in range(1, max_q + 1):
            add(f"chessboard({m},{q})", len(chessboard(m, q).facets) == CompleteK(m).facet_count(q))
        for n in range(0, 4):
            add(f"deleted_join({n},{q})", len(deleted_join_of_simplex(n, q).facets) == q ** (n + 1))
        for l in range(1, STRUCTURAL_MAX_L + 1):
            add(f"C({l},{q})", len(complex_C(l, q).facets) == Star(l).facet_count(q))
            add(f"D({l},{q})", len(complex_D(l, q).facets) == Path(l).facet_count(q))
            if l >= 3:
                add(f"E({l},{q})", len(complex_E(l, q).facets) == Cycle(l).facet_count(q))
        if q >= 3:
            add(
                f"E(3,{q}) == chessboard_on 3 rows",
                complex_E(3, q) == chessboard_on([0, 1, 2], q),
            )
            boundary = SimplicialComplex(frozenset(s) for s in combinations(range(q), q - 1))
            for l in range(1, q - 1):
                add(f"nerve C({l},{q}) cones", nerve(c_cones(l, q)) == boundary)
    for l, q in IDENTITY_CASES:
        report = verify_intersection_identities(l, q)
        add(f"intersection identities l={l}, q={q}", report["ok"], detail=report)
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _admissible_specs(d, q):
    n_rows = point_count(d, q)
    candidates = [
        family(l)
        for family, low in ((CompleteK, 2), (Star, 1), (Path, 1), (Cycle, 3))
        for l in range(low, n_rows + 1)
    ]
    # a couple of union shapes, when they fit
    candidates += [
        DisjointUnion((CompleteK(2), CompleteK(2))),
        DisjointUnion((CompleteK(2), Path(2))),
    ]
    return [spec for spec in candidates if family_admissible(spec, d, q)]


def _goodness_rows(q):
    """The goodness campaign's report rows at q, for d = 1 and then d = 2.

    A good subcomplex joins family parts and free rows, and its factors at
    d = 1 are its factors at d = 2 that lie below row 2(q-1)+1.  So each
    spec is built once, at the largest d that admits it, and each distinct
    factor is checked once per q; only its verdicts are kept.  Every
    constraint edge lies inside one part's rows, so a row passes a check
    iff each of its factors does."""
    action = regular_prime_power_action(q)
    n = {d: point_count(d, q) for d in (1, 2)}
    specs = {
        d: [
            spec
            for spec in _admissible_specs(d, q)
            if all(p.facet_count(q) <= FACTOR_FACET_BUDGET for p in spec.parts)
        ]
        for d in (1, 2)
    }
    verdicts = {}  # (part, or None for a free row; its rows) -> (good, invariant, orbits_ok)
    rows = {}
    for spec in dict.fromkeys(specs[1] + specs[2]):
        ds = [d for d in (1, 2) if spec in specs[d]]
        factors = good_subcomplex(spec, ds[-1], q)
        edges = instantiate(spec, n[ds[-1]]).edges
        keys = []
        parts = list(spec.parts) + [None] * (len(factors) - len(spec.parts))
        for part, factor in zip(parts, factors):
            factor_rows = frozenset(row for row, _ in factor.vertices)
            key = (part, factor_rows)
            if key not in verdicts:
                pairs = [e for e in edges if factor_rows.issuperset(e)]
                verdicts[key] = (
                    goodness_check(factor, pairs),
                    invariance_check(factor, action),
                    all(s == q for s in vertex_orbit_sizes(factor, action)),
                )
            keys.append(key)
        for d in ds:
            checks = [verdicts[key] for key in keys if max(key[1]) < n[d]]
            rows[d, spec] = {
                "q": q,
                "d": d,
                "spec": repr(spec),
                "good": all(c[0] for c in checks),
                "invariant": all(c[1] for c in checks),
                "orbits_ok": all(c[2] for c in checks),
            }
    return [rows[d, spec] for d in (1, 2) for spec in specs[d]]


def goodness_invariance_campaign():
    """Every admissible family's good subcomplex is good, invariant under
    the regular prime-power column action, and has only size-q vertex
    orbits (checked per join factor; family sizes capped by a facet budget)."""
    results = [row for q in (3, 4, 5) for row in _goodness_rows(q)]
    ok = all(r["good"] and r["invariant"] and r["orbits_ok"] for r in results)
    return {"ok": ok, "results": results}
