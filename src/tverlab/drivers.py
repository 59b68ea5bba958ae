"""Experiment drivers behind the CLI and the acceptance suite.

Each driver runs one verification campaign at desk scale and returns a
plain-dict report; `ok` is True iff every checked claim held.  All drivers
are deterministic given their seed.
"""

import math
from itertools import combinations

from .constraints import (
    CompleteK,
    ConstraintGraph,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    avoids,
    constrained_records,
    family_admissible,
    instantiate,
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
from .errors import Degenerate
from .geometry import PointConfiguration
from .homology import homology_vanishes_through
from .rng import SplitMix64
from .tverberg import (
    BirchInstance,
    birch_general_position,
    birch_records,
    counting_report,
    tverberg_records,
    tverberg_records_oracle,
)

FACTOR_FACET_BUDGET = 25_000  # goodness campaign: largest factor checked
STAR_WITNESS_Q, STAR_WITNESS_D = 3, 2  # where K_{1,2} is inadmissible
BIRCH_PAIRS = ((1, 2), (1, 3), (2, 2))  # (d, k) of the Birch campaign
BIRCH_COORD_BOUND = 1 << 20  # Birch sample coordinates lie in [-bound, bound]
STRUCTURAL_MAX_L = 5  # largest l of the C/D/E facet-count checks
IDENTITY_CASES = ((3, 5), (4, 5), (5, 5))  # (l, q) of the intersection identities


def sample_classified_configuration(d, q, rng):
    """Next sampled configuration whose full classification succeeds
    (effective general position and no boundary verdicts)."""
    while True:
        config = sample_configuration(d, q, rng)
        try:
            return config, tverberg_records(config)
        except Degenerate:
            continue


def radon_baseline():
    """d=1, q=2, points 0,1,2: exactly one Tverberg partition, type I at
    the middle point."""
    config = PointConfiguration(1, 2, ((0,), (1,), (2,)))
    records = tverberg_records(config)
    oracle = tverberg_records_oracle(config)
    ok = (
        len(records) == 1
        and records[0].ptype == "I"
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
    ok = True
    for index in range(samples):
        config, records = sample_classified_configuration(d, q, rng)
        report = counting_report(config, records=records)
        report["sample"] = index
        ok = ok and report["ok"]
        results.append(report)
    return {"ok": ok, "d": d, "q": q, "samples": samples, "seed": seed, "reports": results}


def single_edge_constraint_campaign(samples, seed, d=2, q=3):
    """Every single-edge constraint graph leaves at least one avoiding
    Tverberg partition, on each seeded configuration."""
    rng = SplitMix64(seed)
    n = (d + 1) * (q - 1) + 1
    edges = list(combinations(range(n), 2))
    violations = []
    for index in range(samples):
        config, records = sample_classified_configuration(d, q, rng)
        for edge in edges:
            graph = ConstraintGraph(n, frozenset([edge]))
            kept = [r for r in records if avoids(r.partition, graph)]
            if not kept:
                violations.append({"sample": index, "edge": edge})
    return {
        "ok": not violations,
        "samples": samples,
        "edges_per_sample": len(edges),
        "violations": violations,
    }


def star_witness_campaign(budget, seed):
    """Best-effort search for a configuration with no partition avoiding
    the star K_{1,2}; any hit is exactly re-verified."""
    q, d = STAR_WITNESS_Q, STAR_WITNESS_D
    n = (d + 1) * (q - 1) + 1
    graph = instantiate(Star(2), n)
    witness = witness_search(q, d, graph, seed, budget)
    report = {"ok": True, "budget": budget, "seed": seed, "found": witness is not None}
    if witness is not None:
        report["witness_points"] = [list(p) for p in witness.points]
        # independent confirmation that no avoiding partition intersects
        kept = constrained_records(witness, graph)
        report["ok"] = not kept
    return report


def birch_campaign(samples, seed):
    """B_0(X) is even and at least k! whenever positive, on seeded
    instances at each (d, k)."""
    rng = SplitMix64(seed)
    results = []
    ok = True
    for d, k in BIRCH_PAIRS:
        for index in range(samples):
            instance = _sample_birch(d, k, rng)
            count = len(birch_records(instance))
            entry = {
                "d": d,
                "k": k,
                "sample": index,
                "B": count,
                "even": count % 2 == 0,
                "lower_ok": count == 0 or count >= math.factorial(k),
            }
            ok = ok and entry["even"] and entry["lower_ok"]
            results.append(entry)
    return {"ok": ok, "samples": samples, "seed": seed, "results": results}


def _sample_birch(d, k, rng):
    origin = tuple([0] * d)
    while True:
        pts = tuple(
            tuple(rng.randint(-BIRCH_COORD_BOUND, BIRCH_COORD_BOUND) for _ in range(d))
            for _ in range(k * (d + 1))
        )
        instance = BirchInstance(d, k, pts, origin)
        if birch_general_position(instance):
            return instance


def chessboard_connectivity_campaign(max_mn=6):
    """Reduced homology of the chessboard complex vanishes through nu-2
    for all m, n up to the cap."""
    results = []
    ok = True
    for m in range(1, max_mn + 1):
        for n in range(m, max_mn + 1):
            nu = min(m, n, (m + n + 1) // 3)
            K = chessboard(m, n)
            passed = homology_vanishes_through(K, nu - 2)
            ok = ok and passed
            results.append({"m": m, "n": n, "nu": nu, "ok": passed})
    return {"ok": ok, "max": max_mn, "results": results}


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
    ok = True
    for family, l, q, K, bound in cases:
        passed = homology_vanishes_through(K, bound)
        ok = ok and passed
        results.append({"family": family, "l": l, "q": q, "bound": bound, "ok": passed})
    return {"ok": ok, "results": results}


def structural_identities_campaign(max_q=6):
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
        if q >= 3:
            for l in range(1, q - 1):
                boundary = SimplicialComplex(
                    frozenset(s)
                    for s in combinations(range(q), q - 1)
                )
                add(
                    f"nerve C({l},{q}) cones",
                    nerve(c_cones(l, q)) == boundary,
                )
    for l, q in IDENTITY_CASES:
        report = verify_intersection_identities(l, q)
        add(f"intersection identities l={l}, q={q}", report["ok"], detail=report)
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _admissible_specs(q, d):
    n_rows = (d + 1) * (q - 1) + 1
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
    return [spec for spec in candidates if family_admissible(spec, q, d)]


def goodness_invariance_campaign():
    """Every admissible family's good subcomplex is good, invariant under
    the regular prime-power column action, and has only size-q vertex
    orbits (checked factor-wise; family sizes capped by a facet budget)."""
    results = []
    ok = True
    for q in (3, 4, 5):
        action = regular_prime_power_action(q)
        for d in (1, 2):
            n = (d + 1) * (q - 1) + 1
            for spec in _admissible_specs(q, d):
                if any(p.facet_count(q) > FACTOR_FACET_BUDGET for p in spec.parts):
                    continue
                L = good_subcomplex(spec, q, d)
                good = goodness_check(L, instantiate(spec, n).edges)
                invariant = invariance_check(L, action)
                orbits = vertex_orbit_sizes(L, action)
                orbits_ok = all(s == q for s in orbits)
                passed = good and invariant and orbits_ok
                ok = ok and passed
                results.append(
                    {
                        "q": q,
                        "d": d,
                        "spec": repr(spec),
                        "good": good,
                        "invariant": invariant,
                        "orbits_ok": orbits_ok,
                    }
                )
    return {"ok": ok, "results": results}
