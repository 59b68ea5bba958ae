"""The point-first enumeration against two independent references.

`tverberg_records` enumerates points first and lists each point's full
blocks as exact covers (see `tverberg`).  The candidate-first loop, kept
here only as a reference, runs `_classify`, built from the same
`_low_point` and `_inside` kernels, over every candidate of
`enumerate_candidate_partitions`; the two must give equal record lists
(partition, type, k, point, order).  On boundary-prone draws (small
coordinates) a draw that point-first refuses (`Degenerate`) must be refused
candidate by candidate too, and one that only candidate-first refuses must
give exactly the LP oracle's partitions.

`tverberg_records_oracle` decides every candidate by exact LPs alone and
shares nothing with the table classifier.  Their partition lists must be
equal, on integer samples and on rational ones, whose denominators the
table clears first, and every record's point must lie strictly inside each
of its blocks.  The oracle filters the candidates of
`enumerate_candidate_partitions`: it tests each one's block pairs, each
pair decided once by apart bounding boxes or else a two-block LP, and runs
the full LP only when they all meet.  The one-LP-per-candidate loop, kept
here only as its reference, filters every candidate with `avoids` instead
of the enumerator's pruning.  It must give the same partitions, with and
without pairs kept apart, on search witnesses (none), on draws with
avoiding records (exactly those), and on small-coordinate draws and the
two boundary constructions, whose touching hulls meet.  Apart boxes must
mean that the two-block LP finds no common point, on small-coordinate
blocks whose boxes often touch.

On the two boundary constructions of `test_ground_truth`, every verdict
the reference does give must match the LP, and each refusal (`Degenerate`)
must be a candidate whose hulls the LP finds touching; `is_tverberg`, a
lookup in `tverberg_records`, refuses every candidate of both.  On seeded
draws it gives each candidate's record or None.  In these two tests
`tverberg_records` replays its first result per configuration, so each
candidate costs only its lookup.

`birch_records` lists the exact covers of the first n-1 labels by the
simplices that contain p, the configuration's last point; it must list
exactly the partitions in which `hull_membership`, on explicit points, puts
p inside every block, and refuse exactly the draws the explicit
general-position test fails.  On seeded Birch draws it must list exactly
the type I records of `tverberg_records` whose singleton is p.

More seeds and draws, and (d, q) = (2, 4), (2, 5) and (4, 3), carry the
`slow` marker.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membership import INSIDE, OUTSIDE, hull_membership
from test_ground_truth import _crossing_segments_on_triangle_edge, _three_planes_on_an_edge
from tverlab import tverberg
from tverlab.constraints import (
    ConstraintGraph,
    avoids,
    constrained_records,
    sample_classified_configuration,
    sample_configuration,
    witness_search,
)
from tverlab.drivers import STAR_WITNESS_GRAPH, witness_report
from tverlab.errors import Degenerate
from tverlab.geometry import (
    PointConfiguration,
    common_point,
    effective_general_position,
    points_in_general_position,
)
from tverlab.partitions import (
    canonical,
    enumerate_candidate_partitions,
    partitions_with_max_block,
    point_count,
)
from tverlab.rng import SplitMix64
from tverlab.tverberg import (
    FULL_BOUNDARY,
    TverbergRecord,
    _boxes_apart,
    _inside,
    _low_point,
    _point,
    birch_records,
    is_tverberg,
    tverberg_records,
    tverberg_records_oracle,
)

TIER1_PAIRS = [(1, 3), (1, 4), (2, 3), (3, 3)]
BIRCH_BOUNDS = (3, 30, 1000)  # coordinate bounds the Birch draws cycle through
BOUNDARY_BOUNDS = (3, 4, 5, 6)  # coordinate bounds the boundary-prone draws cycle through


def _classify(partition, config):
    """The record of a candidate whose blocks are sorted label tuples, or
    None; the configuration is in effective general position.  The low
    blocks' point (`_low_point`), then each full block must contain it."""
    d = config.d
    table = config.determinants
    low = [b for b in partition if len(b) <= d]
    found = _low_point(low, table, d)
    if found is None:
        return None
    weights, total = found
    first = low[0]
    on_boundary = "singleton on a block-hull boundary" if len(low) == 1 else FULL_BOUNDARY
    for simplex in partition:
        if len(simplex) == d + 1 and not _inside(
            table, simplex, range(d + 1), weights, first, on_boundary
        ):
            return None
    point = config.points[first[0]] if len(low) == 1 else _point(first, weights, total, config)
    return TverbergRecord(canonical(partition), len(low), point)


def _candidate_first(config):
    """The reference: `_classify` on every candidate, in enumeration order."""
    if not effective_general_position(config):
        raise Degenerate("configuration not in effective general position")
    records = (_classify(p, config) for p in enumerate_candidate_partitions(config.d, config.q))
    return [r for r in records if r is not None]


def _one_lp_per_candidate(config, apart=()):
    """The oracle's reference: one `common_point` LP on every candidate that
    keeps the `apart` pairs apart, in enumeration order.  It enumerates
    every candidate and filters with `avoids`, so it shares no pruning with
    the oracle's enumeration."""
    graph = ConstraintGraph(config.n, frozenset(apart))
    hits = []
    for partition in enumerate_candidate_partitions(config.d, config.q):
        if not avoids(partition, graph):
            continue
        blocks = [[config.points[i] for i in blk] for blk in partition]
        if common_point(blocks) is not None:
            hits.append(partition)
    return hits


def _classified(d, q, seed, rational):
    """The first seeded sample that classifies without `Degenerate`; a
    rational one divides every coordinate by its own denominator 1..9."""
    rng = SplitMix64(seed)
    while True:
        config = sample_configuration(d, q, rng, coord_bound=1000)
        if rational:
            points = tuple(
                tuple(Fraction(c, rng.randint(1, 9)) for c in p) for p in config.points
            )
            config = PointConfiguration(d, q, points)
        try:
            return config, tverberg_records(config)
        except Degenerate:
            continue


def _cases(pairs, seeds, marks=()):
    return [
        pytest.param(
            d, q, seed, rational, marks=marks, id=f"{d}-{q}-{'rational-' if rational else ''}{seed}"
        )
        for d, q in pairs
        for seed in seeds
        for rational in (False, True)
    ]


@pytest.mark.parametrize(
    "d,q,seed,rational",
    _cases(TIER1_PAIRS, (21, 22))
    + _cases(TIER1_PAIRS + [(2, 4)], range(23, 29), marks=pytest.mark.slow),
)
def test_records_match_lp_oracle(d, q, seed, rational):
    config, records = _classified(d, q, seed, rational)
    assert [r.partition for r in records] == tverberg_records_oracle(config)
    for record in records:  # the point, in the configuration's own coordinates
        for block in record.partition:
            simplex = [config.points[i] for i in block]
            assert hull_membership(record.point, simplex, d) == INSIDE


@pytest.mark.parametrize(
    "d,q,seed,rational",
    _cases(TIER1_PAIRS, (21, 22))
    + _cases([(2, 4)], range(23, 27), marks=pytest.mark.slow)
    + _cases([(2, 5)], (23,), marks=pytest.mark.slow)
    # type II(3) blocks of 4, 4 and 3 labels, larger than their Radon pairs
    + _cases([(4, 3)], (23,), marks=pytest.mark.slow),
)
def test_point_first_matches_candidate_first(d, q, seed, rational):
    config, records = _classified(d, q, seed, rational)
    assert records == _candidate_first(config)


def _boundary_case(d, q, draws, marks=()):
    return pytest.param(d, q, draws, marks=marks, id=f"{d}-{q}-{draws}")


@pytest.mark.parametrize(
    "d,q,draws",
    [
        _boundary_case(1, 4, 60),
        _boundary_case(2, 3, 80),
        _boundary_case(2, 4, 12),
        _boundary_case(3, 3, 30),
        _boundary_case(1, 4, 400, pytest.mark.slow),
        _boundary_case(2, 3, 400, pytest.mark.slow),
        _boundary_case(2, 4, 150, pytest.mark.slow),
        _boundary_case(3, 3, 150, pytest.mark.slow),
    ],
)
def test_paths_agree_on_boundary_prone_draws(d, q, draws):
    """Small coordinates put Type II points on block boundaries.  Each path
    refuses only on a decision it makes, and point-first skips the k >= 3
    families that are not pairwise meeting: a draw it refuses is refused
    candidate by candidate too, a draw that only candidate-first refuses
    gives exactly the LP oracle's partitions, and any other draw gives the
    same records on both paths."""
    rng = SplitMix64(7000 + 100 * d + q + draws)
    refused = type_two = 0
    for draw in range(draws):
        bound = BOUNDARY_BOUNDS[draw % len(BOUNDARY_BOUNDS)]
        config = sample_configuration(d, q, rng, coord_bound=bound)
        try:
            expected = _candidate_first(config)
        except Degenerate:
            refused += 1
            try:
                records = tverberg_records(config)
            except Degenerate:
                continue
            assert [r.partition for r in records] == tverberg_records_oracle(config), config.points
            continue
        assert tverberg_records(config) == expected, config.points
        type_two += any(r.k > 1 for r in expected)
    if d > 1:  # at d = 1 every record is Type I, whose point is never on a boundary
        assert refused and type_two


def _oracle_case(d, q, name, edges, seeds, everyone, marks=()):
    graph = ConstraintGraph(point_count(d, q), frozenset(edges))
    ident = f"{d}-{q}-{name}-{seeds[0]}-{seeds[-1]}{'' if everyone else '-apart'}"
    return pytest.param(d, q, graph, seeds, everyone, marks=marks, id=ident)


STAR2, STAR3, K3 = ((0, 1), (0, 2)), ((0, 1), (0, 2), (0, 3)), ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize(
    "d,q,graph,seeds,everyone",
    [
        _oracle_case(2, 3, "star2", STAR2, range(1, 26), True),
        # centred on label 5, so a block that starts at 3 or 4 must keep 5 and 6 apart
        _oracle_case(2, 3, "star2-on-2-5-6", ((5, 2), (5, 6)), range(1, 11), True),
        _oracle_case(2, 3, "k3", K3, range(1, 12), True),
        _oracle_case(3, 3, "k3", K3, range(1, 4), False),
        _oracle_case(2, 4, "star3", STAR3, range(1, 2), False),
        _oracle_case(3, 3, "k3", K3, range(4, 14), True, pytest.mark.slow),
        _oracle_case(2, 4, "star3", STAR3, range(2, 7), True, pytest.mark.slow),
    ],
)
def test_oracle_matches_one_lp_per_candidate(d, q, graph, seeds, everyone):
    """Per seed: the graph's witness, where no avoiding candidate's hulls
    meet; the first classified draw with avoiding records, where the
    oracle must say no by listing exactly those; and a draw of coordinates
    in [-3, 3], not even in general position, where hulls touch.  With
    `everyone`, the last two draws are also checked with nothing kept
    apart."""
    n = point_count(d, q)
    refused = 0
    for seed in seeds:
        witness = witness_search(d, q, graph, seed, budget=200_000)
        assert tverberg_records_oracle(witness, graph.edges) == []
        assert _one_lp_per_candidate(witness, graph.edges) == []

        rng = SplitMix64(seed)
        while True:
            config, records = sample_classified_configuration(d, q, rng)
            avoiding = [r.partition for r in constrained_records(records, graph)]
            if avoiding:
                break
        small = PointConfiguration(
            d, q, tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n))
        )
        assert tverberg_records_oracle(config, graph.edges) == avoiding
        assert _one_lp_per_candidate(config, graph.edges) == avoiding
        expected = _one_lp_per_candidate(small, graph.edges)
        assert tverberg_records_oracle(small, graph.edges) == expected, small.points
        if everyone:
            assert tverberg_records_oracle(config) == [r.partition for r in records]
            assert tverberg_records_oracle(small) == _one_lp_per_candidate(small), small.points
        try:
            tverberg_records(small)
        except Degenerate:
            refused += 1
    assert refused  # some small draws are ones no count decides


@pytest.mark.parametrize(
    "build", [_crossing_segments_on_triangle_edge, _three_planes_on_an_edge], ids=["d2q3", "d3q3"]
)
def test_oracle_counts_touching_hulls_as_meeting(build):
    """The constructions' partitions have hulls that meet only on a
    boundary; the oracle lists them, with and without a pair of their
    labels in different blocks kept apart."""
    config, partition = build()
    apart = [(partition[0][0], partition[1][0])]
    for pairs in ((), apart):
        hits = tverberg_records_oracle(config, pairs)
        assert partition in hits
        assert hits == _one_lp_per_candidate(config, pairs)


@st.composite
def _block_pairs(draw):
    """Two blocks of 1 to d+1 points, coordinates in [-2, 2], d = 1 to 3."""
    d = draw(st.integers(1, 3))
    block = st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d + 1)
    return d, draw(block), draw(block)


@given(_block_pairs())
@settings(max_examples=300, deadline=None)
def test_apart_boxes_mean_disjoint_hulls(pair):
    d, xs, ys = pair
    if _boxes_apart(xs, ys):
        assert common_point([xs, ys]) is None


def test_boxes_decide_only_when_apart():
    """Parallel segments whose boxes overlap: only the LP says no.  Segments
    whose boxes touch in y, and whose hulls meet at (1, 0): the boxes are
    not apart, and the LP finds that point."""
    diagonal, shifted = [(0, 0), (4, 4)], [(0, 3), (1, 4)]
    assert not _boxes_apart(diagonal, shifted)
    assert common_point([diagonal, shifted]) is None
    floor, post = [(0, 0), (2, 0)], [(1, 0), (1, 2)]
    assert not _boxes_apart(floor, post)
    assert common_point([floor, post]) == (1, 0)


def test_witness_check_runs_fewer_pair_lps_than_pairs(monkeypatch):
    """The oracle decides each block pair once; on a search witness, apart
    boxes settle some pairs, so fewer two-block LPs run than pairs."""
    pairs, pair_lps = [], []
    real_apart, real_common_point = tverberg._boxes_apart, tverberg.common_point

    def apart(xs, ys):
        pairs.append((xs, ys))
        return real_apart(xs, ys)

    def lp(blocks):
        if len(blocks) == 2:
            pair_lps.append(blocks)
        return real_common_point(blocks)

    monkeypatch.setattr(tverberg, "_boxes_apart", apart)
    monkeypatch.setattr(tverberg, "common_point", lp)
    report = witness_report(2, 3, STAR_WITNESS_GRAPH, 1, 2000)
    assert report["found"] and report["verified"]
    assert len(pair_lps) < len(pairs)


def _spend_case(d, q, edges, witness):
    """The graph's seed-1 witness, or else the first classified draw with
    records that avoid the graph, with the graph."""
    graph = ConstraintGraph(point_count(d, q), frozenset(edges))
    if witness:
        return witness_search(d, q, graph, 1, budget=200_000), graph
    rng = SplitMix64(1)
    while True:
        config, records = sample_classified_configuration(d, q, rng)
        if constrained_records(records, graph):
            return config, graph


@pytest.mark.parametrize(
    "d,q,edges,witness",
    [(2, 3, STAR2, True), (2, 4, STAR3, True), (2, 3, STAR2, False)],
    ids=["star2-witness", "star3-witness", "star2-draw"],
)
def test_oracle_decides_each_pair_once_and_runs_full_lps_only_where_pairs_meet(
    d, q, edges, witness, monkeypatch
):
    """Spies on the box certificate and the LP: each block pair is decided
    once, by apart boxes or else one two-block LP; the q-block LP runs
    exactly once per avoiding candidate whose block pairs all meet by the
    reference's two-block LPs, in candidate order."""
    config, graph = _spend_case(d, q, edges, witness)
    label = {point: i for i, point in enumerate(config.points)}

    def blocks_of(hulls):
        return tuple(tuple(label[p] for p in hull) for hull in hulls)

    boxed, pair_lps, full_lps = [], [], []
    real_apart, real_common_point = tverberg._boxes_apart, tverberg.common_point

    def apart(xs, ys):
        boxed.append((blocks_of([xs, ys]), real_apart(xs, ys)))
        return boxed[-1][1]

    def lp(blocks):
        (pair_lps if len(blocks) == 2 else full_lps).append(blocks_of(blocks))
        return real_common_point(blocks)

    monkeypatch.setattr(tverberg, "_boxes_apart", apart)
    monkeypatch.setattr(tverberg, "common_point", lp)
    hits = tverberg_records_oracle(config, graph.edges)
    monkeypatch.undo()

    pairs = [pair for pair, _ in boxed]
    assert len(set(pairs)) == len(pairs)
    assert pair_lps == [pair for pair, boxes_apart in boxed if not boxes_apart]

    verdicts = {}

    def meet(a, b):
        if (a, b) not in verdicts:
            verdicts[a, b] = common_point([[config.points[i] for i in blk] for blk in (a, b)])
        return verdicts[a, b] is not None

    expected = [
        partition
        for partition in enumerate_candidate_partitions(config.d, config.q)
        if avoids(partition, graph) and all(meet(a, b) for a, b in combinations(partition, 2))
    ]
    assert full_lps == expected
    assert hits == _one_lp_per_candidate(config, graph.edges)


@pytest.fixture
def replayed_records(monkeypatch):
    """`is_tverberg` lists every record of its configuration on each call;
    on every candidate of one draw, replay the first call's records, or the
    Degenerate it raised, instead of listing them again."""
    real = tverberg.tverberg_records
    memo = {}

    def replay(config):
        key = (config.d, config.q, config.points)
        if key not in memo:
            try:
                memo[key] = real(config)
            except Degenerate as exc:
                memo[key] = exc
        if isinstance(memo[key], Degenerate):
            raise memo[key].with_traceback(None)
        return memo[key]

    monkeypatch.setattr(tverberg, "tverberg_records", replay)


@pytest.mark.parametrize(
    "build", [_crossing_segments_on_triangle_edge, _three_planes_on_an_edge], ids=["d2q3", "d3q3"]
)
def test_boundary_verdicts_match_lp_oracle(build, replayed_records):
    config, _ = build()
    refused = candidates = 0
    for partition in enumerate_candidate_partitions(config.d, config.q):
        candidates += 1
        with pytest.raises(Degenerate, match="boundary"):
            is_tverberg(partition, config)
        blocks = [[config.points[i] for i in blk] for blk in partition]
        meet = common_point(blocks) is not None
        try:
            record = _classify(partition, config)
        except Degenerate as exc:
            assert "boundary" in str(exc) and meet, partition
            refused += 1
            continue
        assert (record is not None) == meet, partition
    assert 1 <= refused < candidates


@pytest.mark.parametrize("d,q", [(1, 3), (2, 3), (3, 3)])
def test_is_tverberg_looks_up_the_records(d, q, replayed_records):
    """Every candidate of a seeded draw gets its record or None."""
    config, records = _classified(d, q, 31, False)
    by_partition = {r.partition: r for r in records}
    hits = 0
    for partition in enumerate_candidate_partitions(d, q):
        record = is_tverberg(partition, config)
        assert record == by_partition.get(partition)
        hits += record is not None
    assert hits == len(records) > 0


@pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_birch_records_match_hull_membership(d, k):
    """Coordinates bounded by 3 make dependent subsets and p equal to a
    point common; larger bounds give general position and non-zero counts."""
    rng = SplitMix64(31 + 10 * d + k)
    refused = counted = 0
    for draw in range(40):
        bound = BIRCH_BOUNDS[draw % len(BIRCH_BOUNDS)]
        points = [
            tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(k * (d + 1))
        ]
        p = tuple(
            Fraction(rng.randint(-bound // 3, bound // 3), rng.randint(1, 2)) for _ in range(d)
        )
        config = PointConfiguration(d, k + 1, tuple(points) + (p,))
        generic = p not in points and points_in_general_position(points + [p], d)
        try:
            got = birch_records(config)
        except Degenerate:
            assert not generic
            refused += 1
            continue
        assert generic
        expected = []
        for partition in partitions_with_max_block(range(len(points)), k, d + 1):
            verdicts = [hull_membership(p, [points[i] for i in blk], d) for blk in partition]
            assert set(verdicts) <= {INSIDE, OUTSIDE}
            if all(v == INSIDE for v in verdicts):
                expected.append(partition)
        assert got == expected
        counted += bool(got)
    assert refused and counted


@pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_birch_records_are_the_type_one_records_at_p(d, k):
    """A Birch partition around p is a type I partition whose singleton is
    p, the last label, so it is read off the Tverberg records."""
    rng = SplitMix64(17 + 10 * d + k)
    counted = 0
    for _ in range(40):
        config = sample_configuration(d, k + 1, rng, tail=((0,) * d,))
        p = (config.n - 1,)
        type_one = [r.partition[:-1] for r in tverberg_records(config) if r.partition[-1] == p]
        assert birch_records(config) == type_one
        counted += bool(type_one)
    assert counted
