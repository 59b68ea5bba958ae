"""In-memory span tracing of tverlab's layers, installed from outside.

`install(tracer)` replaces each traced function with a wrapper that records
a span (name, start, end, parent, op, outcome) around every call.  A name is
patched in its defining module and in every tverlab module that imported it
with `from .x import name`, because that is where its callers look it up.
Methods are patched on their class.  Nothing under `src/` is edited.

`layer_metrics(tracer)` turns the spans and counters into the per-layer
metrics listed in `PER_LAYER`.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested because every
op runs on one thread.
"""

import gzip
import inspect
import sys
import time

# (module, attribute, span name); "Class.method" patches a class attribute.
TRACED = [
    ("rng", "SplitMix64.randint", "rng.randint"),
    ("partitions", "enumerate_candidate_partitions", "partitions.enumerate_candidate_partitions"),
    ("geometry", "orientation", "geometry.orientation"),
    ("geometry", "affine_intersection_point", "geometry.affine_intersection_point"),
    ("geometry", "barycentric_coordinates", "geometry.barycentric_coordinates"),
    ("geometry", "points_in_general_position", "geometry.points_in_general_position"),
    ("geometry", "common_point", "geometry.common_point"),
    ("lp", "lp_feasible", "lp.lp_feasible"),
    ("tverberg", "is_tverberg", "tverberg.is_tverberg"),
    ("tverberg", "tverberg_records", "tverberg.tverberg_records"),
    ("tverberg", "counting_report", "tverberg.counting_report"),
    ("constraints", "witness_search", "constraints.witness_search"),
    ("constraints", "sample_configuration", "constraints.sample_configuration"),
    ("complexes", "chessboard", "complexes.build"),
    ("complexes", "chessboard_on", "complexes.build"),
    ("complexes", "assignment_complex", "complexes.build"),
    ("complexes", "complex_C", "complexes.build"),
    ("complexes", "complex_D", "complexes.build"),
    ("complexes", "complex_E", "complexes.build"),
    ("complexes", "good_subcomplex", "complexes.build"),
    ("complexes", "SimplicialComplex.faces", "complexes.faces"),
    ("complexes", "goodness_check", "complexes.goodness_check"),
    ("complexes", "invariance_check", "complexes.invariance_check"),
    ("complexes", "vertex_orbit_sizes", "complexes.vertex_orbit_sizes"),
    ("homology", "reduced_homology", "homology.reduced_homology"),
    ("homology", "boundary_matrices", "homology.boundary_matrices"),
    ("homology", "smith_invariants", "homology.smith_invariants"),
    ("homology", "_eliminate_units", "homology._eliminate_units"),
    ("homology", "_dense_smith", "homology._dense_smith"),
    ("drivers", "sample_classified_configuration", "drivers.sample_classified_configuration"),
    ("drivers", "counting_campaign", "drivers.campaign"),
    ("drivers", "chessboard_connectivity_campaign", "drivers.campaign"),
    ("drivers", "lemma_connectivity_campaign", "drivers.campaign"),
    ("drivers", "goodness_invariance_campaign", "drivers.campaign"),
    ("cli", "main", "cli.main"),
]


def _count_faces_built(tracer, args, result, was_empty):
    if was_empty:
        tracer.add("complexes.faces.total", len(result))


def _count_boundary(tracer, args, result, _):
    by_dim, _matrices = result
    tracer.add("homology.faces_built", sum(len(faces) for faces in by_dim.values()))


def _count_units(tracer, args, result, _):
    unit_rank, residual = result
    tracer.add("homology.unit_rank", unit_rank)
    tracer.add("homology.residual_entries", len(residual) * (len(residual[0]) if residual else 0))


def _count_not_none(counter):
    def hook(tracer, args, result, _):
        if result is not None:
            tracer.add(counter, 1)

    return hook


# span name -> hook(tracer, args, result, before) run after a normal return
AFTER = {
    "complexes.faces": _count_faces_built,
    "homology.boundary_matrices": _count_boundary,
    "homology._eliminate_units": _count_units,
    "lp.lp_feasible": _count_not_none("lp.lp_feasible.feasible"),
    "tverberg.is_tverberg": _count_not_none("tverberg.is_tverberg.hits"),
    "constraints.witness_search": _count_not_none("constraints.witness_search.found"),
}
# span name -> hook(args) evaluated before the call; its value reaches AFTER
BEFORE = {
    "complexes.faces": lambda args: args[0]._faces is None,
}


class Tracer:
    """Spans kept in parallel lists; index 0 is a virtual root."""

    def __init__(self):
        self.names = [""]
        self.starts = [0]
        self.ends = [0]
        self.parents = [-1]
        self.ops = [-1]
        self.outcomes = [""]
        self.stack = [0]
        self.op = -1
        self.counters = {}

    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.outcomes.append("")
        self.ends.append(0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def close(self, sid, exc=None):
        self.ends[sid] = time.perf_counter_ns()
        if exc is not None:
            self.outcomes[sid] = type(exc).__name__
        self.stack.pop()

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def write(self, path):
        """Spans as gzipped TSV: id, name, start_ns, end_ns, parent, op, outcome."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\toutcome\n")
            for sid in range(1, len(self.names)):
                fh.write(
                    f"{sid}\t{self.names[sid]}\t{self.starts[sid]}\t{self.ends[sid]}\t"
                    f"{self.parents[sid]}\t{self.ops[sid]}\t{self.outcomes[sid]}\n"
                )


def _wrap_function(tracer, fn, name):
    before, after = BEFORE.get(name), AFTER.get(name)

    def traced(*args, **kwargs):
        state = before(args) if before else None
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(sid, exc)
            raise
        tracer.close(sid)
        if after:
            after(tracer, args, result, state)
        return result

    return traced


def _wrap_generator(tracer, fn, name):
    """One span per resumption, so time spent between items is not billed."""
    yielded = name + ".yielded"

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(sid)
                return
            except BaseException as exc:
                tracer.close(sid, exc)
                raise
            tracer.close(sid)
            tracer.add(yielded, 1)
            yield item

    return traced


def install(tracer):
    """Patch every name in TRACED, wherever a tverlab module binds it."""
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name == "tverlab" or name.startswith("tverlab.")
    }
    for module_name, attr, span in TRACED:
        owner = modules["tverlab." + module_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
        wrapper = wrap(tracer, original, span)
        setattr(owner, attr, wrapper)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, better); see perfbench/README.md for what each should move.
PER_LAYER = [
    ("rng.randint.calls", "count", "lower"),
    ("rng.randint.self_ms", "ms", "lower"),
    ("partitions.enumerate_candidate_partitions.yielded", "count", "lower"),
    ("partitions.enumerate_candidate_partitions.self_ms", "ms", "lower"),
    ("geometry.affine_intersection_point.calls", "count", "lower"),
    ("geometry.affine_intersection_point.self_ms", "ms", "lower"),
    ("geometry.affine_intersection_point.point_ratio", "ratio", "higher"),
    ("geometry.orientation.calls", "count", "lower"),
    ("geometry.orientation.self_ms", "ms", "lower"),
    ("geometry.barycentric_coordinates.calls", "count", "lower"),
    ("geometry.barycentric_coordinates.self_ms", "ms", "lower"),
    ("geometry.points_in_general_position.calls", "count", "lower"),
    ("geometry.points_in_general_position.self_ms", "ms", "lower"),
    ("geometry.common_point.calls", "count", "lower"),
    ("geometry.common_point.self_ms", "ms", "lower"),
    ("lp.lp_feasible.calls", "count", "lower"),
    ("lp.lp_feasible.self_ms", "ms", "lower"),
    ("lp.lp_feasible.feasible_ratio", "ratio", "higher"),
    ("tverberg.is_tverberg.calls", "count", "lower"),
    ("tverberg.is_tverberg.self_ms", "ms", "lower"),
    ("tverberg.is_tverberg.hit_ratio", "ratio", "higher"),
    ("tverberg.tverberg_records.self_ms", "ms", "lower"),
    ("tverberg.counting_report.self_ms", "ms", "lower"),
    ("constraints.witness_search.self_ms", "ms", "lower"),
    ("constraints.sample_configuration.calls", "count", "lower"),
    ("constraints.sample_configuration.self_ms", "ms", "lower"),
    ("constraints.found_ratio", "ratio", "higher"),
    ("constraints.degenerate_skips", "count", "lower"),
    ("drivers.degenerate_redraws", "count", "lower"),
    ("drivers.self_ms", "ms", "lower"),
    ("complexes.build.self_ms", "ms", "lower"),
    ("complexes.faces.self_ms", "ms", "lower"),
    ("complexes.faces.total", "count", "lower"),
    ("complexes.goodness_check.calls", "count", "lower"),
    ("complexes.goodness_check.self_ms", "ms", "lower"),
    ("complexes.invariance_check.self_ms", "ms", "lower"),
    ("complexes.vertex_orbit_sizes.self_ms", "ms", "lower"),
    ("homology.reduced_homology.self_ms", "ms", "lower"),
    ("homology.boundary_matrices.self_ms", "ms", "lower"),
    ("homology.faces_built", "count", "lower"),
    ("homology.smith_invariants.calls", "count", "lower"),
    ("homology._eliminate_units.self_ms", "ms", "lower"),
    ("homology.unit_rank", "count", "lower"),
    ("homology._dense_smith.self_ms", "ms", "lower"),
    ("homology.residual_entries", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.report_bytes", "count", "lower"),
]


def span_totals(tracer):
    """Per span name: calls, normal returns, and self time in ns."""
    n = len(tracer.names)
    child_ns = [0] * n
    for sid in range(1, n):
        child_ns[tracer.parents[sid]] += tracer.ends[sid] - tracer.starts[sid]
    totals = {}
    for sid in range(1, n):
        entry = totals.setdefault(tracer.names[sid], {"calls": 0, "returned": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["returned"] += tracer.outcomes[sid] == ""
        entry["self_ns"] += tracer.ends[sid] - tracer.starts[sid] - child_ns[sid]
    return totals


def _degenerate_under(tracer, name, parent):
    """Spans `name` directly under a `parent` span that ended in Degenerate."""
    return sum(
        1
        for sid in range(1, len(tracer.names))
        if tracer.names[sid] == name
        and tracer.outcomes[sid] == "Degenerate"
        and tracer.names[tracer.parents[sid]] == parent
    )


def layer_metrics(tracer, report_bytes):
    """Every PER_LAYER metric as {name: value}."""
    totals = span_totals(tracer)
    counters = tracer.counters

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_ms(name):
        return totals.get(name, {}).get("self_ns", 0) / 1e6

    values = {}
    for metric, _unit, _better in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls(span)
        elif kind == "self_ms":
            values[metric] = self_ms(span)
    values["drivers.self_ms"] = sum(
        self_ms(s) for s in ("drivers.sample_classified_configuration", "drivers.campaign")
    )
    values["partitions.enumerate_candidate_partitions.yielded"] = counters.get(
        "partitions.enumerate_candidate_partitions.yielded", 0
    )
    aip = totals.get("geometry.affine_intersection_point", {})
    values["geometry.affine_intersection_point.point_ratio"] = _ratio(
        aip.get("returned", 0), aip.get("calls", 0)
    )
    values["lp.lp_feasible.feasible_ratio"] = _ratio(
        counters.get("lp.lp_feasible.feasible", 0), calls("lp.lp_feasible")
    )
    values["tverberg.is_tverberg.hit_ratio"] = _ratio(
        counters.get("tverberg.is_tverberg.hits", 0), calls("tverberg.is_tverberg")
    )
    values["constraints.found_ratio"] = _ratio(
        counters.get("constraints.witness_search.found", 0), calls("constraints.witness_search")
    )
    values["constraints.degenerate_skips"] = _degenerate_under(
        tracer, "tverberg.is_tverberg", "constraints.witness_search"
    )
    values["drivers.degenerate_redraws"] = _degenerate_under(
        tracer, "tverberg.tverberg_records", "drivers.sample_classified_configuration"
    )
    for counter in (
        "complexes.faces.total",
        "homology.faces_built",
        "homology.unit_rank",
        "homology.residual_entries",
    ):
        values[counter] = counters.get(counter, 0)
    values["cli.report_bytes"] = report_bytes
    return values


def deterministic_counts(values):
    """The per-layer values that must repeat exactly: everything but times."""
    return {k: v for k, v in values.items() if not k.endswith("self_ms")}


def top_self_times(tracer):
    """The five span names with the largest total self time, as (name, ms)."""
    totals = span_totals(tracer)
    ranked = sorted(totals.items(), key=lambda kv: kv[1]["self_ns"], reverse=True)
    return [(name, t["self_ns"] / 1e6) for name, t in ranked[:5]]
