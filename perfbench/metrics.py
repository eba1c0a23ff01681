"""Turns the raw samples the perfbench binary prints into metrics.

Pure functions only, so perfbench/test_metrics.py can check them on
fixed inputs. perfbench/run.py does the process work around them.
"""

import statistics

# Study shapes share one digest: streamed and online-ingest studies must
# equal the batch study byte for byte.
DIGEST_FAMILY = {
    "study_batch": "study",
    "study_streamed": "study",
    "study_ingest": "study",
    "match_all": "match_all",
    "serve_replay": "serve_replay",
}


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, the spread measure the bounds are judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# ---------------------------------------------------------------------
# Spans.


def self_time_ns(spans, index):
    """A span's duration minus the part its children cover.

    Interval children cover the union of their intervals, clipped to the
    parent's; aggregate children (busy time summed over many calls, no
    interval of their own) cover their summed duration.
    """
    parent = spans[index]
    lo = parent["start_ns"]
    hi = lo + parent["dur_ns"]
    intervals = []
    aggregate = 0
    for span in spans:
        if span["parent"] != index:
            continue
        if span["aggregate"]:
            aggregate += span["dur_ns"]
            continue
        start = max(lo, span["start_ns"])
        end = min(hi, span["start_ns"] + span["dur_ns"])
        if end > start:
            intervals.append((start, end))
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return parent["dur_ns"] - covered - aggregate


def _named(spans, name):
    found = [s for s in spans if s["name"] == name]
    if not found:
        raise KeyError("no span named " + name)
    return found


def span_ns(spans, name):
    """Summed duration of every span with this name."""
    return sum(s["dur_ns"] for s in _named(spans, name))


def ns_per_item(spans, name):
    found = _named(spans, name)
    items = sum(s["items"] for s in found)
    if items <= 0:
        raise ValueError("span %s has no items" % name)
    return sum(s["dur_ns"] for s in found) / items


def attribution_gap_share(spans, pass_name, reference_name):
    """Share of the reference call's time its layer spans leave unexplained.

    `pass_name` repeats the reference call's work with a span around
    each layer call; the children of that pass cover its duration minus
    its self time. The remainder of the reference duration is the gap,
    reported rather than hidden.
    """
    index = next(i for i, s in enumerate(spans) if s["name"] == pass_name)
    covered = spans[index]["dur_ns"] - self_time_ns(spans, index)
    reference = span_ns(spans, reference_name)
    return (reference - covered) / reference


# ---------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, function of the raw record).


def _ratio(a, b):
    return a / b if b else 0.0


def _skew(spans, name):
    durations = [s["dur_ns"] for s in _named(spans, name)]
    return max(durations) / statistics.fmean(durations)


def _overhead(raw):
    return median(raw["traced_s"]) / median(raw["untraced_s"]) - 1.0


def _ms(spans, name):
    return median([s["dur_ns"] for s in _named(spans, name)]) / 1e6


PER_LAYER = [
    ("synth.fleet.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "synth.fleet")),
    ("synth.sink.busy_share", "ratio", "lower",
     lambda r, s, c: span_ns(s, "synth.sink.consume") /
     span_ns(s, "synth.sink_run")),
    ("clean.order_repair.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "clean.order_repair")),
    ("clean.outlier_filter.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "clean.outlier_filter")),
    ("clean.segmentation.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "clean.segmentation")),
    ("clean.trip_filter.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "clean.trip_filter")),
    ("clean.parallel_speedup", "ratio", "higher",
     lambda r, s, c: span_ns(s, "clean.trips_serial") /
     span_ns(s, "clean.trips_parallel")),
    ("clean.kept_ratio", "ratio", "higher",
     lambda r, s, c: _ratio(c["clean.clean_points"], c["clean.raw_points"])),
    ("clean.attribution_gap_share", "ratio", "lower",
     lambda r, s, c: attribution_gap_share(s, "clean.serial_pass",
                                           "clean.trips_serial")),
    ("odselect.gate_crossing.ns_per_segment", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "odselect.gate_crossing")),
    ("mapmatch.match.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "mapmatch.match")),
    ("mapmatch.candidates.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "mapmatch.candidates")),
    ("mapmatch.gap_fill.ns_per_call", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "mapmatch.gap_fill")),
    ("mapmatch.parallel_speedup", "ratio", "higher",
     lambda r, s, c: span_ns(s, "mapmatch.subset_serial") /
     span_ns(s, "mapmatch.subset_parallel")),
    ("mapmatch.route_cache.hit_ratio", "ratio", "higher",
     lambda r, s, c: _ratio(c["mapmatch.route_cache.hits"],
                            c["mapmatch.route_cache.hits"] +
                            c["mapmatch.route_cache.misses"])),
    ("mapmatch.attribution_gap_share", "ratio", "lower",
     lambda r, s, c: attribution_gap_share(s, "select.serial_pass",
                                           "select.match_segment_serial")),
    ("roadnet.router.settled_per_search", "count", "lower",
     lambda r, s, c: _ratio(c["roadnet.router.settled_vertices"],
                            c["roadnet.router.searches"])),
    ("roadnet.spatial_index.hit_ratio", "ratio", "higher",
     lambda r, s, c: _ratio(c["roadnet.spatial_index.hits"],
                            c["roadnet.spatial_index.candidates"])),
    ("mapattr.fetch.ns_per_transition", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "mapattr.fetch")),
    ("analysis.grid.ns_per_point", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "analysis.grid")),
    ("model.reml.fit_ms", "ms", "lower",
     lambda r, s, c: _ms(s, "model.reml.fit")),
    ("stream.reorder.ns_per_record", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "stream.reorder")),
    ("stream.flush.ns_per_window", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "stream.flush")),
    ("stream.car_skew", "ratio", "lower",
     lambda r, s, c: _skew(s, "stream.car")),
    ("stream.peak_buffered_records", "count", "lower",
     lambda r, s, c: c["stream.peak_buffered_records"]),
    ("stream.latency_p99_slots", "slots", "lower",
     lambda r, s, c: c["stream.latency_p99_slots"]),
    ("serve.snapshot.build_ms", "ms", "lower",
     lambda r, s, c: _ms(s, "serve.snapshot.build")),
    ("serve.snapshot.load_ms", "ms", "lower",
     lambda r, s, c: _ms(s, "serve.snapshot.load")),
    ("serve.point.ns_per_query", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "serve.point")),
    ("serve.bbox.ns_per_query", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "serve.bbox")),
    ("serve.slice.ns_per_query", "ns", "lower",
     lambda r, s, c: ns_per_item(s, "serve.slice")),
    ("serve.replay.qps", "1/s", "higher",
     lambda r, s, c: c["serve.replay.qps"]),
    ("serve.replay.p50_us", "us", "lower",
     lambda r, s, c: c["serve.replay.p50_us"]),
    ("serve.replay.p99_us", "us", "lower",
     lambda r, s, c: c["serve.replay.p99_us"]),
] + [
    ("core.stage.%s_ms" % stage, "ms", "lower",
     (lambda key: lambda r, s, c: c[key])("core.stage.%s_ms" % stage))
    for stage in ("map_generation", "simulation", "cleaning",
                  "selection_matching", "stream_ingestion", "analysis")
] + [
    ("obs.overhead_share", "ratio", "lower", lambda r, s, c: _overhead(r)),
]

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def per_layer_metrics(raw):
    spans, counts = raw["spans"], raw["counts"]
    return {name: {"value": fn(raw, spans, counts), "unit": unit}
            for name, unit, _, fn in PER_LAYER}


# What the calibration kernel takes on the reference box when its host
# is quiet. Times are reported in seconds at that host speed.
CALIBRATION_REFERENCE_S = 0.1


def normalized(times, calibration):
    """Scales each time to reference host speed.

    calibration[k] and calibration[k + 1] are the calibration runs taken
    just before and just after times[k]; their mean is the host's speed
    while times[k] ran.
    """
    if len(calibration) != len(times) + 1:
        raise ValueError("need one calibration run around each time")
    return [t * 2.0 * CALIBRATION_REFERENCE_S /
            (calibration[k] + calibration[k + 1])
            for k, t in enumerate(times)]


def end_to_end_metrics(raw):
    # The host is shared and its speed drifts by tens of percent over
    # minutes, so every time is first normalized by the calibration runs
    # around it; then the run reports the median of its repetitions.
    walls = [run["wall_s"] for run in raw["runs"]]
    values = {
        "wall_s": median(normalized(walls, raw["calib_s"])),
        "setup_s": median(normalized(raw["setup_s"], raw["setup_calib_s"])),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


# ---------------------------------------------------------------------
# Correctness.


def check_outputs(raw, reference):
    """Returns (attempted, failed, problems) for one run's record.

    Every job's digest must equal the expected digest: the committed
    reference for this workload family and seed when there is one, else
    the in-run check digest (the warm-up job's). A job whose digest
    differs fails all its units, or only the units whose own hash
    differed when the binary could tell (match_all segments). A wrong
    check digest fails every unit.
    """
    family = DIGEST_FAMILY[raw["workload"]]
    expected = raw["check_digest"]
    problems = []
    if not raw["check_ok"]:
        problems.append("warm-up runs disagree")
    known = reference.get(family, {}).get(str(raw["seed"]))
    if known is not None and known != expected:
        problems.append("check digest %s != reference %s" % (expected, known))
    if raw["batch_digest"] and raw["batch_digest"] != expected:
        problems.append("digest %s != batch study %s" %
                        (expected, raw["batch_digest"]))
    if known is not None:
        expected = known
    attempted = sum(run["units"] for run in raw["runs"])
    if problems:
        return attempted, attempted, problems
    failed = 0
    for run in raw["runs"]:
        if run["digest"] != expected:
            failed += run["unit_mismatches"] or run["units"]
    if failed:
        problems.append("%d of %d units returned a wrong digest" %
                        (failed, attempted))
    return attempted, failed, problems
