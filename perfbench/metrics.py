"""Turns a perfbench report into named metrics.

The perfbench binary measures and counts; everything statistical lives here so
run.py (end-to-end metrics) and trace_report.py (per-layer metrics) share
one implementation, unit-tested in tests/test_metrics.py.
"""

import statistics

# Link profiles of the modelled completion time (ROADMAP): a LAN peer and a
# WAN peer.
LINKS = {
    "lan": {"rtt_ms": 1.0, "bits_per_s": 1e9},
    "wan": {"rtt_ms": 100.0, "bits_per_s": 10e6},
}

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# A session that spent longer than this off the CPU is left out of the
# wall-time metrics. Every workload runs on one thread that never blocks, so
# a session's wall time minus its process CPU time is time the host (steal)
# or the kernel (preemption) kept it waiting, not work of the program.
MAX_OFF_CPU_NS = 1_000_000

END_TO_END = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p99", "ms"),
    ("cpu_ms_per_session", "ms"),
    ("host_cpu_ms_per_session", "ms"),
    ("wire_bytes_per_session", "bytes"),
    ("round_trips_per_session", "count"),
    ("completion_ms_lan", "ms"),
    ("completion_ms_wan", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
]

# Per-layer self times: metric -> the span names whose self time it sums.
SPAN_METRICS = {
    "graphene.sender_init_ms": ["graphene.sender_init"],
    "graphene.encode_ms": ["graphene.encode"],
    "graphene.receive_block_ms": ["graphene.receive_block"],
    "graphene.protocol2_ms": ["graphene.build_request", "graphene.serve", "graphene.complete"],
    "graphene.repair_ms": [
        "graphene.build_repair", "graphene.serve_repair", "graphene.complete_repair"],
    "chain.mempool_ids_ms": ["chain.mempool_ids"],
    "bloom.scan_ms": ["bloom.scan"],
    "graphene.short_ids_ms": ["graphene.short_ids"],
    "iblt.decode_ms": ["iblt.decode"],
    "chain.merkle_ms": ["chain.merkle"],
    "reconcile.host_open_ms": ["reconcile.host_open"],
    "reconcile.host_serve_ms": ["reconcile.host_serve"],
    "reconcile.client_absorb_ms": ["reconcile.client_absorb"],
    "reconcile.client_request_ms": ["reconcile.client_request"],
    "net.serialize_ms": ["net.serialize"],
    "net.parse_ms": ["net.parse"],
    "net.frame_encode_ms": ["net.frame_encode"],
    "net.frame_decode_ms": ["net.frame_decode"],
    "net.checksum_ms": ["net.checksum"],
}

# The daemon layer's own cost: its call's time in the daemon replay minus the
# backend time of the same sessions in the bare-backend replay.
DAEMON_SELF = {
    "daemon.peer_ms": ("daemon.peer", ["reconcile.host_open", "reconcile.host_serve"]),
    "daemon.client_ms": (
        "daemon.client", ["reconcile.client_absorb", "reconcile.client_request"]),
}

# Counts per session: metric -> counter.
COUNT_METRICS = {
    "graphene.protocol2_share": ("graphene.protocol2", "share"),
    "graphene.repair_share": ("graphene.repair", "share"),
    "graphene.pingpong_share": ("graphene.pingpong", "share"),
    "graphene.request_round_share": ("graphene.request_round", "share"),
    "graphene.fetch_round_share": ("graphene.fetch_round", "share"),
    "bloom.items_scanned": ("bloom.items_scanned", "count"),
    "bloom.false_positives": ("bloom.false_positives", "count"),
    "iblt.cells": ("iblt.cells", "count"),
    "rateless.symbols_sent": ("rateless.symbols_sent", "count"),
    "rateless.symbols_consumed": ("rateless.symbols_consumed", "count"),
    "net.frames_per_session": ("net.frames", "count"),
}

# Wire commands of the three workloads; each gets a net.bytes.<command>.
COMMANDS = [
    "grblk", "grblkreq", "grblkresp", "getblocktxn", "blocktxn",
    "hello", "bye", "rcnoffer", "rcnreq", "rcnresp", "rcnfetch", "rcnfetchresp",
    "rlchunk", "rlneed",
]


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [(m, "ms") for m in SPAN_METRICS]
    names += [(m, "ms") for m in DAEMON_SELF]
    names.append(("daemon.io_wait_ms", "ms"))
    names += [(m, unit) for m, (_, unit) in COUNT_METRICS.items()]
    names.append(("rateless.sent_per_consumed", "ratio"))
    names.append(("daemon.conn_errors", "count"))
    names.append(("daemon.typed_closes", "count"))
    names += [("net.bytes." + c, "bytes") for c in COMMANDS]
    names.append(("trace.overhead_share", "share"))
    return names


class MetricError(Exception):
    """A report that cannot support a metric (e.g. too few samples)."""


def percentile(values, pct):
    """Nearest-rank percentile (pct in 1..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # ceil without floats
    return ordered[rank - 1]


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - max(1, -(-pct * n // 100))


def tail_percentile(values, pct, min_beyond=MIN_BEYOND):
    """The pct-th percentile, or None when fewer than min_beyond samples lie
    beyond it (a p99 needs at least 1000 samples)."""
    if not values or samples_beyond(len(values), pct) < min_beyond:
        return None
    return percentile(values, pct)


def completion_ms(wall_ms, round_trips, wire_bytes, rtt_ms, bits_per_s):
    """Modelled completion time on a link: the measured wall time plus one
    RTT per round trip plus the time to clock the bytes onto the link."""
    return wall_ms + round_trips * rtt_ms + wire_bytes * 8.0 / bits_per_s * 1000.0


def undisturbed(sessions):
    """Indices of the sessions that spent at most MAX_OFF_CPU_NS off the CPU."""
    return [i for i, (wall, cpu) in enumerate(zip(sessions["wall_ns"], sessions["cpu_ns"]))
            if wall - cpu <= MAX_OFF_CPU_NS]


def e2e_metrics(report):
    """Every end-to-end metric of an untraced report: {name: (value, unit)},
    over the sessions of every pass. Wall-time metrics use the undisturbed
    sessions; CPU times and counts use all of them."""
    e2e = report["e2e"]
    s = e2e["sessions"]
    n = len(s["wall_ns"])
    if n == 0:
        raise MetricError("no sessions")
    kept = undisturbed(s)
    wall_ms = [s["wall_ns"][i] / 1e6 for i in kept]
    p99 = tail_percentile(wall_ms, 99)
    if p99 is None:
        raise MetricError(f"session_ms_p99 needs {MIN_BEYOND} samples beyond it; "
                          f"{len(kept)} undisturbed sessions give "
                          f"{samples_beyond(len(kept), 99)}")
    ok = sum(s["ok"])
    values = {
        "setup_s": statistics.median(e2e["setup_ns"]) / 1e9,
        # Sessions run back to back, so their summed wall time is the time
        # of the timed phase without the set-ups between passes.
        "sessions_per_s": sum(s["ok"][i] for i in kept) / (sum(wall_ms) / 1e3),
        "session_ms_p50": percentile(wall_ms, 50),
        "session_ms_p99": p99,
        "cpu_ms_per_session": sum(s["cpu_ns"]) / n / 1e6,
        "host_cpu_ms_per_session": sum(s["host_cpu_ns"]) / n / 1e6,
        "wire_bytes_per_session": sum(s["wire_bytes"]) / n,
        "round_trips_per_session": sum(s["round_trips"]) / n,
        "ok_share": ok / n,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    for link, prof in LINKS.items():
        # The mean, not the median: round trips are whole numbers, so the
        # median session's completion jumps by a full RTT whenever the
        # sessions at the median change trip count.
        values["completion_ms_" + link] = statistics.fmean(
            completion_ms(w, s["round_trips"][i], s["wire_bytes"][i], prof["rtt_ms"],
                          prof["bits_per_s"])
            for w, i in zip(wall_ms, kept))
    return {name: (values[name], unit) for name, unit in END_TO_END}


def self_times(spans):
    """Total self time (ns) per name index: each span's duration minus the
    durations of its direct children. spans: [id, parent, session, name,
    start_ns, end_ns] rows, parent -1 for a root."""
    duration = {}
    children = {}
    for sid, parent, _session, _name, start, end in spans:
        duration[sid] = end - start
        if parent >= 0:
            children[parent] = children.get(parent, 0) + (end - start)
    totals = {}
    for sid, _parent, _session, name, _start, _end in spans:
        totals[name] = totals.get(name, 0) + duration[sid] - children.get(sid, 0)
    return totals


def layer_metrics(report):
    """Every per-layer metric of a traced report: {name: (value, unit)}."""
    trace = report["trace"]
    sessions = trace["sessions"]
    if sessions == 0:
        raise MetricError("no traced sessions")
    names = trace["tracer"]["names"]
    spans = trace["tracer"]["spans"]
    by_name = {names[i]: ns for i, ns in self_times(spans).items()}
    counters = trace["counters"]

    def mean_ms(span_names):
        return sum(by_name.get(n, 0) for n in span_names) / sessions / 1e6

    values = {m: mean_ms(spans_of) for m, spans_of in SPAN_METRICS.items()}
    for m, (outer, inner) in DAEMON_SELF.items():
        values[m] = mean_ms([outer]) - mean_ms(inner) if outer in by_name else 0.0
    if trace.get("e2e_wall_ns"):
        values["daemon.io_wait_ms"] = (percentile(trace["e2e_wall_ns"], 50) -
                                       percentile(trace["untraced_ns"], 50)) / 1e6
    else:
        values["daemon.io_wait_ms"] = 0.0  # in-process workload: no daemon to wait for
    for m, (counter, _unit) in COUNT_METRICS.items():
        values[m] = counters.get(counter, 0) / sessions
    consumed = counters.get("rateless.symbols_consumed", 0)
    values["rateless.sent_per_consumed"] = (
        counters.get("rateless.symbols_sent", 0) / consumed if consumed else 0.0)
    values["daemon.conn_errors"] = counters.get("daemon.conn_errors", 0)
    values["daemon.typed_closes"] = counters.get("daemon.typed_closes", 0)
    for c in COMMANDS:
        values["net.bytes." + c] = counters.get("net.bytes." + c, 0) / sessions

    root = names.index(trace["root"])
    traced = [end - start for _i, parent, _s, name, start, end in spans
              if name == root and parent < 0]
    values["trace.overhead_share"] = (
        percentile(traced, 50) / percentile(trace["untraced_ns"], 50) - 1.0)
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def result(report, values):
    """The benchmark's one-line result object."""
    if "e2e" in report:
        ok = report["e2e"]["sessions"]["ok"]
        attempted, failed = len(ok), len(ok) - sum(ok)
    else:
        counters = report["trace"]["counters"]
        attempted = counters.get("sessions", 0)
        failed = attempted - counters.get("ok", 0)
    return {
        "correct": not report["errors"] and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()},
    }
