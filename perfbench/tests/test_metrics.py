"""Unit tests of perfbench/metrics.py: the link model, the p99 "ten samples
beyond" rule, the self-time aggregation and the metric names.

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402


def span(sid, parent, name, start, end, session=0):
    return [sid, parent, session, name, start, end]


class LinkModel(unittest.TestCase):
    def test_adds_wall_time_round_trips_and_serialization(self):
        # 10 ms measured, 2 round trips, 1250 B = 10,000 bits.
        self.assertAlmostEqual(metrics.completion_ms(10.0, 2, 1250, 1.0, 1e9), 12.01)
        self.assertAlmostEqual(metrics.completion_ms(10.0, 2, 1250, 100.0, 10e6), 211.0)

    def test_profiles_are_the_roadmap_links(self):
        self.assertEqual(metrics.LINKS["lan"], {"rtt_ms": 1.0, "bits_per_s": 1e9})
        self.assertEqual(metrics.LINKS["wan"], {"rtt_ms": 100.0, "bits_per_s": 10e6})


class TailRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))
        self.assertEqual(metrics.percentile(values, 50), 5)
        self.assertEqual(metrics.percentile(values, 90), 9)
        self.assertEqual(metrics.percentile(values, 100), 10)
        self.assertEqual(metrics.percentile([7], 99), 7)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(999, 99), 9)
        self.assertIsNone(metrics.tail_percentile(list(range(999)), 99))
        self.assertEqual(metrics.tail_percentile(list(range(1000)), 99), 989)
        self.assertIsNone(metrics.tail_percentile([], 99))

    def test_e2e_refuses_a_p99_without_support(self):
        with self.assertRaises(metrics.MetricError):
            metrics.e2e_metrics(e2e_report(999))


class SelfTime(unittest.TestCase):
    def test_subtracts_direct_children_only(self):
        spans = [
            span(0, -1, 0, 0, 100),   # root: 100 - (30 + 10) = 60
            span(1, 0, 1, 10, 40),    # A: 30 - 10 = 20
            span(2, 1, 2, 15, 25),    # C (child of A): 10
            span(3, 0, 3, 50, 60),    # B: 10
        ]
        self.assertEqual(metrics.self_times(spans), {0: 60, 1: 20, 2: 10, 3: 10})

    def test_sums_spans_sharing_a_name(self):
        spans = [span(0, -1, 0, 0, 10), span(1, -1, 0, 20, 25), span(2, 1, 1, 21, 22)]
        self.assertEqual(metrics.self_times(spans), {0: 14, 1: 1})


def e2e_report(n):
    """n sessions over two passes; session i takes (i + 1) us of wall time,
    2 ms of CPU and 1 ms of host CPU. The last one fails."""
    return {
        "peak_rss_mb": 12.5,
        "errors": [],
        "e2e": {
            "setup_ns": [3e8, 1e8, 2e8],
            "counters": {},
            "sessions": {
                "wall_ns": [(i + 1) * 1000 for i in range(n)],
                "cpu_ns": [2_000_000] * n,
                "host_cpu_ns": [1_000_000] * n,
                "wire_bytes": [1000] * n,
                "round_trips": [2] * n,
                "ok": [1] * (n - 1) + [0],
                "cls": [0] * n,
                "pass": [2 * i // n for i in range(n)],
            },
        },
    }


class EndToEnd(unittest.TestCase):
    def test_metrics_from_records(self):
        m = metrics.e2e_metrics(e2e_report(1000))
        self.assertEqual([name for name, _ in metrics.END_TO_END], list(m))
        self.assertAlmostEqual(m["setup_s"][0], 0.2)
        wall_s = 500_500 * 1000 / 1e9  # sum of (i + 1) us
        self.assertAlmostEqual(m["sessions_per_s"][0], 999 / wall_s)
        self.assertAlmostEqual(m["session_ms_p50"][0], 0.5)
        self.assertAlmostEqual(m["session_ms_p99"][0], 0.99)
        self.assertAlmostEqual(m["cpu_ms_per_session"][0], 2.0)
        self.assertAlmostEqual(m["host_cpu_ms_per_session"][0], 1.0)
        self.assertAlmostEqual(m["ok_share"][0], 0.999)
        mean_wall = 0.5005
        self.assertAlmostEqual(m["completion_ms_lan"][0], mean_wall + 2 + 0.008)
        self.assertAlmostEqual(m["completion_ms_wan"][0], mean_wall + 200 + 0.8)
        result = metrics.result(e2e_report(1000), m)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (True, 1000, 1))

    def test_wall_time_metrics_leave_out_disturbed_sessions(self):
        report = e2e_report(1100)
        s = report["e2e"]["sessions"]
        for i in range(0, 1100, 11):  # 100 sessions held off the CPU > 1 ms
            s["wall_ns"][i] += 3_000_000
        s["cpu_ns"][1] = 0  # off the CPU for all of its 2 us: kept
        m = metrics.e2e_metrics(report)
        self.assertEqual(len(metrics.undisturbed(s)), 1000)
        self.assertAlmostEqual(m["session_ms_p50"][0],
                               metrics.percentile(
                                   [(i + 1) / 1000 for i in range(1100) if i % 11], 50))
        self.assertAlmostEqual(m["cpu_ms_per_session"][0], (1099 * 2.0) / 1100)
        self.assertAlmostEqual(m["ok_share"][0], 1099 / 1100)

    def test_p99_needs_a_thousand_sessions(self):
        with self.assertRaises(metrics.MetricError):
            metrics.e2e_metrics(e2e_report(999))


class PerLayer(unittest.TestCase):
    def report(self, e2e_wall_ns=None):
        names = ["replay.daemon", "daemon.peer", "daemon.client", "replay.backend",
                 "reconcile.host_open", "reconcile.host_serve", "graphene.build_request",
                 "graphene.serve", "net.checksum"]
        spans = [
            span(0, -1, 0, 0, 10_000_000),           # traced root, 10 ms
            span(1, 0, 1, 0, 3_000_000),             # daemon.peer 3 ms
            span(2, 0, 2, 3_000_000, 4_000_000),     # daemon.client 1 ms
            span(3, -1, 3, 20_000_000, 30_000_000),  # backend replay root
            span(4, 3, 4, 20_000_000, 21_000_000),   # host_open 1 ms
            span(5, 3, 5, 21_000_000, 22_000_000),   # host_serve 1 ms
            span(6, -1, 6, 40_000_000, 41_000_000),  # protocol 2 pieces, 1 ms each
            span(7, -1, 7, 41_000_000, 42_000_000),
            span(8, -1, 8, 50_000_000, 54_000_000),  # checksum 4 ms
        ]
        trace = {
            "format": "perfbench.trace.v1", "sessions": 2, "root": "replay.daemon",
            "untraced_ns": [8_000_000, 8_000_000],
            "counters": {"sessions": 2, "ok": 2, "net.frames": 7,
                         "net.bytes.hello": 64, "rateless.symbols_sent": 30,
                         "rateless.symbols_consumed": 20, "graphene.fetch_round": 1},
            "tracer": {"names": names, "spans": spans},
        }
        if e2e_wall_ns is not None:
            trace["e2e_wall_ns"] = e2e_wall_ns
        return {"errors": [], "trace": trace}

    def test_metrics_are_per_session_self_times_and_counts(self):
        m = metrics.layer_metrics(self.report(e2e_wall_ns=[9_000_000, 11_000_000]))
        self.assertEqual([name for name, _ in metrics.per_layer_names()], list(m))
        self.assertAlmostEqual(m["graphene.protocol2_ms"][0], 1.0)   # 2 ms / 2 sessions
        self.assertAlmostEqual(m["net.checksum_ms"][0], 2.0)
        self.assertAlmostEqual(m["reconcile.host_open_ms"][0], 0.5)
        self.assertAlmostEqual(m["daemon.peer_ms"][0], 1.5 - 1.0)   # minus the backend
        self.assertAlmostEqual(m["daemon.io_wait_ms"][0], 9.0 - 8.0)
        self.assertAlmostEqual(m["trace.overhead_share"][0], 10 / 8 - 1)
        self.assertAlmostEqual(m["net.frames_per_session"][0], 3.5)
        self.assertAlmostEqual(m["net.bytes.hello"][0], 32)
        self.assertAlmostEqual(m["rateless.sent_per_consumed"][0], 1.5)
        self.assertAlmostEqual(m["graphene.fetch_round_share"][0], 0.5)
        self.assertEqual(m["graphene.encode_ms"][0], 0)

    def test_in_process_workload_has_no_io_wait(self):
        m = metrics.layer_metrics(self.report())
        self.assertEqual(m["daemon.io_wait_ms"][0], 0.0)


class BenchmarkJson(unittest.TestCase):
    def test_names_and_units_match(self):
        path = HERE.parents[1] / "BENCHMARK.json"
        with open(path, encoding="utf-8") as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         metrics.per_layer_names())


if __name__ == "__main__":
    unittest.main()
