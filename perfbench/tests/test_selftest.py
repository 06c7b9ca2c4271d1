"""Self-test: each workload, run twice at a small size with one seed, must
repeat every exact count (bytes, round trips, verified sessions, symbols,
frames, Bloom and IBLT counts) — in the end-to-end and the traced run.

    python3 -m unittest discover -s perfbench/tests -v

Builds the perfbench binary first if needed (see run.py).
"""

import pathlib
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

SEED = 11
SECONDS = 0.5


def exact_counts(report):
    """Everything in a report that must not depend on timing."""
    if "e2e" in report:
        s = report["e2e"]["sessions"]
        return {"sessions": {k: s[k] for k in ("wire_bytes", "round_trips", "ok", "cls",
                                               "pass")},
                "counters": report["e2e"]["counters"]}
    tracer = report["trace"]["tracer"]
    return {"counters": report["trace"]["counters"],
            "span_names": [tracer["names"][row[3]] for row in tracer["spans"]]}


class RepeatsExactly(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check(self, workload, trace):
        first, status1 = run.run_binary(self.binary, workload, SEED, SECONDS, trace)
        second, status2 = run.run_binary(self.binary, workload, SEED, SECONDS, trace)
        self.assertEqual((status1, status2), (0, 0))
        self.assertEqual(first["errors"], [])
        self.assertEqual(exact_counts(first), exact_counts(second))

    def test_relay_block(self):
        self.check("relay_block", trace=False)
        self.check("relay_block", trace=True)

    def test_relay_block_counts_pingpong(self):
        # With IBLTs sized for a 1-in-2 decode failure, one of this seed's 16
        # Protocol 2 relays needs ping-pong decoding (none does at the default
        # 1-in-240) and then goes on to repair, whose outcome no longer
        # carries the flag.
        report, status = run.run_binary(self.binary, "relay_block", 3, 2, True,
                                        extra=("--fail-denom", "2"))
        self.assertEqual((status, report["errors"]), (0, []))
        counters = report["trace"]["counters"]
        self.assertEqual(counters["graphene.protocol2"], 16)
        self.assertEqual(counters["graphene.pingpong"], 1)

    def test_sync_graphene(self):
        self.check("sync_graphene", trace=False)
        self.check("sync_graphene", trace=True)

    def test_sync_rateless(self):
        self.check("sync_rateless", trace=False)
        self.check("sync_rateless", trace=True)


if __name__ == "__main__":
    unittest.main()
