"""Tests of the benchmark's own pieces.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The generator and digest tests build perfbench-tool (as run.py does)
and start a printedd of their own.
"""

import array
import json
import os
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402

SERVICE_WORKLOADS = ("hot_synth", "cold_synth", "compute_mix")


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(100000), 99.99)
        self.assertEqual(benchlib.tail_percentile(99999), 99.9)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 95.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))

    def test_chosen_percentile_leaves_ten_samples_beyond(self):
        for n in (20, 37, 200, 999, 1000, 5432, 100000):
            values = list(range(n, 0, -1))
            p = benchlib.tail_percentile(n)
            cut = benchlib.percentile(values, p)
            self.assertGreaterEqual(sum(v > cut for v in values), 10)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(values, 99.0), 990)
        self.assertEqual(benchlib.percentile(values, 50.0), 500)
        self.assertEqual(benchlib.percentile([7.0], 99.99), 7.0)
        self.assertEqual(benchlib.median([3, 1, 2, 10]), 2.5)


class Records(unittest.TestCase):
    def test_rows_round_trip_with_ok_flag(self):
        rows = array.array("d", [120.5, -1, 0, 0, 130.0, 1,
                                 9.0, 4.5, 4, 2, 50.0, 0])
        with tempfile.NamedTemporaryFile() as tmp:
            tmp.write(rows.tobytes())
            tmp.flush()
            self.assertEqual(benchlib.read_records(tmp.name), [
                (120.5, -1, "synth", 0, 130.0, True),
                (9.0, 4.5, "classify_stream", 2, 50.0, False)])


class ProcProbes(unittest.TestCase):
    def test_known_child(self):
        code = ("import sys, time\n"
                "files = [open(sys.argv[1]) for _ in range(7)]\n"
                "block = bytearray(64 << 20)\n"
                "print('ready', flush=True)\n"
                "time.sleep(30)\n")
        with tempfile.NamedTemporaryFile() as tmp:
            child = subprocess.Popen(
                [sys.executable, "-c", code, tmp.name],
                stdout=subprocess.PIPE, text=True)
            try:
                self.assertEqual(child.stdout.readline().strip(), "ready")
                own = len(os.listdir("/proc/%d/fd" % child.pid))
                self.assertEqual(benchlib.proc_fds(child.pid), own)
                self.assertGreaterEqual(own, 3 + 7)
                self.assertGreaterEqual(benchlib.proc_hwm_mb(child.pid),
                                        64)
                s = benchlib.proc_sample([child.pid, child.pid])
                self.assertAlmostEqual(
                    s["rss_mb"], 2 * benchlib.proc_hwm_mb(child.pid))
                self.assertEqual(s["fds"], 2 * own)
            finally:
                child.kill()
                child.wait()


class ToolTests(unittest.TestCase):
    """Tests that need the built perfbench-tool and printedd."""

    @classmethod
    def setUpClass(cls):
        cls.bins = run.build(run.build_dir())

    def requests(self, workload, seed, count=40):
        return subprocess.run(
            [self.bins["tool"], "requests", "--workload", workload,
             "--seed", str(seed), "--count", str(count)],
            check=True, capture_output=True, text=True).stdout

    def test_generator_reproducible_and_seeded(self):
        for w in SERVICE_WORKLOADS:
            a = self.requests(w, 1)
            self.assertEqual(a, self.requests(w, 1), w)
            self.assertNotEqual(a, self.requests(w, 2), w)
            self.assertEqual(len(a.splitlines()), 40)

    def test_cold_keys_never_repeat(self):
        lines = self.requests("cold_synth", 5, 3000).splitlines()
        bodies = [line.split(", ", 1)[1] for line in lines]
        self.assertEqual(len(set(bodies)), len(bodies))

    def load(self, port, workload, conns, first, count, tmpdir):
        out = os.path.join(tmpdir, "r-%s-%d.json" % (workload, conns))
        argv = [self.bins["tool"], "load", "--workload", workload,
                "--seed", "3", "--seconds", "120", "--port", str(port),
                "--conns", str(conns), "--first", str(first),
                "--count", str(count),
                "--out", out, "--records", out + ".bin",
                "--scratch", tmpdir]
        run.run_tool(argv, lambda _pid: {}, time.monotonic() + 170)
        with open(out) as f:
            return json.load(f)

    def test_digest_independent_of_connection_count(self):
        with tempfile.TemporaryDirectory() as tmpdir:
            svc = run.Service([self.bins["printedd"], "--port", "0"],
                              os.path.join(tmpdir, "printedd.log"))
            try:
                svc.wait_healthy()
                # A later slice of a run starts at a later index.
                for workload, first, count in (("hot_synth", 0, 400),
                                               ("cold_synth", 300, 40),
                                               ("compute_mix", 24, 24)):
                    one = self.load(svc.port, workload, 1, first, count,
                                    tmpdir)
                    many = self.load(svc.port, workload, 4, first, count,
                                     tmpdir)
                    for r in (one, many):
                        self.assertEqual(r["phases"][0]["first"], first)
                        self.assertEqual(r["phases"][0]["count"], count)
                        self.assertEqual(r["wrong"], 0)
                        self.assertEqual(r["errors"], 0)
                        self.assertEqual(r["digest"], r["expected_digest"])
                    self.assertEqual(one["digest"], many["digest"], workload)
            finally:
                svc.stop()


if __name__ == "__main__":
    unittest.main()
