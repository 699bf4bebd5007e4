#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

The statistics and span tests are pure. The paper-accuracy test builds
the driver and the four figure benches (into .bench_build, as run.py
does) and checks that paper_err.* equals the gap to the paper in what
bench_fig05/07/09/10 print at the same length and seed.
"""

import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [7, 1, 9, 3, 5, 2, 8, 4, 10, 6]
        self.assertEqual(stats.median(values), 5.5)
        self.assertEqual(stats.quartiles(values), (2.75, 8.25))
        self.assertAlmostEqual(stats.relative_spread(values), 5.5 / 5.5)

    def test_tail_needs_more_than_ten_samples(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertIsNone(stats.tail(list(range(10)), higher_is_worse=False))

    def test_tail_leaves_ten_samples_beyond(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(stats.tail(values), (90.0, 90, 100))
        self.assertEqual(stats.tail(values, higher_is_worse=False), (10.0, 11, 100))
        pct, value, n = stats.tail(list(range(1, 12)))
        self.assertEqual((value, n), (1, 11))
        self.assertEqual(sum(v > value for v in range(1, 12)), 10)
        self.assertAlmostEqual(pct, 100.0 / 11)


def span(id_, name, start, end, parent=-1, ops=0):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "job": 0, "ops": ops}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, "job", 0, 100), span(1, "a", 10, 30, 0), span(2, "b", 40, 90, 0),
                 span(3, "c", 50, 60, 2)]
        own = stats.self_times(spans)
        self.assertEqual(own, {0: 30, 1: 20, 2: 40, 3: 10})

    def test_overlapping_children_are_counted_once(self):
        spans = [span(0, "job", 0, 100), span(1, "a", 10, 50, 0), span(2, "b", 30, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, "job", 0, 100), span(1, "a", 80, 130, 0), span(2, "b", -20, 10, 0)]
        self.assertEqual(stats.self_times(spans)[0], 70)

    def test_totals_by_name(self):
        spans = [span(0, "job", 0, 100), span(1, "sim", 0, 40, 0, ops=4),
                 span(2, "job", 100, 200), span(3, "sim", 150, 200, 2, ops=6)]
        self.assertEqual(stats.self_time_by_name(spans), {"job": (110, 0), "sim": (90, 10)})


FIGURES = {
    # bench target: (regex on its headline line, measured key, paper key, decimals)
    "perfbench_bench_fig05_ipc": (r"measured ([+-]?[0-9.]+)%", "ipc_loss_pct",
                                  "ipc_loss_pp", 2),
    "perfbench_bench_fig07_08_lsq_energy": (r"measured ([0-9.]+)%", "lsq_energy_saved_pct",
                                            "lsq_energy_saved_pp", 1),
    "perfbench_bench_fig09_dcache_energy": (r"ours: mean ([0-9.]+)%",
                                            "dcache_energy_saved_pct",
                                            "dcache_energy_saved_pp", 1),
    "perfbench_bench_fig10_dtlb_energy": (r"ours: mean ([0-9.]+)%", "dtlb_energy_saved_pct",
                                          "dtlb_energy_saved_pp", 1),
}
PAPER = {"ipc_loss_pp": 0.6, "lsq_energy_saved_pp": 82.0, "dcache_energy_saved_pp": 42.0,
         "dtlb_energy_saved_pp": 73.0}


class PaperErrTest(unittest.TestCase):
    INSTS = 30_000

    def test_paper_err_matches_the_figure_benches(self):
        out = run.build(("perfbench_driver", *FIGURES))
        result, _ = run.driver(out, "accuracy", "--seeds", str(run.REPRODUCTION_SEED),
                               "--insts", str(self.INSTS))
        seed = result["seeds"][0]
        self.assertEqual(seed["failed"], 0)
        env = dict(os.environ, SAMIE_BENCH_INSTS=str(self.INSTS))
        for target, (pattern, measured_key, err_key, decimals) in FIGURES.items():
            with self.subTest(target=target):
                text = subprocess.run([str(out / target)], env=env, capture_output=True,
                                      text=True, check=True).stdout
                printed = float(re.search(pattern, text).group(1))
                tolerance = 0.5 * 10 ** -decimals + 1e-9
                self.assertAlmostEqual(seed["measured"][measured_key], printed,
                                       delta=tolerance)
                self.assertAlmostEqual(seed["paper_err"][err_key],
                                       abs(printed - PAPER[err_key]), delta=tolerance)


if __name__ == "__main__":
    unittest.main()
