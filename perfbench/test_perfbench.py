"""Self-test of the benchmark's own code: span arithmetic, the tracer under
threads, the output comparator and the import-time parser.

    python3 -m pytest perfbench/test_perfbench.py     (or python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import io
import math
import sys
import threading
import time
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402

CSV = (check.HEADER + "\n"
       "20,12.5,0.01,0.5,0.2,0.3,0.1,0.25\n"
       "21,12.75,0.01,0.5,0.2,0.3,0.1,0.25\n")
REF = {"csv": CSV, "summary": None}


class SelfTime(unittest.TestCase):
    def test_nested_overlapping_and_clipped_children(self):
        spans = [
            Span(1, None, "root", 1, 0.0, 10.0),
            Span(2, 1, "a", 1, 1.0, 3.0),
            Span(3, 1, "b", 2, 2.0, 5.0),    # overlaps a on another thread
            Span(4, 1, "c", 2, 8.0, 12.0),   # runs past the parent's end
            Span(5, 3, "b.inner", 2, 2.5, 4.5),
        ]
        own = tracer.self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 4.0 - 2.0)  # union [1,5] and [8,10]
        self.assertAlmostEqual(own[3], 3.0 - 2.0)
        self.assertAlmostEqual(own[5], 2.0)
        self.assertAlmostEqual(own[4], 4.0)

    def test_threaded_spans_have_their_submitter_as_parent(self):
        t = tracer.Tracer()
        work = t.wrap(lambda: time.sleep(0.05), "work")

        def sweep():
            with tracer.ContextPool(max_workers=2) as pool:
                list(pool.map(lambda _: work(), range(4)))
        t.wrap(sweep, "sweep")()
        root = next(s for s in t.spans if s.name == "sweep")
        children = [s for s in t.spans if s.name == "work"]
        self.assertEqual({s.parent for s in children}, {root.id})
        self.assertGreater(len({s.thread for s in children}), 1)
        own = tracer.self_times(t.spans)
        self.assertTrue(all(v >= 0 for v in own.values()))
        self.assertLess(own[root.id], 0.5 * (root.end - root.start))
        eff = sum(s.end - s.start for s in children) / (2 * (root.end - root.start))
        self.assertTrue(0.5 < eff <= 1.0)

    def test_each_thread_keeps_its_own_stack(self):
        t = tracer.Tracer()
        barrier = threading.Barrier(2)
        inner = t.wrap(lambda: barrier.wait(timeout=5), "inner")
        outer = t.wrap(inner, "outer")
        threads = [threading.Thread(target=outer) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
            self.assertFalse(th.is_alive())
        by_id = {s.id: s for s in t.spans}
        for s in t.spans:
            if s.name == "inner":
                self.assertEqual(by_id[s.parent].name, "outer")
                self.assertEqual(by_id[s.parent].thread, s.thread)
        self.assertTrue(all(v >= 0 for v in tracer.self_times(t.spans).values()))


class Comparator(unittest.TestCase):
    def test_reference_output_passes(self):
        self.assertEqual(check.check_output(0, CSV, None, REF), [])

    def test_cells_compare_at_six_significant_digits(self):
        self.assertEqual(check.check_output(0, CSV.replace("12.5,", "12.50000,"), None, REF), [])

    def test_perturbed_cell_fails(self):
        self.assertTrue(check.check_output(0, CSV.replace("12.75", "12.7501"), None, REF))

    def test_nan_row_fails_even_without_reference(self):
        bad = CSV.replace("12.75", "nan")
        self.assertTrue(check.check_output(0, bad, None, REF))
        self.assertTrue(check.check_output(0, bad, None, None))
        self.assertTrue(check.check_output(0, CSV.replace("0.25\n", "inf\n"), None, None))

    def test_nonzero_exit_fails(self):
        self.assertEqual(check.check_output(3, CSV, None, REF), ["exit code 3"])

    def test_missing_row_and_bad_header_fail(self):
        self.assertTrue(check.check_output(0, CSV.rsplit("21,", 1)[0], None, REF))
        self.assertTrue(check.check_output(0, CSV.replace("param,", "x,"), None, None))

    def test_optimize_summary_is_compared(self):
        ref = {"csv": CSV, "summary": "l_star = 52.649, gain_db = 33.9194\n"}
        self.assertEqual(check.check_output(0, CSV, "l_star = 52.649, gain_db = 33.9194\n", ref), [])
        self.assertTrue(check.check_output(0, CSV, "l_star = 52.6491, gain_db = 33.9194\n", ref))
        self.assertTrue(check.check_output(0, CSV, "l_star = 52.649, gain_db = nan\n", None))


class ImportTime(unittest.TestCase):
    def test_top_most_package_entries_are_summed(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:       400 |        450 |   scipy.optimize",
            "import time:        70 |        820 | irslink.experiments",
            "import time:        30 |        850 | irslink",
        ])
        got = run.importtime_ms(stderr)
        self.assertEqual(got, {"setup.numpy_ms": 0.3, "setup.scipy_ms": 0.45, "setup.irslink_ms": 0.1})


class Hooks(unittest.TestCase):
    def test_every_hook_resolves_and_a_traced_call_reports_each_layer(self):
        import irslink.cli

        t = tracer.Tracer()
        undo, absent = tracer.install(t)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rc = irslink.cli.main(["sweep", "--sweep", "k", "--values", "4:9:5", "--n-runs", "50",
                                       "--threads", "2"])
        finally:
            tracer.uninstall(undo)
        self.assertEqual((rc, absent), (0, []))
        m = tracer.layer_metrics(t.spans, threads=2)
        self.assertEqual(m["experiments.points"], 2)
        self.assertEqual(m["simulator.link_budget.paths"], 2 * (50 * 20) + 4 + 9)
        self.assertEqual(m["geometry.elements_built"], 2 * (4 + 9))
        self.assertEqual(m["rng.draws"], 2 * (50 + 50 * 40))
        self.assertEqual(m["simulator.wall.bytes_computed"],
                         2 * (50 * 8 + 50 * 40 * 8 + 50 * 20 * (24 + 16 + tracer.WALL_OWN_BYTES_PER_PATH)))
        self.assertEqual(m["experiments.unique_ratio"], 1.0)
        self.assertTrue(all(math.isfinite(v) and v >= 0 for v in m.values()))
        self.assertIs(irslink.cli.main, undo[0][2])  # uninstall restored the originals

    def test_a_failing_count_is_reported_and_the_call_still_returns(self):
        t = tracer.Tracer()
        point = t.wrap(lambda cfg: 7, "simulator.point", tracer._point)  # counts need (cfg, mc)
        self.assertEqual(point("cfg"), 7)
        self.assertEqual(t.count_errors, {"simulator.point"})

    def test_unresolvable_hook_is_reported_absent(self):
        hooks = tracer.HOOKS
        tracer.HOOKS = hooks + (("irslink.simulator", "no_such_function", "rng", None),)
        try:
            undo, absent = tracer.install(tracer.Tracer())
            tracer.uninstall(undo)
        finally:
            tracer.HOOKS = hooks
        self.assertEqual(absent, ["irslink.simulator.no_such_function"])
        self.assertEqual(tracer.absent_metrics(["irslink.cli.render_line_plot"]), ["svgplot.ms"])


if __name__ == "__main__":
    unittest.main()
