"""The benchmark's workloads: one ``irslink`` command line each.

Every workload is a command a user would type.  ``{out}`` and ``{svg}`` are
replaced with files in the run's scratch directory.  The CLI master seed is
chosen from the workload seed (see ``cli_seed``) and appended as ``--seed``.
"""

from __future__ import annotations

# Each workload stresses a different layer of one gain point:
#   sweep-h-uav      the paper's headline figure; the Monte Carlo wall kernel
#                    (rng, scatter, link budget, phasor combine) is ~97% of it,
#                    single-threaded, geometric ray phases.
#   optimize-refine  the experiments layer: grid evaluated twice, golden
#                    search, a 2-thread pool, and 3 rng draws per ray.
#   k-large          element-lattice construction (geometry) dominates; the
#                    Monte Carlo part is small (1,000 runs).  Not listed in
#                    BENCHMARK.json: on a shared 2-vCPU host its run_s spread
#                    over ten seeds reached 0.20, against a bound of 0.25.
#                    Run it by hand to see changes to the lattice code.
#   gain-big         one point with 4M wall paths: the memory peak of the
#                    unchunked Monte Carlo arrays.
WORKLOADS: dict[str, list[str]] = {
    "sweep-h-uav": ["sweep", "--sweep", "h-uav", "--svg", "{svg}", "--threads", "1", "--out", "{out}"],
    "optimize-refine": ["optimize", "--refine", "--ray-phases", "uniform", "--threads", "2", "--out", "{out}"],
    "k-large": ["sweep", "--sweep", "k", "--values", "10000:40000:10000", "--n-runs", "1000", "--out", "{out}"],
    "gain-big": ["gain", "--n-runs", "200000", "--out", "{out}"],
}

# References are stored for CLI seeds 0 .. N_REF_SEEDS-1; a workload seed maps
# onto them so that every invocation is compared cell by cell.
N_REF_SEEDS = 16


def cli_seed(seed: int) -> int:
    return seed % N_REF_SEEDS


def cli_argv(workload: str, seed: int, out: str, svg: str) -> list[str]:
    """The CLI arguments of ``workload`` for the CLI master seed ``seed``."""
    argv = [a.format(out=out, svg=svg) for a in WORKLOADS[workload]]
    return argv + ["--seed", str(seed)]


def threads_of(argv: list[str]) -> int:
    return int(argv[argv.index("--threads") + 1]) if "--threads" in argv else 1
