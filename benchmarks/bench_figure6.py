"""Figure 6: K-Means on Stampede and Wrangler, RP vs RP-YARN.

Regenerates the full grid: 3 scenarios (10k pts / 5k clusters,
100k / 500, 1M / 50; 3-D; 2 iterations) x task counts {8, 16, 32} on
{1, 2, 3} nodes x 2 machines x 2 runtimes.  Every cell re-validates
the computed centroids against the single-process NumPy reference.

Asserted paper shapes:
* runtimes decrease with the number of tasks (every scenario);
* Wrangler is faster than Stampede for matching cells;
* RP-YARN wins at larger task counts ("mainly due to the better
  performance of the local disks"), with a positive net advantage at
  >= 16 tasks (paper: +13% on average);
* RP-YARN's 8->32 speedup beats plain RP's on the 1M-point scenario
  (paper: 3.2 vs 2.4);
* plain RP's speedup declines as points (and thus shuffle I/O) grow;
* the YARN overhead is visible at 8 tasks.

See EXPERIMENTS.md for the divergences (notably: the paper reports no
speedup decline on Wrangler, while our calibration — which trades that
off to reproduce the net YARN advantage — shows a mild one).
"""

import pytest

from repro.experiments.figure6 import KMeansRow, speedup
from repro.experiments.sweeps import run_sweep
from repro.experiments.tables import figure6_report


def _figure6_rows():
    return [KMeansRow(**r) for r in run_sweep("figure6", jobs=1).rows()]


@pytest.mark.figure("6")
def test_kmeans_grid(benchmark):
    rows = benchmark.pedantic(_figure6_rows, rounds=1, iterations=1)
    assert len(rows) == 36
    assert all(r.centroids_ok for r in rows)

    def runtime(machine, flavor, points, ntasks):
        return next(r.runtime for r in rows
                    if r.machine == machine and r.flavor == flavor
                    and r.points == points and r.ntasks == ntasks)

    # runtimes decrease with task count, everywhere
    for machine in ("stampede", "wrangler"):
        for flavor in ("RP", "RP-YARN"):
            for points in (10_000, 100_000, 1_000_000):
                t8 = runtime(machine, flavor, points, 8)
                t16 = runtime(machine, flavor, points, 16)
                t32 = runtime(machine, flavor, points, 32)
                assert t8 > t16 > t32, (machine, flavor, points)

    # Wrangler beats Stampede cell-for-cell (better hardware)
    for flavor in ("RP", "RP-YARN"):
        for points in (10_000, 100_000, 1_000_000):
            for ntasks in (8, 16, 32):
                assert (runtime("wrangler", flavor, points, ntasks)
                        < runtime("stampede", flavor, points, ntasks))

    # YARN wins at larger task counts where I/O and environment loading
    # contend on Lustre: all 32-task Stampede cells, and the big
    # scenario at 16 tasks on both machines
    for points in (10_000, 100_000, 1_000_000):
        assert (runtime("stampede", "RP-YARN", points, 32)
                < runtime("stampede", "RP", points, 32))
    assert (runtime("stampede", "RP-YARN", 1_000_000, 16)
            < runtime("stampede", "RP", 1_000_000, 16))
    assert (runtime("wrangler", "RP-YARN", 1_000_000, 16)
            < runtime("wrangler", "RP", 1_000_000, 16))

    # and with a better 8->32 speedup (paper: 3.2 vs 2.4 at 1M points)
    for machine in ("stampede", "wrangler"):
        s_yarn = speedup(rows, machine, "RP-YARN", 1_000_000)
        s_rp = speedup(rows, machine, "RP", 1_000_000)
        assert s_yarn > s_rp, (machine, s_yarn, s_rp)

    # the net YARN advantage at >=16 tasks is positive (paper: +13%)
    from repro.experiments.figure6 import yarn_advantage
    assert yarn_advantage(rows) > 0.0

    # YARN overhead visible at 8 tasks on the small scenario
    assert (runtime("stampede", "RP-YARN", 10_000, 8)
            > runtime("stampede", "RP", 10_000, 8))

    # plain-RP speedup declines as points (and thus I/O) grow
    st_small = speedup(rows, "stampede", "RP", 10_000)
    st_big = speedup(rows, "stampede", "RP", 1_000_000)
    assert st_small - st_big > 0.2

    benchmark.extra_info["speedup_stampede_rp_1m"] = round(st_big, 2)
    benchmark.extra_info["speedup_stampede_yarn_1m"] = round(
        speedup(rows, "stampede", "RP-YARN", 1_000_000), 2)
    print("\n" + figure6_report(rows))
