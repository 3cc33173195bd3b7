"""Scaling to reference speed, and the stratified size draws of det-exact."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def test_scale_is_inverse_in_the_reference_time():
    assert hostspeed.scale(2.0, hostspeed.REFERENCE_S) == 2.0
    assert hostspeed.scale(2.0, 2.0 * hostspeed.REFERENCE_S) == 1.0


def test_reference_kernel_takes_time():
    assert hostspeed.reference_kernel() > 0.0


def test_sizes_take_one_draw_per_stratum_in_increasing_order():
    rng = random.Random(7)
    for strata in (workloads.HANKEL_STRATA, workloads.TOEPLITZ_STRATA):
        for _ in range(50):
            sizes = workloads._sizes(rng, strata)
            assert all(size in stratum for size, stratum in zip(sizes, strata))
            assert list(sizes) == sorted(set(sizes))
