"""The estimator's cost does not grow as eps -> 0.

The abstract's claim: the bound comes from slow-time solves alone, so the
work to certify a run does not depend on eps.  On the 1b (vdp), 3e
(resonant) and 4b (euler-top, d = 2) data at U = 1, the slow solve takes
the same steps at every eps from 1e-2 to 1e-6, and its n_final converges
as eps -> 0 at first order: it moves about 10 times less per decade.
"""
import numpy as np
import pytest

import averbound as ab
from averbound.estimator import EstimatorStatus

EPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@pytest.mark.parametrize("fig", ["1b", "3e", "4b"])
def test_slow_solve_steps_do_not_depend_on_eps(fig):
    example, preset = ab.figure_preset(fig)
    runs = [ab.run_estimator(example.make_system(preset.i0, eps), example.aux,
                             example.bounds, 1.0) for eps in EPS]
    assert all(run.status is EstimatorStatus.COMPLETED for run in runs)
    steps = {(run.traj.stats.accepted, run.traj.stats.rejected) for run in runs}
    assert len(steps) == 1, steps
    n_final = np.array([float(run.n[-1]) for run in runs])
    moves = np.abs(np.diff(n_final))
    assert moves.min() > 0.0
    ratios = moves[:-1] / moves[1:]
    print(f"{fig}: steps {steps.pop()}, n_final moves per decade {moves}")
    assert np.all((ratios > 8.0) & (ratios < 12.0)), ratios
