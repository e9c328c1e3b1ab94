"""Monte Carlo collector shared by the tests (numpy only).

``test_cli.py`` and ``test_csvwrite.py`` run where scipy is not installed,
so this module imports numpy and ``infoclone`` alone; the scipy references
are in ``ks_helpers``.
"""

import numpy as np

from infoclone.measurement import trial_blocks


def draw(run):
    """Every trial of ``run``, collected from ``trial_blocks``: the complex
    estimates and the fidelity column, in trial order."""
    estimates = np.empty(run.trials, dtype=complex)
    fidelity = np.empty(run.trials)
    for start, block, _ in trial_blocks(run, fidelity):
        estimates[start : start + block.size] = block
    return estimates, fidelity
