"""Information cloning of oscillator coherent states.

Parameter-level network algebra (``phase_space``), an independent
truncated number-basis verifier (``fock_oracle``), the measurement-fidelity
law F**c and its Monte Carlo for both schemes (``measurement``), and the
optimal Gaussian copier's closed forms (``gaussian_cloner``).  The package
needs numpy alone; scipy is a reference for the tests only.  Each public
name is imported from its module, e.g.
``from infoclone.measurement import run_trials``.
"""

__version__ = "0.1.0"
