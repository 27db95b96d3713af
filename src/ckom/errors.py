"""Exception types shared across the package."""


class NumericalError(Exception):
    """Base of every error below. Each also keeps its builtin base, so it can
    be caught as the whole family or on its own as before."""


class SingularDenominator(NumericalError, ValueError):
    """The effective mechanical frequency omega_m - m*g_ck is zero or negative."""


class NonConvergedSum(NumericalError, RuntimeError):
    """A phonon-sideband sum was truncated before its tail became negligible."""


class NonConvergence(NumericalError, RuntimeError):
    """The direct steady-state solve failed: the vectorized Liouvillian is
    singular (the steady state is not unique), or the solution's residual
    exceeds its 1e-9 gate."""


class StepSizeUnderflow(NumericalError, RuntimeError):
    """Time evolution failed: the adaptive integrator could not take a finite
    step at the requested tolerance, the state or its derivative is not
    finite, or the state drifted from Hermitian by more than 1e-7."""


class ZeroPhotonNumber(NumericalError, ArithmeticError):
    """g2 is undefined because the mean photon number is numerically zero."""


class DegenerateBranch(NumericalError, ArithmeticError):
    """The requested cat branch, ideal or conditioned on a cavity |+/->
    detection, has probability below 1e-12, so it has no normalized state."""


class TruncationLoss(NumericalError, RuntimeError):
    """The mechanical cutoff is too small to hold the requested state."""


class SolverFallback(NumericalError, RuntimeWarning):
    """Warning: a steady-state solver did not apply or converge and another ran instead."""
