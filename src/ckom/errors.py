"""Exception types shared across the package."""


class NumericalError(Exception):
    """Base of every error below. Each also keeps its builtin base, so it can
    be caught as the whole family or on its own as before."""


class SingularDenominator(NumericalError, ValueError):
    """The effective mechanical frequency omega_m - m*g_ck is zero or negative."""


class NonConvergedSum(NumericalError, RuntimeError):
    """A phonon-sideband sum was truncated before its tail became negligible."""


class NonConvergence(NumericalError, RuntimeError):
    """A steady-state solve failed. The ladder does not apply (no mechanical
    damping, a non-diagonal H_00, a drive too strong for its hierarchy to
    contract), its sweeps do not settle or its residual is not below 1e-9;
    or the direct solve's vectorized Liouvillian is singular (the steady
    state is not unique) or its residual exceeds 1e-9."""


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
