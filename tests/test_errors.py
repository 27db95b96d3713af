"""The named numerical errors: one family, each with its builtin base."""

import inspect

from ckom import errors

BUILTIN_BASE = {
    "SingularDenominator": ValueError,
    "NonConvergedSum": RuntimeError,
    "NonConvergence": RuntimeError,
    "StepSizeUnderflow": RuntimeError,
    "ZeroPhotonNumber": ArithmeticError,
    "DegenerateBranch": ArithmeticError,
    "TruncationLoss": RuntimeError,
}


def test_every_error_is_numerical_and_keeps_its_builtin_base():
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if cls is not errors.NumericalError}
    assert set(classes) == set(BUILTIN_BASE)
    for name, cls in classes.items():
        assert issubclass(cls, errors.NumericalError), name
        assert issubclass(cls, BUILTIN_BASE[name]), name
    assert issubclass(errors.SingularDenominator, ValueError)
