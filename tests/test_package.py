"""The public surface of the package."""

import inspect

import thermotimes
from thermotimes import errors


def test_public_names_resolve_once_and_export_every_error():
    names = thermotimes.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thermotimes, name)]
    assert not missing
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, errors.ThermotimesError)}
    assert error_classes <= set(names)
