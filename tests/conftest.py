"""Test-session setup.

When a property fails, hypothesis explains it with libcst if that is
installed, and libcst's type-inference module subclasses the deprecated
``mypy_extensions.TypedDict``. Under ``-W error::DeprecationWarning`` that
first import, made inside hypothesis' report hook, is a pytest INTERNALERROR
that ends the run, so every later test goes unreported. Importing the module
here, with only that one warning ignored, keeps the report going. A
``filterwarnings`` entry in ``pyproject.toml`` cannot do it: pytest applies
the command line's ``-W`` after the ini filters.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports without it
        pass
