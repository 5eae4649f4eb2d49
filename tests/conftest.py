"""Test-session setup, and the ``pretend_cpus`` fixture (below).

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

import pytest

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports without it
        pass


@pytest.fixture
def pretend_cpus(monkeypatch):
    """A function that makes ``distributions._usable_cpus()`` return its argument.

    The process's transform pool is shut down and its cache cleared before
    and after the test, so no pool that an earlier test built decides how
    many threads this test's splits see, and this test's pool ends with it.
    """
    from tailfence import distributions

    def reset_pool():
        if distributions._transform_pool.cache_info().currsize:
            distributions._transform_pool().shutdown(wait=True)
        distributions._transform_pool.cache_clear()

    def pretend(cpus):
        monkeypatch.setattr(distributions, "_usable_cpus", lambda: cpus)

    reset_pool()
    yield pretend
    reset_pool()
