"""Hypothesis runs derandomized, with no deadline and no example database,
so that every run draws the same examples."""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("rzero", derandomize=True, deadline=None, database=None)
settings.load_profile("rzero")

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis also caches the constants it finds in local modules, while
    # tests are collected; keep that cache in a directory removed after the
    # run, so that no `.hypothesis/` is written into the checkout.
    storage = tempfile.TemporaryDirectory(prefix="rzero-hypothesis-")
    config.stash[_STORAGE] = storage
    set_hypothesis_home_dir(storage.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_STORAGE].cleanup()
