from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    """Hypothesis caches the constants it finds in the source while the tests
    are collected; keep that cache in pytest's cache directory instead of a
    .hypothesis/ directory in the working tree."""
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
