"""Shared pytest wiring.

The acceptance module records one verdict line per criterion here; the
terminal-summary hook prints them after the run so they are visible without
-s and survive output capture.  The cold_types fixture gives a test fresh Cartan types and
records.
"""

import pytest

from loopdual import root_data

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in acceptance_lines:
        terminalreporter.write_line(line)


@pytest.fixture
def cold_types():
    """Fresh types and records: the type factory, root_datum and _quotient_lattices are cleared
    before the test and after it, so an invariant that a test builds, or injects by assigning to
    a fresh type's attribute, is built anew and outlives neither the test nor its records."""
    caches = (root_data._cartan_type, root_data.root_datum, root_data._quotient_lattices)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
