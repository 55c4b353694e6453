"""Shared pytest plumbing: the hypothesis profile, and one printed line per
acceptance criterion."""

import os

from hypothesis import settings

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# failure in CI reproduces; local runs keep drawing fresh examples.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        name, ok, detail = RESULTS[num]
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {num} [{status}] {name}{suffix}")
