"""Shared fuzz helpers plus the acceptance-criteria summary block."""

from __future__ import annotations

import copy
import pickle
import re

import numpy as np
import pytest

#: The three ways to duplicate an object, which must all rebuild it through
#: its constructor.
CLONES = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

_ACCEPTANCE: dict[int, tuple[str, str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match is None:
        return
    doc = (item.function.__doc__ or "").strip().splitlines()
    _ACCEPTANCE[int(match.group(1))] = (report.outcome, doc[0] if doc else "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for idx in sorted(_ACCEPTANCE):
        outcome, description = _ACCEPTANCE[idx]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {idx:02d} {word}  {description}")


def fuzz_vector(rng: np.random.Generator, n: int, *, with_inf: bool = True) -> np.ndarray:
    """A random vector with a deliberately messy tie structure.

    Mixes a small integer alphabet (forcing ties), continuous noise, and the
    occasional +-inf so the extended-real contract gets exercised.
    """
    kind = rng.integers(0, 3)
    if kind == 0:
        v = rng.integers(0, max(2, n // 2), size=n).astype(float)
    elif kind == 1:
        v = np.round(rng.standard_normal(n), 1)
    else:
        v = rng.standard_normal(n)
    if with_inf and rng.random() < 0.15:
        idx = rng.integers(0, n, size=max(1, n // 6))
        v[idx] = rng.choice([-np.inf, np.inf], size=idx.size)
    return v


def fuzz_pair(
    rng: np.random.Generator, n_lo: int = 2, n_hi: int = 24, *, with_inf: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    n = int(rng.integers(n_lo, n_hi + 1))
    return fuzz_vector(rng, n, with_inf=with_inf), fuzz_vector(rng, n, with_inf=with_inf)
