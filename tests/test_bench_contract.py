"""What the benchmark under ``bench/`` calls in ferrocal still exists and works.

The benchmark times ferrocal by wrapping the functions named in
``spans.TRACED`` in their modules, builds its inputs through ferrocal's
public types, and stops at ``workloads.self_test`` if an oracle disagrees
with ferrocal. A change that renames one of those functions, or breaks the
calls the self-test makes (``HysteronEnsemble`` fields, ``protocol_for``,
the ``RunConfig`` protocol fields), would otherwise pass these tests and
fail only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import ferrocal
from ferrocal import config, simulate

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_functions_resolve(bench):
    spans, _ = bench
    for module_name, func_name in spans.TRACED:
        module = getattr(ferrocal, module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_positional_ensemble_construction():
    # the benchmark's plain-loop check builds a sub-ensemble positionally
    kin = config.RunConfig().kinetics
    x = np.array([1.0, 1.1])
    ensemble = simulate.HysteronEnsemble(x, kin, np.zeros(2, dtype=bool), 3)
    assert ensemble.n == 2 and ensemble.rng_seed == 3


def test_workloads_self_test(bench):
    _, workloads = bench
    workloads.self_test()
