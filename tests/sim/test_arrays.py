"""The optional NumPy kernel backend: selection, helpers, equivalence.

The array backend must be *transparent*: with NumPy present the
kernels batch their per-round numeric work, without it (or with
``REPRO_SIM_ARRAYS=0``) they keep their pure-Python columns, and the
results -- outputs, ledgers, exceptions, kernel stats -- are
bit-identical either way.  These tests pin the selection rules, the
numeric helpers against their scalar oracles (including the int64
overflow guard), and the end-to-end equivalence of both backends.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.graphs import binary_tree, gnp_graph, orient_by_id, sequential_ids
from repro.coloring import random_oldc_instance
from repro.core import two_sweep
from repro.sim import CostLedger, use_engine
from repro.sim import arrays
from repro.sim.errors import AlgorithmFailure
from repro.obs.metrics import reset_metrics
from repro.sim.kernels import kernel_stats
from repro.substrates import linial_coloring
from repro.substrates.cover_free import shared_family

numpy = pytest.importorskip("numpy")


@pytest.fixture
def force_arrays(monkeypatch):
    """Pin the NumPy backend on and drop the size thresholds."""
    monkeypatch.setattr(arrays, "MIN_BATCH", 0)
    monkeypatch.setattr(arrays, "MIN_TALLY", 0)
    previous = arrays.set_arrays_override(True)
    yield
    arrays.set_arrays_override(previous)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv(arrays.ARRAYS_ENV, "0")
        assert arrays.get_numpy() is None
        assert not arrays.arrays_enabled()
        assert arrays.backend_name() == "python"
        assert arrays.numpy_version() is None

    def test_env_default_enables(self, monkeypatch):
        monkeypatch.delenv(arrays.ARRAYS_ENV, raising=False)
        assert arrays.get_numpy() is numpy
        assert arrays.backend_name() == "numpy"
        assert arrays.numpy_version() == numpy.__version__

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.delenv(arrays.ARRAYS_ENV, raising=False)
        previous = arrays.set_arrays_override(False)
        try:
            assert arrays.get_numpy() is None
            # ...and the override wins over an enabling env too.
            monkeypatch.setenv(arrays.ARRAYS_ENV, "1")
            assert not arrays.arrays_enabled()
            arrays.set_arrays_override(True)
            monkeypatch.setenv(arrays.ARRAYS_ENV, "0")
            assert arrays.arrays_enabled()
        finally:
            arrays.set_arrays_override(previous)

    def test_missing_numpy_falls_back(self, monkeypatch):
        """Simulated absent NumPy: selection degrades, nothing raises."""
        monkeypatch.setattr(arrays, "_numpy_module", arrays._UNSET)
        monkeypatch.setitem(sys.modules, "numpy", None)
        try:
            assert arrays.get_numpy() is None
            assert arrays.backend_name() == "python"
            assert arrays.numpy_version() is None
            # The whole protocol path still runs on Python columns.
            network = binary_tree(5)
            with use_engine("vectorized"):
                colors, palette = linial_coloring(
                    network, sequential_ids(network), len(network)
                )
            assert len(colors) == len(network)
        finally:
            arrays._reset_import_cache()

    def test_worker_init_applies_override(self):
        from repro.sim.parallel import _init_worker

        before = arrays.arrays_enabled()
        _init_worker(None, None, False)
        try:
            assert not arrays.arrays_enabled()
        finally:
            arrays.set_arrays_override(None)
        assert arrays.arrays_enabled() == before


# ----------------------------------------------------------------------
# Numeric helpers vs their scalar oracles
# ----------------------------------------------------------------------
class TestHelpers:
    @pytest.mark.parametrize("q,m,k", [(127, 13, 2), (64, 7, 3), (9, 3, 1)])
    def test_batched_horner_matches_family(self, q, m, k):
        family = shared_family(q, m, k)
        table = arrays.batched_horner(
            numpy, numpy.arange(q, dtype=numpy.int64), m, k
        )
        for index in range(q):
            assert table[index].tolist() == [
                family.evaluate(index, x) for x in range(m)
            ]

    def test_horner_near_int64_boundary(self):
        """A field size at the MAX_FIELD guard: no silent overflow.

        ``m`` close to ``2**31`` drives the Horner accumulator to
        ``~m**2 < 2**62``; the batched rows must still equal exact
        Python big-int arithmetic.
        """
        m = (1 << 31) - 1  # Mersenne prime 2^31 - 1
        k = 2
        assert arrays.field_fits(m, m)
        indices = [0, 1, m - 1, m, m * m - 1, m ** 2 + m + 1]
        coeffs = arrays.coefficient_matrix(
            numpy, numpy.asarray(indices, dtype=numpy.int64), m, k
        )
        points = [0, 1, 2, m // 2, m - 2, m - 1]
        for row, index in enumerate(indices):
            expected_digits = [(index // m ** j) % m for j in range(k + 1)]
            assert coeffs[row].tolist() == expected_digits
            for x in points:
                acc = 0
                for j in range(k, -1, -1):
                    acc = (acc * x + expected_digits[j]) % m
                # Evaluate via the same int64 Horner the kernel uses.
                val = numpy.int64(0)
                for j in range(k, -1, -1):
                    val = (val * x + coeffs[row, j]) % m
                assert int(val) == acc, (index, x)

    def test_field_fits_rejects_oversized(self):
        assert not arrays.field_fits(arrays.MAX_FIELD + 1, 10)
        assert not arrays.field_fits(10, arrays.MAX_COLOR + 1)
        assert arrays.field_fits(arrays.MAX_FIELD, arrays.MAX_COLOR)
        assert not arrays.field_fits(1, 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_membership_counts_matches_dict(self, seed):
        rng = random.Random(seed)
        candidates = sorted(rng.sample(range(-20, 60), rng.randint(1, 12)))
        values = [rng.randint(-25, 65) for _ in range(rng.randint(0, 40))]
        expected = {c: values.count(c) for c in candidates}
        counts = arrays.membership_counts(
            numpy,
            numpy.asarray(values, dtype=numpy.int64),
            numpy.asarray(candidates, dtype=numpy.int64),
        )
        assert dict(zip(candidates, counts.tolist())) == expected

    def test_membership_counts_empty(self):
        empty = numpy.asarray([], dtype=numpy.int64)
        some = numpy.asarray([1, 2], dtype=numpy.int64)
        assert arrays.membership_counts(numpy, empty, some).tolist() == [0, 0]
        assert arrays.membership_counts(numpy, some, empty).tolist() == []

    @pytest.mark.parametrize("seed", range(4))
    def test_mex_below_matches_scalar(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(25):
            limit = rng.randint(1, 30)
            values = [rng.randint(-5, 35) for _ in range(rng.randint(0, 25))]
            used = set(values)
            expected = 0
            while expected in used:
                expected += 1
            expected = min(expected, limit)
            got = arrays.mex_below(
                numpy, numpy.asarray(values, dtype=numpy.int64), limit
            )
            assert got == expected, (values, limit)


# ----------------------------------------------------------------------
# End-to-end: both backends are bit-identical, and stats say which ran
# ----------------------------------------------------------------------
def _run_linial(network):
    ledger = CostLedger()
    with use_engine("vectorized"):
        colors, palette = linial_coloring(
            network, sequential_ids(network), len(network), ledger=ledger
        )
    return colors, palette, (ledger.rounds, ledger.messages, ledger.bits,
                             ledger.max_message_bits, ledger.broadcasts)


def test_backend_stats_and_equivalence(force_arrays):
    network = binary_tree(7)
    reset_metrics()
    with_numpy = _run_linial(network)
    stats = kernel_stats()
    assert stats["by_backend"].get("AlgebraicRecoloringKernel[numpy]")
    assert stats["by_kernel"].get("AlgebraicRecoloringKernel")

    arrays.set_arrays_override(False)
    reset_metrics()
    without = _run_linial(network)
    stats = kernel_stats()
    assert stats["by_backend"].get("AlgebraicRecoloringKernel[python]")
    assert "AlgebraicRecoloringKernel[numpy]" not in stats["by_backend"]
    assert with_numpy == without


def test_failure_messages_identical_across_backends(force_arrays):
    """A genuinely stuck node raises the same error on both backends."""
    network = gnp_graph(40, 0.3, seed=2)
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=2, seed=17)
    # Sabotage every defect so Eq. (2) fails at run time.
    for node in instance.defects:
        instance.defects[node] = {
            color: 0 for color in instance.defects[node]
        }
    instance.lists = {
        node: instance.lists[node][:1] for node in instance.lists
    }
    errors = {}
    for enabled in (True, False):
        arrays.set_arrays_override(enabled)
        with use_engine("vectorized"):
            with pytest.raises(AlgorithmFailure) as info:
                two_sweep(
                    instance, sequential_ids(network), len(network), 2,
                    check=False,
                )
        errors[enabled] = str(info.value)
    assert errors[True] == errors[False]
