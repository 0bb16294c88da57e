import itertools
from collections import Counter

import pytest

import workloads


def _first(workload, seed, n_blocks=3):
    return list(itertools.islice(workloads.blocks(workload, seed), n_blocks))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert _first(workload, 7) == _first(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_requests(workload):
    assert _first(workload, 7) != _first(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argv_are_strings(workload):
    for block in _first(workload, 1):
        for argv in block:
            assert all(isinstance(a, str) for a in argv)


def _values(argv, flag):
    return argv[argv.index(flag) + 1]


def test_state_blocks_are_balanced_and_in_region():
    for block in _first("state_cold", 3, 10):
        assert Counter(_values(a, "--dim") for a in block) == \
            {"32": 1, "48": 4, "64": 1}
        for argv in block:
            assert 0.1 <= float(_values(argv, "--delta")) <= 0.3
            assert 0.25 <= float(_values(argv, "--beta")) <= 1.5
            assert 0.001 <= float(_values(argv, "--z")) <= 0.02


def test_sweep_blocks_alternate_variable_and_p():
    for block in _first("sweep_table", 3, 10):
        kinds = Counter((_values(a, "--var"), _values(a, "--p"))
                        for a in block)
        assert kinds == {("phi", "0"): 1, ("delta", "0"): 1,
                         ("phi", "0.01"): 1, ("delta", "0.01"): 1}
        for argv in block:
            assert _values(argv, "--steps") == \
                str(workloads.SWEEP_STEPS[_values(argv, "--var")])


def test_operator_blocks_alternate_spectrum_and_verify():
    for block in _first("operator_checks", 3, 10):
        assert [a[0] for a in block] == ["spectrum", "verify"] * 3
        assert sorted(int(_values(a, "--dim")) for a in block[0::2]) == \
            [128, 192, 256]
        assert sorted(int(_values(a, "--dim")) for a in block[1::2]) == \
            [64, 128, 160]
