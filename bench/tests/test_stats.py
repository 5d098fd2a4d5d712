import pytest

import stats


@pytest.mark.parametrize("n, percentile", [
    (5, "50"),       # too few samples: falls back to the median rank
    (19, "50"),
    (20, "50"),      # 10 samples beyond p50
    (39, "50"),
    (40, "75"),
    (99, "75"),
    (100, "90"),
    (199, "90"),
    (200, "95"),
    (999, "95"),
    (1000, "99"),
    (9999, "99"),
    (10000, "99.9"),  # exact rank 9 990, not 9 991 from a float product
])
def test_tail_percentile_has_ten_samples_beyond(n, percentile):
    assert stats.tail_percentile(n) == percentile
    if n >= 20:
        assert stats.samples_beyond(n, percentile) >= 10
        values = [float(k) for k in range(1, n + 1)]
        assert sum(v > stats.nearest_rank(values, percentile) for v in values) >= 10


def test_nearest_rank_ignores_input_order():
    assert stats.nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], "50") == 3.0
    assert stats.nearest_rank([4.0, 1.0, 3.0, 2.0], "50") == 2.0
    assert stats.nearest_rank([4.0, 1.0, 3.0, 2.0], "75") == 3.0


def test_verdicts():
    old = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.7 for v in old]
    slower = [v * 1.3 for v in old]
    assert stats.verdict(old, faster, "lower", 0.1) == "better"
    assert stats.verdict(old, slower, "lower", 0.1) == "worse"
    assert stats.verdict(old, slower, "higher", 0.1) == "better"
    assert stats.verdict(old, list(old), "lower", 0.1) == "unchanged"
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    assert stats.verdict(old, noisy, "lower", 0.1) == "unresolved"
    assert stats.verdict(old, slower, "lower", None) == "worse"


def test_success_ratio_bound_zero_flags_one_failure_per_run():
    old = [1.0] * 10
    new = [1.0 - 1 / 200] * 10  # one failed operation in each run of ~200
    assert stats.verdict(old, new, "higher", 0) == "worse"
    assert stats.verdict(old, list(old), "higher", 0) == "unchanged"
