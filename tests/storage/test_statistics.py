"""Fragment statistics feeding LPT and the scheduler."""

from repro.storage.fragment import Fragment
from repro.storage.schema import Schema
from repro.storage.statistics import FragmentStatistics


def _stats(cardinalities):
    return FragmentStatistics(tuple(cardinalities))


class TestFragmentStatistics:
    def test_of_fragments(self):
        schema = Schema.of_ints("k")
        fragments = [Fragment("R", i, schema, [(j,) for j in range(i + 1)])
                     for i in range(3)]
        stats = FragmentStatistics.of(fragments)
        assert stats.cardinalities == (1, 2, 3)

    def test_totals(self):
        stats = _stats([4, 6, 10])
        assert stats.total == 20
        assert stats.degree == 3
        assert stats.largest == 10
        assert stats.mean == 20 / 3

    def test_skew_ratio(self):
        assert _stats([10, 10]).skew_ratio == 1.0
        assert _stats([30, 10]).skew_ratio == 1.5

    def test_empty_stats(self):
        stats = _stats([])
        assert stats.mean == 0.0
        assert stats.largest == 0
        assert stats.skew_ratio == 1.0
