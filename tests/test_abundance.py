"""Species estimators against hand-derived values and a naive recount."""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from coverwin import AbundanceStats, coverage, estimates

from conftest import naive_tallies, ref_chao1, ref_completeness, ref_coverage


def observe_all(tokens):
    stats = AbundanceStats()
    for t in tokens:
        stats.observe(t)
    return stats


def test_worked_example_exact_values():
    stats = observe_all("ABACBDACE")
    assert (stats.n, stats.s_n, stats.f1, stats.f2) == (9, 5, 2, 2)
    assert estimates(stats)[0] == 6.0
    assert estimates(stats)[1] == 5 / 6
    assert coverage(stats) == 37 / 45


def test_empty_stats_conventions():
    stats = AbundanceStats()
    assert estimates(stats)[0] == 0.0
    assert estimates(stats)[1] == 0.0
    assert coverage(stats) == 0.0


def test_single_observation_has_zero_coverage():
    # n=1, f1=1 makes the adjustment denominator vanish
    stats = observe_all("A")
    assert coverage(stats) == 0.0
    assert estimates(stats)[0] == 1.0


def test_no_singletons_means_full_coverage():
    stats = observe_all("AABB")
    assert stats.f1 == 0
    assert coverage(stats) == 1.0
    assert estimates(stats)[0] == 2.0


def test_no_doubletons_uses_fallback_correction():
    stats = observe_all("ABC")
    assert (stats.f1, stats.f2) == (3, 0)
    assert estimates(stats)[0] == 3 + 3 * 2 / 2


def test_counter_transitions():
    stats = AbundanceStats()
    stats.observe("A")
    assert (stats.f1, stats.f2) == (1, 0)
    stats.observe("A")
    assert (stats.f1, stats.f2) == (0, 1)
    stats.observe("A")
    assert (stats.f1, stats.f2) == (0, 0)
    stats.observe("B")
    assert (stats.f1, stats.f2) == (1, 0)
    assert stats.s_n == 2
    assert stats.n == 4


def test_estimates_coverage_is_the_close_criterion():
    stats = observe_all("ABACBDACE")
    assert estimates(stats)[2] == coverage(stats)


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=300))
@example([])  # empty
@example([0])  # n = 1
@example(list(range(25)))  # all singletons: f2 = 0
@example([0, 0])  # one doubleton, no singleton
def test_one_pass_estimates_equal_the_free_functions(tokens):
    # the free functions of conftest, written apart from the code under test
    labels = [str(t) for t in tokens]
    stats = observe_all(labels)
    tallies = naive_tallies(labels)
    expected = (
        ref_chao1(*tallies), ref_completeness(*tallies), ref_coverage(*tallies)
    )
    assert estimates(stats) == expected


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=300))
def test_incremental_counters_match_naive_recount(tokens):
    labels = [str(t) for t in tokens]
    stats = observe_all(labels)
    n, s, f1, f2 = naive_tallies(labels)
    assert (stats.n, stats.s_n, stats.f1, stats.f2) == (n, s, f1, f2)


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=300))
def test_estimators_match_reference_formulas(tokens):
    labels = [str(t) for t in tokens]
    stats = observe_all(labels)
    n, s, f1, f2 = naive_tallies(labels)
    assert estimates(stats)[0] == ref_chao1(n, s, f1, f2)
    assert estimates(stats)[1] == ref_completeness(n, s, f1, f2)
    assert coverage(stats) == ref_coverage(n, s, f1, f2)


@given(st.lists(st.integers(min_value=0, max_value=15), max_size=200))
def test_estimates_stay_in_bounds(tokens):
    stats = observe_all([str(t) for t in tokens])
    chao1, completeness, coverage_ = estimates(stats)
    assert 0.0 <= coverage_ <= 1.0
    assert 0.0 <= completeness <= 1.0
    assert chao1 >= stats.s_n


def minmax_coverage(n, f1, f2):
    if n == 0:
        return 0.0
    if f1 == 0:
        return 1.0
    denom = (n - 1) * f1 + 2 * f2
    if denom == 0:
        return 0.0
    value = 1.0 - (f1 / n) * (1.0 - 2.0 * f2 / denom)
    return min(1.0, max(0.0, value))


def raw_coverage(n, f1, f2):
    """The unclamped value, for inputs that reach the clamp."""
    return 1.0 - (f1 / n) * (1.0 - 2.0 * f2 / ((n - 1) * f1 + 2 * f2))


def test_clamp_examples_straddle_both_bounds():
    # the inputs pinned below put the raw value under, on and over 0 and 1
    assert raw_coverage(3, 4, 0) < 0.0
    assert raw_coverage(5, 5, 0) == 0.0
    assert 0.0 < raw_coverage(5, 5, 1) < 1.0
    assert 0.0 < raw_coverage(10**6, 1, 0) < 1.0
    assert raw_coverage(1, 3, 2) == 1.0
    assert raw_coverage(2, 1, -1) > 1.0


# coverage is shared by the engine and the batch oracle, so it is pinned to
# its min/max clamp here; counters outside a real sample reach the clamps
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-5, max_value=200),
    st.integers(min_value=-5, max_value=200),
)
@example(3, 4, 0)
@example(5, 5, 0)
@example(5, 5, 1)
@example(10**6, 1, 0)
@example(1, 3, 2)
@example(2, 1, -1)
@example(1, 1, 0)
def test_coverage_matches_its_min_max_form(n, f1, f2):
    stats = AbundanceStats()
    stats.n, stats.f1, stats.f2 = n, f1, f2
    # repr tells -0.0 from 0.0
    assert repr(coverage(stats)) == repr(minmax_coverage(n, f1, f2))
