import argparse
import datetime as dt
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfda.core import Band
from cmfda.detection import (
    CovarianceEntry,
    CubeCovarianceTable,
    MahalanobisRule,
    MultivariateRule,
    UnivariateRule,
    WindowErrors,
)
from cmfda.errors import (
    DegenerateClass,
    InitOffGrid,
    KeyMismatch,
    TooFewPositives,
)
from cmfda import cli, training
from cmfda.training import (
    C_VALUES,
    AnnealConfig,
    ConfusionCounts,
    LevelTable,
    PixelTrainingData,
    TrainingSet,
    _counts,
    _grid_scores,
    _grid_search_levels,
    _pair_utility,
    accuracies,
    anneal_multivariate,
    anneal_on_grid,
    confusion,
    cross_validate,
    evaluate_rule,
    fill_dataset_index,
    grid_search_mahalanobis,
    grid_search_univariate,
    skill,
    sweep_fixed,
    tss,
)
import scalar_oracle as oracle
from scalar_oracle import anneal_on_grid as oracle_anneal_on_grid
from scalar_oracle import grid_search_levels, multivariate_utility


def toy_pixel(pid, label, nir_errors, ndvi_errors=None, start_ok=None, site="s"):
    n = len(nir_errors)
    dates = [dt.date(2005, 1, 4) + dt.timedelta(days=16 * i) for i in range(n)]
    ordinals = np.array([d.toordinal() for d in dates], dtype=np.int64)
    errors = {Band.NIR: np.asarray(nir_errors, dtype=float)}
    if ndvi_errors is not None:
        errors[Band.NDVI] = np.asarray(ndvi_errors, dtype=float)
    we = WindowErrors(
        ordinals=ordinals,
        comp_ordinals=ordinals,
        doys=np.array([d.timetuple().tm_yday for d in dates], dtype=np.int64),
        start_ok=np.asarray(start_ok if start_ok is not None else [True] * n),
        errors=errors,
    )
    return PixelTrainingData(pid, site, 0, 0, label, [we])


def separable_dataset(n_pos=6, n_neg=14):
    """Deforested pixels run at |err| 0.3+; stable pixels hold a small
    same-sign run near 0.05, so thresholds below 0.05 misfire."""
    pixels = []
    for i in range(n_pos):
        pixels.append(
            toy_pixel(f"pos{i}", 1, [0.01, 0.35, 0.32, 0.30, 0.33, -0.01], None)
        )
    for i in range(n_neg):
        pixels.append(
            toy_pixel(f"neg{i}", 0, [0.04, 0.045, 0.05, 0.04, 0.03, 0.02], None)
        )
    return pixels


# --- confusion counts --------------------------------------------------------


def test_confusion_perfect_prediction():
    labels = {f"p{i}": 1 if i < 10 else 0 for i in range(30)}
    counts = confusion(labels, labels)
    assert (counts.s, counts.u, counts.v, counts.t) == (10, 20, 0, 0)
    assert counts.r == 10 and counts.w == 20
    assert counts.n1 == 10 and counts.n0 == 20 and counts.n == 30


def test_confusion_complement():
    labels = {f"p{i}": i % 2 for i in range(10)}
    preds = {k: 1 - v for k, v in labels.items()}
    counts = confusion(preds, labels)
    assert counts.s == 0 and counts.u == 0
    assert counts.t == 5 and counts.v == 5


def test_confusion_hand_tally():
    labels = {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0, "f": 1}
    preds = {"a": 1, "b": 0, "c": 1, "d": 0, "e": 0, "f": 1}
    counts = confusion(preds, labels)
    assert (counts.s, counts.t, counts.u, counts.v) == (2, 1, 2, 1)


def test_confusion_key_mismatch():
    with pytest.raises(KeyMismatch):
        confusion({"a": 1}, {"a": 1, "b": 0})


def test_tss_examples():
    assert tss(ConfusionCounts(s=10, t=0, u=20, v=0)) == 1.0
    # all-ones prediction
    assert tss(ConfusionCounts(s=10, t=0, u=0, v=20)) == 0.0
    # all-zeros prediction
    assert tss(ConfusionCounts(s=0, t=10, u=20, v=0)) == 0.0
    # complement
    assert tss(ConfusionCounts(s=0, t=10, u=0, v=20)) == -1.0
    c = ConfusionCounts(s=9, t=3, u=70, v=18)
    assert tss(c) == pytest.approx(
        float(Fraction(9, 12) + Fraction(70, 88) - 1), abs=1e-12
    )
    assert tss(c) == pytest.approx(0.54545, abs=1e-5)


def test_tss_degenerate():
    with pytest.raises(DegenerateClass):
        tss(ConfusionCounts(s=0, t=0, u=5, v=5))


def test_accuracies_examples():
    assert accuracies(ConfusionCounts(s=10, t=0, u=20, v=0)) == (1.0, 1.0)
    producer, user = accuracies(ConfusionCounts(s=9, t=3, u=70, v=18))
    assert producer == pytest.approx(0.75)
    assert user == pytest.approx(Fraction(9, 27), abs=1e-12)
    producer, user = accuracies(ConfusionCounts(s=0, t=12, u=88, v=0))
    assert producer == 0.0
    assert user is None  # nothing flagged: undefined, not fabricated


def test_accuracies_need_positives():
    with pytest.raises(DegenerateClass):
        accuracies(ConfusionCounts(s=0, t=0, u=5, v=5))


@pytest.mark.parametrize("counts, expected", [
    (ConfusionCounts(s=9, t=3, u=70, v=18), (tss(ConfusionCounts(9, 3, 70, 18)), 0.75, 9 / 27)),
    (ConfusionCounts(s=0, t=12, u=88, v=0), (0.0, 0.0, None)),      # nothing flagged
    (ConfusionCounts(s=3, t=1, u=0, v=0), (None, 0.75, 1.0)),       # no negatives
    (ConfusionCounts(s=0, t=0, u=5, v=5), (None, None, None)),      # no positives
])
def test_skill_is_none_where_a_value_is_undefined(counts, expected):
    assert skill(counts) == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(min_value=2, max_value=40))
def test_tss_and_accuracies_match_fraction_oracle(seed, n):
    rng = np.random.default_rng(seed)
    labels = {f"p{i}": int(rng.integers(0, 2)) for i in range(n)}
    preds = {f"p{i}": int(rng.integers(0, 2)) for i in range(n)}
    counts = confusion(preds, labels)
    s = sum(1 for k in labels if preds[k] and labels[k])
    t = sum(1 for k in labels if not preds[k] and labels[k])
    u = sum(1 for k in labels if not preds[k] and not labels[k])
    v = sum(1 for k in labels if preds[k] and not labels[k])
    assert (counts.s, counts.t, counts.u, counts.v) == (s, t, u, v)
    if counts.n0 and counts.n1:
        oracle = Fraction(s, s + t) + Fraction(u, u + v) - 1
        assert tss(counts) == pytest.approx(float(oracle), abs=1e-12)
        producer, user = accuracies(counts)
        assert producer == pytest.approx(float(Fraction(s, s + t)), abs=1e-12)
        if s + v:
            assert user == pytest.approx(float(Fraction(s, s + v)), abs=1e-12)
        else:
            assert user is None


# --- grid search --------------------------------------------------------------


def test_grid_search_separable_tie_break():
    dataset = separable_dataset()
    grid = [0.02, 0.06, 0.1, 0.2, 0.31]
    best_l, best_tss = grid_search_univariate(dataset, Band.NIR, 3, grid)
    assert best_tss == 1.0
    assert best_l == 0.06  # smallest grid point inside the separating gap


def test_grid_search_single_point():
    dataset = separable_dataset()
    best_l, best_tss = grid_search_univariate(dataset, Band.NIR, 3, [0.1])
    assert best_l == 0.1 and best_tss == 1.0


def test_grid_search_requires_both_classes():
    dataset = [toy_pixel(f"p{i}", 0, [0.0] * 6) for i in range(5)]
    with pytest.raises(DegenerateClass):
        grid_search_univariate(dataset, Band.NIR, 3, [0.1])


def test_grid_search_validates_grid():
    dataset = separable_dataset()
    with pytest.raises(ValueError):
        grid_search_univariate(dataset, Band.NIR, 3, [])
    with pytest.raises(ValueError):
        grid_search_univariate(dataset, Band.NIR, 3, [0.2, 0.1])


def brute_force_grid_search(dataset, band, consecutive, grid):
    """Oracle: evaluate the full rule at every grid point via the scanner."""
    best = None
    for threshold in grid:
        counts = evaluate_rule(dataset, UnivariateRule(band, threshold, consecutive))
        score = tss(counts)
        if best is None or score > best[1]:
            best = (threshold, score)
    return best


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), consecutive=st.integers(2, 4))
def test_grid_search_equals_exhaustive_oracle(seed, consecutive):
    rng = np.random.default_rng(seed)
    dataset = []
    for i in range(20):
        label = int(rng.integers(0, 2))
        scale = 0.2 if label else 0.07
        dataset.append(toy_pixel(f"p{i}", label, rng.normal(0, scale, size=12)))
    labels = {p.label for p in dataset}
    if labels != {0, 1}:
        return
    grid = [0.02, 0.05, 0.1, 0.15, 0.25]
    assert grid_search_univariate(dataset, Band.NIR, consecutive, grid) == (
        brute_force_grid_search(dataset, Band.NIR, consecutive, grid)
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), consecutive=st.integers(2, 4))
def test_trainer_tss_equals_tss_of_returned_rule(seed, consecutive):
    """Each optimizer's TSS is the TSS of scanning with the rule it returns,
    which lets training report the optimizer's value without a rescan."""
    rng = np.random.default_rng(seed)
    labels = [1, 0] + [int(z) for z in rng.integers(0, 2, size=int(rng.integers(4, 14)))]
    dataset = []
    for i, label in enumerate(labels):
        n = int(rng.integers(consecutive, 12))
        scale = 0.2 if label else 0.07
        dataset.append(
            toy_pixel(
                f"p{i}", label, rng.normal(0, scale, n), rng.normal(0, 1.5 * scale, n),
                start_ok=rng.random(n) < 0.7,
            )
        )
    nir_grid = [0.02, 0.05, 0.1, 0.15, 0.25]
    ndvi_grid = [0.03, 0.08, 0.15, 0.3, 0.45]

    def scanned(rule):
        return tss(evaluate_rule(dataset, rule))

    best_l, best = grid_search_univariate(dataset, Band.NIR, consecutive, nir_grid)
    assert best == scanned(UnivariateRule(Band.NIR, best_l, consecutive))
    (l_nir, l_ndvi), best = anneal_multivariate(
        dataset, consecutive, nir_grid, ndvi_grid, (nir_grid[2], ndvi_grid[2]),
        AnnealConfig(steps_per_temp=10, temp_levels=3), seed=seed % 1000,
    )
    assert best == scanned(MultivariateRule(l_nir, l_ndvi, consecutive))
    table = CubeCovarianceTable(
        cubes={}, site_periods={}, sites={"s": CovarianceEntry(0.01, 0.004, 0.02, 100)}
    )
    dataset = TrainingSet.of(dataset)
    fill_dataset_index(dataset, table)
    best_l, best = grid_search_mahalanobis(dataset, consecutive, [0.5, 1, 2, 3, 5, 8])
    assert best == scanned(MahalanobisRule(best_l, table, consecutive))


def test_producer_accuracy_nonincreasing_in_threshold(rng):
    dataset = []
    for i in range(30):
        label = int(rng.integers(0, 2))
        scale = 0.25 if label else 0.08
        dataset.append(toy_pixel(f"p{i}", label, rng.normal(0, scale, size=14)))
    previous = None
    for threshold in np.arange(0.02, 0.4, 0.02):
        counts = evaluate_rule(dataset, UnivariateRule(Band.NIR, float(threshold), 3))
        producer = counts.s / counts.n1
        if previous is not None:
            assert producer <= previous + 1e-12
        previous = producer


# --- simulated annealing ----------------------------------------------------------


def test_anneal_constant_utility_returns_init():
    config = AnnealConfig(steps_per_temp=20, temp_levels=4)
    best, value = anneal_on_grid(lambda i, j: 0.5, (4, 4), (2, 1), config, seed=3)
    assert best == (2, 1)
    assert value == 0.5


def test_anneal_deterministic_per_seed(rng):
    table = rng.random((6, 6))
    config = AnnealConfig(steps_per_temp=30, temp_levels=5)
    runs = [
        anneal_on_grid(lambda i, j: table[i, j], (6, 6), (0, 0), config, seed=11)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_anneal_finds_exhaustive_max_on_small_grids(rng):
    # short-budget search runs hot so the walk can cross the whole grid
    config = AnnealConfig(initial_temp=1.0, cooling=0.8, steps_per_temp=40, temp_levels=4)
    hits = 0
    trials = 0
    for trial in range(20):
        table = rng.random((4, 4))
        target = float(table.max())
        for seed in range(5):
            trials += 1
            _, value = anneal_on_grid(
                lambda i, j: table[i, j], (4, 4), (0, 0), config, seed=seed
            )
            hits += value == target
    assert hits / trials >= 0.95


def test_anneal_multivariate_never_worse_than_init():
    dataset = separable_dataset()
    for i, p in enumerate(dataset):
        p.window_errors[0].errors[Band.NDVI] = p.window_errors[0].errors[Band.NIR] * 0.5
    nir_grid = [0.05, 0.1, 0.2, 0.5]
    ndvi_grid = [0.05, 0.1, 0.2, 0.5]
    config = AnnealConfig(steps_per_temp=25, temp_levels=4)
    init = (0.5, 0.5)

    def init_tss(l_nir, l_ndvi):
        counts = evaluate_rule(dataset, MultivariateRule(l_nir, l_ndvi, 3))
        return tss(counts)

    (l_nir, l_ndvi), best = anneal_multivariate(
        dataset, 3, nir_grid, ndvi_grid, init, config, seed=5
    )
    assert best >= init_tss(*init)
    assert best == init_tss(l_nir, l_ndvi)


def test_anneal_multivariate_matches_exhaustive(rng):
    dataset = []
    for i in range(24):
        label = int(i < 8)
        scale = 0.2 if label else 0.06
        dataset.append(
            toy_pixel(
                f"p{i}", label,
                rng.normal(0, scale, size=10),
                rng.normal(0, scale * 1.5, size=10),
            )
        )
    nir_grid = [0.05, 0.1, 0.15, 0.25]
    ndvi_grid = [0.08, 0.15, 0.3, 0.45]
    exhaustive = max(
        (
            tss(evaluate_rule(dataset, MultivariateRule(a, b, 3)))
            for a in nir_grid
            for b in ndvi_grid
        )
    )
    config = AnnealConfig(steps_per_temp=40, temp_levels=4)
    _, best = anneal_multivariate(
        dataset, 3, nir_grid, ndvi_grid, (nir_grid[0], ndvi_grid[0]), config, seed=1
    )
    assert best == pytest.approx(exhaustive, abs=1e-12)


def test_anneal_on_a_one_point_grid_returns_that_point():
    asked = []

    def utility(i, j):
        asked.append((i, j))
        return 0.25

    assert anneal_on_grid(utility, (1, 1), (0, 0), AnnealConfig(), seed=3) == ((0, 0), 0.25)
    assert asked == [(0, 0)]


def test_anneal_multivariate_on_one_point_grids():
    dataset = separable_dataset()
    for p in dataset:
        p.window_errors[0].errors[Band.NDVI] = p.window_errors[0].errors[Band.NIR]
    (l_nir, l_ndvi), best = anneal_multivariate(dataset, 3, [0.1], [0.2], (0.1, 0.2), seed=0)
    assert (l_nir, l_ndvi) == (0.1, 0.2)
    assert best == tss(evaluate_rule(dataset, MultivariateRule(0.1, 0.2, 3)))


def test_anneal_init_off_grid():
    dataset = separable_dataset()
    for p in dataset:
        p.window_errors[0].errors[Band.NDVI] = p.window_errors[0].errors[Band.NIR]
    with pytest.raises(InitOffGrid):
        anneal_multivariate(dataset, 3, [0.1, 0.2], [0.1, 0.2], (0.15, 0.1), seed=0)


# --- scoring by rank counts ----------------------------------------------------------

GRID_POINTS = [0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3]


@st.composite
def levels_on_grids(draw):
    """Per-pixel NIR and NDVI levels with both classes, and two ascending
    grids. Levels include -inf (no allowed run), NaN, grid values exactly,
    and repeats; a class may hold a single pixel."""
    level = st.one_of(
        st.sampled_from([-np.inf, np.nan, np.inf, *GRID_POINTS]),
        st.floats(-0.1, 0.4, allow_nan=False),
    )
    n = draw(st.integers(2, 25))
    observed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    positive, negative = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
    negative += negative >= positive
    observed[positive], observed[negative] = True, False
    grids = [
        sorted(draw(st.sets(st.sampled_from(GRID_POINTS), min_size=1)))
        for _ in range(2)
    ]
    levels = [np.array(draw(st.lists(level, min_size=n, max_size=n))) for _ in range(2)]
    return levels, observed, grids


@settings(max_examples=300, deadline=None)
@given(case=levels_on_grids(), order_seed=st.integers(0, 2**16))
def test_rank_scores_equal_per_point_tss_bit_for_bit(case, order_seed):
    (nir_levels, ndvi_levels), observed, (nir_grid, ndvi_grid) = case
    scores = _grid_scores(nir_levels, observed, nir_grid)
    expected = [tss(_counts(nir_levels > g, observed)) for g in nir_grid]
    assert scores.tolist() == expected
    assert _grid_search_levels(nir_levels, observed, nir_grid) == grid_search_levels(
        nir_levels, observed, nir_grid
    )

    counted = _pair_utility(nir_levels, ndvi_levels, observed, nir_grid, ndvi_grid)
    per_point = multivariate_utility(nir_levels, ndvi_levels, observed, nir_grid, ndvi_grid)
    points = [(i, j) for i in range(len(nir_grid)) for j in range(len(ndvi_grid))]
    np.random.default_rng(order_seed).shuffle(points)  # rows fill in any order
    for i, j in points:
        assert counted(i, j) == per_point(i, j), (i, j)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
    data=st.data(),
    seed=st.integers(0, 2**16),
    levels=st.integers(1, 6),
    steps=st.integers(1, 40),
    initial_temp=st.sampled_from([0.01, 0.1, 1.0]),
)
def test_anneal_walk_equals_the_per_step_neighbor_walk(shape, data, seed, levels, steps,
                                                       initial_temp):
    """Neighbor offsets kept per grid edge leave the RNG draws, and so the
    walk, as a neighbor list built at every step gives them."""
    if shape == (1, 1):
        return  # a one-point grid has no neighbor to propose
    table = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    ))).reshape(shape)
    init = (data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, shape[1] - 1)))
    config = AnnealConfig(initial_temp=initial_temp, steps_per_temp=steps, temp_levels=levels)
    calls = [[], []]

    def utility(k):
        return lambda i, j: calls[k].append((i, j)) or float(table[i, j])

    walked = anneal_on_grid(utility(0), shape, init, config, seed)
    assert walked == oracle_anneal_on_grid(utility(1), shape, init, config, seed)
    assert calls[0] == calls[1]


def random_pair_dataset(rng, n=30):
    labels = [1, 0] + [int(z) for z in rng.integers(0, 2, size=n - 2)]
    return [
        toy_pixel(
            f"p{i}", label, rng.normal(0, 0.2 if label else 0.07, 12),
            rng.normal(0, 0.3 if label else 0.1, 12), start_ok=rng.random(12) < 0.8,
        )
        for i, label in enumerate(labels)
    ]


@pytest.mark.parametrize("config", [
    AnnealConfig(steps_per_temp=25, temp_levels=4),
    AnnealConfig(initial_temp=1.0, cooling=0.8, steps_per_temp=40, temp_levels=5),
    AnnealConfig(),
])
def test_anneal_multivariate_equals_per_point_oracle(config, rng, monkeypatch):
    datasets = [TrainingSet.of(random_pair_dataset(rng)) for _ in range(3)]
    nir_grid = [round(0.02 * k, 10) for k in range(1, 16)]
    ndvi_grid = [round(0.03 * k, 10) for k in range(1, 16)]
    cases = [
        (dataset, c, seed, (nir_grid[k], ndvi_grid[14 - k]))
        for dataset in datasets for c in (2, 3, 5) for seed, k in ((0, 7), (11, 2), (97, 14))
    ]
    counted = [anneal_multivariate(d, c, nir_grid, ndvi_grid, init, config, seed)
               for d, c, seed, init in cases]
    monkeypatch.setattr(training, "_pair_utility", multivariate_utility)
    per_point = [anneal_multivariate(d, c, nir_grid, ndvi_grid, init, config, seed)
                 for d, c, seed, init in cases]
    assert counted == per_point


def test_anneal_requires_both_classes():
    dataset = [toy_pixel(f"p{i}", 1, [0.3] * 6, [0.3] * 6) for i in range(5)]
    with pytest.raises(DegenerateClass):
        anneal_multivariate(dataset, 3, [0.1, 0.2], [0.1, 0.2], (0.1, 0.1))


def test_anneal_refuses_a_grid_that_is_not_ascending():
    dataset = separable_dataset()
    for p in dataset:
        p.window_errors[0].errors[Band.NDVI] = p.window_errors[0].errors[Band.NIR]
    with pytest.raises(ValueError, match="ascending"):
        anneal_multivariate(dataset, 3, [0.2, 0.1], [0.1, 0.2], (0.1, 0.1))


def test_anneal_on_a_fine_grid_keeps_memory_small(rng):
    """3,000 x 5,000 thresholds, 1,250 pixels, 1,000 steps: the rows the
    walk visits hold sorted ranks, never a table over the grid."""
    pixels = [
        toy_pixel(f"p{i}", int(i % 4 == 0), rng.normal(0, 0.2 if i % 4 == 0 else 0.06, 12),
                  rng.normal(0, 0.3 if i % 4 == 0 else 0.09, 12))
        for i in range(1250)
    ]
    dataset = TrainingSet.of(pixels)
    nir_grid = [round(0.0001 * k, 10) for k in range(1, 3001)]
    ndvi_grid = [round(0.0001 * k, 10) for k in range(1, 5001)]
    config = AnnealConfig(steps_per_temp=50, temp_levels=20)
    tracemalloc.start()
    try:
        anneal_multivariate(dataset, 3, nir_grid, ndvi_grid, (0.15, 0.25), config, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


# --- cross validation ---------------------------------------------------------------


def test_cv_fixed_rule_equals_pooled_evaluation():
    dataset = separable_dataset(n_pos=8, n_neg=16)
    rule = UnivariateRule(Band.NIR, 0.1, 3)
    result = cross_validate(dataset, lambda train: rule, k=4, seed=0)
    direct = evaluate_rule(dataset, rule)
    assert result.pooled == direct
    assert result.tss_pooled == tss(direct)
    assert result.tss_mean == pytest.approx(result.tss_pooled, abs=1e-9)


def test_cv_separable_instance_is_perfect():
    dataset = separable_dataset(n_pos=10, n_neg=20)
    grid = [0.06, 0.1, 0.2]

    def trainer(train):
        best_l, _ = grid_search_univariate(train, Band.NIR, 3, grid)
        return UnivariateRule(Band.NIR, best_l, 3)

    for k in (2, 5):
        result = cross_validate(dataset, trainer, k=k, seed=1)
        assert result.tss_mean == 1.0
        assert result.tss_pooled == 1.0
        assert result.producer_acc == 1.0 and result.user_acc == 1.0


def test_cv_stratification_requires_enough_positives():
    dataset = separable_dataset(n_pos=2, n_neg=20)
    with pytest.raises(TooFewPositives):
        cross_validate(dataset, lambda train: UnivariateRule(Band.NIR, 0.1, 3), k=5, seed=0)


def test_cv_requires_k_at_least_two():
    dataset = separable_dataset()
    with pytest.raises(ValueError):
        cross_validate(dataset, lambda t: UnivariateRule(Band.NIR, 0.1, 3), k=1)


# --- fixed-threshold sweep ------------------------------------------------------------


def test_sweep_emits_rows_even_without_positives():
    dataset = [toy_pixel(f"p{i}", 0, [0.001] * 8) for i in range(6)]
    rows = sweep_fixed(dataset, UnivariateRule(Band.NIR, 0.1, 3))
    assert [r.consecutive for r in rows] == [2, 3, 4, 5, 6]
    assert all(r.tss is None for r in rows)
    assert all(r.n_flagged == 0 for r in rows)


def test_sweep_separable_until_run_too_short():
    # positives hold exactly 4 violating observations
    dataset = []
    for i in range(5):
        dataset.append(toy_pixel(f"pos{i}", 1, [0.01, 0.35, 0.32, 0.30, 0.33, -0.01]))
    for i in range(10):
        dataset.append(toy_pixel(f"neg{i}", 0, [0.01, -0.02, 0.01, -0.02, 0.01, -0.02]))
    rows = sweep_fixed(dataset, UnivariateRule(Band.NIR, 0.1, 3))
    by_c = {r.consecutive: r for r in rows}
    assert by_c[2].tss == 1.0 and by_c[3].tss == 1.0 and by_c[4].tss == 1.0
    assert by_c[5].tss == 0.0  # the run is only 4 long
    assert by_c[6].tss == 0.0


def test_sweep_flags_nested_in_consecutive(rng):
    dataset = []
    for i in range(20):
        label = int(rng.integers(0, 2))
        scale = 0.2 if label else 0.09
        dataset.append(toy_pixel(f"p{i}", label, rng.normal(0, scale, size=14)))
    flagged = {}
    for c in (2, 6):
        rule = UnivariateRule(Band.NIR, 0.12, c)
        flagged[c] = {
            p.pixel_id
            for p in dataset
            if evaluate_rule([p, toy_pixel("pad", 1 - p.label, [0.0] * 6)], rule).s
            + evaluate_rule([p, toy_pixel("pad", 1 - p.label, [0.0] * 6)], rule).v
            > 0
        }
    assert flagged[6] <= flagged[2]


# --- one level table against the per-subset flow ------------------------------------

NIR_GRID = [0.02, 0.05, 0.1, 0.15, 0.25]
NDVI_GRID = [0.03, 0.08, 0.15, 0.3, 0.45]
INDEX_GRID = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0]


def random_two_site_set(rng):
    """Labelled pixels of two sites, each with zero to three windows of NIR
    and NDVI errors, and the index filled from per-site covariances."""
    labels = [1] * int(rng.integers(5, 12)) + [0] * int(rng.integers(5, 20))
    rng.shuffle(labels)
    pixels = []
    for i, label in enumerate(labels):
        windows = []
        for _ in range(int(rng.integers(0, 4))):
            n = int(rng.integers(0, 10))
            doys = np.sort(rng.choice(np.arange(1, 367), size=n, replace=False))
            ordinals = dt.date(2005, 1, 1).toordinal() - 1 + doys
            scale = 0.2 if label else 0.07
            windows.append(WindowErrors(
                ordinals, ordinals, doys, rng.random(n) < 0.8,
                {Band.NIR: rng.normal(0, scale, n), Band.NDVI: rng.normal(0, 1.5 * scale, n)},
            ))
        pixels.append(PixelTrainingData(f"p{i}", "ab"[int(rng.integers(0, 2))],
                                        int(rng.integers(0, 25)), int(rng.integers(0, 25)),
                                        label, windows))
    covariances = CubeCovarianceTable({}, {}, {"a": CovarianceEntry(0.01, 0.004, 0.02, 100),
                                               "b": CovarianceEntry(0.02, -0.003, 0.03, 50)})
    dataset = TrainingSet.of(pixels)
    fill_dataset_index(dataset, covariances)
    return dataset, covariances


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), c=st.integers(2, 6),
       kind=st.sampled_from(["univariate", "multivariate", "mahalanobis"]))
def test_one_level_table_trains_as_the_per_subset_flow(seed, k, c, kind):
    """Training, its folds, the site-averaged annealing start and the sweep
    read rows of one level table, and give the rules and counts of the flow
    that cuts each subset from the errors, computes its levels and scans."""
    dataset, covariances = random_two_site_set(np.random.default_rng(seed))
    grids = {"univariate": [NIR_GRID], "multivariate": [NIR_GRID, NDVI_GRID],
             "mahalanobis": [INDEX_GRID]}[kind]
    args = argparse.Namespace(rule=kind, anneal_iters=40, seed=seed % 97)
    train = cli._trainer(args, Band.NIR if kind == "univariate" else None, grids, covariances)
    expected = oracle.trainer(kind, grids, covariances, AnnealConfig(steps_per_temp=2), seed % 97)
    table = LevelTable.of(dataset)

    rule = train(c, table)[0]
    assert rule == expected(c, dataset)
    result = cross_validate(dataset, lambda fold: train(c, fold)[0], k, seed % 1000)
    assert [fold.counts for fold in result.folds] == oracle.cross_validate(
        dataset, lambda part: expected(c, part), k, seed % 1000)
    assert [(row.consecutive, row.n_flagged, row.tss, row.producer_acc, row.user_acc)
            for row in sweep_fixed(table, rule)] == [
        (sweep_c, counts.r, *skill(counts))
        for sweep_c, counts in zip(C_VALUES, oracle.sweep_fixed(dataset, rule, C_VALUES))]
    for band, grid in ((Band.NIR, NIR_GRID), (Band.NDVI, NDVI_GRID)):
        assert cli._anneal_start(table, band, c, grid) == oracle.anneal_start(dataset, band, c, grid)
