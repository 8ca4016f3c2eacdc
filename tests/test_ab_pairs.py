"""The verdict logic of scripts/ab_pairs.py on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)
compare = ab_pairs.compare

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_is_better():
    row = compare(BASE, [b * 0.8 for b in BASE], "lower", 0.25)
    assert (row["verdict"], row["won"], row["pairs"]) == ("better", 10, 10)
    assert row["base_median"] == 10.0 and row["change_median"] == pytest.approx(8.0)


def test_higher_is_better_metrics_flip_the_sign():
    assert compare(BASE, [b * 1.2 for b in BASE], "higher", 0.25)["verdict"] == "better"
    assert compare(BASE, [b * 0.5 for b in BASE], "higher", 0.25)["verdict"] == "worse"


def test_nine_of_ten_wins_suffice_eight_do_not():
    change = [b * 0.8 for b in BASE]
    change[0] = BASE[0] + 1.0
    assert compare(BASE, change, "lower", 0.25)["verdict"] == "better"
    change[1] = BASE[1] + 1.0
    row = compare(BASE, change, "lower", 0.25)
    assert (row["won"], row["verdict"]) == (8, "unresolved")


def test_gain_within_the_base_spread_is_unresolved():
    # every pair won, but by less than the base's interquartile range
    row = compare(BASE, [b - 0.01 for b in BASE], "lower", 0.25)
    assert (row["won"], row["verdict"]) == (10, "unresolved")


def test_better_needs_ten_pairs():
    assert compare(BASE[:9], [b * 0.8 for b in BASE[:9]], "lower", 0.25)["verdict"] == "unresolved"


def test_loss_beyond_the_bound_is_worse():
    assert compare(BASE, [b * 1.3 for b in BASE], "lower", 0.25)["verdict"] == "worse"
    assert compare(BASE, [b * 1.2 for b in BASE], "lower", 0.25)["verdict"] == "unresolved"
    # one pair, as in a smoke run, shows no spread: neither worse nor better
    assert compare([1.0], [2.0], "lower", 0.25)["verdict"] == "unresolved"
    assert compare([1.0], [0.5], "lower", 0.25)["verdict"] == "unresolved"
    assert compare([1.0, 1.01], [2.0, 2.0], "lower", 0.25)["verdict"] == "worse"


def test_noisy_base_is_unresolved():
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 9.0, 11.0]
    assert compare(noisy, [b * 2.0 for b in noisy], "lower", 0.25)["verdict"] == "unresolved"


def test_identical_runs_are_unresolved():
    row = compare(BASE, BASE, "lower", 0.25)
    assert (row["won"], row["tied"], row["verdict"]) == (0, 10, "unresolved")


def test_summarize_skips_metrics_a_run_lacks():
    spec = {"end_to_end": [
        {"name": "place_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]}
    pairs = [({"place_s_p50": b, "instances_per_s": None}, {"place_s_p50": b * 0.8}) for b in BASE]
    rows = ab_pairs.summarize(spec, pairs)
    assert [(r["metric"], r["verdict"]) for r in rows] == [("place_s_p50", "better")]
