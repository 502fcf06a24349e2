"""Unit tests for seed plumbing (repro.util.rng)."""

from repro.util.rng import child_rng, make_rng


def test_make_rng_deterministic():
    assert make_rng(42).random() == make_rng(42).random()


def test_make_rng_different_seeds_differ():
    assert make_rng(1).random() != make_rng(2).random()


def test_child_streams_independent_of_sibling_count():
    # Drawing from one child must not perturb another.
    a1 = child_rng(7, "alpha").random()
    _ = child_rng(7, "beta").random()
    a2 = child_rng(7, "alpha").random()
    assert a1 == a2


def test_child_path_matters():
    assert child_rng(7, "x", 1).random() != child_rng(7, "x", 2).random()


def test_string_and_int_seeds_accepted():
    assert make_rng("experiment-1").random() == make_rng("experiment-1").random()
    # Seeds hash as str(seed): an int and its decimal string share a stream.
    assert make_rng("1").random() == make_rng(1).random()
