"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, shared_site_rng, site_rng


class TestAsRng:
    def test_int_seed_is_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(as_rng(1).random(5), as_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestSiteRng:
    def test_pure_function_of_key(self):
        a = site_rng(7, "layer3", "wg_mul", 4).random(8)
        b = site_rng(7, "layer3", "wg_mul", 4).random(8)
        assert np.array_equal(a, b)

    def test_every_key_component_matters(self):
        base = site_rng(7, "layer3", "wg_mul", 4).random(8)
        for key in (
            (8, "layer3", "wg_mul", 4),      # seed
            (7, "layer4", "wg_mul", 4),      # layer
            (7, "layer3", "wg_acc_add", 4),  # site
            (7, "layer3", "wg_mul", 5),      # chunk
        ):
            assert not np.array_equal(site_rng(*key).random(8), base), key

    def test_draw_order_between_keys_is_free(self):
        """Unlike a sequential stream, interleaving two keyed streams in
        any order cannot shift either one's draws."""
        first_then_second = [
            site_rng(1, "a", 0).random(4),
            site_rng(1, "b", 0).random(4),
        ]
        second_then_first = [
            site_rng(1, "b", 0).random(4),
            site_rng(1, "a", 0).random(4),
        ]
        assert np.array_equal(first_then_second[0], second_then_first[1])
        assert np.array_equal(first_then_second[1], second_then_first[0])

    def test_int_and_str_labels_do_not_collide_trivially(self):
        assert not np.array_equal(
            site_rng(1, 3).random(4), site_rng(1, "3").random(4)
        )

    def test_uses_counter_based_philox(self):
        assert isinstance(site_rng(0, "x").bit_generator, np.random.Philox)


def _draws(rng):
    """The sampler's draw kinds, in its order, incl. a buffered 32-bit half."""
    return (
        rng.poisson(3.7),
        rng.integers(0, 8, size=5).tolist(),
        rng.integers(0, 1 << 40, size=3).tolist(),
        rng.random(4).tolist(),
        rng.integers(0, 2, size=3).tolist(),
    )


class TestSharedSiteRng:
    @pytest.mark.parametrize("key", [(7, "layer3", "wg_mul", 4), (0, "x"), (2, 5)])
    def test_same_draws_as_a_fresh_keyed_stream(self, key):
        assert _draws(shared_site_rng(*key)) == _draws(site_rng(*key))

    def test_every_reset_restarts_the_stream(self):
        """A partly consumed stream (mid-buffer, with a buffered 32-bit
        half) leaves nothing behind for the next key, or the same key."""
        expected = _draws(site_rng(1, "a", 0))
        shared_site_rng(1, "b", 0).integers(0, 3, size=3)
        assert _draws(shared_site_rng(1, "a", 0)) == expected
        shared_site_rng(1, "a", 0).random(3)
        assert _draws(shared_site_rng(1, "a", 0)) == expected

