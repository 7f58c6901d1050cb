"""Shared test configuration.

Property tests run under a derandomized Hypothesis profile: the examples
are derived from each test's source, so the suite draws the same inputs on
every run, and no example database is read or written.  Hypothesis also
draws literal constants from the library's modules under ``src/`` (not from
the test files), so adding or deleting a literal there can change the
inputs a property test draws.
"""

from dataclasses import replace

import pytest
from hypothesis import settings

from infoacq.costs import PosteriorSeparableCost, _ConjugateMemo, neighborhood_hw_cost

settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
)
settings.load_profile("deterministic")


@pytest.fixture
def numeric_twin():
    """Maps an entropy to its twin without closed-form conjugate maps.

    The twin keeps every other field, so ``Entropy.conj_pass`` goes through
    ``costs.numeric_conjugate`` (with a fresh memo) and the conjugate
    Hessian comes from the implicit function theorem.
    """

    def twin(h):
        return replace(h, conj_fn=None, conj_hess_fn=None, _memo=_ConjugateMemo())

    return twin


@pytest.fixture(params=["closed_form", "numeric"])
def hw_cost(request, numeric_twin):
    """``neighborhood_hw_cost`` for a two-level cover, built twice: with its
    nested-logit closed form and with the numeric conjugate."""

    def build(prior, hoods):
        model = neighborhood_hw_cost(prior, hoods)
        assert model.entropy.conj_fn is not None, "expected a two-level cover"
        if request.param == "numeric":
            model = PosteriorSeparableCost(model.prior, numeric_twin(model.entropy), model.family)
        return model

    return build
