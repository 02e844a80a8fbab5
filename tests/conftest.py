"""Shared fixtures: the two classical certified triples used across tests,
and the Hypothesis profile chosen by HYPOTHESIS_PROFILE.

The alternating triple satisfies A^3 + B^3 - C^3 = (-1)^n (the almost-Fermat
family seeded by the taxicab identity); the constant triple satisfies
A^3 + 2B^3 + 2C^3 = 6859.
"""

import os

import pytest
from hypothesis import settings

from cubeforge import RationalGF

# HYPOTHESIS_PROFILE=ci gives the property tests that set no example budget
# of their own, the at-the-bound generator among them, ten times the default.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ALT_DEN = (1, -82, -82, 1)

# (1-t)(t^2 - 103682 t + 1) expanded, ascending
CONST_DEN = (1, -103683, 103683, -1)


@pytest.fixture(scope="session")
def alternating_triple():
    return (
        RationalGF((1, 53, 9), ALT_DEN),
        RationalGF((2, -26, -12), ALT_DEN),
        RationalGF((2, 8, -10), ALT_DEN),
    )


@pytest.fixture(scope="session")
def constant_triple_6859():
    return (
        RationalGF((-29, 888826, 293155), CONST_DEN),
        RationalGF((-1, -550798, -237169), CONST_DEN),
        RationalGF((25, -878594, 90601), CONST_DEN),
    )
