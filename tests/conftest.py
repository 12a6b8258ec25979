import os

import numpy as np
import pytest
from hypothesis import settings

from lumiphon.model import CrystalStructure, GeometryPair

from helpers import isotropic_pair_hessian, random_cluster_structure

# tier-1 draws the same examples on every run, each test's max_examples of
# them; HYPOTHESIS_PROFILE=explore draws at random, ten times as many
# (helpers.examples; 1000 where a test keeps Hypothesis' 100), and prints
# a failure's reproducing blob
settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False, max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def diatomic():
    """Two carbons with an isotropic unit spring; analytic omega = sqrt(2k/m)."""
    structure = CrystalStructure(
        np.eye(3) * 10.0,
        ("C", "C"),
        [12.011, 12.011],
        [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
    )
    return structure, isotropic_pair_hessian(4.2)


@pytest.fixture
def small_cluster():
    return random_cluster_structure(8, seed=11)


@pytest.fixture
def displaced_pair(diatomic):
    structure, _ = diatomic
    ground = structure.positions.copy()
    excited = ground + np.array([[0.02, 0.0, 0.0], [-0.02, 0.0, 0.0]])
    return GeometryPair(ground, excited, structure.species)
