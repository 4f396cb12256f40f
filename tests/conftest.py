import numpy as np
import pytest

from smilansky_lab.model import ChannelSpec, ModelConfig, PotentialProfile
from smilansky_lab.oned import (ComparisonSpec, critical_coupling, ground_state,
                                tune_lambda_to_threshold)


@pytest.fixture(scope="session")
def cos2_profile():
    return PotentialProfile(family="cos2", a=1.0, amplitude=1.0)


@pytest.fixture(scope="session")
def lam_crit(cos2_profile):
    return critical_coupling(1.0, cos2_profile)


@pytest.fixture(scope="session")
def lam_e0_minus1(cos2_profile):
    """Coupling placing the 1D threshold at -1 (omega = 1)."""
    return tune_lambda_to_threshold(1.0, cos2_profile, -1.0)


@pytest.fixture(scope="session")
def gs_minus1(cos2_profile, lam_e0_minus1):
    spec = ComparisonSpec(1.0, lam_e0_minus1, cos2_profile)
    return ground_state(spec)


@pytest.fixture(scope="session")
def gs_shipped(cos2_profile):
    """Ground state at the coupling of configs/supercritical.json."""
    spec = ComparisonSpec(1.0, 4.585884094238281, cos2_profile)
    return ground_state(spec)


@pytest.fixture(scope="session")
def supercritical_config(cos2_profile, lam_e0_minus1):
    return ModelConfig(omega=1.0,
                       channels=(ChannelSpec(lam_e0_minus1, 0.0, cos2_profile),))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260824)
