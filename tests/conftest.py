"""Shared fixtures: the two five-stock reference models and their transforms,
and a derandomized hypothesis profile so every run draws the same examples."""

from pathlib import Path

import pytest
from hypothesis import settings

import nmvmrisk as nr

DATA_DIR = Path(__file__).parent / "data"

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def skew_model() -> nr.NmvmModel:
    """Five-stock model without a location term (mixing GIG(-1/2, ...))."""
    return nr.load_model(DATA_DIR / "fivestock_skew.json")


@pytest.fixture(scope="session")
def location_model() -> nr.NmvmModel:
    """Five-stock model with a location term (mixing GIG(-0.3787, ...))."""
    return nr.load_model(DATA_DIR / "fivestock_location.json")


@pytest.fixture(scope="session")
def tm_skew(skew_model) -> nr.TransformedModel:
    return nr.transform(skew_model, mode="skew")


@pytest.fixture(scope="session")
def tm_location(location_model) -> nr.TransformedModel:
    return nr.transform(location_model, mode="mean_risk")
