"""Shared fixture for the wall-clock checks in ``test_wallclock.py``."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def pretrained_model():
    from repro.eval.pretrained import standard_model

    model, _ = standard_model()
    return model
