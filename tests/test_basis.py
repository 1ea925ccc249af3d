"""Flat eigenbasis labels: mode validation and the branch convention."""

import pytest

from stokes_isola.basis import Mode, sqrt_sigma


class TestMode:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            Mode(0, 0)
        with pytest.raises(ValueError):
            Mode(1, 2)

    def test_repr_is_compact(self):
        assert repr(Mode(2, 1)) == "(2,+)"
        assert repr(Mode(0, -1)) == "(0,-)"


class TestSqrtSigma:
    def test_branch_convention(self):
        assert sqrt_sigma(1) == 1
        assert sqrt_sigma(-1) == 1j
        with pytest.raises(ValueError):
            sqrt_sigma(0)
