"""Antenna gain models.

The paper's hardware uses a 6 dBi patch on the reader, compact ceramic
antennas on the relay, and dipole-like tag antennas. For the phasor
simulations the directional pattern mainly matters for the reader patch
(it points down the area of interest); tags and relay antennas are close
to omnidirectional in the horizontal plane.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class IsotropicAntenna:
    """0 dBi in every direction."""

    def __init__(self, gain_dbi: float = 0.0) -> None:
        self.peak_gain_dbi = float(gain_dbi)

    def gain_dbi(self, direction) -> float:
        """Gain toward a (2-D) direction vector, in dBi."""
        return self.peak_gain_dbi


class DipoleAntenna:
    """A half-wave dipole lying along ``axis`` (2-D projection).

    Gain follows the classic ``cos(pi/2 cos(theta)) / sin(theta)``
    pattern with a 2.15 dBi peak broadside to the element, and a deep
    null along the element axis — the "orientation misalignment" that
    creates RFID blind spots (paper §1, [31]).
    """

    PEAK_DBI = 2.15
    _FLOOR_DB = -30.0

    def __init__(self, axis=(1.0, 0.0)) -> None:
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0:
            raise ConfigurationError("dipole axis must be a nonzero vector")
        self.axis = axis / norm

    def gain_dbi(self, direction) -> float:
        """Gain toward a (2-D) direction vector, in dBi."""
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ConfigurationError("direction must be a nonzero vector")
        cos_theta = float(np.clip(np.dot(d / norm, self.axis), -1.0, 1.0))
        sin_theta = np.sqrt(max(1.0 - cos_theta**2, 1e-12))
        pattern = np.cos(np.pi / 2.0 * cos_theta) / sin_theta
        pattern_db = 20.0 * np.log10(max(abs(pattern), 10.0 ** (self._FLOOR_DB / 20.0)))
        return float(self.PEAK_DBI + pattern_db)


class PatchAntenna:
    """A directional patch with a cosine-power main lobe.

    ``gain(theta) = peak * cos(theta)^n`` in the forward half-space and a
    constant back-lobe level behind, with n derived from the specified
    half-power beamwidth.
    """

    def __init__(
        self,
        boresight=(1.0, 0.0),
        peak_gain_dbi: float = 6.0,
        beamwidth_deg: float = 70.0,
        front_to_back_db: float = 15.0,
    ) -> None:
        boresight = np.asarray(boresight, dtype=float)
        norm = np.linalg.norm(boresight)
        if norm == 0:
            raise ConfigurationError("boresight must be a nonzero vector")
        if not 10.0 <= beamwidth_deg <= 180.0:
            raise ConfigurationError(
                f"beamwidth must be 10-180 degrees, got {beamwidth_deg}"
            )
        if front_to_back_db < 0:
            raise ConfigurationError("front-to-back ratio must be >= 0 dB")
        self.boresight = boresight / norm
        self.peak_gain_dbi = float(peak_gain_dbi)
        self.front_to_back_db = float(front_to_back_db)
        half_angle = np.deg2rad(beamwidth_deg / 2.0)
        # cos^n(half_angle) = 1/2 in power -> n = log(0.5)/log(cos(half)).
        self._exponent = float(np.log(0.5) / np.log(np.cos(half_angle) ** 2))

    def gain_dbi(self, direction) -> float:
        """Gain toward a (2-D) direction vector, in dBi."""
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ConfigurationError("direction must be a nonzero vector")
        cos_theta = float(np.clip(np.dot(d / norm, self.boresight), -1.0, 1.0))
        back_gain = self.peak_gain_dbi - self.front_to_back_db
        if cos_theta <= 0.0:
            return back_gain
        lobe = self.peak_gain_dbi + 10.0 * self._exponent * np.log10(cos_theta**2)
        return float(max(lobe, back_gain))
