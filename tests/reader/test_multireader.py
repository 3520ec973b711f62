"""Tests for multi-reader interference management (§4.3)."""

import pytest

from repro.channel import Environment
from repro.channel.environment import CONCRETE
from repro.dsp.filters import LowPassFilter
from repro.errors import ConfigurationError
from repro.reader import ReaderSite, residual_interference_db, strongest_reader
from repro.reader.multireader import received_power_dbm

LPF = LowPassFilter(100e3, 4e6, order=6)


def make_sites():
    return [
        ReaderSite(position=(0.0, 0.0), frequency_hz=903.25e6, name="west"),
        ReaderSite(position=(30.0, 0.0), frequency_hz=913.25e6, name="east"),
    ]


class TestSelection:
    def test_nearest_reader_wins_in_free_space(self):
        sites = make_sites()
        assert strongest_reader(sites, (3.0, 0.0)).name == "west"
        assert strongest_reader(sites, (27.0, 0.0)).name == "east"

    def test_wall_changes_the_winner(self):
        sites = make_sites()
        env = Environment()
        # A thick wall just east of the drone mutes the nearer reader.
        env.add_wall((10.0, -5.0), (10.0, 5.0), CONCRETE)
        env.add_wall((10.2, -5.0), (10.2, 5.0), CONCRETE)
        env.add_wall((10.4, -5.0), (10.4, 5.0), CONCRETE)
        drone = (12.0, 0.0)
        # Without walls: west (12 m) beats east (18 m); with the triple
        # wall attenuating west's signal, east wins.
        assert strongest_reader(sites, drone).name == "west"
        assert strongest_reader(sites, drone, env).name == "east"

    def test_no_sites_rejected(self):
        with pytest.raises(ConfigurationError):
            strongest_reader([], (0.0, 0.0))

    def test_received_power_declines_with_distance(self):
        site = make_sites()[0]
        near = received_power_dbm(site, (2.0, 0.0))
        far = received_power_dbm(site, (20.0, 0.0))
        assert near > far

    def test_site_validation(self):
        with pytest.raises(ConfigurationError):
            ReaderSite(position=(0, 0), frequency_hz=-1.0)


class TestSuppression:
    def test_off_channel_reader_heavily_suppressed(self):
        locked, other = make_sites()
        # 10 MHz apart: beyond the representable baseband -> the front
        # end has already removed it entirely.
        assert residual_interference_db(locked, other, LPF) == float("inf")

    def test_adjacent_channel_suppression(self):
        locked = ReaderSite(position=(0, 0), frequency_hz=913.25e6)
        other = ReaderSite(position=(5, 0), frequency_hz=913.75e6)
        # 500 kHz offset: the LPF's deep stopband.
        suppression = residual_interference_db(locked, other, LPF)
        assert suppression > 80.0

    def test_same_channel_gets_no_protection(self):
        locked = ReaderSite(position=(0, 0), frequency_hz=913.25e6)
        other = ReaderSite(position=(5, 0), frequency_hz=913.25e6)
        assert residual_interference_db(locked, other, LPF) == 0.0

    def test_suppression_grows_with_offset(self):
        locked = ReaderSite(position=(0, 0), frequency_hz=913.25e6)
        close = ReaderSite(position=(5, 0), frequency_hz=913.45e6)
        farther = ReaderSite(position=(5, 0), frequency_hz=914.05e6)
        assert residual_interference_db(
            locked, farther, LPF
        ) > residual_interference_db(locked, close, LPF)
