"""Per-network energy/latency table driver."""

import pytest

from repro.eval.energy_table import compute_energy_table, format_energy_table
from repro.rrm.networks import suite


class TestEnergyTable:
    @pytest.fixture(scope="class")
    def result(self):
        return compute_energy_table()

    def test_all_networks_present(self, result):
        assert len(result["rows"]) == 10

    def test_extended_core_always_wins(self, result):
        for row in result["rows"]:
            assert row["latency_us_e"] < row["latency_us_a"]
            assert row["energy_uj_e"] < row["energy_uj_a"]
            assert row["energy_gain"] > 4.0

    def test_big_networks_gain_most(self, result):
        gains = {row["name"]: row["energy_gain"] for row in result["rows"]}
        assert gains["ye2018"] > gains["eisen2019"]
        assert gains["ahmed2019"] > gains["naparstek2019"]

    def test_millisecond_budget(self, result):
        """The paper's framing: RRM runs in millisecond frames, and every
        network must fit comfortably on the extended core."""
        for row in result["rows"]:
            assert row["latency_us_e"] < 1000.0

    def test_energy_scales_with_macs(self, result):
        rows = sorted(result["rows"], key=lambda r: r["macs"])
        assert rows[-1]["energy_uj_e"] > rows[0]["energy_uj_e"] * 20

    def test_format(self, result):
        text = format_energy_table(result)
        assert "E gain" in text
        assert "millisecond" in text

    def test_scaled_suite_variant(self):
        result = compute_energy_table(suite(8))
        assert len(result["rows"]) == 10
