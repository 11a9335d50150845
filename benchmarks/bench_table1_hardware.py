"""Table 1 parameters, the VF/power tables, and the Section 3.3 hardware
cost estimate — the paper's static artifacts, regenerated and checked.
"""

from .common import archive


def test_table1_policy_parameters(benchmark):
    figure = archive(benchmark, "table1")
    values = dict(figure.rows)
    assert values["TL_low"] == 0.3 and values["TH_high"] == 0.7


def test_table2_threshold_settings(benchmark):
    figure = archive(benchmark, "table2")
    assert len(figure.rows) == 6


def test_vf_and_power_table(benchmark):
    figure = archive(benchmark, "vf-table")
    assert figure.rows[0][3] == 23.6
    assert figure.rows[-1][3] == 200.0


def test_section33_hardware_estimate(benchmark):
    figure = archive(benchmark, "hardware")
    total = dict(figure.rows)["TOTAL gate-eq"]
    power = dict(figure.rows)["power (mW)"]
    assert 300 <= total <= 700
    assert power < 3.0
