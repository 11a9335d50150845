"""Table 2 / Figures 13-15: the threshold trade-off study.

Paper shape: moving from threshold setting I to VI (less to more
aggressive down-scaling) monotonically trades latency for power — more
savings, higher latency — tracing a Pareto frontier at a fixed rate
(Figure 15, paper rate 1.7 packets/cycle).
"""

from repro.harness.experiments import fig13_threshold_latency, fig14_threshold_power

from .common import archive, cached_threshold_sweeps, scale

SETTING_ORDER = ("I", "II", "III", "IV", "V", "VI")


def test_fig13_threshold_latency(benchmark):
    figure = archive(
        benchmark,
        "fig13",
        lambda: fig13_threshold_latency(
            scale(), sweeps=cached_threshold_sweeps(scale().name)
        ),
    )
    # One column per Table 2 setting, one row per swept rate.
    assert figure.columns == ["rate", *SETTING_ORDER]
    sweeps = figure.extras["sweeps"]
    assert [row[0] for row in figure.rows] == [point.target_rate for point in sweeps["I"]]


def test_fig14_threshold_power(benchmark):
    figure = archive(
        benchmark,
        "fig14",
        lambda: fig14_threshold_power(
            scale(), sweeps=cached_threshold_sweeps(scale().name)
        ),
    )
    sweeps = figure.extras["sweeps"]
    # More aggressive settings burn no more power, comparing the ends.
    mean_power = {
        name: sum(point.normalized_power for point in sweeps[name]) / len(sweeps[name])
        for name in SETTING_ORDER
    }
    assert mean_power["VI"] <= mean_power["I"] * 1.05


def test_fig15_pareto_curve(benchmark):
    figure = archive(benchmark, "fig15")
    savings = [row[4] for row in figure.rows]
    # The frontier spans a real range of savings across settings I..VI.
    assert max(savings) > min(savings)
    # The most aggressive setting is on the high-savings side.
    by_name = {row[0]: row[4] for row in figure.rows}
    assert by_name["VI"] >= by_name["I"]
