"""Figure 17: sensitivity to the frequency transition (receiver lock) delay.

Paper shapes: with long tasks (panel a), frequency transition time only
adds latency overhead; with short tasks (panel b), slow transitions
degrade throughput because links respond too slowly to traffic changes.
Network *power* is much less sensitive to transition rates than latency.
"""

from repro.harness.experiments import fig17_frequency_transition_sweep

from .common import archive, run_once, scale


def test_fig17a_long_tasks(benchmark):
    figure = archive(benchmark, "fig17a")
    sweeps = figure.extras["sweeps"]
    # Faster locks never *hurt* much at the low rate: ft_10 within 2x of
    # ft_100 latency.
    assert sweeps["ft_10"][0].mean_latency < sweeps["ft_100"][0].mean_latency * 2.0


def test_fig17b_short_tasks(benchmark):
    figure = archive(benchmark, "fig17b")
    sweeps = figure.extras["sweeps"]
    nodvs_top = sweeps["nodvs"][-1].accepted_rate
    # Under high temporal variance every DVS variant concedes throughput.
    for points in sweeps.values():
        assert points[-1].accepted_rate <= nodvs_top * 1.05


def test_fig17_power_less_sensitive_than_latency(benchmark):
    """Paper: 'network power is much less sensitive to varying transition
    rates than network latency and throughput'."""
    figure = run_once(
        benchmark,
        lambda: fig17_frequency_transition_sweep(scale(), panel="a", rates=(1.1,)),
    )
    sweeps = figure.extras["sweeps"]
    slow = sweeps["ft_100"][0]
    fast = sweeps["ft_10"][0]
    power_spread = abs(slow.normalized_power - fast.normalized_power) / max(
        slow.normalized_power, fast.normalized_power
    )
    print(f"\nFigure 17 power spread between ft variants: {power_spread:.1%}")
    assert power_spread < 0.5
