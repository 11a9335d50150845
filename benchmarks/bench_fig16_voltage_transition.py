"""Figure 16: sensitivity to the voltage transition delay.

Paper shapes to reproduce:

* panel (a) — long tasks, slow frequency transitions: a *faster* voltage
  transition can INCREASE latency, because the policy transitions more
  often and the link is dead during every frequency retune;
* panel (b) — short tasks (high temporal variance): slow voltage
  transitions defer capacity increases and hurt latency/throughput.
"""

from repro.harness.experiments import fig16_voltage_transition_sweep

from .common import archive, run_once, scale


def test_fig16a_long_tasks_slow_freq(benchmark):
    figure = archive(benchmark, "fig16a")
    sweeps = figure.extras["sweeps"]
    # All DVS variants sit above the non-DVS latency.
    for name, points in sweeps.items():
        if name == "nodvs":
            continue
        assert points[0].mean_latency > sweeps["nodvs"][0].mean_latency


def test_fig16b_short_tasks_slow_freq(benchmark):
    figure = archive(benchmark, "fig16b")
    sweeps = figure.extras["sweeps"]
    # Throughput at the top rate: DVS variants give up some accepted rate
    # relative to non-DVS under high temporal variance.
    nodvs_top = sweeps["nodvs"][-1].accepted_rate
    for name, points in sweeps.items():
        assert points[-1].accepted_rate <= nodvs_top * 1.05


def test_fig16_fast_voltage_with_slow_freq_can_hurt(benchmark):
    """The paper's 'strange phenomenon': with slow frequency locks, a 10x
    faster voltage ramp does not reliably help latency (more transitions
    means more dead time)."""
    figure = run_once(
        benchmark,
        lambda: fig16_voltage_transition_sweep(scale(), panel="a", rates=(1.1,)),
    )
    sweeps = figure.extras["sweeps"]
    slow_vt = sweeps["vt_1.0x"][0].mean_latency
    fast_vt = sweeps["vt_0.1x"][0].mean_latency
    print(
        f"\nFigure 16 check at 1.1 pkt/cyc: vt 1.0x -> {slow_vt:.0f} cycles, "
        f"vt 0.1x -> {fast_vt:.0f} cycles"
    )
    # Shape assertion: the fast ramp gives at best a modest win — it must
    # not dominate (paper observed it can even lose).
    assert fast_vt > slow_vt * 0.5
