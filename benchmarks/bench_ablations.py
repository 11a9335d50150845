"""Ablations and extensions beyond the paper's figures.

* Congestion litmus: the full policy vs the LU-only strawman Section 3.1
  argues against — the litmus should buy extra power savings under load.
* EWMA weight W and history window H sensitivity (the paper fixes W=3 and
  H=200 for hardware convenience).
* The dynamically adjusted thresholds the paper suggests in Section 4.4.2.
"""

from .common import archive


def test_ablation_congestion_litmus(benchmark):
    figure = archive(benchmark, "ablation-litmus")
    sweeps = figure.extras["sweeps"]
    # At the higher (congesting) rate, the litmus lets congested links slow
    # down: full policy burns no more power than LU-only.
    full = sweeps["history"][-1]
    lu_only = sweeps["lu_only"][-1]
    print(
        f"\nLitmus ablation at {full.target_rate} pkt/cyc: history "
        f"{full.normalized_power:.3f} vs lu_only {lu_only.normalized_power:.3f}"
    )
    assert full.normalized_power <= lu_only.normalized_power * 1.15


def test_ablation_ewma_weight(benchmark):
    figure = archive(benchmark, "ablation-weight")
    transitions = [row[3] for row in figure.rows]
    assert all(t >= 0 for t in transitions)


def test_ablation_history_window(benchmark):
    figure = archive(benchmark, "ablation-window")
    # Shorter windows evaluate more often -> at least as many transitions.
    by_window = {row[0]: row[3] for row in figure.rows}
    assert by_window[50] >= by_window[800]


def test_extension_ideal_links(benchmark):
    """The future-technology limit the paper's conclusion points to:
    instantaneous, non-disabling transitions should cut the DVS latency
    cost substantially at similar power."""
    figure = archive(benchmark, "extension-ideal")
    sweeps = figure.extras["sweeps"]
    conservative = sweeps["conservative"][0]
    ideal = sweeps["ideal"][0]
    print(
        f"\nIdeal links at {ideal.target_rate} pkt/cyc: latency "
        f"{conservative.mean_latency:.0f} -> {ideal.mean_latency:.0f}, "
        f"power {conservative.normalized_power:.3f} -> {ideal.normalized_power:.3f}"
    )
    assert ideal.mean_latency <= conservative.mean_latency
    assert ideal.normalized_power < 0.6


def test_extension_adaptive_thresholds(benchmark):
    figure = archive(benchmark, "extension-adaptive")
    sweeps = figure.extras["sweeps"]
    # The adaptive variant must stay a sane policy: it saves power at the
    # light-load point.
    assert sweeps["adaptive_threshold"][0].normalized_power < 0.7
