"""Figures 3, 4 and 5: LU / BU / BA profiles of one tracked link.

Paper shape to reproduce: link utilization rises with load then *dips*
once the network congests (Figure 3(d)); buffer utilization and buffer age
stay near zero until congestion, then jump (Figures 4(c) and 5(c)) —
the indicator-function behaviour that motivates the congestion litmus.
"""

from repro.harness.experiments import (
    fig3_link_utilization_profile,
    fig4_buffer_utilization_profile,
    fig5_buffer_age_profile,
)

from .common import archive, cached_profiles, scale


def _means(figure) -> list[float]:
    """The tracked link's mean per load, in load order."""
    return [row[1] for row in figure.rows]


def test_fig3_link_utilization(benchmark):
    figure = archive(
        benchmark,
        "fig3",
        lambda: fig3_link_utilization_profile(
            scale(), profiles=cached_profiles(scale().name)
        ),
    )
    profiles = figure.extras["profiles"]
    means = _means(figure)
    network_means = [profile["network_mean_lu"] for profile in profiles.values()]
    print(f"\ntracked-link mean LU by load: {[round(m, 3) for m in means]}")
    print(f"network mean LU by load:      {[round(m, 3) for m in network_means]}")
    # LU must rise from light load to heavy load...
    assert means[1] > means[0]
    assert all(0.0 <= m <= 1.0 for m in means)
    # ...and the congested point must not keep rising proportionally (the
    # Figure 3(d) dip / flattening). Filling the 128-deep buffers to the
    # point of credit starvation needs more cycles than the smoke preset
    # runs, so the dip check applies to the larger scales only.
    if scale().name != "smoke":
        assert means[3] < means[2] * 1.5
        # Offered load grows 2.7x from the 3rd to the 4th point; stalls
        # keep the network-wide utilization growth well below that.
        assert network_means[3] < network_means[2] * 2.0


def test_fig4_buffer_utilization(benchmark):
    figure = archive(
        benchmark,
        "fig4",
        lambda: fig4_buffer_utilization_profile(
            scale(), profiles=cached_profiles(scale().name)
        ),
    )
    means = _means(figure)
    # Indicator behaviour: low pre-congestion, sharp rise at congestion.
    assert means[0] < 0.3
    assert means[3] > means[0]


def test_fig5_buffer_age(benchmark):
    figure = archive(
        benchmark,
        "fig5",
        lambda: fig5_buffer_age_profile(scale(), profiles=cached_profiles(scale().name)),
    )
    means = _means(figure)
    assert means[3] > means[0]
