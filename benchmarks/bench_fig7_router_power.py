"""Figure 7: router power distribution.

Paper anchors: links 82.4% of router+channel power, allocators 81 mW.
This is the analytical reconstruction (the original is a Synopsys
synthesis measurement; see DESIGN.md substitution notes).
"""

from .common import archive


def test_fig7_router_power_distribution(benchmark):
    figure = archive(benchmark, "fig7")
    fractions = {row[0]: row[2] for row in figure.rows}
    assert abs(fractions["links"] - 0.824) < 0.001
    watts = {row[0]: row[1] for row in figure.rows}
    assert abs(watts["allocators"] - 0.081) < 1e-6
