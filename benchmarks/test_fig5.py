"""Figure 5 regeneration bench: time + speedup vs N on the 10^3 lattice.

Times the full harness (analytic estimators at paper parameters) and
prints the rows the paper's Fig. 5 reports.  The paper's band is
asserted in ``tests/integration/test_figures_end_to_end.py``.
"""

from repro.bench import fig5


class TestFig5:
    def test_regenerate(self, benchmark):
        result = benchmark(fig5)
        print()
        print(result.render())
