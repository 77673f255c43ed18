"""Figure 8 regeneration bench: time + speedup vs H_SIZE at N=128.

Times the harness and prints the figure's rows.  The paper's band
(~4x GPU advantage, CPU cache cliff, GPU at O(H_SIZE^2)) is asserted in
``tests/integration/test_figures_end_to_end.py``.
"""

from repro.bench import fig8


class TestFig8:
    def test_regenerate(self, benchmark):
        result = benchmark(fig8)
        print()
        print(result.render())
