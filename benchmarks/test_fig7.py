"""Figure 7 regeneration bench: time + speedup vs N at H_SIZE=128.

Times the harness and prints the figure's rows.  The paper's band
(speedup rising with N toward ~4x) is asserted in
``tests/integration/test_figures_end_to_end.py``.
"""

from repro.bench import fig7


class TestFig7:
    def test_regenerate(self, benchmark):
        result = benchmark(fig7)
        print()
        print(result.render())
