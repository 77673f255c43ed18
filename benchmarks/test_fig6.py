"""Figure 6 regeneration bench: DoS at N=256 vs N=512, 10^3 lattice.

Functional KPM run (reduced stochastic sampling, see DESIGN.md §5); the
benchmark time is the real wall-clock of the moment recursion plus
reconstruction on this host.  The figure's shape claims are asserted in
``tests/integration/test_figures_end_to_end.py``.
"""

from repro.bench import fig6


class TestFig6:
    def test_regenerate(self, run_once, benchmark):
        result = run_once(
            benchmark,
            fig6,
            num_random_vectors=12,
            num_realizations=2,
            num_energy_points=512,
        )
        print()
        print(result.render())
