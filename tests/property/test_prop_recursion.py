"""The one Chebyshev recursion core against an independent reference.

:func:`repro.kpm.moments.extend_recursion` is the only place the
three-term step is written; every moment routine runs through it.  Two
properties pin it from outside, on random symmetric operators scaled
into ``[-1, 1]`` (CSR with uniform or ragged rows, ELL, dense):

* an extension chain ``N_0 < N_1 < ... < N_k`` concatenates, byte for
  byte, to the cold run at ``N_k``, and leaves the same state (``N``,
  the per-vector pair and, under doubling, ``mu_1``) as that cold run;
* the cold run equals, byte for byte, a recursion written in this file:
  a plain loop plus the doubling identities of Weiße et al.
  (arXiv:cond-mat/0504627), with ``float(a @ b)`` for a 1-D start and
  the same contiguous 1-D dot of each column pair for a ``(D, R)``
  block.  That pins the one per-vector dot: a column ``einsum`` or a
  dot over strided columns can differ in the last bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kpm import moments_block, moments_single_vector
from repro.kpm.moments import extend_recursion, moments_resumable
from repro.sparse import CSRMatrix, DenseOperator

entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def scaled_operators(draw, max_dim=10):
    """A symmetric operator whose spectrum lies inside ``[-1, 1]``."""
    dim = draw(st.integers(1, max_dim))
    layout = draw(st.sampled_from(["csr-uniform", "csr-ragged", "ell", "dense"]))
    if layout == "csr-uniform":
        # A pattern closed under i -> -i (mod D) gives every row the same
        # number of stored entries and a symmetric structure.
        half = draw(st.lists(st.integers(0, dim - 1), unique=True))
        offsets = {o for h in half for o in (h, (-h) % dim)}
        pairs = {
            (min(i, (i + o) % dim), max(i, (i + o) % dim))
            for i in range(dim)
            for o in offsets
        }
    else:
        candidates = [(i, j) for i in range(dim) for j in range(i, dim)]
        keep = draw(
            st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates))
        )
        pairs = {pair for pair, kept in zip(candidates, keep) if kept}
    pairs = sorted(pairs)
    values = draw(st.lists(entries, min_size=len(pairs), max_size=len(pairs)))
    dense = np.zeros((dim, dim))
    for (i, j), value in zip(pairs, values):
        dense[i, j] = dense[j, i] = value
    # The Gerschgorin bound caps the spectral radius and every |entry|, so
    # dividing by it keeps the entries finite and the spectrum in [-1, 1].
    bound = float(np.abs(dense).sum(axis=1).max())
    if bound > 0.0:
        dense /= 1.01 * bound
    if layout == "dense":
        return DenseOperator(dense)
    neighbours = [set() for _ in range(dim)]
    for i, j in pairs:
        neighbours[i].add(j)
        neighbours[j].add(i)
    columns = [sorted(row) for row in neighbours]
    indptr = np.cumsum([0] + [len(c) for c in columns], dtype=np.int64)
    indices = [j for c in columns for j in c]
    data = [dense[row, j] for row, c in enumerate(columns) for j in c]
    csr = CSRMatrix(indptr, indices, data, (dim, dim))
    return csr.to_ell() if layout == "ell" else csr


@st.composite
def recursion_cases(draw):
    """Operator, start (1-D or ``(D, R <= 4)``), doubling, and order chain."""
    op = draw(scaled_operators())
    dim = op.shape[0]
    width = draw(st.sampled_from([None, 1, 2, 3, 4]))
    shape = (dim,) if width is None else (dim, width)
    size = int(np.prod(shape))
    start = np.array(
        draw(st.lists(entries, min_size=size, max_size=size)), dtype=np.float64
    ).reshape(shape)
    use_doubling = draw(st.booleans())
    orders = sorted(
        draw(st.lists(st.integers(1, 48), min_size=1, max_size=5, unique=True))
    )
    return op, start, use_doubling, orders


def reference_moments(op, start, num_moments, use_doubling):
    """Three-term recursion written out independently of the library."""
    if start.ndim == 1:
        apply, dot = op.matvec, lambda a, b: float(a @ b)
    else:
        apply = op.matmat

        def dot(a, b):
            return np.array(
                [
                    float(np.ascontiguousarray(a[:, j]) @ np.ascontiguousarray(b[:, j]))
                    for j in range(a.shape[1])
                ]
            )

    mu = np.empty((num_moments, *start.shape[1:]))
    mu[0] = dot(start, start)
    if num_moments == 1:
        return mu
    chebyshev = [start, apply(start)]  # T_k(H) r for k = 0, 1, ...
    mu[1] = dot(start, chebyshev[1])
    needed = num_moments // 2 + 1 if use_doubling else num_moments - 1
    while len(chebyshev) <= needed:
        chebyshev.append(2.0 * apply(chebyshev[-1]) - chebyshev[-2])
    for order in range(2, num_moments):
        if not use_doubling:
            mu[order] = dot(start, chebyshev[order])
        elif order % 2 == 0:
            k = order // 2
            mu[order] = 2.0 * dot(chebyshev[k], chebyshev[k]) - mu[0]
        else:
            k = order // 2
            mu[order] = 2.0 * dot(chebyshev[k + 1], chebyshev[k]) - mu[1]
    return mu


def same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRecursionCore:
    @given(case=recursion_cases())
    @settings(max_examples=200, deadline=None)
    def test_extension_chain_equals_cold_run(self, case):
        op, start, use_doubling, orders = case
        segments = []
        mu, checkpoint = moments_resumable(
            op, start, orders[0], use_doubling=use_doubling
        )
        segments.append(mu)
        for target in orders[1:]:
            segment, checkpoint = extend_recursion(op, checkpoint, target)
            segments.append(segment)
        cold, cold_checkpoint = moments_resumable(
            op, start, orders[-1], use_doubling=use_doubling
        )
        assert np.concatenate(segments).tobytes() == cold.tobytes()
        assert checkpoint.num_moments == cold_checkpoint.num_moments == orders[-1]
        assert checkpoint.run_key == cold_checkpoint.run_key
        assert same_array(checkpoint.pair, cold_checkpoint.pair)
        assert same_array(checkpoint.mu1, cold_checkpoint.mu1)

    @given(case=recursion_cases())
    @settings(max_examples=200, deadline=None)
    def test_cold_run_equals_reference(self, case):
        op, start, use_doubling, orders = case
        num_moments = orders[-1]
        public = moments_single_vector if start.ndim == 1 else moments_block
        cold = public(op, start, num_moments, use_doubling=use_doubling)
        reference = reference_moments(op, start, num_moments, use_doubling)
        assert cold.shape == reference.shape
        assert cold.tobytes() == reference.tobytes()
