"""Chebyshev moment computation — paper Eq. (13), (16)–(19).

The heaviest part of the KPM (paper Fig. 3 step 2) is the three-term
recursion

    |r_0> = |r>,  |r_1> = H~ |r_0>,  |r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>,

with one dot product ``mu~_n = <r_0 | r_n>`` per order.

**One step, one mean, one check.**  :func:`chebyshev_rows` is the only
place the step is written; the host recursions here and the device
kernel (:func:`repro.gpukpm.kernels.kpm_recursion_kernel`) call it with
their own product.  It dots each start row with a contiguous copy of
its panel column, the BLAS dot a 1-D ``r @ y`` calls, so a vector's
moments do not depend on its block and every engine computes the same
per-vector rows; moment doubling (two moments per matvec, Weiße et al.,
arXiv:cond-mat/0504627) runs in the same form on the host.
:func:`reduce_moment_table` reduces every engine's ``(R*S, N)`` table
with the one mean :func:`vector_mean`.  The step raises
:class:`~repro.errors.SpectrumError` at the first order where some
``|mu~_n|`` is not finite or exceeds ``10**3 * max(|mu~_0|, 1)``
(``|<r|T_n|r>| <= ||r||^2`` for a spectrum inside ``[-1, 1]``).

Moments returned by the *low-level* routines are raw ``<r|T_n(H~)|r>``
values; :func:`stochastic_moments` and :func:`exact_moments` normalize by
the dimension ``D`` so that ``mu_0 ~= 1``.

**One state, one loop.**  Every engine resumes from one
:class:`RecursionState` (the device's per-vector ``(V, 2, D)`` layout),
and a cold run *is* an extension from an empty one.  ``mu_n`` depends
only on ``r_0 .. r_n`` — never on the truncation order — so extending
a state taken at ``N`` up to ``M`` yields orders ``[N, M)``
bit-identical to a cold run at ``M`` without replaying orders
``0 .. N-1``.  The serve layer's prefix-closed moment cache is built on
exactly this contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, SpectrumError, ValidationError
from repro.kpm.config import KPMConfig
from repro.kpm.random_vectors import random_block
from repro.sparse import as_operator
from repro.util.rng import normalize_seed
from repro.util.validation import check_positive_int

__all__ = [
    "MomentData",
    "RecursionState",
    "chebyshev_rows",
    "vector_mean",
    "reduce_moment_table",
    "moments_single_vector",
    "moments_block",
    "moments_resumable",
    "extend_recursion",
    "stochastic_moments",
    "stochastic_moments_resumable",
    "extend_stochastic_moments",
    "exact_moments",
]

# |<r|T_n|r>| <= ||r||^2 when the spectrum is inside [-1, 1]; allow slack
# for rounding, then diagnose divergence (bad rescaling) beyond it.
_DIVERGENCE_FACTOR = 1e3


@dataclass
class MomentData:
    """Stochastic-trace moment estimates and their dispersion.

    Attributes
    ----------
    mu:
        Length-``N`` grand mean, normalized so ``mu[0] ~= 1``
        (``mu_n = Tr[T_n(H~)] / D``).
    per_realization:
        ``(S, N)`` array of per-realization means (each already averaged
        over its ``R`` vectors and normalized by ``D``).
    dimension:
        Matrix dimension ``D``.
    num_vectors:
        ``R`` — vectors averaged within each realization.
    """

    mu: np.ndarray
    per_realization: np.ndarray
    dimension: int
    num_vectors: int

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.per_realization = np.atleast_2d(
            np.asarray(self.per_realization, dtype=np.float64)
        )
        if self.per_realization.shape[1] != self.mu.shape[0]:
            raise ShapeError(
                "per_realization must have one column per moment: "
                f"{self.per_realization.shape} vs {self.mu.shape}"
            )

    @property
    def num_moments(self) -> int:
        """``N`` — Chebyshev truncation order."""
        return int(self.mu.shape[0])

    @property
    def num_realizations(self) -> int:
        """``S`` — independent realizations averaged."""
        return int(self.per_realization.shape[0])

    def standard_error(self) -> np.ndarray:
        """Per-moment standard error of the grand mean across realizations.

        Zero when ``S == 1`` (no dispersion information at this level).
        """
        s = self.num_realizations
        if s < 2:
            return np.zeros_like(self.mu)
        return self.per_realization.std(axis=0, ddof=1) / np.sqrt(s)

    def prefix(self, num_moments: int) -> "MomentData":
        """The first ``num_moments`` orders, as views of this data.

        Moments are prefix-closed (``mu_n`` never depends on the
        truncation order), so the slice is bit-identical to what a fresh
        run at ``num_moments`` would have produced on the same backend.
        The views inherit this array's writeability — a cache handing out
        read-only moments hands out read-only prefixes.
        """
        num_moments = check_positive_int(num_moments, "num_moments")
        if num_moments > self.num_moments:
            raise ValidationError(
                f"prefix of {num_moments} moments exceeds the stored "
                f"{self.num_moments}"
            )
        if num_moments == self.num_moments:
            return self
        return MomentData(
            mu=self.mu[:num_moments],
            per_realization=self.per_realization[:, :num_moments],
            dimension=self.dimension,
            num_vectors=self.num_vectors,
        )

    def followed_by(self, later: "MomentData") -> "MomentData":
        """These orders, then ``later``'s: the data of an extended run."""
        mu = np.concatenate([self.mu, later.mu])
        per = np.concatenate([self.per_realization, later.per_realization], axis=1)
        return MomentData(mu, per, later.dimension, later.num_vectors)


def vector_mean(table) -> np.ndarray:
    """The one mean over random vectors (paper Fig. 4b), one per order.

    Each order's column is summed pairwise over its contiguous rows, in
    the table's dtype, so an order's mean depends on its column only.
    """
    if np.ndim(table) != 2:
        raise ShapeError(f"table must be 2-D (vectors, orders), got {np.shape(table)}")
    return np.asfortranarray(table).mean(axis=0)


def reduce_moment_table(
    table, num_vectors: int, dimension: int, *, mu=None
) -> MomentData:
    """:class:`MomentData` of a ``(R*S, N)`` table of raw per-vector moments.

    Rows are vectors in realization order, ``num_vectors`` (``R``) per
    realization: ``mu`` is their :func:`vector_mean` (or the one a device
    already took), ``per_realization`` each realization's row-by-row
    mean, both divided by ``dimension``.
    """
    num_vectors = check_positive_int(num_vectors, "num_vectors")
    if mu is None:
        mu = vector_mean(table)
    per_realization = table.reshape(-1, num_vectors, table.shape[1]).mean(axis=1)
    per_realization /= dimension
    return MomentData(mu / dimension, per_realization, dimension, num_vectors)


def _check_divergence(moments: np.ndarray, mu0: np.ndarray, first: int) -> None:
    """Raise :class:`SpectrumError` at the first order whose moments diverged."""
    ratio = np.abs(moments) / np.maximum(np.abs(mu0), 1.0)[:, None]
    if not ratio.max(initial=0.0) <= _DIVERGENCE_FACTOR:  # NaN fails it too
        column = int((~(ratio <= _DIVERGENCE_FACTOR)).any(axis=0).argmax())
        raise SpectrumError(
            f"moment of order {first + column} diverged (value "
            f"{float(ratio[:, column].max())!r}); the operator's spectrum is not "
            "contained in [-1, 1] — rescale it first (repro.kpm.rescale_operator)"
        )


def chebyshev_rows(
    apply, rows, first: int, stop: int, prev=None, cur=None, *, mu1=None,
    doubling: bool = False,
):
    """Raw moments of orders ``[first, stop)`` for a block of start rows.

    ``apply`` multiplies a ``(D, B)`` panel by ``H~`` into a fresh array;
    ``rows`` holds the start vectors as C-ordered ``(B, D)`` rows, in the
    recursion's dtype.  Without the ``(D, B)`` pair ``prev``/``cur`` the
    recursion starts from ``rows``; with it, resumes from
    ``r_{first-2}, r_{first-1}``, or under ``doubling`` from
    ``a_{k-1}, a_k`` (``k = max(first // 2, 1)``) and the order-1
    moments ``mu1``.  Each order sweeps the panel, updates it in place,
    copies it into a ``(B, D)`` rows buffer and writes one stacked
    ``np.matmul`` of ``rows`` with it.  Returns the ``(B, stop - first)``
    moment rows and the ``prev``, ``cur`` and ``mu1`` to resume from
    (``None`` while the recursion has not started).
    """
    if cur is None and first > 1:
        raise ValidationError(f"resuming at order {first} needs a prev/cur pair")
    panel = np.empty_like(rows)
    # Order-major moment storage: each stacked product writes its order's
    # (B, 1, 1) slot; ``moments`` views the slots as (B, stop - first).
    slots = np.empty((stop - first, rows.shape[0], 1, 1), dtype=rows.dtype)
    moments = slots[:, :, 0, 0].T
    lhs, rhs = rows[:, None, :], panel[:, :, None]
    mu0 = np.matmul(lhs, rows[:, :, None])[:, 0, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        if cur is None:
            if first == 0:
                moments[:, 0] = mu0
            if stop > 1:
                prev = rows.T
                cur = apply(prev)
                panel[...] = cur.T
                mu1 = np.matmul(lhs, rhs)[:, 0, 0]
                moments[:, 1 - first] = mu1
        if not doubling:
            for order in range(max(first, 2), stop):
                nxt = apply(cur)
                nxt *= 2.0
                nxt -= prev
                panel[...] = nxt.T
                np.matmul(lhs, rhs, out=slots[order - first])
                prev, cur = cur, nxt
        else:
            ahead = np.empty_like(panel)  # rows of a_{k+1}; panel holds a_k's
            for k in range(max(first // 2, 1), (stop + 1) // 2):
                panel[...] = cur.T
                if 2 * k >= first:
                    even = 2 * k - first
                    np.matmul(panel[:, None, :], rhs, out=slots[even])
                    moments[:, even] = 2.0 * moments[:, even] - mu0
                if 2 * k + 1 < stop:
                    nxt = apply(cur)
                    nxt *= 2.0
                    nxt -= prev
                    ahead[...] = nxt.T
                    odd = 2 * k + 1 - first
                    np.matmul(ahead[:, None, :], rhs, out=slots[odd])
                    moments[:, odd] = 2.0 * moments[:, odd] - mu1
                    prev, cur = cur, nxt
        _check_divergence(moments, mu0, first)
    return moments, prev, cur, mu1


def moments_single_vector(
    operator, start_vector, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments ``<r|T_n(H~)|r>`` for one start vector, shape ``(N,)``.

    :func:`moments_resumable` for a length-``D`` vector, without the
    state.
    """
    if np.ndim(start_vector) != 1:
        raise ShapeError(f"start_vector must be 1-D, got shape {np.shape(start_vector)}")
    return moments_resumable(
        operator, start_vector, num_moments, use_doubling=use_doubling
    )[0]


def moments_block(
    operator, start_block, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments for a ``(D, R)`` block of start vectors, shape ``(N, R)``.

    Column ``r`` of the result equals
    ``moments_single_vector(operator, start_block[:, r], ...)`` bit for
    bit: every vector runs the same one-row arithmetic in any block.
    """
    if np.ndim(start_block) != 2:
        raise ShapeError(f"start_block must be 2-D (D, R), got {np.shape(start_block)}")
    return moments_resumable(
        operator, start_block, num_moments, use_doubling=use_doubling
    )[0]


@dataclass(frozen=True)
class RecursionState:
    """Where a Chebyshev recursion stopped: the one state of every engine.

    The host recursions, :class:`~repro.kpm.incremental.SpectralDensity`,
    ``GpuKPM`` and the serve cache produce and accept this type; hand it
    back unchanged to resume at ``num_moments`` without replaying.  A
    trace state resumes on any resumable engine that runs its key.

    Attributes
    ----------
    run_key:
        ``(field, value)`` pairs a resume must match: for a trace, the
        config fields besides ``N`` that decide the moments; then the
        recursion run (``"plain"`` or ``"doubled"``) and the pair's dtype.
    num_moments:
        ``N``, the orders produced so far.
    pair:
        ``(V, 2, D)``: per vector, in global order, ``(r_{N-2},
        r_{N-1})``, or under doubling ``(a_{k-1}, a_k)`` with
        ``k = N // 2``; ``None`` while ``N < 2``.
    mu1:
        ``(V,)`` order-1 raw moments under doubling, else ``None``.
    rows:
        Explicit start vectors, as ``(V, D)`` rows or the ``(D,)``
        vector of a 1-D start; ``None`` for Philox starts, which a
        resume regenerates from the run key.
    """

    run_key: tuple
    num_moments: int
    pair: np.ndarray | None
    mu1: np.ndarray | None = None
    rows: np.ndarray | None = None

    @property
    def doubled(self) -> bool:
        """Whether the run is the doubled recursion."""
        return ("recursion", "doubled") in self.run_key


def _run_key(config: KPMConfig | None, *, doubled: bool, dtype=np.float64) -> tuple:
    """What a resume must match: everything besides ``N`` that decides the moments.

    A trace's config fields (none for explicit start rows), then the
    recursion run and the pair's dtype: the host runs ``use_doubling``
    in float64, ``gpu-sim`` the plain recursion in the config's precision.
    """
    fields = () if config is None else (
        ("num_random_vectors", config.num_random_vectors),
        ("num_realizations", config.num_realizations),
        ("vector_kind", config.vector_kind),
        ("seed", normalize_seed(config.seed)),
        ("use_doubling", config.use_doubling),
        ("precision", config.precision),
    )
    recursion = "doubled" if doubled else "plain"
    return fields + (("recursion", recursion), ("dtype", np.dtype(dtype)))


def _check_resume(state, run_key: tuple, shape: tuple, num_moments: int, data=None):
    """Raise unless ``state`` resumes a run keyed ``run_key`` up to ``num_moments``.

    Shared by every resume, host and GPU.  Every ``run_key`` field must
    match the state's (:class:`ValidationError` names the first that
    differs), a pair must have the ``(V, 2, D)`` ``shape`` the run reads
    (:class:`ShapeError`), a trace's ``data`` must hold the state's
    orders, and the target must exceed them.
    """
    if not isinstance(state, RecursionState):
        raise ValidationError(f"state must be a RecursionState, got {type(state).__name__}")
    recorded = dict(state.run_key)
    for field, now in run_key:
        if recorded.get(field) != now:
            raise ValidationError(
                f"cannot extend: this run has {field}={now!r} but the state "
                f"was taken with {field}={recorded.get(field)!r}"
            )
    if state.pair is not None and state.pair.shape != shape:
        raise ShapeError(f"state pair has shape {state.pair.shape}; this run resumes {shape}")
    if data is not None and data.dimension != shape[2]:
        raise ShapeError(f"data has dimension {data.dimension}; this run resumes {shape}")
    if data is not None and data.num_moments != state.num_moments:
        raise ValidationError(
            f"data carries {data.num_moments} moments but the state "
            f"stopped at {state.num_moments}; they must match"
        )
    if num_moments <= state.num_moments:
        raise ValidationError(
            f"extension target {num_moments} must exceed the state's "
            f"{state.num_moments} moments"
        )


def _fresh(run_key: tuple, count: int, dim: int, num_moments: int, rows=None):
    """The state at ``num_moments`` of ``count`` vectors, its pair yet to be written."""
    held = num_moments >= 2  # a pair from order 2 on, mu1 only under doubling
    pair = np.empty((count, 2, dim), dtype=np.float64) if held else None
    doubled = held and ("recursion", "doubled") in run_key
    mu1 = np.empty(count, dtype=np.float64) if doubled else None
    return RecursionState(run_key, num_moments, pair, mu1, rows)


def _advance(op, rows, state, advanced, vectors=slice(None)) -> np.ndarray:
    """Raw moment rows of ``rows`` from ``state`` up to ``advanced.num_moments``.

    ``rows`` are the start vectors ``vectors`` of both states.  The step
    resumes from their pair as ``(D, B)`` views, as the device kernel
    hands it its pair, and writes their advanced pair (and ``mu1`` under
    doubling) into ``advanced`` when it holds one.
    """
    prev = cur = None
    if state.pair is not None:
        prev, cur = state.pair[vectors, 0].T, state.pair[vectors, 1].T
    mu1 = None if state.mu1 is None else state.mu1[vectors]
    moments, prev, cur, mu1 = chebyshev_rows(
        op.matmat, rows, state.num_moments, advanced.num_moments, prev, cur,
        mu1=mu1, doubling=advanced.doubled,
    )
    if advanced.pair is not None:
        advanced.pair[vectors, 0] = prev.T
        advanced.pair[vectors, 1] = cur.T
    if advanced.mu1 is not None:
        advanced.mu1[vectors] = mu1
    return moments


def _resume_rows(op, state: RecursionState, num_moments: int):
    """``state``'s start rows advanced to ``num_moments``: moments, new state."""
    vector = state.rows.ndim == 1
    rows = state.rows[None, :] if vector else state.rows
    advanced = _fresh(state.run_key, *rows.shape, num_moments, state.rows)
    moments = _advance(op, rows, state, advanced)
    return (moments[0] if vector else np.ascontiguousarray(moments.T)), advanced


def moments_resumable(
    operator, start, num_moments: int, *, use_doubling: bool = False
) -> tuple[np.ndarray, RecursionState]:
    """Raw moments ``<r|T_n(H~)|r>`` plus the state to extend them from.

    ``operator`` is the *rescaled* ``H~`` (spectrum inside ``[-1, 1]``),
    ``start`` one vector ``|r>`` of length ``D`` or a ``(D, R)`` block of
    them.  ``use_doubling`` uses ``mu_{2k} = 2<r_k|r_k> - mu_0`` and
    ``mu_{2k+1} = 2<r_{k+1}|r_k> - mu_1`` to halve the matvec count.
    Returns the ``N`` moments, shaped ``(N,)`` or ``(N, R)``, and the
    :class:`RecursionState` (start rows included) that
    :func:`extend_recursion` continues from.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    start = np.asarray(start, dtype=np.float64)
    dim = op.shape[0]
    if start.ndim not in (1, 2) or start.shape[0] != dim:
        raise ShapeError(
            f"start must have shape ({dim},) or ({dim}, R), got {start.shape}"
        )
    # A copy: the state must not follow later writes to the caller's start.
    rows = np.array(start if start.ndim == 1 else start.T, order="C")
    empty = RecursionState(_run_key(None, doubled=use_doubling), 0, None, rows=rows)
    return _resume_rows(op, empty, num_moments)


def extend_recursion(
    operator, state: RecursionState, num_moments: int
) -> tuple[np.ndarray, RecursionState]:
    """Continue a recursion from ``state`` up to ``num_moments`` orders.

    ``state`` must carry its start rows, as :func:`moments_resumable`'s
    does.  Returns the *new segment* — raw moments of orders
    ``[state.num_moments, num_moments)``, one row per order — and the
    advanced state.  The step is the cold run's, so
    ``concat(old, segment)`` is bit-identical to a cold
    :func:`moments_resumable` run at ``num_moments``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    if getattr(state, "rows", None) is None:
        raise ValidationError(
            "state must be a RecursionState with start rows (a trace state "
            "resumes through extend_stochastic_moments or an engine)"
        )
    shape = (1 if state.rows.ndim == 1 else len(state.rows), 2, op.shape[0])
    _check_resume(state, _run_key(None, doubled=state.doubled), shape, num_moments)
    return _resume_rows(op, state, num_moments)


def _trace(op, config: KPMConfig, state: RecursionState, *, keep: bool = True):
    """Advance every realization's block from ``state`` to ``config.num_moments``.

    A cold run starts from ``RecursionState((), 0, None)``.  Each block's
    start rows are regenerated from the config's Philox streams, as the
    device kernel does.  Returns the data of orders
    ``[state.num_moments, N)``, their ``(R*S, N - base)`` table of raw
    per-vector moments, and the advanced state, whose pair is kept only
    when ``keep`` (so a plain run holds one block's vectors at a time).
    """
    n, r, dim = config.num_moments, config.num_random_vectors, op.shape[0]
    run_key = _run_key(config, doubled=config.use_doubling)
    advanced = RecursionState(run_key, n, None)
    if keep:
        advanced = _fresh(run_key, config.total_vectors, dim, n)
    table = np.empty((config.total_vectors, n - state.num_moments), dtype=np.float64)
    for realization in range(config.num_realizations):
        vectors = slice(realization * r, (realization + 1) * r)
        block = random_block(
            dim, r, config.vector_kind, seed=config.seed, realization=realization
        )
        rows = np.ascontiguousarray(block.T)
        table[vectors] = _advance(op, rows, state, advanced, vectors)
    return reduce_moment_table(table, r, dim), table, advanced


def stochastic_moments(
    operator,
    config: KPMConfig,
    *,
    keep_per_vector: bool = False,
) -> MomentData | tuple[MomentData, np.ndarray]:
    """Stochastic-trace moment estimation — paper Eq. (19).

    Averages raw per-vector moments over ``R`` vectors and ``S``
    realizations and normalizes by ``D``.

    Parameters
    ----------
    operator:
        The *rescaled* Hamiltonian ``H~``.
    config:
        KPM parameters (``num_moments``, ``num_random_vectors``,
        ``num_realizations``, ``vector_kind``, ``seed``,
        ``use_doubling``).
    keep_per_vector:
        Also return the raw per-vector estimates, shape ``(S, R, N)``,
        for convergence studies.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    op = as_operator(operator)
    data, table, _ = _trace(op, config, RecursionState((), 0, None), keep=False)
    if not keep_per_vector:
        return data
    per_vector = table.reshape(
        config.num_realizations, config.num_random_vectors, config.num_moments
    )
    return data, per_vector / data.dimension


def stochastic_moments_resumable(
    operator, config: KPMConfig
) -> tuple[MomentData, RecursionState]:
    """:func:`stochastic_moments` plus the :class:`RecursionState` of the run.

    Bit-identical to :func:`stochastic_moments` (both run the same
    per-realization recursions); the state, one ``(R*S, 2, D)`` pair in
    global vector order, lets :func:`extend_stochastic_moments` (or
    another resumable engine) raise the truncation order later without
    replaying the recursion from ``mu_0``.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    data, _, state = _trace(as_operator(operator), config, RecursionState((), 0, None))
    return data, state


def extend_stochastic_moments(
    operator, config: KPMConfig, data: MomentData, state: RecursionState
) -> tuple[MomentData, RecursionState]:
    """Extend a stochastic run to ``config.num_moments`` orders from ``state``.

    ``data``/``state`` must come from :func:`stochastic_moments_resumable`
    (or a previous extension, or an engine's ``compute_moments_resumable``
    that ran the same recursion in float64) with the same operator;
    ``config`` must match the run in every field that decides moment
    values (R, S, vector kind, seed, doubling, precision), else
    :class:`ValidationError` names the first that differs.  Only
    ``config.num_moments`` may change, and must grow.  The result is
    bit-identical to a cold :func:`stochastic_moments` at the new order:
    the stored prefix columns are reused as-is and the new columns are
    produced by the resumed recursion, whose per-order values never
    depended on the truncation order in the first place.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    if not isinstance(data, MomentData):
        raise ValidationError(f"data must be a MomentData, got {type(data).__name__}")
    op = as_operator(operator)
    run_key = _run_key(config, doubled=config.use_doubling)
    shape = (config.total_vectors, 2, op.shape[0])
    _check_resume(state, run_key, shape, config.num_moments, data)
    columns, _, advanced = _trace(op, config, state)
    return data.followed_by(columns), advanced


def exact_moments(operator, num_moments: int, *, chunk_size: int = 256) -> np.ndarray:
    """Exact normalized moments ``Tr[T_n(H~)] / D`` (no stochastic error).

    Runs the block recursion over all ``D`` basis vectors in chunks;
    cost ``O(N * D * nnz)`` — intended for validation at small ``D``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    dim = op.shape[0]
    total = np.zeros(num_moments, dtype=np.float64)
    # Build each chunk's identity slab directly — materializing the full
    # D x D identity would defeat the O(D * chunk_size) memory purpose
    # of chunking in the first place.
    for start in range(0, dim, chunk_size):
        count = min(chunk_size, dim - start)
        # Per-chunk identity slab (final chunk can be narrower); this is
        # the O(D * chunk_size) memory cap itself, not recursion churn.
        block = np.zeros((dim, count), dtype=np.float64)  # repro: noqa[RA009]
        block[start + np.arange(count), np.arange(count)] = 1.0
        total += moments_block(op, block, num_moments).sum(axis=1)
    return total / dim
