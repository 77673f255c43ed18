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

**Two entry points, one loop.**  :func:`extend_recursion` continues the
loop from any :class:`RecursionCheckpoint`, and a cold
:func:`moments_resumable` run *is* an extension from an empty one.
``mu_n`` depends only on ``r_0 .. r_n`` — never on the truncation order
— so extending a checkpoint taken at ``N`` up to ``M`` yields orders
``[N, M)`` bit-identical to a cold run at ``M`` without replaying
orders ``0 .. N-1``.  The serve layer's prefix-closed moment cache is
built on exactly this contract.
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
    "RecursionCheckpoint",
    "TraceCheckpoint",
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


def _shaped(moments: np.ndarray, vector: bool) -> np.ndarray:
    """Step rows ``(B, n)`` as the public ``(n,)`` or ``(n, B)`` result."""
    return moments[0] if vector else np.ascontiguousarray(moments.T)


def moments_single_vector(
    operator, start_vector, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments ``<r|T_n(H~)|r>`` for one start vector, shape ``(N,)``.

    :func:`moments_resumable` for a length-``D`` vector, without the
    checkpoint.
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


@dataclass
class RecursionCheckpoint:
    """Resumable tail state of one block's three-term recursion.

    ``rows`` holds the start vectors as ``(B, D)`` rows (one row for a
    1-D start, flagged by ``vector``), and ``num_moments`` the orders
    produced so far.  ``prev``/``cur``/``mu1`` are what
    :func:`chebyshev_rows` resumes from: ``r_{N-2}``/``r_{N-1}`` as
    ``(D, B)`` panels, or ``a_{k-1}``/``a_k`` with ``k = N // 2`` and the
    order-1 moments under doubling; ``None`` before the recursion starts.
    """

    rows: np.ndarray
    vector: bool
    use_doubling: bool
    num_moments: int = 0
    prev: np.ndarray | None = None
    cur: np.ndarray | None = None
    mu1: np.ndarray | None = None

    @property
    def k(self) -> int:
        """Chebyshev index of ``cur`` (0 before the recursion starts)."""
        if self.cur is None:
            return 0
        return self.num_moments // 2 if self.use_doubling else self.num_moments - 1


def _advance(op, checkpoint: RecursionCheckpoint, num_moments: int):
    """Rows of orders ``[checkpoint.num_moments, num_moments)``; new checkpoint."""
    moments, prev, cur, mu1 = chebyshev_rows(
        op.matmat, checkpoint.rows, checkpoint.num_moments, num_moments,
        checkpoint.prev, checkpoint.cur, mu1=checkpoint.mu1,
        doubling=checkpoint.use_doubling,
    )
    return moments, RecursionCheckpoint(
        checkpoint.rows, checkpoint.vector, checkpoint.use_doubling,
        num_moments, prev, cur, mu1,
    )


def moments_resumable(
    operator, start, num_moments: int, *, use_doubling: bool = False
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """Raw moments ``<r|T_n(H~)|r>`` plus a checkpoint to extend them from.

    ``operator`` is the *rescaled* ``H~`` (spectrum inside ``[-1, 1]``),
    ``start`` one vector ``|r>`` of length ``D`` or a ``(D, R)`` block of
    them.  ``use_doubling`` uses ``mu_{2k} = 2<r_k|r_k> - mu_0`` and
    ``mu_{2k+1} = 2<r_{k+1}|r_k> - mu_1`` to halve the matvec count.
    Returns the ``N`` moments, shaped ``(N,)`` or ``(N, R)``, and the
    :class:`RecursionCheckpoint` :func:`extend_recursion` continues from.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    start = np.asarray(start, dtype=np.float64)
    dim = op.shape[0]
    if start.ndim not in (1, 2) or start.shape[0] != dim:
        raise ShapeError(
            f"start must have shape ({dim},) or ({dim}, R), got {start.shape}"
        )
    vector = start.ndim == 1
    rows = np.ascontiguousarray(start[None, :] if vector else start.T)
    empty = RecursionCheckpoint(rows, vector, bool(use_doubling))
    moments, checkpoint = _advance(op, empty, num_moments)
    return _shaped(moments, vector), checkpoint


def extend_recursion(
    operator, checkpoint: RecursionCheckpoint, num_moments: int
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """Continue a recursion from ``checkpoint`` up to ``num_moments`` orders.

    Returns the *new segment* — raw moments of orders
    ``[checkpoint.num_moments, num_moments)``, one row per order — and
    the advanced checkpoint.  The step is the cold run's, so
    ``concat(old, segment)`` is bit-identical to a cold
    :func:`moments_resumable` run at ``num_moments``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    if not isinstance(checkpoint, RecursionCheckpoint):
        raise ValidationError(
            f"checkpoint must be a RecursionCheckpoint, got {type(checkpoint).__name__}"
        )
    if checkpoint.rows.shape[1] != op.shape[0]:
        raise ShapeError(
            f"checkpoint dimension {checkpoint.rows.shape[1]} does not match "
            f"operator dimension {op.shape[0]}"
        )
    base = checkpoint.num_moments
    if num_moments <= base:
        raise ValidationError(
            f"extension target {num_moments} must exceed the checkpoint's "
            f"{base} moments"
        )
    segment, advanced = _advance(op, checkpoint, num_moments)
    return _shaped(segment, checkpoint.vector), advanced


def _run_key(config: KPMConfig) -> tuple:
    """The config fields besides ``N`` that decide a run's moment values.

    Recorded in every trace checkpoint (host and GPU); an extension must
    present the same values, so it continues the run that was started.
    """
    return (
        ("num_random_vectors", config.num_random_vectors),
        ("num_realizations", config.num_realizations),
        ("vector_kind", config.vector_kind),
        ("seed", normalize_seed(config.seed)),
        ("use_doubling", config.use_doubling),
        ("precision", config.precision),
    )


def _check_extension(
    run_key: tuple, base: int, data: MomentData, config: KPMConfig
) -> None:
    """Raise :class:`ValidationError` unless ``config`` extends the run.

    Shared by the host and GPU extension paths.  Every ``run_key`` field
    must match (the first that differs is named), ``data`` must hold the
    ``base`` orders the checkpoint stopped at, and the target must grow.
    """
    for (field, was), (_, now) in zip(run_key, _run_key(config)):
        if was != now:
            raise ValidationError(
                f"cannot extend: config has {field}={now!r} but the "
                f"checkpoint was taken with {field}={was!r}"
            )
    if data.num_moments != base:
        raise ValidationError(
            f"data carries {data.num_moments} moments but the checkpoint "
            f"stopped at {base}; they must match"
        )
    if config.num_moments <= base:
        raise ValidationError(
            f"extension target {config.num_moments} must exceed the "
            f"checkpointed {base} moments"
        )


@dataclass
class TraceCheckpoint:
    """Resumable state of a :func:`stochastic_moments` run.

    One :class:`RecursionCheckpoint` per realization, in realization
    order, and the run's identity (R, S, vector kind, seed, doubling,
    precision) that an extension must match.  Opaque to callers — hand
    it back to :func:`extend_stochastic_moments` unchanged.
    """

    checkpoints: list
    run_key: tuple

    @property
    def num_moments(self) -> int:
        """Orders already produced (0 when the checkpoint list is empty)."""
        if not self.checkpoints:
            return 0
        return int(self.checkpoints[0].num_moments)


def _trace(op, config: KPMConfig, states, base: int = 0, advanced=None):
    """Advance every realization's block from ``states`` to ``config.num_moments``.

    Returns the data of orders ``[base, N)`` and their ``(R*S, N - base)``
    table of raw per-vector moments; keeps each advanced state only in
    ``advanced``, so lazy cold ``states`` hold one block's vectors at a time.
    """
    n, r = config.num_moments, config.num_random_vectors
    table = np.empty((config.total_vectors, n - base), dtype=np.float64)
    for realization, state in enumerate(states):
        moments, state = _advance(op, state, n)
        table[realization * r : (realization + 1) * r] = moments
        if advanced is not None:
            advanced.append(state)
        del state  # unless kept, free its vectors before the next block
    return reduce_moment_table(table, r, op.shape[0]), table


def _cold_states(op, config: KPMConfig):
    """Empty checkpoints of every realization's start block, built lazily."""
    for realization in range(config.num_realizations):
        block = random_block(
            op.shape[0], config.num_random_vectors, config.vector_kind,
            seed=config.seed, realization=realization,
        )
        rows = np.ascontiguousarray(block.T)
        yield RecursionCheckpoint(rows, False, config.use_doubling)


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
    data, table = _trace(op, config, _cold_states(op, config))
    if not keep_per_vector:
        return data
    per_vector = table.reshape(
        config.num_realizations, config.num_random_vectors, config.num_moments
    )
    return data, per_vector / data.dimension


def stochastic_moments_resumable(
    operator, config: KPMConfig
) -> tuple[MomentData, TraceCheckpoint]:
    """:func:`stochastic_moments` plus a :class:`TraceCheckpoint`.

    Bit-identical to :func:`stochastic_moments` (both run the same
    per-realization recursions); the checkpoint lets
    :func:`extend_stochastic_moments` raise the truncation order later
    without replaying the recursion from ``mu_0``.
    """
    if not isinstance(config, KPMConfig):
        raise ValidationError(f"config must be a KPMConfig, got {type(config).__name__}")
    op = as_operator(operator)
    checkpoints: list = []
    data, _ = _trace(op, config, _cold_states(op, config), advanced=checkpoints)
    return data, TraceCheckpoint(checkpoints=checkpoints, run_key=_run_key(config))


def extend_stochastic_moments(
    operator, config: KPMConfig, data: MomentData, checkpoint: TraceCheckpoint
) -> tuple[MomentData, TraceCheckpoint]:
    """Extend a checkpointed stochastic run to ``config.num_moments`` orders.

    ``data``/``checkpoint`` must come from
    :func:`stochastic_moments_resumable` (or a previous extension) with
    the same operator; ``config`` must match the run in every field that
    decides moment values (R, S, vector kind, seed, doubling, precision),
    else :class:`ValidationError` names the first that differs.  Only
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
    if not isinstance(checkpoint, TraceCheckpoint):
        raise ValidationError(
            f"checkpoint must be a TraceCheckpoint, got {type(checkpoint).__name__}"
        )
    op = as_operator(operator)
    base = checkpoint.num_moments
    _check_extension(checkpoint.run_key, base, data, config)
    advanced: list = []
    columns, _ = _trace(op, config, checkpoint.checkpoints, base, advanced)
    extended = data.followed_by(columns)
    return extended, TraceCheckpoint(checkpoints=advanced, run_key=checkpoint.run_key)


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
