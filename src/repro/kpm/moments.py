"""Chebyshev moment computation — paper Eq. (13), (16)–(19).

The heaviest part of the KPM (paper Fig. 3 step 2) is the three-term
recursion

    |r_0> = |r>,  |r_1> = H~ |r_0>,  |r_{n+2}> = 2 H~ |r_{n+1}> - |r_n>,

with one dot product ``mu~_n = <r_0 | r_n>`` per order.  The recursion
is written once, in :func:`extend_recursion`, together with the
moment-doubling variant (two moments per matvec, Weiße et al.,
arXiv:cond-mat/0504627 — an optimization the paper leaves on the
table).  Everything else here is built on that loop: the single-vector
and column-batched recursions (the latter the vectorized equivalent of
the paper's thread-block parallelism), the stochastic trace estimator,
and the exact trace for validation.

Moments returned by the *low-level* routines are raw ``<r|T_n(H~)|r>``
values; :func:`stochastic_moments` and :func:`exact_moments` normalize by
the dimension ``D`` so that ``mu_0 ~= 1``.

**Two entry points, one loop.**  :func:`moments_resumable` builds the
order-0 :class:`RecursionCheckpoint` of a start vector or block and
hands it to :func:`extend_recursion`, which continues the loop from any
checkpoint; a cold run *is* an extension from an empty checkpoint.
``mu_n`` depends only on ``r_0 .. r_n`` — never on the truncation order
— so extending a checkpoint taken at ``N`` up to ``M`` yields orders
``[N, M)`` bit-identical to a cold run at ``M`` without replaying
orders ``0 .. N-1``.  The serve layer's prefix-closed moment cache is
built on exactly this contract.

**The start's rank picks the arithmetic, once per call.**  A 1-D start
vector runs ``op.matvec`` with the BLAS dot ``float(a @ b)``; a
``(D, R)`` block runs ``op.matmat`` with the per-column
``einsum("ij,ij->j")``.  The two dots can disagree in the last bit, so
a single vector is deliberately *not* run as an ``R = 1`` block: that
would change local-DoS numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _check_moment_magnitude(value: float, order: int) -> None:
    if not np.isfinite(value) or abs(value) > _DIVERGENCE_FACTOR:
        raise SpectrumError(
            f"moment of order {order} diverged (value {value!r}); the operator's "
            "spectrum is not contained in [-1, 1] — rescale it first "
            "(repro.kpm.rescale_operator)"
        )


def _vector_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b)


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _column_peak(row: np.ndarray) -> float:
    return float(np.abs(row).max(initial=0.0))


def _rank_arithmetic(op, start: np.ndarray):
    """``(apply, dot, peak)`` for a 1-D start vector or a ``(D, R)`` block.

    ``peak`` reduces one order's moments to the scalar the divergence
    check bounds: the moment itself for a vector, ``max|row|`` for a
    block (0 for an empty one).  See the module docstring for why the
    dot depends on rank.
    """
    if start.ndim == 1:
        return op.matvec, _vector_dot, float
    return op.matmat, _column_dots, _column_peak


def moments_single_vector(
    operator, start_vector, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments ``<r|T_n(H~)|r>`` for one start vector, shape ``(N,)``.

    :func:`moments_resumable` for a length-``D`` vector, without the
    checkpoint.
    """
    if np.ndim(start_vector) != 1:
        raise ShapeError(
            f"start_vector must be 1-D, got shape {np.shape(start_vector)}"
        )
    return moments_resumable(
        operator, start_vector, num_moments, use_doubling=use_doubling
    )[0]


def moments_block(
    operator, start_block, num_moments: int, *, use_doubling: bool = False
) -> np.ndarray:
    """Raw moments for a ``(D, R)`` block of start vectors, shape ``(N, R)``.

    Column ``r`` of the result equals
    ``moments_single_vector(operator, start_block[:, r], ...)`` up to
    floating-point reduction order.
    """
    if np.ndim(start_block) != 2:
        raise ShapeError(
            f"start_block must be 2-D (D, R), got shape {np.shape(start_block)}"
        )
    return moments_resumable(
        operator, start_block, num_moments, use_doubling=use_doubling
    )[0]


@dataclass
class RecursionCheckpoint:
    """Resumable tail state of one three-term recursion.

    Everything :func:`extend_recursion` needs to continue the loop
    exactly where the previous call stopped.  ``start`` is ``|r_0>`` (or
    the ``(D, R)`` start block); in the plain path ``prev``/``cur`` are
    ``r_{N-2}``/``r_{N-1}`` and ``k == N - 1``; in the doubling path they
    are ``a_{k-1}``/``a_k`` with ``k`` the Chebyshev index of ``cur``
    (for odd ``N`` the last half-step produces no new ``a``, so ``k`` can
    lag ``N``).  ``mu0`` / ``mu1`` are the raw order-0/1 moments the
    doubling corrections reference; ``scale`` is the divergence-check
    normalization.  At ``num_moments == 1`` the recursion has not
    started: ``prev``, ``cur`` and ``mu1`` are ``None``.
    """

    start: np.ndarray
    prev: np.ndarray | None
    cur: np.ndarray | None
    k: int
    num_moments: int
    scale: float
    use_doubling: bool
    mu0: object
    mu1: object


def moments_resumable(
    operator, start, num_moments: int, *, use_doubling: bool = False
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """Raw moments ``<r|T_n(H~)|r>`` plus a checkpoint to extend them from.

    Parameters
    ----------
    operator:
        The *rescaled* Hamiltonian ``H~`` (spectrum inside ``[-1, 1]``).
    start:
        ``|r>`` of length ``D``, or a ``(D, R)`` block of start vectors.
    num_moments:
        ``N`` — number of moments to produce.
    use_doubling:
        Use ``mu_{2k} = 2<r_k|r_k> - mu_0`` and
        ``mu_{2k+1} = 2<r_{k+1}|r_k> - mu_1`` to halve the matvec count.

    Returns
    -------
    (mu, checkpoint):
        Moments of shape ``(N,)`` or ``(N, R)``, and the
        :class:`RecursionCheckpoint` :func:`extend_recursion` continues
        from.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    start = np.asarray(start, dtype=np.float64)
    dim = op.shape[0]
    if start.ndim not in (1, 2) or start.shape[0] != dim:
        raise ShapeError(
            f"start must have shape ({dim},) or ({dim}, R), got {start.shape}"
        )
    _, dot, peak = _rank_arithmetic(op, start)
    mu0 = dot(start, start)
    checkpoint = RecursionCheckpoint(
        start=start,
        prev=None,
        cur=None,
        k=0,
        num_moments=1,
        scale=max(peak(mu0), 1.0),
        use_doubling=bool(use_doubling),
        mu0=mu0,
        mu1=None,
    )
    mu = np.empty((num_moments, *start.shape[1:]), dtype=np.float64)
    mu[0] = mu0
    if num_moments > 1:
        mu[1:], checkpoint = extend_recursion(op, checkpoint, num_moments)
    return mu, checkpoint


def extend_recursion(
    operator, checkpoint: RecursionCheckpoint, num_moments: int
) -> tuple[np.ndarray, RecursionCheckpoint]:
    """Continue a recursion from ``checkpoint`` up to ``num_moments`` orders.

    Returns the *new segment* — raw moments of orders
    ``[checkpoint.num_moments, num_moments)``, one row per order — and
    the advanced checkpoint.  This is the only place the recursion step
    is written, so ``concat(old, segment)`` is bit-identical to a cold
    :func:`moments_resumable` run at ``num_moments``.
    """
    op = as_operator(operator)
    num_moments = check_positive_int(num_moments, "num_moments")
    if not isinstance(checkpoint, RecursionCheckpoint):
        raise ValidationError(
            f"checkpoint must be a RecursionCheckpoint, got {type(checkpoint).__name__}"
        )
    start = checkpoint.start
    if start.shape[0] != op.shape[0]:
        raise ShapeError(
            f"checkpoint dimension {start.shape[0]} does not match "
            f"operator dimension {op.shape[0]}"
        )
    base = checkpoint.num_moments
    if num_moments <= base:
        raise ValidationError(
            f"extension target {num_moments} must exceed the checkpoint's "
            f"{base} moments"
        )
    apply, dot, peak = _rank_arithmetic(op, start)
    scale = checkpoint.scale
    segment = np.empty((num_moments - base, *start.shape[1:]), dtype=np.float64)

    def emit(order: int, value) -> None:
        segment[order - base] = value
        _check_moment_magnitude(peak(value) / scale, order)

    prev, cur, k = checkpoint.prev, checkpoint.cur, checkpoint.k
    mu1 = checkpoint.mu1
    known = base
    if cur is None:
        # Only mu_0 is known: start the recursion.
        prev, cur = start, apply(start)
        mu1 = dot(start, cur)
        emit(1, mu1)
        k, known = 1, 2
    if checkpoint.use_doubling:
        # cur = T_k(H~) r_0; every matvec yields mu_{2k} and mu_{2k+1}.
        while 2 * k < num_moments:
            if 2 * k >= known:
                emit(2 * k, 2.0 * dot(cur, cur) - checkpoint.mu0)
            if 2 * k + 1 >= num_moments:
                break
            nxt = 2.0 * apply(cur) - prev
            if 2 * k + 1 >= known:
                emit(2 * k + 1, 2.0 * dot(nxt, cur) - mu1)
            prev, cur, k = cur, nxt, k + 1
    else:
        for order in range(known, num_moments):
            nxt = 2.0 * apply(cur) - prev
            emit(order, dot(start, nxt))
            prev, cur = cur, nxt
        k = num_moments - 1
    advanced = replace(
        checkpoint, prev=prev, cur=cur, k=k, num_moments=num_moments, mu1=mu1
    )
    return segment, advanced


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


def _trace(
    op,
    config: KPMConfig,
    *,
    per_vector: np.ndarray | None = None,
    checkpoints: list | None = None,
) -> MomentData:
    """The stochastic trace over every realization's block recursion.

    Fills ``per_vector`` (``(S, R, N)``) and appends each realization's
    checkpoint to ``checkpoints`` when given.  Without ``checkpoints`` no
    realization's recursion vectors outlive its loop iteration, so the
    cold path's memory does not grow with ``S``.
    """
    dim = op.shape[0]
    n, r, s = config.num_moments, config.num_random_vectors, config.num_realizations
    per_realization = np.empty((s, n), dtype=np.float64)
    for realization in range(s):
        block = random_block(
            dim, r, config.vector_kind, seed=config.seed, realization=realization
        )
        raw, checkpoint = moments_resumable(
            op, block, n, use_doubling=config.use_doubling
        )  # (N, R)
        if per_vector is not None:
            per_vector[realization] = raw.T / dim
        if checkpoints is not None:
            checkpoints.append(checkpoint)
        del checkpoint  # unless kept, free its vectors before the next block
        per_realization[realization] = raw.mean(axis=1) / dim
    return MomentData(
        mu=per_realization.mean(axis=0),
        per_realization=per_realization,
        dimension=dim,
        num_vectors=r,
    )


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
    if not keep_per_vector:
        return _trace(op, config)
    per_vector = np.empty(
        (config.num_realizations, config.num_random_vectors, config.num_moments),
        dtype=np.float64,
    )
    return _trace(op, config, per_vector=per_vector), per_vector


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
    checkpoints: list = []
    data = _trace(as_operator(operator), config, checkpoints=checkpoints)
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
    target = config.num_moments
    _check_extension(checkpoint.run_key, base, data, config)
    dim = data.dimension
    new_columns = np.empty((config.num_realizations, target - base), dtype=np.float64)
    advanced = []
    for realization, state in enumerate(checkpoint.checkpoints):
        segment, state = extend_recursion(op, state, target)
        new_columns[realization] = segment.mean(axis=1) / dim
        advanced.append(state)
    per_realization = np.concatenate([data.per_realization, new_columns], axis=1)
    extended = MomentData(
        mu=per_realization.mean(axis=0),
        per_realization=per_realization,
        dimension=dim,
        num_vectors=data.num_vectors,
    )
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
