"""Vectorized bulk evaluation of interval-mapping blocks (numpy).

The exhaustive sweeps — :mod:`repro.algorithms.bicriteria.exhaustive`,
the bounding pass of the branch-and-bound solver and the
:mod:`repro.analysis.frontier` grids — spend almost all of their time
evaluating (latency, failure probability) for candidate mappings one at
a time.  This module evaluates a whole *block* of mappings in a handful
of array operations instead:

* a block encodes ``B`` mappings as two padded integer arrays — the
  interval *end* boundaries ``ends[i, j] = e_j`` and the allocation
  *bitmasks* ``masks[i, j]`` (bit ``u-1`` set iff processor ``u``
  replicates interval ``j``), zero-padded past each mapping's ``p``
  intervals (:class:`MappingBlock`);
* a :class:`BulkEvaluator` precomputes, once per instance, the stage
  work prefix sums, the communication-volume vector, and — for small
  ``m`` — per-bitmask lookup tables (replica count, slowest/fastest
  replica speed, interval failure product and log-reliability), so that
  evaluating the block is pure fancy indexing plus reductions, for both
  the uniform-link formula (paper eq. (1)) and the heterogeneous-link
  formula (paper eq. (2)).

Numerical contract
------------------
Results agree with the scalar path (:func:`repro.core.metrics.evaluate`
/ :class:`~repro.core.metrics.EvaluationCache`) within
:data:`BULK_RELATIVE_TOLERANCE` (1e-9) relative error.  They are *not*
guaranteed bit-identical: the bulk path uses prefix-sum differences for
interval work and numpy (pairwise) summation for the per-interval
accumulations, both of which can differ from the scalar left-to-right
folds by a few ulps.  The consumers therefore re-evaluate the *winning*
mappings through the scalar path before reporting them, so solver
results remain scalar-exact.

The module degrades gracefully: when numpy is not installed
(:data:`HAS_NUMPY` is ``False``) the solvers fall back to the memoized
scalar :class:`~repro.core.metrics.EvaluationCache` path.

Backends
--------
On top of the numpy array path the evaluator exposes a ``backend``
knob (``"auto" | "jit" | "numpy"``, resolved by
:func:`resolve_backend` like :func:`resolve_use_bulk` resolves the bulk
knob): with numba installed (:data:`HAS_NUMBA`) the compiled kernels of
:mod:`repro.core.metrics_kernels` fuse each row's whole evaluation into
one loop nest and parallelise over rows with ``prange`` — replacing the
thread-shard fan-out (no nested parallelism).  ``"auto"`` prefers the
compiled kernels and falls back to numpy; the scalar fallback stays at
the :func:`resolve_use_bulk` level.  All backends honour the same
:data:`BULK_RELATIVE_TOLERANCE` contract, so the consumers' scalar
confirmation keeps their results bit-identical across every backend.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..exceptions import SolverError
from . import metrics_kernels as _kernels
from .application import PipelineApplication
from .mapping import IntervalMapping, StageInterval
from .metrics_kernels import HAS_NUMBA
from .platform import Platform
from .topology import IN, OUT

try:  # pragma: no cover - exercised implicitly on numpy-less installs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "HAS_NUMPY",
    "HAS_NUMBA",
    "BULK_RELATIVE_TOLERANCE",
    "MASK_TABLE_LIMIT",
    "SHARD_MIN_ROWS",
    "MappingBlock",
    "BlockBuilder",
    "BulkEvaluator",
    "build_mask_tables",
    "nondominated_mask",
    "resolve_use_bulk",
    "resolve_backend",
]

#: True when numpy is importable and the bulk path is available.
HAS_NUMPY = _np is not None

#: Documented relative tolerance between the bulk and scalar paths.
BULK_RELATIVE_TOLERANCE = 1e-9

#: Bitmask lookup tables are built for up to this many processors
#: (``2^m`` entries per table); beyond it the evaluator expands masks
#: into a boolean bit matrix instead.
MASK_TABLE_LIMIT = 16

#: Blocks with fewer rows than this are evaluated in one pass even when
#: the evaluator was built with ``shards > 1``: below it, the thread
#: fan-out costs more than the numpy work it parallelises.
SHARD_MIN_ROWS = 2048


def _require_numpy() -> None:
    if _np is None:
        raise SolverError(
            "bulk evaluation requires numpy; install it or use the "
            "scalar EvaluationCache path"
        )


def resolve_use_bulk(use_bulk: bool | None) -> bool:
    """Resolve the three-state ``use_bulk`` knob against numpy presence.

    ``None`` means *automatic*: bulk when numpy is importable, scalar
    otherwise.  An explicit ``True`` on a numpy-less install is an error
    (silently degrading would hide an order-of-magnitude slowdown).
    """
    if use_bulk is None:
        return HAS_NUMPY
    if use_bulk and not HAS_NUMPY:
        raise SolverError(
            "use_bulk=True requires numpy; install it or pass "
            "use_bulk=None/False for the scalar path"
        )
    return use_bulk


def resolve_backend(backend: str | None) -> str:
    """Resolve the evaluator ``backend`` knob against numba presence.

    ``None``/``"auto"`` prefers the compiled kernels when numba is
    importable and falls back to ``"numpy"`` otherwise.  An explicit
    ``"jit"`` on a numba-less install is an error, mirroring
    :func:`resolve_use_bulk` (silent degradation would hide the missing
    order of magnitude).  The scalar path is not selected here — that
    fallback lives one level up, at the ``use_bulk`` knob.
    """
    if backend is None or backend == "auto":
        return "jit" if HAS_NUMBA else "numpy"
    if backend == "jit":
        if not HAS_NUMBA:
            raise SolverError(
                "backend='jit' requires numba; install the [jit] extra "
                "or pass backend='auto'/'numpy'"
            )
        return "jit"
    if backend == "numpy":
        return "numpy"
    raise SolverError(
        f"unknown bulk backend {backend!r}; expected 'auto', 'jit' or "
        "'numpy'"
    )


def build_mask_tables(
    speeds: Sequence[float], failure_probabilities: Sequence[float]
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Per-bitmask lookup tables over all ``2^m`` processor subsets.

    Returns ``(pop, min_speed, max_speed, fp_prod)`` arrays indexed by
    bitmask (bit ``u-1`` = processor ``u``), computed with a
    remove-highest-bit dynamic program.  Folding in ascending processor
    order — ``table[mask] = f(table[mask without its highest bit],
    value[highest bit])`` — reproduces the scalar loops' left-to-right
    accumulation exactly, so the failure products are bit-identical to
    :func:`repro.core.metrics.failure_probability` and to the
    branch-and-bound bounding loops that share these tables.
    ``min_speed[0]`` is ``+inf`` and ``max_speed[0]`` is ``-inf`` (the
    empty set's identities), which the consumers rely on for padding.
    """
    _require_numpy()
    m = len(speeds)
    size = 1 << m
    pop = _np.zeros(size, dtype=_np.int64)
    min_speed = _np.full(size, _np.inf)
    max_speed = _np.full(size, -_np.inf)
    fp_prod = _np.ones(size)
    for bit in range(m):
        lo = 1 << bit
        hi = lo << 1
        pop[lo:hi] = pop[:lo] + 1
        min_speed[lo:hi] = _np.minimum(min_speed[:lo], speeds[bit])
        max_speed[lo:hi] = _np.maximum(max_speed[:lo], speeds[bit])
        fp_prod[lo:hi] = fp_prod[:lo] * failure_probabilities[bit]
    return pop, min_speed, max_speed, fp_prod


# ----------------------------------------------------------------------
# block encoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MappingBlock:
    """A batch of interval mappings in padded array encoding.

    ``ends[i, j]`` is the end stage ``e_j`` of mapping ``i``'s interval
    ``j`` and ``masks[i, j]`` its allocation bitmask (bit ``u-1`` set
    iff processor ``u`` is a replica); both are ``0`` for ``j`` past the
    mapping's interval count.  Interval starts are implicit
    (``d_1 = 1``, ``d_{j+1} = e_j + 1``).  Rows preserve enumeration
    order, so consumers can reconstruct "first optimum found" tie
    breaking exactly.
    """

    num_stages: int
    num_processors: int
    ends: "np.ndarray"
    masks: "np.ndarray"

    def __len__(self) -> int:
        return int(self.ends.shape[0])

    @property
    def width(self) -> int:
        """Number of padded interval columns."""
        return int(self.ends.shape[1])

    def interval_counts(self) -> "np.ndarray":
        """Per-row number of intervals ``p`` (non-zero mask columns)."""
        return (self.masks != 0).sum(axis=1)

    def mapping(self, i: int) -> IntervalMapping:
        """Decode row ``i`` back into an :class:`IntervalMapping`."""
        ends_row = self.ends[i]
        masks_row = self.masks[i]
        intervals: list[StageInterval] = []
        allocations: list[frozenset[int]] = []
        start = 1
        for j in range(self.width):
            mask = int(masks_row[j])
            if mask == 0:
                break
            end = int(ends_row[j])
            intervals.append(StageInterval(start, end))
            allocations.append(
                frozenset(
                    u + 1
                    for u in range(self.num_processors)
                    if mask >> u & 1
                )
            )
            start = end + 1
        return IntervalMapping._trusted(tuple(intervals), tuple(allocations))

    def mappings(self) -> Iterator[IntervalMapping]:
        """Decode every row, in order."""
        for i in range(len(self)):
            yield self.mapping(i)

    @classmethod
    def from_mappings(
        cls,
        mappings: Sequence[IntervalMapping] | Iterable[IntervalMapping],
        num_stages: int,
        num_processors: int,
    ) -> "MappingBlock":
        """Encode explicit mappings into a block (test/interop helper)."""
        _require_numpy()
        rows = list(mappings)
        width = max(1, min(num_stages, num_processors))
        width = max([width] + [m.num_intervals for m in rows])
        ends = _np.zeros((len(rows), width), dtype=_np.int64)
        masks = _np.zeros((len(rows), width), dtype=_np.int64)
        for i, mapping in enumerate(rows):
            for j, (iv, alloc) in enumerate(mapping.items()):
                ends[i, j] = iv.end
                mask = 0
                for u in alloc:
                    mask |= 1 << (u - 1)
                masks[i, j] = mask
        return cls(
            num_stages=num_stages,
            num_processors=num_processors,
            ends=ends,
            masks=masks,
        )


class BlockBuilder:
    """Incremental :class:`MappingBlock` assembly for move-generated pools.

    The enumeration producer (:func:`repro.core.enumeration.iter_mapping_blocks`)
    knows its block shapes up front; candidate pools generated by
    neighbourhood moves do not — a move can merge two intervals (one
    column fewer) or split one (one column more) relative to the pool's
    seed mapping.  The builder accepts one ``(ends, masks)`` row at a
    time, widens its padded storage geometrically as wider rows arrive,
    and emits a :class:`MappingBlock` preserving append order — so
    consumers keep the "first candidate wins ties" semantics of the
    scalar loops they replace.
    """

    def __init__(
        self,
        num_stages: int,
        num_processors: int,
        *,
        capacity: int = 64,
    ) -> None:
        _require_numpy()
        self.num_stages = num_stages
        self.num_processors = num_processors
        width = max(1, min(num_stages, num_processors))
        self._ends = _np.zeros((max(1, capacity), width), dtype=_np.int64)
        self._masks = _np.zeros_like(self._ends)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow(self, rows: int, width: int) -> None:
        old_rows, old_width = self._ends.shape
        new_rows = max(rows, old_rows)
        new_width = max(width, old_width)
        if new_rows == old_rows and new_width == old_width:
            return
        ends = _np.zeros((new_rows, new_width), dtype=_np.int64)
        masks = _np.zeros_like(ends)
        ends[: self._size, :old_width] = self._ends[: self._size]
        masks[: self._size, :old_width] = self._masks[: self._size]
        self._ends = ends
        self._masks = masks

    def append(self, ends: Sequence[int], masks: Sequence[int]) -> None:
        """Append one mapping row (parallel end/bitmask sequences)."""
        p = len(ends)
        if p != len(masks):
            raise SolverError(
                f"row has {p} interval ends but {len(masks)} masks"
            )
        if self._size >= self._ends.shape[0] or p > self._ends.shape[1]:
            self._grow(
                rows=max(self._size + 1, 2 * self._ends.shape[0]),
                width=p,
            )
        self._ends[self._size, :p] = ends
        self._ends[self._size, p:] = 0
        self._masks[self._size, :p] = masks
        self._masks[self._size, p:] = 0
        self._size += 1

    def extend(
        self, rows: Iterable[tuple[Sequence[int], Sequence[int]]]
    ) -> None:
        """Append many ``(ends, masks)`` rows in order."""
        for ends, masks in rows:
            self.append(ends, masks)

    def build(self) -> MappingBlock:
        """Freeze the appended rows into a :class:`MappingBlock`.

        The returned block owns copies of the rows; the builder can keep
        accepting appends afterwards without aliasing it.
        """
        return MappingBlock(
            num_stages=self.num_stages,
            num_processors=self.num_processors,
            ends=self._ends[: self._size].copy(),
            masks=self._masks[: self._size].copy(),
        )


# ----------------------------------------------------------------------
# bulk evaluator
# ----------------------------------------------------------------------
class BulkEvaluator:
    """Vectorized (latency, failure-probability) evaluation on one instance.

    Mirrors :func:`repro.core.metrics.evaluate` over a
    :class:`MappingBlock`: eq. (1) on communication-homogeneous
    platforms, eq. (2) on fully heterogeneous ones, the replica-product
    failure probability always.  See the module docstring for the
    numerical contract (:data:`BULK_RELATIVE_TOLERANCE`).

    ``shards`` enables threaded row-sharding for large blocks: the
    block is split into ``shards`` contiguous row ranges evaluated
    concurrently through a thread pool (numpy releases the GIL inside
    its kernels, so the shards genuinely overlap on multi-core hosts).
    Every reduction in both objective formulas is *within one row*, so
    the concatenated shard results are **bit-identical** to the
    single-pass evaluation — the scalar-confirmation contract of the
    consumers is untouched.  Blocks under ``shard_min_rows`` rows
    (default :data:`SHARD_MIN_ROWS`) skip the fan-out; the executor is
    created lazily on the first sharded call and reused across blocks
    (closed on :meth:`close` / context exit / garbage collection).
    ``None``/``1`` (default) disables sharding.

    ``backend`` selects the array engine (see :func:`resolve_backend`):
    ``"jit"`` routes both objectives through the fused compiled kernels
    of :mod:`repro.core.metrics_kernels`, whose ``prange`` row loop owns
    the parallelism — the thread-shard fan-out is bypassed entirely on
    that backend.  Construction runs one tiny warm-up block through the
    kernels so the JIT compile cost is paid up front, never inside a
    latency-sensitive request.
    """

    def __init__(
        self,
        application: PipelineApplication,
        platform: Platform,
        *,
        one_port: bool = True,
        shards: int | None = None,
        backend: str | None = None,
        shard_min_rows: int | None = None,
    ) -> None:
        _require_numpy()
        if shards is not None and shards < 1:
            raise SolverError(f"shards must be >= 1, got {shards}")
        if shard_min_rows is not None and shard_min_rows < 1:
            raise SolverError(
                f"shard_min_rows must be >= 1, got {shard_min_rows}"
            )
        self.application = application
        self.platform = platform
        self.one_port = one_port
        self.shards = 1 if shards is None else int(shards)
        self.backend = resolve_backend(backend)
        self.shard_min_rows = (
            SHARD_MIN_ROWS if shard_min_rows is None else int(shard_min_rows)
        )
        self._executor: ThreadPoolExecutor | None = None
        n = application.num_stages
        m = platform.size
        self._n = n
        self._m = m
        self._uniform = platform.is_communication_homogeneous
        self._volumes = _np.asarray(application.volumes, dtype=_np.float64)
        works = _np.asarray(application.works, dtype=_np.float64)
        self._work_prefix = _np.concatenate(
            [_np.zeros(1), _np.cumsum(works)]
        )
        self._speeds = _np.asarray(platform.speeds, dtype=_np.float64)
        self._fps = _np.asarray(
            platform.failure_probabilities, dtype=_np.float64
        )
        self._bit_ids = _np.arange(m, dtype=_np.int64)

        if self._uniform:
            self._bandwidth = platform.uniform_bandwidth
            self._final_term = application.output_size / self._bandwidth
        else:
            topo = platform.topology
            self._in_bw = _np.asarray(
                [topo.bandwidth(IN, u) for u in range(1, m + 1)]
            )
            self._out_bw = _np.asarray(
                [topo.bandwidth(u, OUT) for u in range(1, m + 1)]
            )
            links = _np.full((m, m), _np.inf)
            for u in range(m):
                for v in range(m):
                    if u != v:
                        links[u, v] = topo.bandwidth(u + 1, v + 1)
            # the infinite diagonal makes intra-processor hand-offs free
            # (delta / inf == 0), matching transfer_time's src == dst rule
            self._links = links

        self._tables = m <= MASK_TABLE_LIMIT
        if self._tables:
            self._build_mask_tables()
        if self.backend == "jit":
            self._warmup_jit()

    # ------------------------------------------------------------------
    # lifecycle: the persistent shard executor
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent shard executor, if one was created."""
        executor = self._executor
        if executor is not None:
            self._executor = None
            executor.shutdown(wait=True)

    def __enter__(self) -> "BulkEvaluator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _build_mask_tables(self) -> None:
        pop, min_speed, _, fp_prod = build_mask_tables(
            self._speeds, self._fps
        )
        with _np.errstate(divide="ignore"):
            rel_log = _np.where(
                fp_prod < 1.0, _np.log1p(-fp_prod), -_np.inf
            )
        rel_log[0] = 0.0  # padding columns contribute nothing
        self._pop = pop
        self._min_speed = min_speed
        self._fp_prod = fp_prod
        self._rel_log = rel_log

    def _bits(self, masks: "np.ndarray") -> "np.ndarray":
        """Expand bitmasks into a boolean bit matrix ``(.., m)``."""
        return (masks[..., None] >> self._bit_ids) & 1 != 0

    def _starts(self, block: MappingBlock) -> "np.ndarray":
        starts = _np.empty_like(block.ends)
        starts[:, 0] = 1
        starts[:, 1:] = block.ends[:, :-1] + 1
        return starts

    def _sharded(
        self,
        block: MappingBlock,
        fn: Callable[[MappingBlock], "np.ndarray"],
    ) -> "np.ndarray":
        """Apply a per-row kernel to the block, sharding large ones.

        Rows are independent in every kernel (all reductions run along
        the interval/processor axes of one row), so evaluating
        contiguous row ranges concurrently and concatenating is exact —
        not merely tolerance-close — to the single-pass result.
        """
        rows = len(block)
        shards = min(self.shards, max(1, rows // self.shard_min_rows))
        if shards <= 1:
            return fn(block)
        bounds = [
            (rows * s // shards, rows * (s + 1) // shards)
            for s in range(shards)
        ]
        slices = [
            MappingBlock(
                num_stages=block.num_stages,
                num_processors=block.num_processors,
                ends=block.ends[lo:hi],
                masks=block.masks[lo:hi],
            )
            for lo, hi in bounds
        ]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.shards)
        parts = list(self._executor.map(fn, slices))
        return _np.concatenate(parts)

    # ------------------------------------------------------------------
    # failure probability
    # ------------------------------------------------------------------
    def failure_probabilities(self, block: MappingBlock) -> "np.ndarray":
        """Failure probability of every mapping in the block."""
        self._check_block(block)
        if self.backend == "jit":
            return self._failure_probabilities_jit(block)
        return self._sharded(block, self._failure_probabilities_of)

    def _failure_probabilities_of(
        self, block: MappingBlock
    ) -> "np.ndarray":
        masks = block.masks
        if self._tables:
            rel_log = self._rel_log[masks]
        else:
            bits = self._bits(masks)
            prod = _np.where(bits, self._fps, 1.0).prod(axis=2)
            prod = _np.where(masks != 0, prod, 0.0)
            with _np.errstate(divide="ignore"):
                rel_log = _np.where(
                    prod < 1.0, _np.log1p(-prod), -_np.inf
                )
        log_success = rel_log.sum(axis=1)
        # -inf log-success (an interval that surely fails) maps to FP 1.0
        return -_np.expm1(log_success)

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------
    def latencies(self, block: MappingBlock) -> "np.ndarray":
        """Latency of every mapping in the block (eq. (1) or eq. (2))."""
        self._check_block(block)
        if self.backend == "jit":
            return self._latencies_jit(block)
        return self._sharded(block, self._latencies_of)

    def _latencies_of(self, block: MappingBlock) -> "np.ndarray":
        if self._uniform:
            return self._latencies_uniform(block)
        return self._latencies_heterogeneous(block)

    # ------------------------------------------------------------------
    # compiled backend (numba kernels, prange row parallelism)
    # ------------------------------------------------------------------
    def _warmup_jit(self) -> None:
        """Trigger the JIT compiles on a one-row dummy block.

        Uses the evaluator's own arrays so exactly the signatures of the
        later hot calls get compiled; ``cache=True`` on the kernels makes
        this nearly free after the first process on a machine.
        """
        block = MappingBlock(
            num_stages=self._n,
            num_processors=self._m,
            ends=_np.array([[self._n]], dtype=_np.int64),
            masks=_np.array([[1]], dtype=_np.int64),
        )
        self._latencies_jit(block)
        self._failure_probabilities_jit(block)

    def _latencies_jit(self, block: MappingBlock) -> "np.ndarray":
        ends = _np.ascontiguousarray(block.ends)
        masks = _np.ascontiguousarray(block.masks)
        out = _np.empty(len(block))
        if self._uniform:
            _kernels.uniform_latency_kernel(
                ends,
                masks,
                self._work_prefix,
                self._volumes,
                self._speeds,
                float(self._bandwidth),
                float(self._final_term),
                self.one_port,
                out,
            )
        else:
            _kernels.heterogeneous_latency_kernel(
                ends,
                masks,
                self._work_prefix,
                self._volumes,
                self._speeds,
                self._links,
                self._in_bw,
                self._out_bw,
                float(self.application.input_size),
                self.one_port,
                out,
            )
        return out

    def _failure_probabilities_jit(self, block: MappingBlock) -> "np.ndarray":
        masks = _np.ascontiguousarray(block.masks)
        out = _np.empty(len(block))
        _kernels.failure_kernel(masks, self._fps, out)
        return out

    def _latencies_uniform(self, block: MappingBlock) -> "np.ndarray":
        masks = block.masks
        valid = masks != 0
        starts = self._starts(block)
        delta_in = self._volumes[starts - 1]
        work = self._work_prefix[block.ends] - self._work_prefix[starts - 1]
        if self._tables:
            replicas = self._pop[masks]
            slowest = self._min_speed[masks]
        else:
            bits = self._bits(masks)
            replicas = bits.sum(axis=2)
            slowest = _np.where(bits, self._speeds, _np.inf).min(axis=2)
        k = replicas if self.one_port else (masks != 0).astype(_np.int64)
        with _np.errstate(invalid="ignore"):
            terms = k * delta_in / self._bandwidth + work / slowest
        terms = _np.where(valid, terms, 0.0)
        return terms.sum(axis=1) + self._final_term

    def _serialized_sends(
        self, delta_out: "np.ndarray", next_masks: "np.ndarray"
    ) -> "np.ndarray":
        """Per-sender serialized sends into each successor interval.

        The per-link array behind the reduction is ``(B, width, m, m)``
        sized; computing it in contiguous row chunks of ``B / m`` keeps
        every temporary within the ``(B, width, m)`` footprint of the
        result.  Chunking the row axis cannot change any value — each
        output element is still the same numpy pairwise reduction over
        the same masked ``delta / links`` row — so the results stay
        bit-identical to the unchunked formulation.
        """
        rows, width = next_masks.shape
        m = self._m
        sends = _np.empty((rows, width, m))
        chunk = max(1, rows // m)
        for lo in range(0, rows, chunk):
            hi = min(rows, lo + chunk)
            # (c, width, m, m): sender u -> successor replica v
            send_uv = delta_out[lo:hi, :, None, None] / self._links
            nb = self._bits(next_masks[lo:hi])[:, :, None, :]
            if self.one_port:
                sends[lo:hi] = _np.where(nb, send_uv, 0.0).sum(axis=3)
            else:
                part = _np.where(nb, send_uv, -_np.inf).max(axis=3)
                sends[lo:hi] = _np.where(
                    (next_masks[lo:hi] != 0)[..., None], part, 0.0
                )
        return sends

    def _latencies_heterogeneous(self, block: MappingBlock) -> "np.ndarray":
        masks = block.masks
        valid = masks != 0
        bits = self._bits(masks)  # (B, width, m)
        starts = self._starts(block)
        work = self._work_prefix[block.ends] - self._work_prefix[starts - 1]
        delta_out = self._volumes[block.ends]  # (B, width)

        # compute time of every potential replica
        compute = work[..., None] / self._speeds  # (B, width, m)

        # serialized sends into the successor interval's replicas;
        # the last interval instead sends to P_out
        next_masks = _np.zeros_like(masks)
        next_masks[:, :-1] = masks[:, 1:]
        counts = valid.sum(axis=1)
        col = _np.arange(block.width)
        is_last = valid & (col == (counts - 1)[:, None])

        sends = self._serialized_sends(delta_out, next_masks)  # (B, width, m)
        out_sends = delta_out[..., None] / self._out_bw  # (B, width, m)
        sends = _np.where(is_last[..., None], out_sends, sends)

        per_replica = compute + sends
        worst = _np.where(bits, per_replica, -_np.inf).max(axis=2)
        terms = _np.where(valid, worst, 0.0)

        # serialized input sends from P_in to interval 1's replicas
        in_times = self.application.input_size / self._in_bw  # (m,)
        first = bits[:, 0, :]
        if self.one_port:
            input_term = _np.where(first, in_times, 0.0).sum(axis=1)
        else:
            input_term = _np.where(first, in_times, -_np.inf).max(axis=1)
        return input_term + terms.sum(axis=1)

    # ------------------------------------------------------------------
    def evaluate_block(
        self, block: MappingBlock
    ) -> tuple["np.ndarray", "np.ndarray"]:
        """Both objective vectors for a block: ``(latencies, fps)``."""
        return self.latencies(block), self.failure_probabilities(block)

    def _check_block(self, block: MappingBlock) -> None:
        if (
            block.num_stages != self._n
            or block.num_processors != self._m
        ):
            raise SolverError(
                f"block encodes n={block.num_stages}/m="
                f"{block.num_processors} mappings but the evaluator was "
                f"built for n={self._n}/m={self._m}"
            )


# ----------------------------------------------------------------------
# vectorized Pareto prefilter
# ----------------------------------------------------------------------
def nondominated_mask(
    latencies: "np.ndarray", fps: "np.ndarray"
) -> "np.ndarray":
    """Boolean mask of the weakly non-dominated points (minimisation).

    Matches the dominance relation of :func:`repro.core.pareto.dominates`
    at ``tolerance=0``: a point is dropped iff some other point is no
    worse on both objectives and strictly better on at least one.  Exact
    duplicates are all kept (none dominates the other), so running
    :func:`repro.core.pareto.pareto_front` on the survivors — in their
    original order — collapses duplicates to the same representative as
    running it on the full set.
    """
    _require_numpy()
    lat = _np.asarray(latencies, dtype=_np.float64)
    fp = _np.asarray(fps, dtype=_np.float64)
    size = lat.shape[0]
    if size == 0:
        return _np.zeros(0, dtype=bool)
    order = _np.lexsort((fp, lat))
    lat_s = lat[order]
    fp_s = fp[order]
    # first index of each equal-latency group
    group_start = _np.zeros(size, dtype=_np.int64)
    new_group = _np.flatnonzero(lat_s[1:] != lat_s[:-1]) + 1
    group_start[new_group] = new_group
    group_start = _np.maximum.accumulate(group_start)
    # min fp over points with *strictly* smaller latency
    running = _np.minimum.accumulate(fp_s)
    prev_min = _np.concatenate(([_np.inf], running[:-1]))
    before_group = prev_min[group_start]
    dominated = before_group <= fp_s  # strict on latency, no worse on fp
    # within an equal-latency group the group head has the smallest fp
    dominated |= fp_s[group_start] < fp_s  # strict on fp, equal latency
    keep = _np.ones(size, dtype=bool)
    keep[order] = ~dominated
    return keep
