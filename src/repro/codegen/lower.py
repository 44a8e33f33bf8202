"""Lower plan steps into specialized LoopIR programs.

Three schedule transforms, applied while lowering:

* **fuse pack+census** (:func:`lower_pack_census`): the adjacency's
  bit-pack and its 8x128 zero-tile ballot — two separate walks over the
  operand today — become one emitted pass that derives both the packed
  words and the tile mask from a single padded intermediate (and takes
  the degree row-sums from the same dense array while it is hot).
* **unroll bit-plane loops** (:func:`unroll_bit_planes`): plane loops
  with the plan's concrete bitwidth trip counts are unrolled to literal
  plane indices, so the emitted dense kernel is a straight line of
  per-pair statements.
* **skip-loop specialization** (inside :func:`lower_gemm`): the
  ``TileSkipPlan`` census is baked in at lowering time — for every live
  128-bit k-tile column, the surviving tile rows are precomputed into
  the program ``env`` (contiguous runs emitted as pure slices), and the
  kernel multiplies only those rows' unpacked bits against B's codes,
  one exact float BLAS call per live column.  There is no runtime tile
  test left in the emitted source.

The dense schedule stays bit-serial and *widens* the packed uint32 words
to uint64 views (``widen-words:u64``) — the AND + popcount stream
processes half the elements per bit of work, a schedule the hand-written
engines do not apply.  Like every backend, the emitted kernels return the
reduced ``(M, N)`` product: B's planes (skip schedule) or each plane-pair
product (dense schedule) shift-accumulate inside the kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..core.bitgemm import SERIAL_BLAS_MNK, exact_matmul_plan
from ..core.bitpack import TC_K, TC_M, pad_to
from ..core.bitops import WORD_BITS
from ..errors import ShapeError
from ..plan.ir import GemmStep, LayerPlan
from .loopir import Block, Line, Loop, Program, Stmt, unroll

__all__ = [
    "GROUP_UNROLL_LIMIT",
    "PAIR_UNROLL_LIMIT",
    "LayerLowering",
    "census_pattern_count",
    "lower_gemm",
    "lower_layer_plan",
    "lower_pack_census",
    "unroll_bit_planes",
]

#: Above this many distinct tile-row census patterns the skip-loop
#: specialization falls back to the dense schedule (the emitted source
#: would otherwise grow without bound on noise-structured censuses).
GROUP_UNROLL_LIMIT = 48

#: Above this many plane pairs the dense path keeps runtime plane loops
#: instead of unrolling (32x32 bits would emit 1024 statement groups).
PAIR_UNROLL_LIMIT = 16

#: Byte budget of one row block's AND/popcount temporaries; row-block
#: trip counts are baked into the emitted source from it.
TEMP_BUDGET_BYTES = 32 * 1024 * 1024

#: uint64 AND word + uint8 popcount byte per widened element.
_TEMP_BYTES_PER_ELEM = 9


def _row_block(rows: int, bytes_per_row: int) -> int:
    """Largest multiple-of-8 row block whose temporaries fit the budget."""
    if rows <= 0:
        return 8
    block = max(TEMP_BUDGET_BYTES // max(bytes_per_row, 1), 8)
    block -= block % 8
    return int(min(max(block, 8), pad_to(rows, 8)))


def _contiguous_run(indices: np.ndarray) -> tuple[int, int] | None:
    """``(start, stop)`` when ``indices`` is a dense ascending run."""
    if indices.size == 0:
        return None
    lo, hi = int(indices[0]), int(indices[-1])
    if hi - lo + 1 == indices.size and np.array_equal(
        indices, np.arange(lo, hi + 1)
    ):
        return (lo, hi + 1)
    return None


def unroll_bit_planes(body: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    """Unroll every ``axis="plane"`` loop in the tree to literal indices."""
    out: list[Stmt] = []
    for stmt in body:
        if isinstance(stmt, Loop):
            inner = unroll_bit_planes(stmt.body)
            stmt = Loop(stmt.var, stmt.count, inner, stmt.axis)
            if stmt.axis == "plane" and isinstance(stmt.count, int):
                out.append(unroll(stmt))
                continue
            out.append(stmt)
        elif isinstance(stmt, Block):
            out.append(Block(stmt.label, unroll_bit_planes(stmt.body)))
        else:
            out.append(stmt)
    return tuple(out)


# --------------------------------------------------------------------- #
# GEMM lowering
# --------------------------------------------------------------------- #
def lower_gemm(
    *,
    m: int,
    n: int,
    bits_a: int,
    bits_b: int,
    a_padded_vectors: int,
    a_k_words: int,
    tile_mask: np.ndarray | None = None,
    name: str = "gemm_kernel",
) -> Program:
    """Lower one GEMM into a specialized program.

    The emitted function has the backend ``run`` calling convention
    restricted to raw words: ``fn(a_words, b_words)`` with ``a_words`` of
    shape ``(bits_a, a_padded_vectors, a_k_words)`` and ``b_words`` of
    shape ``(bits_b, padded_n, a_k_words)`` (both C-contiguous uint32),
    returning the reduced int64 ``(m, n)`` product on the logical shapes.

    With ``tile_mask`` (1-bit left operands only) the census is baked in
    as a skip-loop specialization: B's codes are recombined in the kernel
    and only the live k-tile columns of A are multiplied, like the host
    ``blas`` fast path but with zero tiles jumped.  Otherwise the dense
    unrolled schedule is used, which stays bit-serial — AND + popcount
    per plane pair, shift-accumulated at bit position ``i + j`` inside the
    emitted loop, the compiled form of paper §3/§4.  Every shape, bitwidth
    and index constant is a literal in the emitted source.
    """
    if a_k_words % 4:
        raise ShapeError(f"k-word count {a_k_words} is not a whole tile column")
    if tile_mask is not None:
        if bits_a != 1:
            raise ShapeError("skip-loop specialization requires a 1-bit left operand")
        grid = (a_padded_vectors // 8, a_k_words // 4)
        if tile_mask.shape != grid:
            raise ShapeError(
                f"tile mask shape {tile_mask.shape} does not match the "
                f"{grid} tile grid of the operand"
            )
    if m == 0 or n == 0:
        return Program(
            name=name,
            args=("a_words", "b_words"),
            body=(
                Line(f"return np.zeros(({m}, {n}), dtype=np.int64)"),
            ),
            schedule=("degenerate-empty",),
        )
    if tile_mask is not None:
        program = _lower_gemm_skip(
            m=m,
            n=n,
            bits_b=bits_b,
            a_padded_vectors=a_padded_vectors,
            a_k_words=a_k_words,
            tile_mask=tile_mask,
            name=name,
        )
        if program is not None:
            return program
    return _lower_gemm_dense(
        m=m,
        n=n,
        bits_a=bits_a,
        bits_b=bits_b,
        a_k_words=a_k_words,
        name=name,
        fallback=tile_mask is not None,
    )


def _strided_loop(var: str, start: int, stop: int, step: int, body) -> Loop:
    """A runtime loop ``for var in range(start, stop, step)`` (the
    ``count`` string carries the full range argument list)."""
    return Loop(var=var, count=f"{start}, {stop}, {step}", body=tuple(body), axis="rows")


def _lower_gemm_dense(
    *,
    m: int,
    n: int,
    bits_a: int,
    bits_b: int,
    a_k_words: int,
    name: str,
    fallback: bool = False,
) -> Program:
    """The dense schedule: unrolled plane pairs of row-blocked AND+popcount,
    shift-accumulated into one output."""
    w2 = a_k_words // 2
    rb = _row_block(m, bytes_per_row=n * w2 * _TEMP_BYTES_PER_ELEM)
    product = Line(
        f"out[r0:r0 + {rb}] += popcount64("
        f"ap[r0:r0 + {rb}, None, :] & bp[None, :, :]"
        ").sum(axis=-1, dtype=np.int64) << (ai + bj)"
    )
    row_loop = _strided_loop("r0", 0, m, rb, (product,))
    body: tuple[Stmt, ...] = (
        Line("a64 = a_words.view(np.uint64)"),
        Line("b64 = b_words.view(np.uint64)"),
        Line(f"out = np.zeros(({m}, {n}), dtype=np.int64)"),
        Loop(
            var="ai",
            count=bits_a,
            axis="plane",
            body=(
                Loop(
                    var="bj",
                    count=bits_b,
                    axis="plane",
                    body=(
                        Line(f"ap = a64[ai][:{m}]"),
                        Line(f"bp = b64[bj][:{n}]"),
                        row_loop,
                    ),
                ),
            ),
        ),
        Line("return out"),
    )
    schedule = ["widen-words:u64", f"row-block:{rb}"]
    if bits_a * bits_b <= PAIR_UNROLL_LIMIT:
        body = unroll_bit_planes(body)
        schedule.append(f"unroll-bit-planes:{bits_a}x{bits_b}")
    if fallback:
        schedule.append("skip-specialize:fallback-dense")
    return Program(
        name=name,
        args=("a_words", "b_words"),
        body=body,
        schedule=tuple(schedule),
    )


def census_pattern_count(tile_mask: np.ndarray) -> int:
    """Distinct *live* tile-row census patterns of one plane mask.

    Exactly the grouping statistic :func:`_lower_gemm_skip` unrolls over —
    a pattern is a distinct row of the ``(mt, kt)`` census, and it is live
    when at least one of its tiles survives the ballot.  A count above
    :data:`GROUP_UNROLL_LIMIT` means the skip-loop specialization falls
    back to the dense schedule; the dynamic-graph patch policy watches the
    same number so a mutation stream that drags a census across the
    fallback boundary (in either direction) triggers a recompile instead
    of a key patch.
    """
    mask = np.ascontiguousarray(np.asarray(tile_mask, dtype=bool))
    if mask.ndim != 2:
        raise ShapeError(f"census mask must be 2-D, got shape {mask.shape}")
    patterns = np.unique(mask, axis=0)
    return int(sum(1 for pattern in patterns if pattern.any()))


def _lower_gemm_skip(
    *,
    m: int,
    n: int,
    bits_b: int,
    a_padded_vectors: int,
    a_k_words: int,
    tile_mask: np.ndarray,
    name: str,
) -> Program | None:
    """Skip-loop specialization of a censused 1-bit left operand.

    The census fixes, per live 128-bit k-tile column, which tile rows
    survive the ballot; those row lists are baked in and the kernel
    multiplies only them — each column's surviving rows, unpacked, times
    the matching 128 rows of B's recombined codes, one exact float BLAS
    call per live column, accumulated into the output.  Zero tiles are
    never unpacked or multiplied (§4.3 zero-tile jumping on the host fast
    path); B's planes are shift-accumulated into its codes inside the
    kernel.

    Returns ``None`` — the caller falls back to dense — when the census
    has more distinct tile-row patterns than :data:`GROUP_UNROLL_LIMIT`,
    or when the product is too deep for one exact float matmul.
    """
    mask = np.ascontiguousarray(np.asarray(tile_mask, dtype=bool))
    patterns = census_pattern_count(mask)
    if patterns > GROUP_UNROLL_LIMIT:
        return None
    plan = exact_matmul_plan(a_k_words * WORD_BITS, 1, bits_b)
    if plan.matmuls != 1:
        return None
    dtype = f"np.{plan.dtype.name}"
    env: dict[str, np.ndarray] = {}
    body: list[Stmt] = [
        Line("a8 = a_words[0].view(np.uint8)"),
        Line(
            f"bits = np.unpackbits(b_words[:, :{n}].view(np.uint8), "
            "axis=-1, bitorder='little')"
        ),
        *_recombine_stmts(bits_b),
        Line(f"bk = np.ascontiguousarray(codes.T, dtype={dtype})"),
        Line(f"out = np.zeros(({a_padded_vectors}, {n}), dtype={dtype})"),
    ]
    columns = [c for c in range(mask.shape[1]) if mask[:, c].any()]
    sliced = 0
    for c in columns:
        tile_rows = np.flatnonzero(mask[:, c])
        rows = (tile_rows[:, None] * 8 + np.arange(8)).ravel()
        block, is_slice = _column_stmts(
            c, rows, n=n, dtype=plan.dtype, env=env
        )
        sliced += is_slice
        body.append(block)
    body.append(Line(f"return out[:{m}].astype(np.int64)"))
    schedule = (
        "fuse-b-planes",
        f"recombine-b-codes:{plan.dtype.name}",
        f"specialize-skip-loop:groups={patterns}",
        f"blas-live-columns:{len(columns)}/{mask.shape[1]}",
        f"contiguous-slices:{sliced}/{len(columns)}",
        "unroll-bit-planes:1",
    )
    return Program(
        name=name,
        args=("a_words", "b_words"),
        body=tuple(body),
        env=env,
        schedule=schedule,
    )


def _recombine_stmts(bits_b: int) -> list[Stmt]:
    """Statements shift-accumulating the unpacked B planes ``bits`` into
    the codes matrix ``codes`` (planes unrolled to literal shifts)."""
    if bits_b == 1:
        return [Line("codes = bits[0]")]
    acc = np.min_scalar_type((1 << bits_b) - 1).name
    return [Line(f"codes = bits[0].astype(np.{acc})")] + [
        Line(f"codes |= bits[{j}].astype(np.{acc}) << {j}")
        for j in range(1, bits_b)
    ]


def _column_stmts(
    c: int,
    rows: np.ndarray,
    *,
    n: int,
    dtype: np.dtype,
    env: dict[str, np.ndarray],
) -> tuple[Block, int]:
    """Emit one live k-tile column's statements; returns (block, sliced)."""
    run = _contiguous_run(rows)
    # Unpacked uint8 bits + float operand + float partial product per row.
    item = dtype.itemsize
    rb = _row_block(int(rows.size), bytes_per_row=TC_K * (1 + item) + n * item)
    # One call per live column: keep each on the calling thread.
    rb = max(8, min(rb, SERIAL_BLAS_MNK // (TC_K * max(n, 1)) // 8 * 8))
    words = f"{c * TC_K // 8}:{(c + 1) * TC_K // 8}"
    b_rows = f"bk[{c * TC_K}:{(c + 1) * TC_K}]"

    def product(rows_expr: str) -> Line:
        return Line(
            f"out[{rows_expr}] += np.unpackbits(a8[{rows_expr}, {words}], "
            f"axis=-1, bitorder='little').astype(np.{dtype.name}) @ {b_rows}"
        )

    label = f"k-tile column {c}: {rows.size} surviving rows"
    if run is not None:
        r_lo, r_hi = run
        if r_hi - r_lo <= rb:
            return Block(label, (product(f"{r_lo}:{r_hi}"),)), 1
        # Clamp the last block to the column's own rows.
        inner = (Line(f"r1 = min(r0 + {rb}, {r_hi})"), product("r0:r1"))
        return Block(label, (_strided_loop("r0", r_lo, r_hi, rb, inner),)), 1
    r_name = f"c{c}_r"
    env[r_name] = np.ascontiguousarray(rows.astype(np.intp))
    if rows.size <= rb:
        return Block(label, (product(r_name),)), 0
    inner = (Line(f"gr = {r_name}[r0:r0 + {rb}]"), product("gr"))
    return Block(label, (_strided_loop("r0", 0, int(rows.size), rb, inner),)), 0


# --------------------------------------------------------------------- #
# Fused pack + census
# --------------------------------------------------------------------- #
def lower_pack_census(m: int, k: int, name: str = "pack_census") -> Program:
    """One emitted pass: bit-pack a 0/1 matrix, ballot its 8x128 tiles,
    and take degree row-sums — the fused form of ``pack_matrix`` +
    ``tile_nonzero_mask`` + the adjacency degree reduction.

    The emitted function maps ``fn(adj) -> (words, mask, degrees)`` and
    is bit-identical to the unfused pipeline by construction: it performs
    the same ``packbits``/word-view/tile-reduce operations with the
    plan's padding constants baked in, but in a single walk over one
    padded intermediate (no separate ``bit_decompose`` plane
    materialization, no second traversal of the packed words to census
    them from cold memory).
    """
    if m < 0 or k < 0:
        raise ShapeError(f"matrix dims must be non-negative, got {(m, k)}")
    pv = pad_to(max(m, 1), TC_M)
    pk = pad_to(max(k, 1), TC_K)
    kw = pk // WORD_BITS
    body: list[Stmt] = [Line("plane = (adj.astype(np.uint8) & np.uint8(1))[None]")]
    schedule = ["fuse-pack-census", "unroll-bit-planes:1"]
    if pv != m or pk != k:
        body.append(
            Line(f"plane = np.pad(plane, ((0, 0), (0, {pv - m}), (0, {pk - k})))")
        )
    else:
        schedule.append("skip-pad")
    body.extend(
        [
            Line("packed = np.packbits(plane, axis=-1, bitorder='little')"),
            Line(
                "words = np.ascontiguousarray(packed).view(np.uint32)"
                f".reshape(1, {pv}, {kw})"
            ),
            # Census the words while they are still cache-resident: the
            # per-thread uint4 OR then the 8-row warp ballot of §4.3.
            Line(f"tiles = words[0].reshape({pv // 8}, 8, {kw // 4}, 4)"),
            Line(
                "mask = np.bitwise_or.reduce("
                "np.bitwise_or.reduce(tiles, axis=-1), axis=1) != 0"
            ),
            Line("degrees = adj.sum(axis=1, dtype=np.float64)[:, None]"),
            Line("return words, mask, degrees"),
        ]
    )
    return Program(
        name=name,
        args=("adj",),
        body=tuple(body),
        schedule=tuple(schedule),
    )


# --------------------------------------------------------------------- #
# Whole-layer lowering
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class LayerLowering:
    """The IR programs of one layer's quantize -> pack -> census -> gemm
    pipeline, plus their combined content digest."""

    layer_index: int
    programs: tuple[Program, ...]

    @property
    def digest(self) -> str:
        """Combined content key over every program of the layer."""
        h = hashlib.blake2b(digest_size=16)
        for program in self.programs:
            h.update(program.digest().encode())
        return h.hexdigest()

    def schedules(self) -> dict[str, tuple[str, ...]]:
        """Applied schedule transforms, keyed by program name."""
        return {p.name: p.schedule for p in self.programs}


def _step_padded_a(step: GemmStep) -> tuple[int, int]:
    """``(padded_vectors, k_words)`` of a step's packed left operand."""
    spec = step.spec
    return (
        pad_to(max(spec.m, 1), TC_M),
        pad_to(max(spec.k, 1), TC_K) // WORD_BITS,
    )


def lower_layer_plan(
    layer: LayerPlan,
    *,
    tile_mask: np.ndarray | None = None,
    aggregate_first: bool = True,
) -> LayerLowering:
    """Lower one :class:`~repro.plan.ir.LayerPlan` into IR programs.

    Produces, in execution order: the fused pack+census program for the
    aggregation adjacency (when the layer's aggregate step carries a
    census node), then one GEMM program per step — skip-specialized for
    the aggregation when its measured ``tile_mask`` is supplied, dense
    unrolled otherwise.  Quantize sites have no emitted program (they are
    calibration table lookups, not loops), but their bitwidths are baked
    into the pack/gemm programs lowered here.
    """
    programs: list[Program] = []
    agg = layer.aggregate
    if agg.census is not None:
        programs.append(
            lower_pack_census(
                agg.spec.m, agg.spec.k, name=f"l{layer.index}_pack_census"
            )
        )
    ordered = [("aggregate", layer.aggregate), ("update", layer.update)]
    if not aggregate_first:
        ordered.reverse()
    for tag, step in ordered:
        pv, kw = _step_padded_a(step)
        mask = tile_mask if (step is agg and step.spec.bits_a == 1) else None
        programs.append(
            lower_gemm(
                m=step.spec.m,
                n=step.spec.n,
                bits_a=step.spec.bits_a,
                bits_b=step.spec.bits_b,
                a_padded_vectors=pv,
                a_k_words=kw,
                tile_mask=mask,
                name=f"l{layer.index}_{tag}_gemm",
            )
        )
    return LayerLowering(layer_index=layer.index, programs=tuple(programs))
