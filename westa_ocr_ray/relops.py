"""Reusable relational operator patterns, Ray-Data-first.

These are the engine's general-purpose building blocks (SURVEY.md §2.4,
§2.5): partial aggregation before the shuffle and an explicit
partitioned hash join.

Every keyed reduce in the package (partial_aggregate, grouped_topk,
hash_join, global_value_rank, dedup's candidate-pair expansion, the
sketches' tree-merge and the per-key ordered logs of the query
registry) is ONE ``exchange`` call: one wave of plain Ray tasks, a
split task per input block that runs the caller's per-block step
(``pre``: a combiner, a projection) and sends each row to the slot of
its key, then a reduce task per slot that calls the caller's ``fn``
once on every row of the slot. The exchange owns the bucketing: a
caller passes its real key (one column or several) and an ``fn`` that
handles several whole keys at once, usually one vectorized pandas
groupby. A caller whose ``fn`` must see one key at a time wraps it in
``per_key``. A join passes its two sides as two inputs. A global
reduce (an aggregate without GROUP BY, an ORDER BY … LIMIT k) is the
same call with the empty key ``[]``: one group, in one slot. (The one
exception is ``pipelines.extract.extract_dataset``, whose reduce is
pyarrow-format.) On the small inputs of the query registry a Ray Data
stage is mostly fixed cost (a groupby/map_groups adds a sort with a
sampling pass, a map_batches stage its own executor run), so the
exchange runs what it can of its input's plan inside its own split
tasks (``_peel``): the Parquet read tasks of a ``read_table`` or the
blocks of a materialized input, then the plan's ``map_batches`` and
``select_columns`` steps, then ``pre``. Its output is a materialized
Dataset with its snapshot set, so a primitive chained on a read, on
another primitive or on a map step over either starts no Ray Data
executor; a plan it does not recognize is executed by Ray Data first,
as before. A ``.materialize()`` on a primitive's output is a no-op.

No step sees an empty frame. Ray Data passes an empty pandas or
pyarrow batch through ``map_batches`` without calling the step; the
exchange's split task runs a peeled step and ``pre`` only on a block
with rows, and its reduce task calls ``fn`` only when a frame has rows.
So a ``map_batches`` step, a peeled step, a ``pre`` and the ``fn`` of a
single-input ``exchange`` or ``per_key`` need no empty-input branch
and no typed-empty fallback. (One side of a two-input ``fn`` may be
empty, column-less when its input had no rows at all.)
"""

from __future__ import annotations

import functools
import inspect
from types import GeneratorType
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import ray
import ray.data as rd

# --------------------------------------------------------------- sizing


#: target bytes of input per exchange slot: one slot's rows are
#: processed by ONE reduce task (``exchange`` opens a slot per this many
#: input bytes once the cluster's CPUs are used), so this bounds
#: per-task memory (SCALE.md §partitioning states the same rule for the
#: extraction partition count P: ~1 GB of output per partition; slots
#: here see post-combine / key-projected rows, so a smaller target keeps
#: slack for pandas overhead).
TARGET_BUCKET_BYTES = 256 << 20


#: target bytes per BLOCK for checkpoint compaction (below); smaller
#: than an exchange slot because blocks are the streaming/scheduling
#: unit and want to outnumber cores.
TARGET_BLOCK_BYTES = 64 << 20


def compact_blocks(ds: rd.Dataset) -> rd.Dataset:
    """Coalesce a MATERIALIZED dataset's fragmentation. A union or a
    filtering map stage emits blocks regardless of their size, so a
    chain of them on a modest input accumulates hundreds of tiny
    blocks — and downstream all-to-all costs scale with block COUNT,
    not bytes (a 5k-row chain measured 63 s → 17 s at 32 cpus from this
    compaction alone).

    Block target = max(2 blocks per cluster CPU, bytes / 64 MiB): at
    real data sizes blocks are already big, the condition never fires,
    and the dataset streams through untouched — this only collapses
    pathological fragmentation, it never coarsens healthy layouts."""
    try:
        nblocks = ds.num_blocks()
        nbytes = ds.size_bytes() or 0
    except Exception:
        return ds
    cpus = 8
    try:
        if ray.is_initialized():
            cpus = max(1, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        pass
    target = max(2 * cpus, -(-int(nbytes) // TARGET_BLOCK_BYTES))
    if nblocks > 2 * target:
        return ds.repartition(target).materialize()
    return ds


# ------------------------------------------------------------- exchange


def gather(refs: list) -> list:
    """``ray.get(refs)`` after waiting for them in 5 ms ``ray.wait``
    slices. A bare ``ray.get`` holds off main-thread signal handlers
    (run_extract's SIGTERM drain, a caller's SIGALRM time limit) until
    it returns; a short wait does not. On any exception, including one
    a signal handler raises, the tasks still pending are force-cancelled
    before it propagates: a plain cancel lets a task run on until its
    Python code next checks for interrupts, which a long native call
    (or a sleep) defers. Killing a phase-2 reducer mid-commit is the
    worker crash its marker protocol already covers."""
    pending = list(refs)
    try:
        while pending:
            _, pending = ray.wait(pending, num_returns=len(pending),
                                  timeout=0.005)
        return ray.get(refs)
    except BaseException as exc:
        for ref in pending:
            ray.cancel(ref, force=True)
        # a handler that raises inside ray.wait's native wait comes back
        # as a SystemError caused by the handler's exception
        if isinstance(exc, SystemError) and exc.__cause__ is not None:
            raise exc.__cause__ from None
        raise


#: folds one key column's value into the running row hash of
#: ``_bucket_of`` (uint64 arithmetic, wrapping)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _key_cols(key) -> list:
    return [key] if isinstance(key, str) else list(key)


def _bucket_of(df: pd.DataFrame, key: list, n: int) -> np.ndarray:
    """Each row's slot in ``[0, n)`` for the key columns ``key``. An
    integer column, a float column's whole values or a datetime's
    nanoseconds contribute the value itself; any other value its
    ``pd.util.hash_pandas_object`` hash, and a null the constant 0. The
    columns fold into one uint64 (``h * _MIX + value``), taken modulo
    ``n``, so a one-column non-negative integer key lands in slot
    ``key % n``. A key lands in one slot whichever block or input it
    comes from: an integer column arrives as float in a block that holds
    a null, and a null may arrive as None, NaN or NaT."""
    h = np.zeros(len(df), dtype=np.uint64)
    for c in key:
        s = df[c]
        v = s.to_numpy()
        if v.dtype.kind in "Mm":  # the instant, whatever the unit
            v = v.astype(v.dtype.kind + "8[ns]").view(np.int64)
        if v.dtype.kind in "iub":
            part = v.astype(np.uint64)
        else:
            part = pd.util.hash_pandas_object(s, index=False).to_numpy()
            if v.dtype.kind == "f":
                whole = (v == np.floor(v)) & (np.abs(v) < 2.0 ** 63)
                part[whole] = v[whole].astype(np.int64).astype(np.uint64)
        if s.hasnans:
            part[s.isna().to_numpy()] = 0
        h = h * _MIX + part
    return (h % np.uint64(n)).astype(np.int64)


def _batch_step(fn, fmt: str, size, copy: bool, block):
    """One ``map_batches(fn, batch_format=fmt, batch_size=size)`` step
    on one non-empty block, as Ray Data runs it: ``size``-row batches
    (the whole block when None) converted by Ray's own converters, and
    every output batch (a generator's several) built into one block."""
    from ray.data._internal.delegating_block_builder import \
        DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    rows = acc.num_rows()
    size = size or rows
    out = DelegatingBlockBuilder()
    for lo in range(0, rows, size):
        batch = block if size == rows else acc.slice(lo, lo + size, copy)
        res = fn(BlockAccessor.for_block(batch).to_batch_format(fmt))
        for r in res if isinstance(res, GeneratorType) else (res,):
            out.add_batch(r)
    return out.build()


def _select_step(cols: list, block):
    """One ``select_columns(cols)`` step on one non-empty block."""
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).select(cols)


def _peel(ds):
    """``ds``'s plan as sources an exchange split task can run itself,
    or None. A source is ``(src, nbytes, steps)``: ``src`` a block ref
    or a ``ReadTask``, ``nbytes`` its size from its metadata, and
    ``steps`` the block -> block functions of the map steps above it,
    first step first. Accepted: a chain of ``map_batches`` steps (a
    function or a callable instance in pandas or pyarrow format, no
    ``fn_args``/``fn_kwargs``/constructor arguments, no actor pool) and
    ``select_columns`` steps over a union of such chains or over a
    leaf: a ``Read`` whose block count was set (``read_table`` sets
    it), the blocks of an in-memory source, or a plan's computed
    snapshot. Any other plan returns None and runs through Ray Data.
    This is the package's one reader of Ray Data's private plan
    classes; a rename there turns every plan into a None."""
    try:
        from ray.data._internal.compute import TaskPoolStrategy
        from ray.data._internal.logical.interfaces import SourceOperator
        from ray.data._internal.logical.operators.map_operator import (
            MapBatches, Project)
        from ray.data._internal.logical.operators.n_ary_operator import Union
        from ray.data._internal.logical.operators.read_operator import Read
    except ImportError:
        return None

    plan = ds._plan

    def blocks(bundles, steps):
        return [(ref, meta.size_bytes or 0, steps)
                for b in bundles for ref, meta in b.blocks]

    def walk(op, steps):
        if op is plan._snapshot_operator and plan._snapshot_bundle is not None:
            return blocks([plan._snapshot_bundle], steps)
        if isinstance(op, Read) and op._parallelism > 0:
            return [(t, t.metadata.size_bytes or 0, steps) for t in
                    op._datasource_or_legacy_reader.get_read_tasks(
                        op._parallelism)]
        if isinstance(op, SourceOperator) and op.output_data() is not None:
            return blocks(op.output_data(), steps)
        if isinstance(op, Union):
            parts = [walk(i, steps) for i in op.input_dependencies]
            return None if None in parts else [s for p in parts for s in p]
        if (type(op) is MapBatches and not inspect.isclass(op._fn)
                and op._batch_format in ("pandas", "pyarrow")
                and isinstance(op._compute, TaskPoolStrategy)
                and not (op._fn_args or op._fn_kwargs
                         or op._fn_constructor_args
                         or op._fn_constructor_kwargs)):
            step = functools.partial(
                _batch_step, op._fn, op._batch_format, op._batch_size,
                op._batch_size is not None and not op._zero_copy_batch)
        elif (type(op) is Project and op.cols is not None
              and not op.cols_rename and not op.exprs):
            step = functools.partial(_select_step, list(op.cols))
        else:
            return None
        return walk(op.input_dependencies[0], (step,) + steps)

    try:
        return walk(ds._logical_plan.dag, ())
    except AttributeError:
        return None


@ray.remote
def _exchange_split(src, key: list, n: int, prep):
    """Exchange map task: read ``src`` when it is a ``ReadTask`` (its
    blocks built into one), run the source's map steps and then the
    input's ``pre`` on it (``prep = (steps, pre)``), then cut it into
    ``n`` slot pieces by ``_bucket_of``, rows keeping their block order.
    An empty block, Ray Data's schema-less one included, skips the
    steps and ``pre`` (as ``map_batches`` does) and sends a column-less
    piece to every slot."""
    from ray.data._internal.delegating_block_builder import \
        DelegatingBlockBuilder
    from ray.data.block import BlockAccessor
    from ray.data.datasource import ReadTask

    steps, pre = prep or ((), None)
    if isinstance(src, ReadTask):
        built = DelegatingBlockBuilder()
        for block in src():
            built.add_block(block)
        src = built.build()
    for step in steps:
        if BlockAccessor.for_block(src).num_rows():
            src = step(src)
    df = BlockAccessor.for_block(src).to_pandas()
    if len(df) and pre is not None:
        df = pre(df)
    if not len(df):
        pieces = [pd.DataFrame()] * n
    else:
        slot = _bucket_of(df, key, n)
        order = np.argsort(slot, kind="stable")
        cuts = np.searchsorted(slot[order], np.arange(n + 1))
        pieces = [df.iloc[order[lo:hi]] for lo, hi in zip(cuts[:-1], cuts[1:])]
    return pieces[0] if n == 1 else pieces


@ray.remote(num_returns=2)
def _exchange_reduce(fn, sizes: list, *pieces):
    """Exchange reduce task: concatenate each input's pieces (``sizes``
    of them per input, in input order) into one frame with a fresh
    index, then call ``fn(*frames)`` once if any frame has rows. An
    input without rows in this slot gets an empty frame, typed when any
    of its blocks had rows. Returns the output and its row count, so the
    driver can drop an empty slot without fetching it."""
    frames, at = [], 0
    for size in sizes:
        mine = pieces[at:at + size]
        at += size
        live = [p for p in mine if len(p)]
        frames.append(pd.concat(live, ignore_index=True) if live else next(
            (p for p in mine if len(p.columns)), pd.DataFrame()))
    if not any(len(f) for f in frames):
        return pd.DataFrame(), 0
    out = fn(*frames)
    return out, len(out)


def _holds_error(ref) -> bool:
    """Read a finished ref; True when it holds a task's error."""
    try:
        ray.get(ref)
    except ray.exceptions.RayError:
        return True
    return False


def exchange(ds, key, fn, pre=None) -> rd.Dataset:
    """Keyed reduce as plain Ray tasks: every row of ``ds`` goes to the
    slot of its ``key`` (a column name or a list of names; the empty
    list is one group, a global reduce, and opens one slot), and each
    slot with rows calls ``fn(*frames)`` ONCE, the call holding every
    row of each of its keys, nulls included. ``fn`` handles several
    keys at a time (one vectorized groupby by ``key``, say); wrapped in
    ``per_key`` it runs once per distinct key, and the exchange returns
    what ``ds.map_batches(pre).groupby(key).map_groups(fn,
    batch_format="pandas")`` returns, without Ray Data's sort, its
    sampling pass or a stage for ``pre``. The results come back as one
    materialized Dataset of pandas blocks.

    ``pre`` is the input's per-block step (a projection, a combiner):
    it runs on each non-empty block inside the split task, before
    bucketing, and its output must hold ``key``. Neither ``pre`` nor a
    single-input ``fn`` is ever called on an empty frame (the module
    docstring states the rule). ``ds`` and ``pre`` may be equal-length
    tuples, one entry per input (a None entry, or
    ``pre=None``, runs no step). Each input is concatenated on its own,
    with an empty frame for an input that has no rows in the slot: a
    join takes its sides as separate inputs, never a union padded to one
    schema.

    The exchange owns the bucketing (``_bucket_of``: integer values by
    value, others by hash, a null the same wherever it arrives). Runs
    the inputs when called. An input whose plan ``_peel`` recognizes (a
    chain of map_batches and select_columns steps over ``read_table``
    reads, a union of such chains, or materialized blocks) runs inside
    the split tasks: one split task per read task or block reads it,
    runs the steps on it (each in its batch format, skipping an empty
    block as map_batches does) and then ``pre``. Any other input is
    executed by Ray Data first and feeds one split task per output
    block. Slot count: one for the empty key, whose rows all meet in
    slot 0; else the cluster's CPUs, or one slot per
    TARGET_BUCKET_BYTES of input (the blocks' or the read tasks'
    metadata) when that is more; one reduce task per slot runs ``fn``.
    ``pre``, each source's steps and ``fn`` go into the object store
    once per call. Footprint: a peeled read's rows live only inside its
    split task; the object store holds ``pre``'s slot pieces. A slot
    whose output is empty emits no block (an all-empty result is one
    empty block); the output has its snapshot set, so a count, a
    to_pandas or another exchange on it starts no executor. The driver
    waits through ``gather``, so signal handlers run, and an exception
    raised while it waits (an interrupt, a handler's) cancels the reduce
    tasks still running. A task's error is raised once: the outputs of
    the slots that failed are read before it propagates, so Ray reports
    none of them as an unhandled error."""
    key = _key_cols(key)
    inputs = ds if isinstance(ds, tuple) else (ds,)
    pres = pre if isinstance(pre, tuple) else (pre,) * len(inputs)
    srcs, nbytes = [[] for _ in inputs], 0
    for mine, d, p in zip(srcs, inputs, pres):
        peeled = _peel(d)
        if peeled is None:
            peeled = [(ref, meta.size_bytes or 0, ())
                      for bundle in d.iter_internal_ref_bundles()
                      for ref, meta in bundle.blocks]
        # (steps, pre) go into the object store once per chain; the
        # driver holds each put until every task that reads it is done
        puts = {}
        for src, size, steps in peeled:
            nbytes += size
            if id(steps) not in puts:
                puts[id(steps)] = (ray.put((steps, p))
                                   if steps or p is not None else None)
            mine.append((src, puts[id(steps)]))
    n = 1 if not key else max(1, int(ray.cluster_resources().get("CPU", 1)),
                              -(-nbytes // TARGET_BUCKET_BYTES))
    split = _exchange_split.options(num_returns=n)
    pieces = [split.remote(src, key, n, prep)
              for mine in srcs for src, prep in mine]
    if n == 1:
        pieces = [[p] for p in pieces]
    fn = ray.put(fn)
    sizes = [len(mine) for mine in srcs]
    outs, counts = zip(*(_exchange_reduce.remote(fn, sizes,
                                                 *[p[s] for p in pieces])
                         for s in range(n)))
    try:
        rows = gather(list(counts))
    except BaseException:
        # a failed slot's output holds the error too, and Ray reports an
        # error dropped unread as one more "Unhandled error": read the
        # outputs of the finished slots that failed (never waiting on a
        # running task, never fetching a good slot's rows), raise the first
        done = set(ray.wait(list(counts), num_returns=n, timeout=0)[0])
        for c, o in zip(counts, outs):
            if c in done and _holds_error(c):
                _holds_error(o)
        raise
    # materialize() sets the snapshot without an executor run, so a
    # later count, to_pandas or exchange on the output starts none
    return rd.from_pandas_refs([o for o, r in zip(outs, rows) if r]
                               or [outs[0]]).materialize()


def per_key(key, fn):
    """``exchange``'s ``fn`` that calls ``fn(*frames)`` once per
    distinct ``key`` value of the slot (a column name or a list; a null
    is one more value), in key order, as ``groupby(key, sort=True,
    dropna=False)`` orders groups. Each frame has a fresh index and
    still holds ``key`` (the map_groups contract); an input without
    rows for that key gets an empty frame. Empty outputs are left out of
    the concat (one is kept when all are empty): an empty frame's object
    columns would upcast the slot's typed ones. For a reduce whose
    grouping is part of its result: a file per key, a per-key sequential
    scan."""
    key = _key_cols(key)

    def each(*frames):
        codes = (pd.concat([f[key] for f in frames if len(f)],
                           ignore_index=True)
                 .groupby(key, sort=True, dropna=False).ngroup().to_numpy())
        groups = int(codes.max()) + 1
        runs, at = [], 0
        for f in frames:  # each frame in key order, cut at each key's rows
            c = codes[at:at + len(f)]
            at += len(f)
            order = np.argsort(c, kind="stable")
            runs.append((f.take(order),
                         np.searchsorted(c[order], np.arange(groups + 1))))
        outs = [fn(*(f.iloc[cut[g]:cut[g + 1]].reset_index(drop=True)
                     for f, cut in runs))
                for g in range(groups)]
        return pd.concat([o for o in outs if len(o)] or outs[:1],
                         ignore_index=True)

    return each


# ------------------------------------------------------------------ agg


def _groups(df: pd.DataFrame, keys: list):
    """``df`` grouped by ``keys`` in first-appearance order, a null key
    one more group, as SQL GROUP BY groups. The empty key is one group
    holding every row (an aggregate without GROUP BY); its ``.agg``
    result is indexed by that group, so callers ``reset_index(drop=True)``
    it. (An array grouper with ``as_index=False`` warns in pandas 2.2.)"""
    if keys:
        return df.groupby(keys, sort=False, as_index=False, dropna=False)
    return df.groupby(np.zeros(len(df), np.int8), sort=False)


def _check_int_sums(df: pd.DataFrame, keys: list, sums: dict,
                    out: pd.DataFrame) -> None:
    """Raise OverflowError when an integer sum of ``out`` (``sums``: out
    column -> the column of ``df`` it sums; ``out`` is ``df`` aggregated
    over ``_groups(df, keys)``) wrapped around. A wrapped sum is off by
    a multiple of 2**64, so it lies far from the float64 sum of the same
    rows; those are computed only when a column's largest magnitude
    times its row count could reach 2**62."""
    for o, c in sums.items():
        v = df[c].to_numpy()
        if (v.dtype.kind not in "iu"
                or np.abs(v.astype(np.float64)).max() * len(v) < 2.0 ** 62):
            continue
        approx = (_groups(df.astype({c: np.float64}), keys)
                  .agg(approx=(c, "sum"))["approx"].to_numpy())
        if (np.abs(out[o].to_numpy(np.float64) - approx) > 2.0 ** 62).any():
            raise OverflowError(f"sum {o!r} of {c!r} is outside int64")


def partial_aggregate(ds: rd.Dataset, keys: Sequence[str],
                      aggs: Dict[str, Tuple[str, str]]) -> rd.Dataset:
    """groupby with a per-batch combiner (SURVEY.md §2.5 G4): aggregate
    inside map_batches first — one row per key per batch — then shuffle
    only the partials. ``aggs``: out_col -> (op, in_col) with op in
    sum/count/min/max. count(in_col=None) counts rows. A null key is one
    more group, as in SQL GROUP BY. The empty key ``[]`` is one group,
    an aggregate without GROUP BY: one row, or no row on an empty input,
    reduced in one exchange slot. An integer sum that leaves int64
    raises OverflowError (in the combine or in the merge), where it
    would otherwise wrap; DuckDB widens such a sum to int128.

    Two scale decisions here:
    - the all-to-all moves |keys| × |blocks| partial rows, not every
      input row;
    - the exchange is keyed on ``keys`` and the final combine is one
      vectorized pandas groupby per slot. (Ray's native
      groupby().aggregate() pays per-key overhead in the reduce — ~60x
      slower at 10^5+ distinct keys in ray 2.49; measured in BASELINE.md.)
    """
    keys = list(keys)

    merge_ops = {out: (out, "sum" if op == "count" else op)
                 for out, (op, _c) in aggs.items()}
    sums = {out: col for out, (op, col) in aggs.items() if op == "sum"}

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # a count is the size of its group, read off any column
        rows = (keys or list(df.columns))[0]
        out = _groups(df, keys).agg(**{
            o: (rows, "size") if op == "count" else (c, op)
            for o, (op, c) in aggs.items()}).reset_index(drop=True)
        _check_int_sums(df, keys, sums, out)
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = _groups(df, keys).agg(**merge_ops).reset_index(drop=True)
        _check_int_sums(df, keys, {o: o for o in sums}, out)
        return out

    return exchange(ds, keys, merge, pre=combine)


def grouped_topk(ds: rd.Dataset, group_cols: Sequence[str],
                 order_cols: Sequence[str], k: int,
                 ascending: "bool | Sequence[bool]" = False) -> rd.Dataset:
    """Top-k rows per group WITHOUT a global sort (the per-group quota
    shape of training-data curation: "keep the N best docs per
    language"). Two bounded stages:

    1. every input block emits its own per-group top-k — a block
       contributes ≤ groups_in_block × k rows, so the shuffle moves
       candidates, never the corpus;
    2. candidates exchange on the group key and each slot takes the
       final per-group top-k (≤ blocks × k rows per group reach one
       task — bounded by the block count, not the group's size, which
       is what makes a skewed hot group safe).

    Adds ``rk`` (1-based rank within the group); a null group key is one
    more group, and the empty ``group_cols`` ``[]`` is one group, a
    global top-k (``ORDER BY … LIMIT k``) reduced in one exchange slot.
    ``order_cols`` should
    end in a unique column so ranks are deterministic under any block
    layout."""
    group_cols, order_cols = list(group_cols), list(order_cols)
    asc = ([ascending] * len(order_cols) if isinstance(ascending, bool)
           else list(ascending))
    sort_cols = group_cols + order_cols
    sort_asc = [True] * len(group_cols) + asc

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return _groups(df.sort_values(sort_cols, ascending=sort_asc),
                       group_cols).head(k)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(sort_cols, ascending=sort_asc, ignore_index=True)
        df["rk"] = (_groups(df, group_cols).cumcount() + 1).astype("int64")
        return df[df["rk"] <= k]

    return exchange(ds, group_cols, final, pre=partial)


# ---------------------------------------------------------------- joins


def hash_join(left: rd.Dataset, right: rd.Dataset, left_on: str, right_on: str,
              how: str = "inner",
              left_cols: Optional[Sequence[str]] = None,
              right_cols: Optional[Sequence[str]] = None,
              left_dedup_cols: Optional[Sequence[str]] = None,
              bucket_fn=None) -> rd.Dataset:
    """Partitioned hash join for two large sides: one two-input
    ``exchange`` on the join key, each side through its own projection
    step, and each slot's two sides merged locally. (SCALE.md §joins
    'both sides large' pattern.) The join runs its inputs when called
    and returns a materialized Dataset with at most one block per
    reducer slot. A right column whose name the left side also has comes
    back with the suffix ``_r``.

    ``how``: a pandas merge mode (inner/left/right/outer), or ``semi`` /
    ``anti``: the left rows whose key is (``semi``) or is not (``anti``)
    among the slot's right keys, left columns only. Those are SQL
    ``EXISTS`` / ``NOT EXISTS``; the right side is projected to its key,
    and a duplicate right key multiplies nothing. A null key matches
    nothing, on either side: an inner join drops it, a left join keeps
    its row unmatched, ``anti`` keeps it. (SQL ``NOT IN`` keeps no row
    once the key side holds a null, so it agrees with ``anti`` only on
    null-free keys.) A key that is int64 on one side and float on the
    other (an integer column with a null) meets its match: the exchange
    buckets whole floats by value.

    Skew: a hot key maps every one of its rows to ONE slot, however
    many slots the exchange opens (SCALE.md §joins).

    Pass ``left_cols``/``right_cols`` when the input is a lazy pipeline:
    ``Dataset.schema()`` EXECUTES the upstream plan to infer names (an
    all-to-all upstream can't early-stop at limit 1), so chained joins
    without the hints run their inputs once per probe.

    ``left_dedup_cols``: drop duplicate left rows on these columns
    INSIDE the join slot — a free global dedup when the dedup key set
    includes the join key (all copies land in one slot), saving the
    separate aggregate shuffle a pre-join dedup would cost.

    ``bucket_fn``: optional post-merge transform applied to each joined
    slot INSIDE the join task (fusion hook): map/partial-aggregate the
    joined rows before they ever leave the slot, saving a full pass
    (and shuffle volume) over the join output. Receives and returns a
    pandas DataFrame."""
    filtering = how in ("semi", "anti")
    if left_dedup_cols:
        assert left_on in left_dedup_cols, \
            "in-slot dedup is only global when the join key is part of it"
    dedup_cols = list(left_dedup_cols) if left_dedup_cols else None

    l_cols = list(left_cols) if left_cols is not None else list(left.schema().names)
    if filtering:
        r_cols = [right_on]
    elif right_cols is not None:
        r_cols = list(right_cols)
    else:
        r_cols = list(right.schema().names)
    # rename right side: key → left key name, collisions → "_r"
    r_rename = {right_on: left_on}
    for c in r_cols:
        if c != right_on and c in l_cols:
            r_rename[c] = c + "_r"
    r_keep = [r_rename.get(c, c) for c in r_cols]
    r_keep = [c for c in r_keep if c == left_on or c not in l_cols]

    def join_slot(lhs: pd.DataFrame, rhs: pd.DataFrame) -> pd.DataFrame:
        # reindex: a side with no rows in the slot may arrive column-less
        lhs = lhs.reindex(columns=l_cols)
        if dedup_cols:
            lhs = lhs.drop_duplicates(dedup_cols)
        rhs = rhs.reindex(columns=r_keep)
        rhs = rhs[rhs[left_on].notna()]
        if filtering:
            hit = lhs[left_on].isin(rhs[left_on]).to_numpy()
            merged = lhs[hit if how == "semi" else ~hit]
        else:
            merged = lhs.merge(rhs, on=left_on, how=how)
        return bucket_fn(merged) if bucket_fn is not None else merged

    return exchange((left, right), left_on, join_slot,
                    pre=(lambda df: df[l_cols],
                         lambda df: df.rename(columns=r_rename)[r_keep]))


def semi_anti_filter_scalable(ds: rd.Dataset, key: str, keys: rd.Dataset,
                              key_col: Optional[str] = None,
                              anti: bool = False,
                              cols: Optional[Sequence[str]] = None) -> rd.Dataset:
    """The rows of ``ds`` whose ``key`` is (semi) or is not (``anti``)
    among ``keys[key_col]`` (``key_col`` defaults to ``key``): SQL
    ``EXISTS`` / ``NOT EXISTS``, so a null key matches nothing and anti
    keeps its row. One ``hash_join(how="semi" | "anti")``; the key side
    may hold duplicates and be of any size. ``cols`` names ``ds``'s
    columns, so a lazy transformed input is not partially executed by a
    schema probe (``hash_join``'s ``left_cols``)."""
    return hash_join(ds, keys, key, key_col or key,
                     how="anti" if anti else "semi", left_cols=cols)


def global_value_rank(ds: rd.Dataset, value_col: str, id_col: str,
                      descending: bool = True,
                      num_bins: int = 1024) -> rd.Dataset:
    """EXACT global ORDER-BY ranking over an INTEGER value column with
    NO global sort — the distributed ORDER BY operator (classic
    range-partition sort with an exact histogram partitioner):

    1. bounds pass: global (min, max) of the value — one partial row
       per block through the empty-key aggregate;
    2. histogram pass: per-bin counts (bin = (v - min) // width) via
       the partial aggregate — ≤ num_bins rows reach the
       driver, prefix-summed into per-bin rank offsets in rank order;
    3. placement pass: rows exchange on their BIN only (each bin's rows
       meet in one task — ~n/num_bins rows for non-degenerate
       distributions), sort locally by (value, id) and add the bin's
       offset. At 100 TB pick num_bins ≥ cluster task slots and
       re-split a degenerate bin by id range; a single-value bin is
       still CORRECT here (one task sorts it), just unbalanced.

    Ties are impossible across bins (bins partition the value space);
    within a bin (value, id) is a total order, so the result equals
    ``row_number() OVER (ORDER BY v [DESC], id)`` exactly — all-integer
    and block-layout independent. The input is consumed three times, so
    the narrow (id, value) projection is materialized once (the
    bm25/per_doc trade). Returns a materialized Dataset of (id_col,
    value_col, rank): the placement ``exchange`` runs when called. An
    empty input returns its empty (id_col, value_col) projection, which
    has no rank column."""
    proj = ds.map_batches(lambda df: df[[id_col, value_col]],
                          batch_format="pandas").materialize()

    bounds = partial_aggregate(
        proj, [], {"mn": ("min", value_col), "mx": ("max", value_col)}
    ).to_pandas()
    if not len(bounds):
        return proj
    mn, mx = int(bounds["mn"][0]), int(bounds["mx"][0])
    width = max(1, (mx - mn) // num_bins + 1)

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.int64)
        return df.assign(__bin=((v - mn) // width).astype(np.int64))

    hist = partial_aggregate(
        proj.map_batches(binned, batch_format="pandas"),
        ["__bin"], {"n": ("count", None)}).to_pandas()
    hist = hist.sort_values("__bin", ascending=not descending,
                            ignore_index=True)
    offs = dict(zip(hist["__bin"].astype(int),
                    np.concatenate([[0], np.cumsum(
                        hist["n"].to_numpy(dtype=np.int64))[:-1]])))

    def rank_bin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([value_col, id_col],
                            ascending=[not descending, True],
                            ignore_index=True)
        df["rank"] = (np.arange(1, len(df) + 1, dtype=np.int64)
                      + int(offs[int(df["__bin"].iloc[0])]))
        return df[[id_col, value_col, "rank"]]

    return exchange(proj, "__bin", per_key("__bin", rank_bin), pre=binned)


def ntile_from_rank(rank: np.ndarray, n: int, tiles: int) -> np.ndarray:
    """SQL NTILE(tiles) bucket for 1-based global ranks over n rows:
    the first n % tiles buckets hold ceil(n/tiles) rows, the rest
    floor(n/tiles) — exactly the ANSI semantics (unit-tested against
    DuckDB's ntile for ragged n). Pure arithmetic, no data movement."""
    q, r = divmod(n, tiles)
    p = np.asarray(rank, dtype=np.int64) - 1
    cut = (q + 1) * r
    return (np.where(p < cut, p // max(q + 1, 1),
                     r + (p - cut) // max(q, 1)) + 1).astype(np.int64)


def _rank_value(ds: rd.Dataset, value_col: str, target_rank,
                bin_width: int) -> tuple:
    """EXACT value at ascending rank ``target_rank(n)`` (1-based,
    duplicates counted) of an integer column, plus the row count n, in
    two bounded distributed passes with NO global sort:

    1. histogram pass: aggregated counts of value // bin_width — the
       driver sees only the bin table (≤ value-range / bin_width rows,
       independent of row count), whose total IS n;
    2. exact pass: per-value counts INSIDE the single rank-holding bin
       — ≤ bin_width distinct values cross the wire.

    Raises ValueError when the rank is outside [1, n]."""

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.int64)
        return pd.DataFrame({"bin": v // bin_width})

    hist = partial_aggregate(ds.map_batches(binned, batch_format="pandas"),
                             ["bin"], {"cnt": ("count", None)}).to_pandas()
    # an empty input's aggregate comes back columnless
    n = int(hist["cnt"].sum()) if len(hist) else 0
    k = target_rank(n)
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} is outside [1, {n}] for {value_col!r}")
    hist = hist.sort_values("bin", ignore_index=True)
    cum = hist["cnt"].cumsum().to_numpy()
    i = int(np.searchsorted(cum, k))
    b = int(hist["bin"][i])
    below = int(cum[i - 1]) if i else 0

    def in_bin(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype=np.int64)
        return pd.DataFrame({"v": v[v // bin_width == b]})

    vals = (partial_aggregate(ds.map_batches(in_bin, batch_format="pandas"),
                              ["v"], {"cnt": ("count", None)})
            .to_pandas().sort_values("v", ignore_index=True))
    j = int(np.searchsorted(vals["cnt"].cumsum().to_numpy(), k - below))
    return int(vals["v"][j]), n


def exact_order_statistic(ds: rd.Dataset, value_col: str, k: int,
                          bin_width: int = 64) -> int:
    """EXACT k-th smallest (1-based) value of an integer column in the
    two bounded passes of ``_rank_value`` — the single-group
    generalization of the grouped-median shape
    (queries.median_value_by_type), used for quantile-threshold
    selection (perplexity filtering: "keep every doc scoring at or below
    the p-quantile") with NO global sort. Raises ValueError when k is
    outside [1, row count]."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank_value(ds, value_col, lambda n: k, bin_width)[0]


def _grouped_rank_value(ds: rd.Dataset, group_col: str, value_col: str,
                        target_rank, bin_width: int) -> dict:
    """EXACT per-group value at ascending rank ``target_rank(n_g)``
    (1-based, duplicates counted) of an integer column, in two bounded
    passes — the grouped generalization of exact_order_statistic:

    1. grouped histogram: (group, value // bin_width) counts — the
       driver sees #groups × bins rows, independent of row count;
    2. exact pass inside each group's single rank-holding bin (the
       filter's closure holds the per-group bin map): (group, value)
       counts for ≤ bin_width values per group cross the wire.

    Group count must be driver-small; per-group row counts are unbounded
    and never materialize anywhere. Returns {group: value}."""

    def binned(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "g": df[group_col].to_numpy(),
            "bin": df[value_col].to_numpy(dtype=np.int64) // bin_width})

    hist = (partial_aggregate(ds.map_batches(binned, batch_format="pandas"),
                              ["g", "bin"], {"cnt": ("count", None)})
            .to_pandas().sort_values(["g", "bin"], ignore_index=True))

    rank_bin, residual = {}, {}
    for g, sub in hist.groupby("g", sort=False):
        cum = sub["cnt"].cumsum().to_numpy()
        r = target_rank(int(cum[-1]))
        i = int(np.searchsorted(cum, r))
        rank_bin[g] = int(sub["bin"].iloc[i])
        residual[g] = r - (int(cum[i - 1]) if i else 0)

    def in_bin(df: pd.DataFrame) -> pd.DataFrame:
        g = df[group_col].to_numpy()
        v = df[value_col].to_numpy(dtype=np.int64)
        # a group with no bin matches no value's bin
        want = np.fromiter((rank_bin.get(x, -(1 << 62)) for x in g),
                           dtype=np.int64, count=len(g))
        m = v // bin_width == want
        return pd.DataFrame({"g": g[m], "v": v[m]})

    vals = (partial_aggregate(ds.map_batches(in_bin, batch_format="pandas"),
                              ["g", "v"], {"cnt": ("count", None)})
            .to_pandas().sort_values(["g", "v"], ignore_index=True))
    out = {}
    for g, sub in vals.groupby("g", sort=False):
        j = int(np.searchsorted(sub["cnt"].cumsum().to_numpy(), residual[g]))
        out[g] = int(sub["v"].iloc[j])
    return out


def grouped_quantile_thresholds(ds: rd.Dataset, group_col: str,
                                value_col: str, q_num: int, q_den: int,
                                bin_width: int = 64) -> dict:
    """EXACT per-group q-quantile value (the value at ascending rank
    ceil(q * n_g) within each group) of an integer column, in the two
    bounded passes of ``_grouped_rank_value``. The per-group QUANTILE
    table is the output (languages, sources, event types). Returns
    {group: threshold}."""
    return _grouped_rank_value(
        ds, group_col, value_col,
        lambda n: max((n * q_num + q_den - 1) // q_den, 1),  # ceil(q * n)
        bin_width)


def grouped_percentile_filter(ds: rd.Dataset, group_col: str,
                              value_col: str, q_num: int, q_den: int,
                              bin_width: int = 64,
                              keep: str = "ge") -> rd.Dataset:
    """Keep each group's rows at or above (``keep='ge'``; ``'le'`` for
    at-or-below) the group's exact q-quantile value — the per-language
    quality-cutoff shape of corpus curation ("drop the shortest quartile
    of every language", CCNet-style perplexity tails), with no global
    sort and nothing group-sized on any worker. One streaming filter
    pass after the two bounded threshold passes above."""
    thr = grouped_quantile_thresholds(ds, group_col, value_col, q_num,
                                      q_den, bin_width)

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        g = df[group_col].to_numpy()
        v = df[value_col].to_numpy(dtype=np.int64)
        cut = np.fromiter((thr[x] for x in g), dtype=np.int64, count=len(g))
        m = v >= cut if keep == "ge" else v <= cut
        return df[m]

    return ds.map_batches(flt, batch_format="pandas")


def grouped_kth_from_top(ds: rd.Dataset, group_col: str, value_col: str,
                         k: int, bin_width: int = 64) -> dict:
    """EXACT per-group k-th LARGEST value (duplicates counted; groups
    with fewer than k rows yield their minimum) of an integer column —
    the threshold that makes RANK()-with-ties top-k a streaming filter:
    rank(x) <= k  ⟺  x >= (k-th largest value of the group), so one
    broadcast {group: threshold} map turns "top k with ties per group"
    into a map_batches filter with NO per-group sort and nothing
    group-sized on any worker. Same two bounded passes as
    grouped_quantile_thresholds, at ascending rank max(n_g - k + 1, 1)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _grouped_rank_value(ds, group_col, value_col,
                               lambda n: max(n - k + 1, 1),
                               bin_width)


def exact_median(ds: rd.Dataset, value_col: str,
                 bin_width: int = 64) -> tuple:
    """EXACT lower median (k = (n+1)//2, the mad_outliers / grouped-
    median rule) of an integer column, plus the row count, in the SAME
    two bounded passes as exact_order_statistic — without a separate
    count() pass, because the histogram's total IS n. Returns
    (median, n); raises ValueError on an empty column."""
    return _rank_value(ds, value_col, lambda n: (n + 1) // 2, bin_width)
