"""Hybrid hash join.

Two modes, decided by the optimizer's batch estimate (annotated on the
plan node):

* ``num_batches == 1``: classic in-memory hash join.  The build pipeline
  forms its own segment (ending at the hash-table build); the probe is
  fully pipelined into the parent segment.  The hash table's bytes are
  charged to the probe segment as an input when probing starts — the
  paper's double-counting convention for intermediates that stay in
  memory (Section 4.5).
* ``num_batches > 1``: Grace-style partitioned join.  Both inputs are
  hash-partitioned to temp files (each partitioning pass ends a segment,
  like S1/S2 in the paper's Figure 3), then batches are joined one by one
  inside a dedicated join segment whose inputs are the partition files
  (Figure 3's S3, with the probe partitions PB as the dominant input).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional

from repro.errors import ExecutionError
from repro.executor.base import PULSE, ExecContext, Operator, build_operator
from repro.executor.rowops import combiner, concat_layout, layout_of, row_width_fn
from repro.expr.compiler import compile_predicate
from repro.planner.physical import HashJoinNode, PlanColumn
from repro.sim.load import CPU
from repro.storage.heap import HeapFile
from repro.storage.schema import Column, Schema


def _key_fn(columns: list[PlanColumn], keys: list[tuple[int, int]]):
    slots = [layout_of(columns)[k] for k in keys]
    if len(slots) == 1:
        slot = slots[0]
        return lambda row: row[slot]
    return lambda row: tuple(row[i] for i in slots)


def _stable_hash(value) -> int:
    """``PYTHONHASHSEED``-independent hash for partition routing.

    The builtin ``hash()`` salts ``str`` per process, so partition
    contents — and with them spill sizes, I/O counts, and the progress
    curves derived from both — would differ between otherwise identical
    runs (REPRO110 salted-hash).  Integers map to themselves, which for
    the workload's small positive keys reproduces ``hash(int)`` exactly.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, float):
        return zlib.crc32(struct.pack(">d", value))
    if isinstance(value, tuple):
        acc = 0x811C9DC5
        for item in value:
            acc = ((acc * 0x01000193) ^ (_stable_hash(item) & 0xFFFFFFFF))
            acc &= 0xFFFFFFFF
        return acc
    if value is None:
        return 0
    return zlib.crc32(repr(value).encode("utf-8"))


def _spill_schema(columns: list[PlanColumn]) -> Schema:
    """A throwaway schema for spilling intermediate rows to temp files."""
    return Schema(
        Column(f"c{i}_{col.name.replace('.', '_')}", col.type)
        for i, col in enumerate(columns)
    )


class HashJoinOp(Operator):
    def __init__(self, node: HashJoinNode, ctx: ExecContext):
        super().__init__(node, ctx)
        self._build_child = build_operator(node.build, ctx)
        self._probe_child = build_operator(node.probe, ctx)
        self._build_key = _key_fn(node.build.columns, node.build_keys)
        self._probe_key = _key_fn(node.probe.columns, node.probe_keys)
        self._combine = combiner(node.build.columns, node.probe.columns, node.columns)
        self._build_width = row_width_fn(node.build.columns)
        self._probe_width = row_width_fn(node.probe.columns)
        if node.extra_filters:
            layout = concat_layout(node.build.columns, node.probe.columns)
            self._extra = [compile_predicate(f, layout) for f in node.extra_filters]
        else:
            self._extra = []
        self._temp_files: list[HeapFile] = []
        #: Set when an in-memory build exceeded work_mem (diagnostics).
        self.overflowed = False

    # ------------------------------------------------------------------

    def rows(self) -> Iterator[tuple]:
        if self.node.num_batches == 1:
            yield from self._run_in_memory()
        else:
            yield from self._run_partitioned()

    def close(self) -> None:
        self._build_child.close()
        self._probe_child.close()
        for f in self._temp_files:
            f.drop()
        self._temp_files.clear()

    # ------------------------------------------------------------------
    # in-memory mode

    def _run_in_memory(self) -> Iterator[tuple]:
        node = self.node
        ctx = self.ctx
        cost = ctx.ticks
        tracker = ctx.tracker
        build_segment = getattr(node, "pi_build_segment", None)
        hash_input_ref = getattr(node, "pi_hash_input_ref", None)

        table: dict = {}
        build_key = self._build_key
        build_width = self._build_width
        total_rows = 0
        total_bytes = 0
        for row in self._build_child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(cost.cpu_hash, CPU)
            width = build_width(row)
            total_rows += 1
            total_bytes += width
            if tracker is not None and build_segment is not None:
                tracker.output_rows(build_segment, 1, width)
            key = build_key(row)
            if key is None:
                continue  # NULL keys never join
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
        if total_bytes > ctx.work_mem_bytes:
            self.overflowed = True
        if tracker is not None and build_segment is not None:
            tracker.segment_finished(build_segment)

        # The probe segment "handles" the hash table once as it starts.
        if tracker is not None and hash_input_ref is not None:
            tracker.input_rows(
                hash_input_ref[0], hash_input_ref[1], total_rows, total_bytes
            )

        probe_key = self._probe_key
        combine = self._combine
        extra = self._extra
        per_probe = cost.cpu_hash
        per_match = cost.cpu_tuple + len(extra) * cost.cpu_operator
        for probe_row in self._probe_child.rows():
            if probe_row is PULSE:
                yield probe_row
                continue
            ctx.clock.advance(per_probe, CPU)
            key = probe_key(probe_row)
            if key is None:
                continue
            bucket = table.get(key)
            if bucket is None:
                continue
            ctx.clock.advance(per_match * len(bucket), CPU)
            if extra:
                for build_row in bucket:
                    merged = build_row + probe_row
                    if all(p(merged) for p in extra):
                        yield combine(build_row, probe_row)
            else:
                for build_row in bucket:
                    yield combine(build_row, probe_row)

    # ------------------------------------------------------------------
    # partitioned (Grace) mode

    def _run_partitioned(self) -> Iterator[tuple]:
        node = self.node
        ctx = self.ctx
        tracker = ctx.tracker
        nbatches = node.num_batches

        build_parts = yield from self._partition(
            self._build_child,
            node.build.columns,
            self._build_key,
            self._build_width,
            nbatches,
            segment=getattr(node, "pi_build_segment", None),
            name=f"hj_build_{id(node)}",
        )
        probe_parts = yield from self._partition(
            self._probe_child,
            node.probe.columns,
            self._probe_key,
            self._probe_width,
            nbatches,
            segment=getattr(node, "pi_probe_segment", None),
            name=f"hj_probe_{id(node)}",
        )

        join_segment = getattr(node, "pi_join_segment", None)
        pa_ref = getattr(node, "pi_pa_input_ref", None)
        pb_ref = getattr(node, "pi_pb_input_ref", None)
        cost = ctx.ticks
        build_key = self._build_key
        probe_key = self._probe_key
        combine = self._combine
        extra = self._extra
        per_match = cost.cpu_tuple + len(extra) * cost.cpu_operator

        for b in range(nbatches):
            table: dict = {}
            for row in self._read_partition(build_parts[b], join_segment, pa_ref):
                if row is PULSE:
                    yield row
                    continue
                ctx.clock.advance(cost.cpu_hash, CPU)
                key = build_key(row)
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
            for probe_row in self._read_partition(probe_parts[b], join_segment, pb_ref):
                if probe_row is PULSE:
                    yield probe_row
                    continue
                ctx.clock.advance(cost.cpu_hash, CPU)
                key = probe_key(probe_row)
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    continue
                ctx.clock.advance(per_match * len(bucket), CPU)
                if extra:
                    for build_row in bucket:
                        merged = build_row + probe_row
                        if all(p(merged) for p in extra):
                            yield combine(build_row, probe_row)
                else:
                    for build_row in bucket:
                        yield combine(build_row, probe_row)

    def _partition(
        self,
        child: Operator,
        columns: list[PlanColumn],
        key_fn,
        width_fn,
        nbatches: int,
        segment: Optional[int],
        name: str,
    ) -> Iterator[tuple]:
        """Drain ``child`` into ``nbatches`` temp partitions (one write pass).

        A ``yield from``-able phase: yields only PULSE markers while
        draining, *returns* the partition files.
        """
        ctx = self.ctx
        cost = ctx.ticks
        tracker = ctx.tracker
        schema = _spill_schema(columns)
        parts = [
            HeapFile(f"{name}_p{b}", schema, ctx.disk, ctx.config.page_size, temp=True)
            for b in range(nbatches)
        ]
        self._temp_files.extend(parts)
        for row in child.rows():
            if row is PULSE:
                yield row
                continue
            ctx.clock.advance(cost.cpu_hash, CPU)
            key = key_fn(row)
            batch = _stable_hash(key) % nbatches if key is not None else 0
            parts[batch].append(row)
            if tracker is not None and segment is not None:
                tracker.output_rows(segment, 1, width_fn(row))
        for part in parts:
            part.flush()
        if tracker is not None and segment is not None:
            tracker.segment_finished(segment)
        return parts

    def _read_partition(
        self, part: HeapFile, segment: Optional[int], ref: Optional[tuple[int, int]]
    ) -> Iterator[tuple]:
        """Stream a spilled partition back, charging I/O and input counts."""
        ctx = self.ctx
        tracker = ctx.tracker
        cpu_tuple = ctx.ticks.cpu_tuple
        for page_no in range(part.handle.num_pages):
            page = ctx.disk.read_page(part.handle, page_no, sequential=True)
            n = len(page.rows)
            if n:
                ctx.clock.advance(cpu_tuple * n, CPU)
            if tracker is not None and ref is not None:
                tracker.input_rows(ref[0], ref[1], n, page.bytes_used)
            yield from page.rows
            yield PULSE

    # guard: the factory should never hand us something else
    def _unreachable(self):
        raise ExecutionError("invalid hash join state")
