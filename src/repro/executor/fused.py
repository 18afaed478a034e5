"""The fused batch-at-a-time engine: one compiled loop nest per query.

The volcano engine (the ``"row"`` engine) moves one tuple per Python-level
``next()``/``yield`` hop through a chain of generator operators.  That hop
is the dominant *real-time* cost of every query — while the *virtual-time*
cost model (clock charges, tracker bytes, PULSE scheduling points) is
completely independent of how tuples are transported.  This module
exploits that: it compiles a physical plan into a single Python generator
whose loop nest runs every pipelined stage's per-row work in one frame,
and hands rows to the driver in :class:`~repro.executor.batch.Batch`
containers instead of one at a time.

Bit-identity contract
---------------------
The fused program must be observationally identical to the volcano
engine — same result rows in the same order, the same ProgressLog, the
same clock and tracker state at every clock event and at the end.
Costs, clock instants and tracker bytes are exact integers
(:mod:`repro.sim.units`), so the contract does not need the row engine's
charge order, only its sums at the points where anyone can look:

* the generator keeps the clock's CPU budget (ticks left before the next
  clock event, ``VirtualClock.budget``) in the local ``_left``; a charge
  site costs one local decrement and compare, and the charge that uses
  the budget up commits everything, which fires the event, at exactly
  the row where the row engine's ``advance`` would;
* pending tracker counts live in locals too: a sequential scan's input
  rows and byte shares follow from the loop index and are worked out
  only when committed; other input and output widths accumulate; a join
  output's width is summed from its inputs' widths (nested-loop outer
  and inner rows, hash-join probe rows), each computed once per input
  row;
* ``_wb()`` writes back (tracker counts first, then the pending ticks as
  one ``clock.advance``) before every yield, every storage call that can
  charge, every tracker or helper call and every event, and the budget
  is reloaded (``_RELOAD``) after each of them;
* every storage call keeps its exact order, because fault injection
  draws one RNG value per charged I/O;
* only *silent* computation (predicate evaluation, tuple construction,
  width arithmetic, SQL function calls) is restructured into
  straight-line code.

``PULSE`` placement is likewise preserved: the generated code yields
:data:`~repro.executor.base.PULSE` at exactly the volcano engine's
boundaries, flushing any pending output batch first (flushing is
clock-silent, so batch size never affects results — it only trades
Python-level hops against latency of row delivery to the driver).

Merge join is the one operator the compiler does not fuse: it is a
pull-based two-cursor streamer whose volcano implementation is already
dominated by its children; the compiler embeds the volcano operator as a
row source and fuses everything above it.
"""

from __future__ import annotations

import heapq
import re
from typing import Callable, Iterator, List, Optional

from repro.errors import ExecutionError
from repro.executor.base import PULSE, ExecContext
from repro.executor.batch import Batch
from repro.executor.hash_join import _spill_schema, _stable_hash
from repro.executor.rowops import layout_of
from repro.executor.scans import _projector, _scan_layout
from repro.executor.sort import _CPU_CHUNK, make_sort_key
from repro.expr.bound import (
    AggregateExpr,
    ArithmeticExpr,
    ColumnExpr,
    ComparisonExpr,
    FunctionExpr,
    LiteralExpr,
    LogicalExpr,
    NegativeExpr,
    NotExpr,
)
from repro.expr.compiler import compile_expr, compile_predicate
from repro.planner.physical import (
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    MergeJoinNode,
    NestLoopNode,
    PhysicalNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)
from repro.sim.load import CPU, IO
from repro.sim.units import share_prefix
from repro.storage.heap import HeapFile
from repro.storage.schema import TUPLE_HEADER_BYTES, Column, Schema
from repro.storage.types import StringType

#: Pulse cadence of sort stream/merge phases (mirrors repro.executor.sort).
_MERGE_PULSE_ROWS = 256

#: Comparison / arithmetic operator spellings for fused expression source.
_CMP_SRC = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_SRC = {"+": "+", "-": "-", "*": "*", "/": "/"}
#: Literal types whose ``repr`` round-trips exactly in generated source.
_SAFE_LITERALS = (int, float, str, bool, type(None))


#: Reloads the generated program's CPU budget from the clock.
_RELOAD = "_left = _lb = _budget()"

#: A placeholder emitted by ``_Compiler._tok``.
_TOKEN = re.compile("\x01[0-9]+\x01")


def _committer(report: Callable) -> Callable:
    """``report(*counts)``, returning 0 so generated code can reset its
    pending sums in the same statement."""

    def commit(*args) -> int:
        report(*args)
        return 0

    return commit


def _scan_committer(input_rows: Callable) -> Callable:
    """Report rows ``[done, k)`` of a scanned page with their byte shares;
    returns ``k``, the new count of reported rows."""

    def commit(seg: int, idx: int, page, done: int, k: int) -> int:
        n = len(page.rows)
        total = page.bytes_used
        input_rows(
            seg, idx, k - done, share_prefix(total, n, k) - share_prefix(total, n, done)
        )
        return k

    return commit


def _starter(tracker) -> Callable:
    """Start a segment unless it has started; returns True (the emission
    site's "checked" flag)."""

    def start(seg) -> bool:
        if not seg.started:
            tracker._start(seg)
        return True

    return start


def _reads(source: str, name: str) -> int:
    """Occurrences of identifier ``name`` in generated ``source``."""
    count = 0
    at = source.find(name)
    while at >= 0:
        end = at + len(name)
        if not (source[at - 1].isalnum() or source[at - 1] == "_") and not (
            source[end].isalnum() or source[end] == "_"
        ):
            count += 1
        at = source.find(name, end)
    return count


def _nonnull_literal(expr) -> bool:
    """True when ``expr`` is a literal that can never evaluate to NULL."""
    return isinstance(expr, LiteralExpr) and expr.value is not None


class _StopPipeline(Exception):
    """Raised by a fused LIMIT stage to unwind its source loops.

    The volcano LimitOp simply stops pulling its child; in fused code the
    source loops are *below* the limit stage in the same frame, so the
    stage raises instead.  ``try/finally`` blocks on the unwind path
    release pins exactly as generator finalization does for the volcano
    engine (both are clock-silent).
    """


def _lit(value) -> str:
    """A source literal that round-trips ``value`` exactly (repr)."""
    return repr(value)


def _tuple_display(parts: List[str]) -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


class _FusedSort:
    """Run-time state of one fused sort: spill runs and their helpers.

    The generator methods replicate ``repro.executor.sort.SortOp``'s
    private phases verbatim (same charges, same PULSE cadence, same temp
    file handling); the fused absorb/stream loops live in generated code
    and call into these only for the cold spill paths.
    """

    def __init__(self, node: SortNode, ctx: ExecContext):
        self.node = node
        self.ctx = ctx
        self.key = make_sort_key(node)
        self.segment = getattr(node, "pi_sort_segment", None)
        self.merge_ref = getattr(node, "pi_merge_input_ref", None)
        self.runs: List[HeapFile] = []

    def sort_buffer(self, buffer: list) -> Iterator[tuple]:
        n = len(buffer)
        if n <= 1:
            return
        comparisons = n * max(1, n.bit_length() - 1)
        cost = self.ctx.ticks.cpu_compare
        remaining = comparisons
        while remaining > 0:
            step = min(remaining, _CPU_CHUNK)
            self.ctx.clock.advance(step * cost, CPU)
            remaining -= step
            yield PULSE
        buffer.sort(key=self.key)

    def spill(self, buffer: list) -> Iterator[tuple]:
        yield from self.sort_buffer(buffer)
        ctx = self.ctx
        schema = Schema(
            Column(f"s{i}_{c.name.replace('.', '_')}", c.type)
            for i, c in enumerate(self.node.columns)
        )
        run = HeapFile(
            f"sortrun_{id(self)}_{len(self.runs)}",
            schema,
            ctx.disk,
            ctx.config.page_size,
            temp=True,
        )
        run.extend(buffer)
        run.flush()
        self.runs.append(run)

    def collapse(self) -> Iterator[tuple]:
        ctx = self.ctx
        segment = self.segment
        fanout = max(2, ctx.config.work_mem_pages)
        while len(self.runs) > fanout:
            group = self.runs[:fanout]
            merged_rows = list(
                heapq.merge(*(run.iter_rows() for run in group), key=self.key)
            )
            nbytes = sum(run.total_bytes for run in group)
            npages = sum(run.handle.num_pages for run in group)
            cost = ctx.ticks
            ctx.clock.advance(npages * (cost.seq_page_read + cost.page_write), IO)
            if ctx.tracker is not None and segment is not None:
                ctx.tracker.extra_pass(segment, 2 * nbytes)
            schema = group[0].schema
            merged = HeapFile(
                f"sortrun_{id(self)}_m{len(self.runs)}",
                schema,
                ctx.disk,
                ctx.config.page_size,
                temp=True,
            )
            previous = merged.charge_io
            merged.charge_io = False  # I/O charged in bulk above
            merged.extend(merged_rows)
            merged.flush()
            merged.charge_io = previous
            for run in group:
                run.drop()
            self.runs = self.runs[fanout:] + [merged]
            yield PULSE

    def read_run(
        self, run: HeapFile, writeback: Callable, reload: Callable
    ) -> Iterator[tuple]:
        """Stream one spilled run; each page read is a write-back point
        of the generated program (``writeback`` before, ``reload`` after)."""
        ctx = self.ctx
        tracker = ctx.tracker
        ref = self.merge_ref
        cpu_tuple = ctx.ticks.cpu_tuple
        for page_no in range(run.handle.num_pages):
            writeback()
            page = ctx.disk.read_page(run.handle, page_no, sequential=True)
            n = len(page.rows)
            if n:
                ctx.clock.advance(n * cpu_tuple, CPU)
            if tracker is not None and ref is not None:
                tracker.input_rows(ref[0], ref[1], n, page.bytes_used)
            reload()
            yield from page.rows

    def drop(self) -> None:
        for run in self.runs:
            run.drop()
        self.runs.clear()


def _make_partitions(
    ctx: ExecContext, temps: List[HeapFile], columns, nbatches: int, name: str
) -> List[HeapFile]:
    """Create one temp partition file per batch (registered for cleanup)."""
    schema = _spill_schema(columns)
    parts = [
        HeapFile(f"{name}_p{b}", schema, ctx.disk, ctx.config.page_size, temp=True)
        for b in range(nbatches)
    ]
    temps.extend(parts)
    return parts


class _Compiler:
    """Produce/consume compiler: physical plan -> one generator's source.

    ``_node(node, consume)`` emits the code that produces ``node``'s rows,
    invoking the ``consume`` callback to emit the per-row code of the
    parent stage at every production site.  Sources own the loops;
    pipeline breakers (sort, hash build, aggregation) emit a sink for
    their child followed by a new production phase for their output.
    """

    def __init__(self, ctx: ExecContext, batch_rows: int):
        self.ctx = ctx
        self.cost = ctx.ticks
        self.tracker = ctx.tracker
        self.batch_rows = max(1, batch_rows)
        self.env: dict = {
            "PULSE": PULSE,
            "_B": Batch,
            "_Stop": _StopPipeline,
            "_CPU": CPU,
            "_IO": IO,
            "_ONE": (0,),
            "heapq": heapq,
        }
        self.pre: List[str] = []
        self.body: List[str] = []
        self.depth = 1
        #: Embedded volcano operators (merge join) to close with the query.
        self.ops: list = []
        #: Fused sort states whose spill runs need dropping.
        self.sorts: List[_FusedSort] = []
        #: Temp files the generated code creates (hash partitions).
        self.temps: List[HeapFile] = []
        self._n = 0
        self._seg_names: dict[int, str] = {}
        self._segfin_name: Optional[str] = None
        #: Pending tracker state kept in generator locals, committed by
        #: ``_wb``: scan rows derived from the row index
        #: ``(seg, idx, i, done, page)``, per-row input sums
        #: ``(seg, idx, rows, nbytes)`` and output sums
        #: ``(seg, rows, nbytes)``.
        self._scan_pending: List[tuple] = []
        self._input_pending: dict[tuple[int, int], tuple[str, str]] = {}
        self._output_pending: dict[int, tuple[str, str]] = {}
        #: Width provenance of rows built from other rows' slots: row var
        #: -> per slot ``(base var, base slot)`` (None: computed value).
        self._prov: dict[str, List[Optional[tuple[str, int]]]] = {}
        #: Base rows whose full width can be had once per base row:
        #: base var -> (fixed width, var slots, request() -> width expr).
        self._bases: dict[str, tuple[int, List[int], Callable[[], str]]] = {}
        #: Whether the program needs the budget reload as a function
        #: (``_rl``, handed to spilled-run readers).
        self._reload_fn = False
        #: Source tokens resolved when the program is assembled.
        self._toks: dict[str, str] = {}
        #: Joined-row variables (with their assignment line) whose
        #: assignment is dropped when nothing else reads them (their
        #: consumers read the inputs' slots).
        self._elide: List[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # emission helpers

    def fresh(self, hint: str) -> str:
        self._n += 1
        return f"{hint}{self._n}"

    def local(self, value, hint: str) -> str:
        """Bind ``value`` as a function-local name (hoisted in the preamble)."""
        name = self.fresh(hint)
        self.env[f"_g_{name}"] = value
        self.pre.append(f"{name} = _g_{name}")
        return name

    def line(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def block(self, header: str) -> "_Block":
        self.line(header)
        return _Block(self)

    # cached hot bindings ------------------------------------------------

    def _seg(self, seg_id: int) -> str:
        name = self._seg_names.get(seg_id)
        if name is None:
            name = self._seg_names[seg_id] = self.local(
                self.tracker.segments[seg_id], f"seg{seg_id}_"
            )
        return name

    # clock charges and write-back ---------------------------------------
    #
    # The generated generator keeps the clock's CPU budget in the local
    # ``_left`` (ticks left before the next clock event, from
    # ``VirtualClock.budget``); ``_lb`` is its value at the last
    # write-back, so ``_lb - _left`` ticks are charged but not committed.
    # ``_wb()`` commits pending tracker sums, then the pending charge (one
    # ``clock.advance``); ``_RELOAD`` reloads the budget.  Ticks are
    # integers, so committing a run of charges at once leaves the clock
    # exactly where charging them one by one does.

    def _charge(self, cost) -> None:
        """A CPU charge: count the budget down; the charge that uses it
        up commits everything, which fires the event, and reloads."""
        if isinstance(cost, int):
            if cost == 0:
                return
            if cost < 0:
                # Invalid config: keep the clock's ValueError.
                self._call(f"_adv({cost}, _CPU)")
                return
        self.line(f"if (_left := _left - {cost}) <= 0: _wb(); {_RELOAD}")

    def _call(self, text: str, reload: bool = True) -> None:
        """A call that may touch the clock or tracker: write back before
        it and reload the budget after it."""
        self.line(f"_wb(); {text}; {_RELOAD}" if reload else f"_wb(); {text}")

    def _io(self, cost) -> None:
        """An I/O charge: rare, so it commits through ``clock.advance``."""
        if cost != 0:
            self._call(f"_adv({cost}, _IO)")

    def _tracker_call(self, text: str) -> None:
        """A tracker counter call (never moves the clock)."""
        self._call(text, reload=False)

    def _emit_start(self, seg_id: int) -> None:
        """Start segment ``seg_id`` here if nothing started it yet.

        Checked once per emission site through a local flag; the start
        stamps ``clock.now``, so it writes back first (``_cstart`` starts
        the segment unless something already did).
        """
        flag = self.fresh("st")
        self.pre.append(f"{flag} = False")
        self.line(f"if not {flag}: _wb(); {flag} = _cstart({self._seg(seg_id)})")

    def _emit_pending_row(self, seg_id: int, pending: dict, key, width: str):
        """Count one row of ``width`` bytes into the pending sums ``key``."""
        self._emit_start(seg_id)
        names = pending.get(key)
        if names is None:
            names = pending[key] = (self.fresh("pr"), self.fresh("pb"))
        self.line(f"{names[0]} += 1")
        self.line(f"{names[1]} += {width}")

    def _emit_input_row(self, seg_id: int, idx: int, width: str) -> None:
        """One row read by a segment input (``tracker.input_rows(.., 1, w)``)."""
        self._emit_pending_row(seg_id, self._input_pending, (seg_id, idx), width)

    def _emit_output_row(self, seg_id: int, width: str) -> None:
        """One row produced at a segment's output."""
        self._emit_pending_row(seg_id, self._output_pending, seg_id, width)

    def _emit_segfin(self, seg_id: int) -> None:
        if self._segfin_name is None:
            self._segfin_name = self.local(self.tracker.segment_finished, "segfin")
        self._call(f"{self._segfin_name}({seg_id})")

    def _writeback_source(self) -> List[str]:
        """The ``_wb`` closure and the initial budget load (generated last,
        once every pending-state local is known)."""
        pending = []
        inits = []
        commits = []
        for seg, idx, i, done, pg in self._scan_pending:
            pending += [i, done]
            inits += [f"{i} = -1", f"{done} = 0"]
            commits.append(
                f"if {i} >= {done}: {done} = _cscan({seg}, {idx}, {pg}, {done}, {i} + 1)"
            )
        for (seg, idx), (rows, nbytes) in self._input_pending.items():
            pending += [rows, nbytes]
            inits.append(f"{rows} = {nbytes} = 0")
            commits.append(
                f"if {rows}: {rows} = {nbytes} = _cin({seg}, {idx}, {rows}, {nbytes})"
            )
        for seg, (rows, nbytes) in self._output_pending.items():
            pending += [rows, nbytes]
            inits.append(f"{rows} = {nbytes} = 0")
            commits.append(
                f"if {rows}: {rows} = {nbytes} = _cout({seg}, {rows}, {nbytes})"
            )
        clock = self.ctx.clock
        self.env["_g_adv"] = clock.advance
        self.env["_g_budget"] = clock.budget
        lines = ["_adv = _g_adv", "_budget = _g_budget"]
        if self.tracker is not None:
            tracker = self.tracker
            self.env["_g_trin"] = tracker.input_rows
            self.env["_g_cin"] = _committer(tracker.input_rows)
            self.env["_g_cout"] = _committer(tracker.output_rows)
            self.env["_g_cscan"] = _scan_committer(tracker.input_rows)
            self.env["_g_cstart"] = _starter(tracker)
            lines += ["_trin = _g_trin", "_cin = _g_cin", "_cout = _g_cout",
                      "_cscan = _g_cscan", "_cstart = _g_cstart"]
        lines += inits
        lines += [
            "_left = _lb = 0",
            "def _wb():",
            "    nonlocal " + ", ".join(["_left", "_lb"] + pending),
        ]
        lines += ["    " + c for c in commits]
        lines += [
            "    if _left != _lb:",
            "        _adv(_lb - _left, _CPU)",
            "        _lb = _left",
        ]
        if self._reload_fn:
            lines += [
                "def _rl():",
                "    nonlocal _left, _lb",
                "    " + _RELOAD,
            ]
        lines.append(_RELOAD)
        return lines

    # batch / pulse plumbing ---------------------------------------------

    def _emit_yield(self, item: str) -> None:
        """Yield ``item`` to the driver: write back before, reload after."""
        self._call(f"yield {item}")

    def _emit_flush(self) -> None:
        self._emit_yield("_B(out)")
        self.line("out = []; out_append = out.append; nout = 0")

    def _emit_pulse(self) -> None:
        """Yield PULSE, flushing any pending output batch first."""
        with self.block("if nout:"):
            self._emit_flush()
        self._emit_yield("PULSE")

    def _driver(self, rowvar: str) -> None:
        self.line(f"out_append({rowvar})")
        self.line("nout += 1")
        with self.block(f"if nout >= {self.batch_rows}:"):
            self._emit_flush()

    # width arithmetic ----------------------------------------------------

    @staticmethod
    def _width_parts(types) -> tuple[int, List[int]]:
        """Split a row shape into (fixed width, variable string slots)."""
        fixed = TUPLE_HEADER_BYTES
        var_slots: List[int] = []
        for i, t in enumerate(types):
            if isinstance(t, StringType):
                var_slots.append(i)
            else:
                fixed += t.width(None)
        return fixed, var_slots

    def _emit_width(self, rowvar: str, fixed: int, var_slots: List[int]) -> str:
        """Emit the exact row-width computation; return its value's name.

        A row built from join inputs' slots adds, for each input whose
        every string slot it carries, that input's width computed once
        per input row (``_bases``); only the other string slots are
        measured here.
        """
        if not var_slots:
            return _lit(fixed)
        prov = self._prov.get(rowvar)
        slots: List[tuple[str, int]] = [(rowvar, i) for i in var_slots]
        if prov is not None:
            slots = [prov[i] or (rowvar, i) for i in var_slots]
        const = fixed
        terms = []
        for base, (bfixed, bvars, request) in self._bases.items():
            used = sorted(s for b, s in slots if b == base)
            if used and used == bvars:
                terms.append(request())
                const -= bfixed
                slots = [(b, s) for b, s in slots if b != base]
        w = self.fresh("w")
        self.line(f"{w} = " + " + ".join([_lit(const)] + terms))
        for base, i in slots:
            v = self.fresh("v")
            self.line(f"{v} = {base}[{i}]")
            self.line(f"{w} += 1 if {v} is None else 1 + len({v})")
        return w

    def _width_base(self, rowvar: str, columns) -> None:
        """Offer ``rowvar``'s width to ``_emit_width``, computed here (once
        per ``rowvar`` row) only if some consumer asks for it."""
        fixed, var_slots = self._width_parts([c.type for c in columns])
        if not var_slots:
            return
        w = self.fresh("rw")
        hole = self._tok("")
        self.line(hole)

        def request() -> str:
            if not self._toks[hole]:
                terms = " + ".join(
                    f"(1 if {rowvar}[{i}] is None else 1 + len({rowvar}[{i}]))"
                    for i in var_slots
                )
                self._toks[hole] = f"{w} = {fixed} + {terms}"
            return w

        self._bases[rowvar] = (fixed, var_slots, request)

    def _tok(self, default: str) -> str:
        """A placeholder in the source, resolved (default ``default``) when
        the program is assembled; lets a consumer compiled later change
        code emitted earlier."""
        tok = f"\x01{len(self._toks)}\x01"
        self._toks[tok] = default
        return tok

    # expression helpers --------------------------------------------------

    def _key_expr(self, columns, keys, rowvar: str) -> str:
        slots = [layout_of(columns)[k] for k in keys]
        if len(slots) == 1:
            return f"{rowvar}[{slots[0]}]"
        return _tuple_display([f"{rowvar}[{s}]" for s in slots])

    def _combine_slots(self, left_cols, right_cols, out_cols, lvar, rvar):
        """Per output column, the ``(row var, slot)`` it is taken from."""
        left_slots = layout_of(left_cols)
        right_slots = layout_of(right_cols)
        return [
            (lvar, left_slots[col.coordinate])
            if col.coordinate in left_slots
            else (rvar, right_slots[col.coordinate])
            for col in out_cols
        ]


    # fused expression source ---------------------------------------------
    #
    # Expression evaluation is *silent* computation (no clock, no tracker),
    # so the compiler is free to replace the nested-closure evaluators of
    # repro.expr.compiler with inline source — as long as the produced
    # value (including SQL NULL propagation) is identical.  Shapes the
    # source compiler does not cover fall back to the compiled closures.

    def _value_src(self, expr, slot: Callable[[int], str], layout) -> Optional[str]:
        """Source computing ``compile_expr(expr, layout)(row)``, or None.

        ``slot`` maps a layout slot index to the source of that slot's
        value.  NULL propagation matches the closures exactly: any NULL
        operand of a comparison/arithmetic node yields None.
        """
        if isinstance(expr, ColumnExpr):
            s = layout.get(expr.coordinate)
            if s is None:
                return None  # closure fallback raises the standard error
            return slot(s)
        if isinstance(expr, LiteralExpr):
            if type(expr.value) in _SAFE_LITERALS:
                return _lit(expr.value)
            return None
        if isinstance(expr, (ComparisonExpr, ArithmeticExpr)):
            table = _CMP_SRC if isinstance(expr, ComparisonExpr) else _ARITH_SRC
            op = table[expr.op]
            left = self._value_src(expr.left, slot, layout)
            right = self._value_src(expr.right, slot, layout)
            if left is None or right is None:
                return None
            checks = []
            if not _nonnull_literal(expr.left):
                t = self.fresh("t")
                checks.append(f"({t} := {left}) is None")
                left = t
            if not _nonnull_literal(expr.right):
                t = self.fresh("t")
                checks.append(f"({t} := {right}) is None")
                right = t
            if not checks:
                return f"({left} {op} {right})"
            return f"(None if {' or '.join(checks)} else {left} {op} {right})"
        if isinstance(expr, NegativeExpr):
            inner = self._value_src(expr.operand, slot, layout)
            if inner is None:
                return None
            if _nonnull_literal(expr.operand):
                return f"(-{inner})"
            t = self.fresh("t")
            return f"(None if ({t} := {inner}) is None else -{t})"
        if isinstance(expr, FunctionExpr) and expr.func.raw is not None:
            # The raw callable with the NULL propagation of its wrapper
            # inlined: any NULL argument yields NULL.
            args = [self._value_src(a, slot, layout) for a in expr.args]
            if any(a is None for a in args):
                return None
            checks = []
            for i, a in enumerate(expr.args):
                if not _nonnull_literal(a):
                    t = self.fresh("t")
                    checks.append(f"({t} := {args[i]}) is None")
                    args[i] = t
            call = f"{self.local(expr.func.raw, 'fn')}({', '.join(args)})"
            if not checks:
                return call
            return f"(None if {' or '.join(checks)} else {call})"
        return None

    def _pred_src(self, expr, slot: Callable[[int], str], layout) -> Optional[str]:
        """Boolean source equal to ``compile_predicate(expr, layout)(row)``.

        The predicate boundary collapses three-valued logic: the source
        is True exactly when the expression evaluates to True (NULL and
        False both reject the row), mirroring ``fn(row) is True``.
        """
        if isinstance(expr, ComparisonExpr):
            left = self._value_src(expr.left, slot, layout)
            right = self._value_src(expr.right, slot, layout)
            if left is None or right is None:
                return None
            op = _CMP_SRC[expr.op]
            conds = []
            if not _nonnull_literal(expr.left):
                t = self.fresh("t")
                conds.append(f"({t} := {left}) is not None")
                left = t
            if not _nonnull_literal(expr.right):
                t = self.fresh("t")
                conds.append(f"({t} := {right}) is not None")
                right = t
            conds.append(f"{left} {op} {right}")
            return "(" + " and ".join(conds) + ")"
        if isinstance(expr, LogicalExpr):
            # Conjunction is True iff every arg is True; disjunction iff
            # any is (NULL args only matter for the non-True outcomes,
            # which all reject the row).  Short-circuiting is fine: the
            # skipped evaluation is silent.
            parts = [self._pred_src(a, slot, layout) for a in expr.args]
            if any(p is None for p in parts):
                return None
            joiner = " and " if expr.op == "and" else " or "
            return "(" + joiner.join(parts) + ")"
        if isinstance(expr, NotExpr):
            inner = self._value_src(expr.operand, slot, layout)
            if inner is None:
                return None
            t = self.fresh("t")
            return f"(({t} := {inner}) is not None and not {t})"
        value = self._value_src(expr, slot, layout)
        if value is None:
            return None
        return f"({value} is True)"

    def _emit_predicates(
        self,
        filters,
        layout,
        rowvar: Optional[str],
        split: Optional[tuple[str, str, int]] = None,
    ) -> None:
        """Short-circuit predicate chain; skips the row via ``continue``.

        ``split=(left, right, nleft)`` evaluates predicates over the
        *virtual* concatenation of two row variables (join filter
        position) without materializing it; the concatenated tuple is
        built only if some predicate needs the closure fallback.
        Predicates run in plan order, exactly like the volcano chain.
        """
        if split is not None:
            lvar, rvar, nleft = split

            def slot(s: int) -> str:
                return f"{lvar}[{s}]" if s < nleft else f"{rvar}[{s - nleft}]"

            mvar = None
        else:

            def slot(s: int) -> str:
                return f"{rowvar}[{s}]"

            mvar = rowvar
        for f in filters:
            src = self._pred_src(f, slot, layout)
            if src is not None:
                with self.block(f"if not {src}:"):
                    self.line("continue")
                continue
            if mvar is None:
                mvar = self.fresh("m")
                self.line(f"{mvar} = {split[0]} + {split[1]}")
            pv = self.local(compile_predicate(f, layout), "p")
            with self.block(f"if not {pv}({mvar}):"):
                self.line("continue")

    # ------------------------------------------------------------------
    # top-level

    def compile(self, root: PhysicalNode) -> str:
        self._node(root, self._driver)
        self.line("_wb()")
        lines = ["def _fused_run():"]
        lines.append("    out = []")
        lines.append("    out_append = out.append")
        lines.append("    nout = 0")
        lines.extend("    " + p for p in self.pre)
        lines.extend("    " + p for p in self._writeback_source())
        lines.extend(self.body)
        lines.append("    if out:")
        lines.append("        yield _B(out)")
        source = "\n".join(lines) + "\n"
        if self._toks:
            source = _TOKEN.sub(lambda m: self._toks[m.group(0)], source)
        for var, assignment in self._elide:
            if _reads(source, var) == 1:  # only its own assignment
                source = source.replace(assignment + "\n", "", 1)
        return source

    # ------------------------------------------------------------------
    # dispatch

    def _node(self, node: PhysicalNode, consume: Callable[[str], None]) -> None:
        if isinstance(node, HashAggregateNode):
            self._aggregate(node, consume)
        elif isinstance(node, DistinctNode):
            self._distinct(node, consume)
        elif isinstance(node, FilterNode):
            self._filter(node, consume)
        elif isinstance(node, SeqScanNode):
            self._seq_scan(node, consume)
        elif isinstance(node, IndexScanNode):
            self._index_scan(node, consume)
        elif isinstance(node, HashJoinNode):
            self._hash_join(node, consume)
        elif isinstance(node, NestLoopNode):
            self._nest_loop(node, consume)
        elif isinstance(node, MergeJoinNode):
            self._merge_join(node, consume)
        elif isinstance(node, SortNode):
            self._sort(node, consume)
        elif isinstance(node, ProjectNode):
            self._project(node, consume)
        elif isinstance(node, LimitNode):
            self._limit(node, consume)
        else:
            raise ExecutionError(
                f"no fused pipeline for plan node {type(node).__name__}"
            )

    # ------------------------------------------------------------------
    # sources

    def _seq_scan(self, node: SeqScanNode, consume) -> None:
        ctx = self.ctx
        cost = self.cost
        ref = getattr(node, "pi_input_ref", None)
        monitored = self.tracker is not None and ref is not None
        per_tuple = ctx.config.progress.scan_granularity != "page"
        handle = node.table.heap.handle
        layout = _scan_layout(node)
        slots = _projector(node)
        cpu_per_row = cost.cpu_tuple + len(node.filters) * cost.cpu_operator

        h = self.local(handle, "h")
        get = self.local(ctx.buffer_pool.get_page, "get")
        pin = self.local(ctx.buffer_pool.pin, "pin")
        unpin = self.local(ctx.buffer_pool.unpin, "unpin")
        pno = self.fresh("pno")
        pg = self.fresh("pg")
        rows = self.fresh("rows")
        n = self.fresh("n")
        r = self.fresh("r")
        with self.block(f"for {pno} in range({handle.num_pages}):"):
            self._call(f"{pg} = {get}({h}, {pno}, sequential=True)")
            self.line(f"{rows} = {pg}.rows")
            self.line(f"{n} = len({rows})")
            with self.block(f"if not {n}:"):
                self.line("continue")
            loop = f"for {r} in {rows}:"
            if monitored and per_tuple:
                # The row's input share is not counted per row: rows
                # [done, i] of this page are pending and ``_wb`` reports
                # them from the loop index.
                seg, idx = ref
                i = self.fresh("i")
                done = self.fresh("sc")
                self._scan_pending.append((seg, idx, i, done, pg))
                self.line(f"{i} = -1")
                self.line(f"{done} = 0")
                loop = f"for {i}, {r} in enumerate({rows}):"
            self.line(f"{pin}({h}, {pno})")
            with self.block("try:"):
                self._charge(
                    f"{cpu_per_row} * {n}" if cpu_per_row else 0
                )
                if monitored:
                    seg, idx = ref
                    segv = self._seg(seg)
                    if per_tuple:
                        self.line(f"if not {segv}.started: _wb(); _cstart({segv})")
                    else:
                        self._tracker_call(
                            f"_trin({seg}, {idx}, {n}, {pg}.bytes_used)"
                        )
                with self.block(loop):
                    self._emit_predicates(node.filters, layout, r)
                    if slots is None:
                        consume(r)
                    else:
                        o = self.fresh("o")
                        self.line(
                            f"{o} = "
                            + _tuple_display([f"{r}[{i}]" for i in slots])
                        )
                        consume(o)
                self._emit_pulse()
            with self.block("finally:"):
                self.line(f"{unpin}({h}, {pno})")

    def _index_scan(self, node: IndexScanNode, consume) -> None:
        ctx = self.ctx
        cost = self.cost
        ref = getattr(node, "pi_input_ref", None)
        monitored = self.tracker is not None and ref is not None
        index = node.index
        heap_handle = node.table.heap.handle
        schema = node.table.schema
        layout = _scan_layout(node)
        slots = _projector(node)
        per_row_cpu = cost.cpu_tuple + len(node.filters) * cost.cpu_operator

        self._io(index.height * cost.random_page_read)
        self._charge(index.height * cost.cpu_index_level)

        search = self.local(
            index.search_range(
                node.low, node.high, node.low_inclusive, node.high_inclusive
            ),
            "search",
        )
        hh = self.local(heap_handle, "hh")
        get = self.local(ctx.buffer_pool.get_page, "get")
        pin = self.local(ctx.buffer_pool.pin, "pin")
        unpin = self.local(ctx.buffer_pool.unpin, "unpin")
        rw = self.local(schema.row_width, "rw")
        seen = self.fresh("seen")
        k = self.fresh("k")
        rid = self.fresh("rid")
        pno = self.fresh("pno")
        slot = self.fresh("slot")
        pg = self.fresh("pg")
        r = self.fresh("r")
        self.line(f"{seen} = 0")
        with self.block(f"for {k}, {rid} in {search}:"):
            with self.block(f"if {seen} % {index.fanout} == 0:"):
                self._io(cost.seq_page_read)
                with self.block(f"if {seen}:"):
                    self._emit_pulse()
            self.line(f"{seen} += 1")
            self.line(f"{pno}, {slot} = {rid}")
            self._call(f"{pg} = {get}({hh}, {pno}, sequential=False)")
            self.line(f"{pin}({hh}, {pno})")
            with self.block("try:"):
                self.line(f"{r} = {pg}.rows[{slot}]")
                self._charge(per_row_cpu)
                if monitored:
                    b = self.fresh("b")
                    self.line(f"{b} = {rw}({r})")
                    self._emit_input_row(ref[0], ref[1], b)
                self._emit_predicates(node.filters, layout, r)
                if slots is None:
                    consume(r)
                else:
                    o = self.fresh("o")
                    self.line(
                        f"{o} = " + _tuple_display([f"{r}[{i}]" for i in slots])
                    )
                    consume(o)
            with self.block("finally:"):
                self.line(f"{unpin}({hh}, {pno})")

    def _merge_join(self, node: MergeJoinNode, consume) -> None:
        # Not fused: the volcano operator runs as a row source and
        # everything above it is fused.  Its children are volcano
        # operators too (built by MergeJoinOp itself).  It charges the
        # clock and tracker itself, so every pull is a write-back point.
        from repro.executor.merge_join import MergeJoinOp

        op = MergeJoinOp(node, self.ctx)
        self.ops.append(op)
        opv = self.local(op, "mj")
        src = self.fresh("src")
        it = self.fresh("it")
        self.line(f"{src} = {opv}.rows()")
        with self.block("while True:"):
            self._call(f"{it} = next({src}, None)")
            with self.block(f"if {it} is None:"):
                self.line("break")
            with self.block(f"if {it} is PULSE:"):
                self._emit_pulse()
                self.line("continue")
            consume(it)

    # ------------------------------------------------------------------
    # streaming stages

    def _project(self, node: ProjectNode, consume) -> None:
        cost = self.cost
        segment = getattr(node, "pi_output_segment", None)
        monitored = self.tracker is not None and segment is not None
        layout = {c.coordinate: i for i, c in enumerate(node.child.columns)}
        computed = sum(1 for e in node.exprs if not isinstance(e, ColumnExpr))
        per_row = cost.cpu_tuple + computed * cost.cpu_operator
        fixed, var_slots = self._width_parts([e.type for e in node.exprs])

        # Expressions fuse into one output tuple display — column
        # references and simple computations become inline source, the
        # rest keep their compiled closures.  No per-expression hop.
        # An identity projection (every input slot passed through in
        # order) reuses the input tuple outright: every row in the engine
        # is an immutable tuple, so the rebuilt copy volcano makes is
        # observationally the same object.
        identity = len(node.exprs) == len(node.child.columns) and all(
            isinstance(e, ColumnExpr) and layout.get(e.coordinate) == i
            for i, e in enumerate(node.exprs)
        )
        closures: dict[int, str] = {}

        def part_src(i, e, rowvar: str) -> str:
            # Slots of a join output read straight from the join's inputs,
            # so the joined tuple itself may go unbuilt (``_elide``).
            prov = self._prov.get(rowvar)

            def slot(s: int) -> str:
                if prov is not None and prov[s] is not None:
                    return f"{prov[s][0]}[{prov[s][1]}]"
                return f"{rowvar}[{s}]"

            src = self._value_src(e, slot, layout)
            if src is not None:
                return src
            name = closures.get(i)
            if name is None:
                name = closures[i] = self.local(compile_expr(e, layout), "fn")
            return f"{name}({rowvar})"

        def stage(rowvar: str) -> None:
            self._charge(per_row)
            if identity:
                o = rowvar
            else:
                parts = [
                    part_src(i, e, rowvar) for i, e in enumerate(node.exprs)
                ]
                o = self.fresh("o")
                self.line(f"{o} = " + _tuple_display(parts))
                src = self._prov.get(rowvar)
                self._prov[o] = [
                    (src[s] if src else (rowvar, s))
                    if isinstance(e, ColumnExpr)
                    and (s := layout.get(e.coordinate)) is not None
                    else None
                    for e in node.exprs
                ]
            if monitored:
                w = self._emit_width(o, fixed, var_slots)
                self._emit_output_row(segment, w)
            consume(o)

        self._node(node.child, stage)

    def _filter(self, node: FilterNode, consume) -> None:
        layout = layout_of(node.child.columns)
        per_row = len(node.predicates) * self.cost.cpu_operator

        def stage(rowvar: str) -> None:
            self._charge(per_row)
            self._emit_predicates(node.predicates, layout, rowvar)
            consume(rowvar)

        self._node(node.child, stage)

    def _distinct(self, node: DistinctNode, consume) -> None:
        per_row = self.cost.cpu_hash
        seen = self.fresh("seen")
        add = self.fresh("seenadd")
        self.line(f"{seen} = set()")
        self.line(f"{add} = {seen}.add")

        def stage(rowvar: str) -> None:
            self._charge(per_row)
            with self.block(f"if {rowvar} in {seen}:"):
                self.line("continue")
            self.line(f"{add}({rowvar})")
            consume(rowvar)

        self._node(node.child, stage)

    def _limit(self, node: LimitNode, consume) -> None:
        if node.limit <= 0:
            # The volcano LimitOp never pulls its child; emit nothing.
            return
        rem = self.fresh("rem")
        self.line(f"{rem} = {node.limit}")

        def stage(rowvar: str) -> None:
            consume(rowvar)
            self.line(f"{rem} -= 1")
            with self.block(f"if {rem} <= 0:"):
                self.line("raise _Stop")

        with self.block("try:"):
            self._node(node.child, stage)
        with self.block("except _Stop:"):
            self.line("pass")

    # ------------------------------------------------------------------
    # hash join

    def _hash_join(self, node: HashJoinNode, consume) -> None:
        if node.num_batches == 1:
            self._hash_join_memory(node, consume)
        else:
            self._hash_join_partitioned(node, consume)

    def _build_row_update(
        self, rowvar: str, key_expr: str, table: str, tget: str
    ) -> None:
        """Shared build-side hash-table insert (NULL keys never join)."""
        k = self.fresh("k")
        bkt = self.fresh("bkt")
        self.line(f"{k} = {key_expr}")
        with self.block(f"if {k} is not None:"):
            self.line(f"{bkt} = {tget}({k})")
            with self.block(f"if {bkt} is None:"):
                self.line(f"{table}[{k}] = [{rowvar}]")
            with self.block("else:"):
                self.line(f"{bkt}.append({rowvar})")

    def _probe_row(
        self, node: HashJoinNode, rowvar: str, table_get: str, consume
    ) -> None:
        """Per-probe-row code: key lookup, bucket charge, match emission."""
        cost = self.cost
        layout = None
        if node.extra_filters:
            from repro.executor.rowops import concat_layout

            layout = concat_layout(node.build.columns, node.probe.columns)
        per_match = cost.cpu_tuple + len(node.extra_filters) * cost.cpu_operator
        k = self.fresh("k")
        bkt = self.fresh("bkt")
        br = self.fresh("br")
        self.line(
            f"{k} = " + self._key_expr(node.probe.columns, node.probe_keys, rowvar)
        )
        with self.block(f"if {k} is None:"):
            self.line("continue")
        self.line(f"{bkt} = {table_get}({k})")
        with self.block(f"if {bkt} is None:"):
            self.line("continue")
        if per_match:
            self._charge(f"{per_match} * len({bkt})")
        self._width_base(rowvar, node.probe.columns)
        slots = self._combine_slots(
            node.build.columns, node.probe.columns, node.columns, br, rowvar
        )
        with self.block(f"for {br} in {bkt}:"):
            if node.extra_filters:
                self._emit_predicates(
                    node.extra_filters,
                    layout,
                    None,
                    split=(br, rowvar, len(node.build.columns)),
                )
            o = self.fresh("o")
            self.line(
                f"{o} = " + _tuple_display([f"{v}[{i}]" for v, i in slots])
            )
            self._elide.append((o, self.body[-1]))
            self._prov[o] = slots
            consume(o)

    def _hash_join_memory(self, node: HashJoinNode, consume) -> None:
        cost = self.cost
        build_segment = getattr(node, "pi_build_segment", None)
        hash_ref = getattr(node, "pi_hash_input_ref", None)
        mon_build = self.tracker is not None and build_segment is not None
        mon_hash = self.tracker is not None and hash_ref is not None
        fixed, var_slots = self._width_parts(
            [c.type for c in node.build.columns]
        )
        table = self.fresh("tbl")
        tget = self.fresh("tget")
        trows = self.fresh("trows")
        tbytes = self.fresh("tbytes")
        self.line(f"{table} = {{}}")
        self.line(f"{tget} = {table}.get")
        if mon_hash:
            self.line(f"{trows} = 0")
            self.line(f"{tbytes} = 0")

        def build_sink(rowvar: str) -> None:
            self._charge(cost.cpu_hash)
            if mon_build or mon_hash:
                w = self._emit_width(rowvar, fixed, var_slots)
            if mon_hash:
                self.line(f"{trows} += 1")
                self.line(f"{tbytes} += {w}")
            if mon_build:
                self._emit_output_row(build_segment, w)
            self._build_row_update(
                rowvar,
                self._key_expr(node.build.columns, node.build_keys, rowvar),
                table,
                tget,
            )

        self._node(node.build, build_sink)
        if mon_build:
            self._emit_segfin(build_segment)
        if mon_hash:
            # The probe segment "handles" the hash table once as it starts.
            self._tracker_call(
                f"_trin({hash_ref[0]}, {hash_ref[1]}, {trows}, {tbytes})"
            )

        def probe_stage(rowvar: str) -> None:
            self._charge(cost.cpu_hash)
            self._probe_row(node, rowvar, tget, consume)

        self._node(node.probe, probe_stage)

    def _hash_join_partitioned(self, node: HashJoinNode, consume) -> None:
        ctx = self.ctx
        cost = self.cost
        nb = node.num_batches
        mk = self.local(_make_partitions, "mkparts")
        ctxv = self.local(ctx, "ctx")
        temps = self.local(self.temps, "temps")
        sh = self.local(_stable_hash, "sh")

        def partition(child, columns, keys, segment, name: str) -> str:
            monitored = self.tracker is not None and segment is not None
            fixed, var_slots = self._width_parts([c.type for c in columns])
            cols = self.local(columns, "cols")
            parts = self.fresh("parts")
            self.line(f"{parts} = {mk}({ctxv}, {temps}, {cols}, {nb}, {name!r})")

            def sink(rowvar: str) -> None:
                self._charge(cost.cpu_hash)
                k = self.fresh("k")
                self.line(
                    f"{k} = " + self._key_expr(columns, keys, rowvar)
                )
                pf = self.fresh("pf")
                self.line(
                    f"{pf} = {parts}[{sh}({k}) % {nb} if {k} is not None else 0]"
                )
                w = self._emit_width(rowvar, fixed, var_slots)
                # Only an append that fills the open page writes (and
                # charges I/O): that one is a write-back point.
                with self.block(f"if {w} > {pf}.room:"):
                    self._call(f"{pf}.append({rowvar}, {w})")
                with self.block("else:"):
                    self.line(f"{pf}.append({rowvar}, {w})")
                if monitored:
                    self._emit_output_row(segment, w)

            self._node(child, sink)
            p = self.fresh("p")
            self.line("_wb()")
            with self.block(f"for {p} in {parts}:"):
                self.line(f"{p}.flush()")
            self.line(_RELOAD)
            if monitored:
                self._emit_segfin(segment)
            return parts

        build_parts = partition(
            node.build,
            node.build.columns,
            node.build_keys,
            getattr(node, "pi_build_segment", None),
            f"hj_build_{id(node)}",
        )
        probe_parts = partition(
            node.probe,
            node.probe.columns,
            node.probe_keys,
            getattr(node, "pi_probe_segment", None),
            f"hj_probe_{id(node)}",
        )

        pa_ref = getattr(node, "pi_pa_input_ref", None)
        pb_ref = getattr(node, "pi_pb_input_ref", None)
        dread = self.local(ctx.disk.read_page, "dread")

        def read_partition(handle_expr: str, ref, per_row) -> None:
            """Page loop over one spilled partition; ``per_row`` emits the
            consumer's code for each row (mirrors ``_read_partition``)."""
            h = self.fresh("h")
            pno = self.fresh("pno")
            pg = self.fresh("pg")
            n = self.fresh("n")
            r = self.fresh("r")
            self.line(f"{h} = {handle_expr}")
            with self.block(f"for {pno} in range({h}.num_pages):"):
                self._call(f"{pg} = {dread}({h}, {pno}, sequential=True)")
                self.line(f"{n} = len({pg}.rows)")
                self._charge(f"{cost.cpu_tuple} * {n}" if cost.cpu_tuple else 0)
                if self.tracker is not None and ref is not None:
                    self._tracker_call(
                        f"_trin({ref[0]}, {ref[1]}, {n}, {pg}.bytes_used)"
                    )
                with self.block(f"for {r} in {pg}.rows:"):
                    per_row(r)
                self._emit_pulse()

        b = self.fresh("b")
        table = self.fresh("tbl")
        tget = self.fresh("tget")
        with self.block(f"for {b} in range({nb}):"):
            self.line(f"{table} = {{}}")
            self.line(f"{tget} = {table}.get")

            def build_row(rowvar: str) -> None:
                self._charge(cost.cpu_hash)
                self._build_row_update(
                    rowvar,
                    self._key_expr(node.build.columns, node.build_keys, rowvar),
                    table,
                    tget,
                )

            read_partition(f"{build_parts}[{b}].handle", pa_ref, build_row)

            def probe_row(rowvar: str) -> None:
                self._charge(cost.cpu_hash)
                self._probe_row(node, rowvar, tget, consume)

            read_partition(f"{probe_parts}[{b}].handle", pb_ref, probe_row)

    # ------------------------------------------------------------------
    # nested loops join

    def _nest_loop(self, node: NestLoopNode, consume) -> None:
        ctx = self.ctx
        cost = self.cost
        inner_ref = getattr(node, "pi_inner_input_ref", None)
        fixed, var_slots = self._width_parts(
            [c.type for c in node.inner.columns]
        )
        layout = None
        if node.predicates:
            from repro.executor.rowops import concat_layout

            layout = concat_layout(node.outer.columns, node.inner.columns)

        inner = self.fresh("inner")
        iapp = self.fresh("iapp")
        ibytes = self.fresh("ibytes")
        ir = self.fresh("ir")
        # Inner row widths, kept beside the rows only if a consumer
        # measures output rows (see _emit_width).
        iws = self.fresh("iws")
        iw = self.fresh("iw")
        keep_w = self._tok("")
        inner_loop = self._tok(f"{ir} in {inner}")
        self.line(f"{inner} = []")
        self.line(f"{iapp} = {inner}.append")
        self.line(f"{ibytes} = 0")

        def inner_sink(rowvar: str) -> None:
            self._charge(cost.cpu_tuple)
            w = self._emit_width(rowvar, fixed, var_slots)
            self.line(f"{ibytes} += {w}")
            self.line(f"{iapp}(({rowvar}{keep_w}))")
            if var_slots:

                def request() -> str:
                    self._toks[keep_w] = f", {w}"
                    self._toks[inner_loop] = f"{ir}, {iw} in {inner}"
                    return iw

                self._bases[ir] = (fixed, var_slots, request)

        self._node(node.inner, inner_sink)
        if self.tracker is not None and inner_ref is not None:
            self._tracker_call(
                f"_trin({inner_ref[0]}, {inner_ref[1]}, len({inner}), {ibytes})"
            )

        poc = self.fresh("poc")
        rio = self.fresh("rio")
        first = self.fresh("first")
        self.line(
            f"{poc} = len({inner}) * {cost.cpu_operator}"
            f" * {max(1, len(node.predicates))}"
        )
        self.line(f"{rio} = 0")
        with self.block(f"if {ibytes} > {ctx.work_mem_bytes}:"):
            self.line(
                f"{rio} = {ibytes} * {cost.seq_page_read}"
                f" // {ctx.config.page_size}"
            )
        self.line(f"{first} = True")

        def outer_stage(rowvar: str) -> None:
            self._charge(poc)
            with self.block(f"if {rio} and not {first}:"):
                self._io(rio)
            self.line(f"{first} = False")
            self._width_base(rowvar, node.outer.columns)
            with self.block(f"for {inner_loop}:"):
                if node.predicates:
                    self._emit_predicates(
                        node.predicates,
                        layout,
                        None,
                        split=(rowvar, ir, len(node.outer.columns)),
                    )
                o = self.fresh("o")
                slots = self._combine_slots(
                    node.outer.columns, node.inner.columns, node.columns,
                    rowvar, ir,
                )
                self.line(
                    f"{o} = " + _tuple_display([f"{v}[{i}]" for v, i in slots])
                )
                self._elide.append((o, self.body[-1]))
                self._prov[o] = slots
                consume(o)

        self._node(node.outer, outer_stage)

    # ------------------------------------------------------------------
    # sort

    def _sort(self, node: SortNode, consume) -> None:
        ctx = self.ctx
        cost = self.cost
        helper = _FusedSort(node, ctx)
        self.sorts.append(helper)
        hv = self.local(helper, "sort")
        keyv = self.local(helper.key, "skey")
        segment = helper.segment
        ref = helper.merge_ref
        mon_out = self.tracker is not None and segment is not None
        mon_in = self.tracker is not None and ref is not None
        fixed, var_slots = self._width_parts([c.type for c in node.columns])

        buf = self.fresh("buf")
        bapp = self.fresh("bapp")
        bbytes = self.fresh("bbytes")
        self.line(f"{buf} = []")
        self.line(f"{bapp} = {buf}.append")
        self.line(f"{bbytes} = 0")

        def absorb(rowvar: str) -> None:
            self._charge(cost.cpu_tuple)
            w = self._emit_width(rowvar, fixed, var_slots)
            if mon_out:
                self._emit_output_row(segment, w)
            self.line(f"{bapp}({rowvar})")
            self.line(f"{bbytes} += {w}")
            with self.block(f"if {bbytes} > {ctx.work_mem_bytes}:"):
                self._call(f"yield from {hv}.spill({buf})")
                self.line(f"{buf} = []")
                self.line(f"{bapp} = {buf}.append")
                self.line(f"{bbytes} = 0")

        self._node(node.child, absorb)

        mem = self.fresh("mem")
        self.line(f"{mem} = None")
        self.line("_wb()")
        with self.block(f"if {hv}.runs:"):
            with self.block(f"if {buf}:"):
                self.line(f"yield from {hv}.spill({buf})")
            self.line(f"yield from {hv}.collapse()")
        with self.block("else:"):
            self.line(f"yield from {hv}.sort_buffer({buf})")
            self.line(f"{mem} = {buf}")
        self.line(_RELOAD)
        if mon_out:
            self._emit_segfin(segment)

        r = self.fresh("r")
        st = self.fresh("st")
        with self.block(f"if {mem} is not None:"):
            with self.block(f"for {st}, {r} in enumerate({mem}, 1):"):
                self._charge(cost.cpu_tuple)
                if mon_in:
                    w = self._emit_width(r, fixed, var_slots)
                    self._emit_input_row(ref[0], ref[1], w)
                # The single-pass loop gives a consumer's ``continue``
                # (filter/distinct row drop) a target that still falls
                # through to the pulse-cadence check below, exactly like
                # the volcano sort whose pulses don't depend on parents.
                with self.block("for _sk in _ONE:"):
                    consume(r)
                with self.block(f"if {st} % {_MERGE_PULSE_ROWS} == 0:"):
                    self._emit_pulse()
        with self.block("else:"):
            cmp_ = self.fresh("cmp")
            merged = self.fresh("merged")
            self.line(
                f"{cmp_} = {cost.cpu_compare}"
                f" * max(1, len({hv}.runs)).bit_length()"
            )
            self.line(f"{merged} = 0")
            # Runs are read lazily inside heapq.merge; ``read_run`` writes
            # back and reloads around each page it reads.
            self._reload_fn = True
            with self.block(
                f"for {r} in heapq.merge("
                f"*({hv}.read_run(rr, _wb, _rl) for rr in {hv}.runs),"
                f" key={keyv}):"
            ):
                self._charge(cmp_)
                with self.block("for _sk in _ONE:"):
                    consume(r)
                self.line(f"{merged} += 1")
                with self.block(f"if {merged} % {_MERGE_PULSE_ROWS} == 0:"):
                    self._emit_pulse()

    # ------------------------------------------------------------------
    # hash aggregation

    def _aggregate(self, node: HashAggregateNode, consume) -> None:
        from repro.executor.aggregate import HashAggregateOp, _AggState
        from repro.executor.rowops import row_width_fn

        cost = self.cost
        segment = getattr(node, "pi_agg_segment", None)
        groups_ref = getattr(node, "pi_groups_input_ref", None)
        mon_seg = self.tracker is not None and segment is not None
        mon_ref = self.tracker is not None and groups_ref is not None
        child_layout = layout_of(node.child.columns)
        key_slots = [child_layout[k] for k in node.group_keys]
        for agg in node.aggregates:
            if not isinstance(agg, AggregateExpr):
                raise ExecutionError("aggregate node holds a non-aggregate")
        kinds = [a.kind for a in node.aggregates]
        na = len(node.aggregates)
        per_row = cost.cpu_hash + na * cost.cpu_operator
        statev = self.local(_AggState, "AggState")
        finv = self.local(HashAggregateOp._finalize, "aggfin")
        wfv = self.local(row_width_fn(node.columns), "aggw")
        arg_closures: dict[int, str] = {}

        def arg_src(i: int, rowvar: str) -> Optional[str]:
            """Inline source of aggregate i's argument (None = count(*))."""
            arg = node.aggregates[i].arg
            if arg is None:
                return None
            src = self._value_src(
                arg, lambda s: f"{rowvar}[{s}]", child_layout
            )
            if src is not None:
                return src
            name = arg_closures.get(i)
            if name is None:
                name = arg_closures[i] = self.local(
                    compile_expr(arg, child_layout), "afn"
                )
            return f"{name}({rowvar})"

        groups = self.fresh("groups")
        gget = self.fresh("gget")
        grows = self.fresh("grows")
        st0 = self.fresh("st0")
        self.line(f"{groups} = {{}}")
        self.line(f"{gget} = {groups}.get")
        self.line(f"{grows} = {{}}")
        if not node.group_keys:
            # Single-group aggregation keeps its one state in a local
            # instead of hashing the empty key per row (silent work).
            self.line(f"{st0} = None")

        def key_expr(rowvar: str) -> str:
            if not key_slots:
                return "()"
            if len(key_slots) == 1:
                return f"{rowvar}[{key_slots[0]}]"
            return _tuple_display([f"{rowvar}[{s}]" for s in key_slots])

        def absorb(rowvar: str) -> None:
            self._charge(per_row)
            if not node.group_keys:
                st = st0
                with self.block(f"if {st} is None:"):
                    self.line(f"{st} = {statev}({na})")
                    self.line(f"{groups}[()] = {st}")
                    self.line(f"{grows}[()] = {rowvar}")
            else:
                k = self.fresh("k")
                st = self.fresh("st")
                self.line(f"{k} = {key_expr(rowvar)}")
                self.line(f"{st} = {gget}({k})")
                with self.block(f"if {st} is None:"):
                    self.line(f"{st} = {statev}({na})")
                    self.line(f"{groups}[{k}] = {st}")
                    self.line(f"{grows}[{k}] = {rowvar}")
            for i in range(na):
                src = arg_src(i, rowvar)
                if src is None:  # count(*)
                    self.line(f"{st}.counts[{i}] += 1")
                    continue
                v = self.fresh("v")
                self.line(f"{v} = {src}")
                with self.block(f"if {v} is not None:"):  # aggregates skip NULLs
                    self.line(f"{st}.counts[{i}] += 1")
                    kind = kinds[i]
                    if kind in ("sum", "avg"):
                        self.line(f"{st}.sums[{i}] += {v}")
                    elif kind == "min":
                        with self.block(
                            f"if {st}.mins[{i}] is None"
                            f" or {v} < {st}.mins[{i}]:"
                        ):
                            self.line(f"{st}.mins[{i}] = {v}")
                    elif kind == "max":
                        with self.block(
                            f"if {st}.maxs[{i}] is None"
                            f" or {v} > {st}.maxs[{i}]:"
                        ):
                            self.line(f"{st}.maxs[{i}] = {v}")

        self._node(node.child, absorb)

        if not node.group_keys:
            # Global aggregates over an empty input still produce one row.
            with self.block(f"if {st0} is None:"):
                self.line(f"{groups}[()] = {statev}({na})")
                self.line(f"{grows}[()] = None")

        output = self.fresh("outputs")
        oapp = self.fresh("oapp")
        k = self.fresh("k")
        st = self.fresh("st")
        br = self.fresh("br")
        vals = self.fresh("vals")
        o = self.fresh("o")
        self.line(f"{output} = []")
        self.line(f"{oapp} = {output}.append")
        with self.block(f"for {k}, {st} in {groups}.items():"):
            self.line(f"{br} = {grows}[{k}]")
            with self.block(f"if {br} is not None:"):
                self.line(
                    f"{vals} = ["
                    + ", ".join(f"{br}[{s}]" for s in key_slots)
                    + "]"
                )
            with self.block("else:"):
                self.line(f"{vals} = []")
            for i, kind in enumerate(kinds):
                self.line(f"{vals}.append({finv}({kind!r}, {st}, {i}))")
            self.line(f"{o} = tuple({vals})")
            self._charge(cost.cpu_tuple)
            if mon_seg:
                w = self.fresh("w")
                self.line(f"{w} = {wfv}({o})")
                self._emit_output_row(segment, w)
            self.line(f"{oapp}({o})")
        if mon_seg:
            self._emit_segfin(segment)

        def stream() -> None:
            with self.block(f"for {o} in {output}:"):
                self._charge(cost.cpu_tuple)
                if mon_ref:
                    w = self.fresh("w")
                    self.line(f"{w} = {wfv}({o})")
                    self._emit_input_row(groups_ref[0], groups_ref[1], w)
                consume(o)

        stream()


class FusedQuery:
    """A compiled fused program for one plan, plus its cleanup state.

    Code generation runs per execution: it binds this execution's clock,
    tracker, segments, sort states and temps into the program's globals.
    The generated source text encodes every compile-time specialization,
    so the code object from builtin ``compile()`` is shared through
    ``code_cache``, keyed by source (the plan's ``PlannedQuery.code_cache``).
    """

    def __init__(self, root: PhysicalNode, ctx: ExecContext, code_cache: dict):
        compiler = _Compiler(ctx, ctx.config.progress.batch_rows)
        source = compiler.compile(root)
        #: Generated source, kept for debugging / inspection.
        self.source = source
        self._ops = compiler.ops
        self._sorts = compiler.sorts
        self._temps = compiler.temps
        env = compiler.env
        code = code_cache.get(source)
        if code is None:
            code = compile(source, "<fused-plan>", "exec")
            code_cache[source] = code
        exec(code, env)  # noqa: S102 - engine-generated source, no user input
        self._gen = env["_fused_run"]()

    def run(self) -> Iterator:
        """The program's item stream: Batch objects and PULSE markers."""
        return self._gen

    def close(self) -> None:
        """Release resources: pins (via generator unwind), temps, operators."""
        self._gen.close()
        for op in self._ops:
            op.close()
        for sort in self._sorts:
            sort.drop()
        for f in self._temps:
            f.drop()
        self._temps.clear()


class _Block:
    """Indentation context for :class:`_Compiler` (with-statement helper)."""

    def __init__(self, compiler: _Compiler):
        self._c = compiler

    def __enter__(self) -> "_Block":
        self._c.depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._c.depth -= 1
