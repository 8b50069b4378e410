"""Backpressured front door: bounded admission, coalesced flushes.

The gateway's single-call surface (:meth:`FederationGateway.submit` /
``observe``) pays one fit RPC per stale template and one envelope per
execution row — exactly the regime where the sharded backend trails the
in-process service.  :class:`FrontDoor` is the batch-first alternative:
requests are *admitted* into a bounded queue (``gateway.ingest()``) and
*executed* later in one coalesced flush (``gateway.drain()``, or
automatically at the size/staleness watermarks), where every stale
template a flush segment touches is refitted through one
``refresh_batch`` call — one ``fit_many`` RPC per shard — instead of N
independent fits.

Equivalence contract
--------------------

A drained batch is **bitwise-identical** to the same requests replayed
sequentially through the single-call surface: same windows, same
predictions, same fit counts (property-tested on both backends).  Two
rules make that hold:

* **Global admission order.**  The simulator draws measurement noise
  from one sequential stream, so flushed items execute in exact
  admission order — batching reorders *fits*, never executions.
* **Segment cuts.**  Within a flush, fits are hoisted to segment
  boundaries: a segment ends just before a submission whose template
  already appended history earlier in the segment (an executed
  observation or submission), because the sequential path would refit
  that template *after* those appends.  Canonical observe-then-submit
  traffic therefore coalesces into a single fit round per flush.

Streaming results
-----------------

Tickets resolve per *segment*, not per flush: as soon as a segment's
items have executed, their tickets carry reports, :meth:`IngestTicket.wait`
unblocks, and registered done-callbacks fire — callers consume early
results while the rest of the flush is still running.  Consumption
surfaces, cheapest first:

* ``ticket.add_done_callback(fn)`` — ``fn(ticket)`` runs on the flush
  thread the moment the ticket resolves (immediately when already
  done).  Callbacks must be quick and must never call back into
  blocking ingest paths; their exceptions are suppressed.
* :meth:`FrontDoor.as_completed` — yield tickets in admission order as
  each resolves.
* ``gateway.ingest_iter(requests)`` — admit lazily, yield reports in
  admission order as segments land, drain the tail.
* ``await gateway.ingest_async(request)`` / ``drain_async()`` — the
  asyncio surface; see below.

Segment granularity follows the fit-coalescing cuts by default;
``FederationConfig(ingest_segment_max=N)`` additionally caps segments
at ``N`` items for finer streaming.  Subdividing preserves the bitwise
contract: within a fit-coalesced segment no submission's template has
earlier appends, so prefitting at any subdivision boundary sees the
exact history (and staleness) the sequential oracle would.

asyncio surface
---------------

``ingest_async``/``drain_async`` bridge ticket events onto the running
event loop: admission is handed to the door's single admission thread
(admission may block on backpressure or inline-run a watermark flush,
so it must not run on the loop), and each ticket completes a
``loop.create_future()`` through a ``loop.call_soon_threadsafe``
done-callback — one waiter *task*, never one thread, per ticket.  The
single admission thread also makes the canonical pattern
deterministic::

    tasks = [asyncio.create_task(gateway.ingest_async(r)) for r in reqs]
    await gateway.drain_async()          # flushes everything above
    reports = await asyncio.gather(*tasks)

tasks admit in creation order (FIFO through one thread) and the drain
queues behind the last admission.  The sync path never touches these
threads — flushes still run on the admitting/draining caller.

Pipelined flush
---------------

With ``FederationConfig(ingest_pipeline=True)``, while segment *k*
executes, a helper thread prefits segment *k+1*'s stale templates —
but only the *safe subset*: templates no item of segment *k* touches,
whose histories therefore cannot change while *k* runs.  The remainder
fit synchronously at the boundary, exactly as before.  Fits never draw
simulator noise and executions stay in admission order, so the overlap
is bitwise-invisible; it only hides fit latency behind execution time.

Backpressure
------------

Admission never silently drops.  At a full queue, ``"reject"`` mode
raises a typed :class:`~repro.federation.errors.IngestOverflowError`
(template + phase + bound); ``"block"`` mode makes the admitting caller
wait — and when no flush is in progress the blocked caller flushes the
queue *itself* (trigger ``"backpressure"``, counted separately from
watermark flushes), so blocking can never deadlock: either a flush is
running (space appears when it finishes) or the blocked thread creates
the space on its own.  Waiters are woken by ``notify_all`` on every
state edge (flush start, flush end, close); the bounded poll is only a
lost-notify guard, not the wake-up mechanism.

Mixing paths: a template's traffic should go through either the front
door or the direct single-call surface at any given time — admitted
items carry admission-time ticks, so a direct auto-ticked call racing a
pending flush on the *same* template could append out of tick order.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.common.errors import EstimationError
from repro.federation.envelopes import (
    BatchObserveRequest,
    IngestBatch,
    IngestStats,
    ObservationReport,
    ObserveRequest,
    SubmissionReport,
    SubmitRequest,
)
from repro.federation.errors import (
    EnvelopeError,
    FederationError,
    IngestAbortedError,
    IngestOverflowError,
    SessionStateError,
)

#: Module-level clock, monkeypatchable in tests (the staleness watermark
#: and blocked-admission bookkeeping read it).
time_fn = time.monotonic

#: Upper bound on one blocked wait (admission at a full queue, or a
#: drain waiting out another flush).  Wake-ups are notify-driven — every
#: state edge calls ``notify_all`` — so this poll is only the guard
#: against a lost notify, not the latency floor it used to be.
_BLOCK_POLL_SECONDS = 0.05


class IngestTicket:
    """One admitted request's claim on its future flush outcome.

    Resolved when the item's *segment* completes (streaming — possibly
    well before the rest of its flush): exactly one of :attr:`report` /
    :attr:`error` is set, :attr:`batch_seq` names the flush,
    :attr:`resolved_at` records the resolution time, :meth:`wait`
    unblocks, and done-callbacks fire.

    Tickets carry no synchronisation objects of their own: waits and
    callback registration go through their front door's one
    ``resolved`` condition, so a ticket costs a few slots per row.
    """

    __slots__ = (
        "seq",
        "template",
        "kind",
        "tick",
        "admitted_at",
        "resolved_at",
        "report",
        "error",
        "batch_seq",
        "_done",
        "_callbacks",
        "_resolved",
    )

    def __init__(
        self,
        seq: int,
        template: str,
        kind: str,
        tick: int,
        admitted_at: float,
        resolved: threading.Condition,
    ):
        self.seq = seq
        self.template = template
        #: ``"submit"`` or ``"observe"``.
        self.kind = kind
        #: Logical tick assigned at admission (global arrival order).
        self.tick = tick
        #: Admission / resolution timestamps on the :data:`time_fn`
        #: clock (time-to-first-report measurements read these).
        self.admitted_at = admitted_at
        self.resolved_at: float | None = None
        self.report: SubmissionReport | ObservationReport | None = None
        self.error: FederationError | None = None
        self.batch_seq: int | None = None
        self._done = False
        self._callbacks: list | None = None
        self._resolved = resolved

    @property
    def done(self) -> bool:
        return self._done

    def wait(self, timeout: float | None = None) -> bool:
        if self._done:
            return True
        with self._resolved:
            return self._resolved.wait_for(lambda: self._done, timeout)

    def result(self) -> SubmissionReport | ObservationReport:
        """The flushed report; raises the item's typed error instead if
        its execution failed, or :class:`SessionStateError` before the
        item's segment has flushed."""
        if not self._done:
            raise SessionStateError(
                f"ticket {self.seq} is not flushed yet; call drain() "
                "or wait() first",
                template=self.template,
                phase="ingest",
            )
        if self.error is not None:
            raise self.error
        return self.report

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` when this ticket resolves.

        Fires on the flush thread at resolution — or immediately, on the
        registering thread, when the ticket is already done.  Callbacks
        must be quick and must not call blocking ingest paths (they run
        inside the flush); exceptions they raise are suppressed so one
        consumer can never strand another consumer's flush.
        """
        with self._resolved:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        try:
            fn(self)
        except Exception:
            pass

    def _resolve(self, report, error, batch_seq: int) -> None:
        """Stamp the outcome, wake waiters, fire callbacks (in
        registration order, outside every front-door lock)."""
        self.report = report
        self.error = error
        self.batch_seq = batch_seq
        self.resolved_at = time_fn()
        with self._resolved:
            self._done = True
            callbacks, self._callbacks = self._callbacks, None
            self._resolved.notify_all()
        for fn in callbacks or ():
            try:
                fn(self)
            except Exception:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "done" if self.done else "pending"
        return f"IngestTicket(seq={self.seq}, {self.kind} {self.template!r}, {state})"


class _Item:
    """One queued admission: envelope + admission-time tick + ticket."""

    __slots__ = ("seq", "kind", "request", "tick", "admitted_at", "ticket")

    def __init__(self, seq, kind, request, tick, admitted_at, ticket):
        self.seq = seq
        self.kind = kind
        self.request = request
        self.tick = tick
        self.admitted_at = admitted_at
        self.ticket = ticket


class FrontDoor:
    """The gateway's bounded, batch-coalescing admission layer.

    Constructed lazily by :meth:`FederationGateway.ingest`; all policy
    comes from the gateway's
    :class:`~repro.federation.config.FederationConfig`
    (``ingest_queue_depth``, ``ingest_batch_max``, ``ingest_flush_ms``,
    ``ingest_overflow``, ``ingest_pipeline``, ``ingest_segment_max``).
    Flushes run on the calling thread — the admission that trips a
    watermark, the blocked admission helping itself, or the explicit
    :meth:`drain` — never on a hidden background thread, so tests and
    replays stay deterministic.  The only helper threads are opt-in: one
    admission thread for the asyncio surface and one prefit thread for
    ``ingest_pipeline=True``, both lazily created and both torn down by
    :meth:`close`.
    """

    def __init__(self, gateway):
        self._gateway = gateway
        config = gateway.config
        self.queue_depth: int = config.ingest_queue_depth
        self.batch_max: int = config.ingest_batch_max
        self.flush_ms: float | None = config.ingest_flush_ms
        self.overflow: str = config.ingest_overflow
        self.pipeline: bool = config.ingest_pipeline
        self.segment_max: int | None = config.ingest_segment_max
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        #: Shared by every ticket of this door: ticket waits and
        #: done-callback registration synchronise here.
        self._resolved = threading.Condition()
        self._pending: list[_Item] = []
        self._flushing = False
        self._closed = False
        self._seq = 0
        self._batch_seq = 0
        self._admitted = 0
        self._submits = 0
        self._observes = 0
        self._rejected = 0
        self._blocked = 0
        self._flushes = 0
        self._size_flushes = 0
        self._interval_flushes = 0
        self._drain_flushes = 0
        self._backpressure_flushes = 0
        self._items_flushed = 0
        self._max_batch = 0
        self._fit_rounds = 0
        self._peak_depth = 0
        self._segments_run = 0
        self._streamed_items = 0
        self._admit_pool: ThreadPoolExecutor | None = None
        self._prefit_pool: ThreadPoolExecutor | None = None

    # Admission --------------------------------------------------------------

    def ingest(self, request):
        """Admit one envelope; returns its ticket(s), not its result.

        A :class:`BatchObserveRequest` is admitted atomically (all rows
        or none) and returns one ticket per row, in row order.
        """
        if isinstance(request, BatchObserveRequest):
            return self._admit([("observe", row) for row in request.requests])
        if isinstance(request, SubmitRequest):
            return self._admit([("submit", request)])[0]
        if isinstance(request, ObserveRequest):
            return self._admit([("observe", request)])[0]
        raise EnvelopeError(
            "ingest() takes a SubmitRequest, ObserveRequest or "
            f"BatchObserveRequest, got {type(request).__name__}"
        )

    def _admit(self, entries: list[tuple[str, SubmitRequest | ObserveRequest]]):
        if not entries:
            # Defence in depth: BatchObserveRequest already rejects zero
            # rows at construction, but an empty entry list must surface
            # as the typed envelope error, never an IndexError below.
            raise EnvelopeError(
                "cannot admit an empty batch: it carries no rows to "
                "ingest",
                phase="ingest",
            )
        n = len(entries)
        template = entries[0][1].template
        for _kind, request in entries:
            self._gateway._require_template(request.template)
        blocked_counted = False
        tickets = None
        while True:
            job = None
            with self._space:
                self._ensure_open_locked()
                if n > self.queue_depth:
                    self._rejected += n
                    raise IngestOverflowError(
                        f"batch of {n} rows exceeds the whole ingest queue "
                        f"(depth {self.queue_depth}); raise ingest_queue_depth "
                        "or split the batch",
                        template=template,
                        queue_depth=self.queue_depth,
                    )
                if len(self._pending) + n > self.queue_depth:
                    if self.overflow == "reject":
                        self._rejected += n
                        raise IngestOverflowError(
                            f"ingest queue is full ({len(self._pending)}/"
                            f"{self.queue_depth} pending)",
                            template=template,
                            queue_depth=self.queue_depth,
                        )
                    if not blocked_counted:
                        self._blocked += 1
                        blocked_counted = True
                    if not self._flushing and self._pending:
                        # Self-help: nobody is flushing, so the blocked
                        # caller drains the queue itself — blocking can
                        # never deadlock.  Counted under its own trigger
                        # so watermark flushes stay distinguishable from
                        # overflow relief.
                        job = self._take_locked("backpressure")
                    else:
                        # Notify-driven: woken by _take_locked (space
                        # appears at flush *start*), _finalize or
                        # close(); the timeout only guards a lost notify.
                        self._space.wait_for(
                            lambda: self._closed
                            or len(self._pending) + n <= self.queue_depth
                            or (not self._flushing and bool(self._pending)),
                            timeout=_BLOCK_POLL_SECONDS,
                        )
                else:
                    tickets = self._enqueue_locked(entries)
                    trigger = self._trigger_locked()
                    if trigger is not None and not self._flushing:
                        job = self._take_locked(trigger)
            if job is not None:
                self._run_flush(*job)
            if tickets is not None:
                return tickets

    def _enqueue_locked(self, entries) -> list[IngestTicket]:
        now = time_fn()
        tickets = []
        for kind, request in entries:
            seq = self._seq
            self._seq += 1
            tick = self._gateway._resolve_tick(request.tick)
            ticket = IngestTicket(
                seq, request.template, kind, tick, now, self._resolved
            )
            self._pending.append(_Item(seq, kind, request, tick, now, ticket))
            tickets.append(ticket)
            if kind == "submit":
                self._submits += 1
            else:
                self._observes += 1
        self._admitted += len(entries)
        self._peak_depth = max(self._peak_depth, len(self._pending))
        return tickets

    def _trigger_locked(self) -> str | None:
        if len(self._pending) >= self.batch_max:
            return "size"
        if (
            self.flush_ms is not None
            and self._pending
            and (time_fn() - self._pending[0].admitted_at) * 1000.0 >= self.flush_ms
        ):
            return "interval"
        return None

    def _take_locked(self, trigger: str) -> tuple[list[_Item], str, int]:
        items = self._pending
        self._pending = []
        self._flushing = True
        # The flush sequence is claimed at *start* so segments can stamp
        # their tickets while the flush is still running; only one flush
        # runs at a time, so the counter stays monotone per flush.
        self._batch_seq += 1
        # Queue space appeared the moment the pending list was taken —
        # wake blocked admissions now, not at flush end.
        self._space.notify_all()
        return items, trigger, self._batch_seq

    def _ensure_open_locked(self) -> None:
        if self._closed:
            raise SessionStateError(
                "ingest front door is closed", phase="ingest"
            )

    # Streaming consumption --------------------------------------------------

    @staticmethod
    def as_completed(tickets, timeout: float | None = None):
        """Yield tickets in admission order as each one resolves.

        Streaming consumption for a caller holding a ticket list: every
        yielded ticket is done (``ticket.result()`` will not block), and
        tickets from an already-executed segment yield while the rest of
        their flush is still running.  ``timeout`` bounds the *total*
        wait across all tickets; exceeding it raises :class:`TimeoutError`.
        """
        deadline = None if timeout is None else time_fn() + timeout
        for ticket in tickets:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time_fn())
            if not ticket.wait(remaining):
                raise TimeoutError(
                    f"ticket {ticket.seq} ({ticket.template!r}) unresolved "
                    f"after {timeout}s"
                )
            yield ticket

    # asyncio surface --------------------------------------------------------

    async def ingest_async(self, request):
        """Admit one envelope from a coroutine and await its report.

        Admission runs on the door's single admission thread (it may
        block on backpressure or inline-run a watermark flush — never on
        the event loop); resolution is bridged back through a
        ``call_soon_threadsafe`` done-callback, so a pending result
        costs one waiter task, not one blocked thread.  Returns the
        report (a list of reports for a :class:`BatchObserveRequest`) or
        raises the item's typed error.
        """
        import asyncio  # only the asyncio surface needs it

        loop = asyncio.get_running_loop()
        admitted = await self._in_admission_thread(loop, self.ingest, request)
        if isinstance(admitted, list):
            return await asyncio.gather(
                *(self._bridge_ticket(ticket, loop) for ticket in admitted)
            )
        return await self._bridge_ticket(admitted, loop)

    async def drain_async(self) -> IngestBatch:
        """Awaitable :meth:`drain`, queued behind pending admissions.

        Yields to the loop once first, so ``asyncio.create_task``-ed
        ``ingest_async`` calls made just before this call hand their
        admissions to the admission thread ahead of the drain — the
        create-tasks-then-drain pattern flushes all of them.
        """
        import asyncio  # only the asyncio surface needs it

        await asyncio.sleep(0)
        loop = asyncio.get_running_loop()
        try:
            return await self._in_admission_thread(loop, self.drain)
        except SessionStateError:
            # A racing close() shut the door; its final flush already
            # covered everything admitted, so mirror sync drain()'s
            # idempotent no-op instead of failing the barrier.
            return self.drain()

    def _in_admission_thread(self, loop, fn, *args):
        """Schedule ``fn(*args)`` on the single admission thread.

        One thread keeps concurrent ``ingest_async`` tasks FIFO — tasks
        created in order admit in order, which is what makes the async
        surface replayable under the bitwise-equivalence contract.
        """
        import asyncio  # only the asyncio surface needs it

        with self._space:
            self._ensure_open_locked()
            if self._admit_pool is None:
                self._admit_pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="frontdoor-admit"
                )
            pool = self._admit_pool
        try:
            future = pool.submit(fn, *args)
        except RuntimeError as error:  # pool torn down by a racing close()
            raise SessionStateError(
                "ingest front door is closed", phase="ingest"
            ) from error
        return asyncio.wrap_future(future, loop=loop)

    @staticmethod
    def _bridge_ticket(ticket: IngestTicket, loop) -> asyncio.Future:
        """An asyncio future completed by the ticket's done-callback."""
        future = loop.create_future()

        def complete() -> None:
            if future.cancelled():
                return
            if ticket.error is not None:
                future.set_exception(ticket.error)
            else:
                future.set_result(ticket.report)

        # The callback fires on the flush thread; hop onto the loop.  A
        # closed loop makes call_soon_threadsafe raise — suppressed by
        # the ticket's callback runner, which is exactly right: nobody
        # is left to consume the future.
        ticket.add_done_callback(lambda _t: loop.call_soon_threadsafe(complete))
        return future

    # Flushing ---------------------------------------------------------------

    def drain(self) -> IngestBatch:
        """Flush everything pending and return the batch (a barrier).

        Waits out any in-flight flush first (notify-driven — the waiter
        wakes on the flush's state edge, not on a poll).  With nothing
        pending — including after :meth:`close` — returns an empty batch
        carrying the last flush's sequence number; draining an idle (or
        closed) door is always a safe no-op.
        """
        while True:
            with self._space:
                if self._flushing:
                    self._space.wait_for(
                        lambda: not self._flushing,
                        timeout=_BLOCK_POLL_SECONDS,
                    )
                    continue
                if not self._pending:
                    return IngestBatch(
                        seq=self._batch_seq,
                        trigger="drain",
                        templates=(),
                        submits=0,
                        observes=0,
                        fit_rounds=0,
                        reports=(),
                        errors=(),
                        segments=0,
                    )
                job = self._take_locked("drain")
            return self._run_flush(*job)

    def close(self) -> IngestBatch:
        """Stop admissions, flush what was admitted, reap helper threads.

        Closing first means a racing ``ingest()`` either lands before
        the close (and its item is in the returned batch) or fails with
        the typed closed error — never admitted-then-dropped.  The
        admission and prefit helper threads (if they were ever created)
        are shut down after the final flush.
        """
        with self._space:
            self._closed = True
            self._space.notify_all()
        batch = self.drain()
        for pool in (self._admit_pool, self._prefit_pool):
            if pool is not None:
                pool.shutdown(wait=True)
        self._admit_pool = None
        self._prefit_pool = None
        return batch

    def _run_flush(self, items: list[_Item], trigger: str, seq: int) -> IngestBatch:
        gateway = self._gateway
        reports: list = [None] * len(items)
        errors: list = [None] * len(items)
        fit_rounds = 0
        segments_done = 0
        resolved_until = 0
        bounds = self._segments(items)
        overlap = None  # in-flight prefit of the next segment's safe subset
        prefit_early: set[str] = set()
        completed = False
        try:
            for index, (start, end) in enumerate(bounds):
                segment = items[start:end]
                if overlap is not None:
                    # Harvest the previous segment's overlapped prefit;
                    # an infrastructure failure surfaces here, exactly
                    # where the synchronous prefit would have raised.
                    if overlap.result():
                        fit_rounds += 1
                    overlap = None
                keys: list[str] = []
                for item in segment:
                    key = item.request.template
                    if item.kind == "submit" and key not in prefit_early and key not in keys:
                        keys.append(key)
                if keys and gateway._prefit_for_flush(keys):
                    fit_rounds += 1
                prefit_early = set()
                if self.pipeline and index + 1 < len(bounds):
                    # While this segment executes, prefit the *safe
                    # subset* of the next one: submit templates no item
                    # of this segment touches, so their histories are
                    # frozen for the duration (see module docs).
                    touched = {item.request.template for item in segment}
                    next_start, next_end = bounds[index + 1]
                    safe: list[str] = []
                    for item in items[next_start:next_end]:
                        key = item.request.template
                        if item.kind == "submit" and key not in touched and key not in safe:
                            safe.append(key)
                    if safe:
                        prefit_early = set(safe)
                        overlap = self._prefit_executor().submit(
                            gateway._prefit_for_flush, safe
                        )
                for offset, item in enumerate(segment, start=start):
                    request = replace(item.request, tick=item.tick)
                    try:
                        if item.kind == "submit":
                            reports[offset] = gateway.submit(request)
                        else:
                            reports[offset] = gateway.observe(request)
                    except FederationError as error:
                        errors[offset] = error
                    except EstimationError as error:
                        # Keep the batch's error surface typed even for
                        # engine-room failures outside the taxonomy.
                        wrapped = FederationError(
                            str(error),
                            template=item.request.template,
                            phase="ingest",
                        )
                        wrapped.__cause__ = error
                        errors[offset] = wrapped
                # Streaming: this segment's tickets resolve now, while
                # later segments are still pending.
                segments_done += 1
                self._resolve_segment(
                    items, reports, errors, start, end, seq, streamed=end < len(items)
                )
                resolved_until = end
            completed = True
        except BaseException as error:
            # Infrastructure failure mid-flush (e.g. a shard that died
            # twice): resolve the stranded tickets before propagating so
            # no waiter hangs forever.
            aborted = IngestAbortedError(
                f"ingest flush aborted: {error}", phase="ingest"
            )
            aborted.__cause__ = error
            for offset in range(resolved_until, len(items)):
                if reports[offset] is None and errors[offset] is None:
                    errors[offset] = aborted
            raise
        finally:
            if overlap is not None:
                # Abort path with a prefit still in flight: reap it so
                # no helper-thread RPC races the teardown that usually
                # follows an aborted flush.
                try:
                    overlap.result()
                except BaseException:
                    pass
            batch = self._finalize(
                items, trigger, seq, reports, errors,
                fit_rounds, segments_done, resolved_until,
            )
            if not completed:
                # Durability boundary for the abort path: per-item
                # journal/audit records appended by the partial flush
                # must not sit un-fsynced (fsync="batch") just because
                # the flush died — a crash right after would lose
                # acknowledged work.
                gateway._durability_sync()
        # The gateway's per-flush hooks: audit record, rebalance
        # cycle, journal sync.
        gateway._flushed(batch)
        return batch

    def _prefit_executor(self) -> ThreadPoolExecutor:
        # Only the (single) flush thread reaches this, so no lock: one
        # helper thread total, created on first pipelined flush.
        if self._prefit_pool is None:
            self._prefit_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="frontdoor-prefit"
            )
        return self._prefit_pool

    def _segments(self, items: list[_Item]) -> list[tuple[int, int]]:
        """Cut the flush into fit-coalescible runs (see module docs).

        A segment ends just before a submission whose template already
        appended history within the segment — the sequential oracle
        would refit it *after* those appends, so its fit belongs to the
        next segment's prefit round.  ``ingest_segment_max`` adds size
        cuts on top, purely for streaming granularity: subdividing a
        fit-coalesced run never changes what the prefits see.
        """
        bounds = []
        start = 0
        appended: set[str] = set()
        for index, item in enumerate(items):
            key = item.request.template
            cut = item.kind == "submit" and key in appended
            if (
                not cut
                and self.segment_max is not None
                and index - start >= self.segment_max
            ):
                cut = True
            if cut and index > start:
                bounds.append((start, index))
                start = index
                appended = set()
            # Both kinds append: an observe logs its row, an executed
            # submission logs its measured run.
            appended.add(key)
        bounds.append((start, len(items)))
        return bounds

    def _resolve_segment(
        self, items, reports, errors, start, end, seq, *, streamed: bool
    ) -> None:
        """Resolve one executed segment's tickets (outside all locks —
        done-callbacks run here) and count the stream progress."""
        for index in range(start, end):
            items[index].ticket._resolve(reports[index], errors[index], seq)
        if streamed:
            with self._space:
                self._streamed_items += end - start

    def _finalize(
        self, items, trigger, seq, reports, errors,
        fit_rounds, segments_done, resolved_until,
    ) -> IngestBatch:
        # Stragglers (abort path): segments the flush never reached were
        # stamped with the abort error by _run_flush; resolve them so no
        # waiter hangs.
        for index in range(resolved_until, len(items)):
            items[index].ticket._resolve(reports[index], errors[index], seq)
        with self._space:
            self._flushing = False
            self._flushes += 1
            if trigger == "size":
                self._size_flushes += 1
            elif trigger == "interval":
                self._interval_flushes += 1
            elif trigger == "backpressure":
                self._backpressure_flushes += 1
            else:
                self._drain_flushes += 1
            self._items_flushed += len(items)
            self._max_batch = max(self._max_batch, len(items))
            self._fit_rounds += fit_rounds
            self._segments_run += segments_done
            self._space.notify_all()
        return IngestBatch(
            seq=seq,
            trigger=trigger,
            templates=tuple(sorted({item.request.template for item in items})),
            submits=sum(1 for item in items if item.kind == "submit"),
            observes=sum(1 for item in items if item.kind == "observe"),
            fit_rounds=fit_rounds,
            reports=tuple(reports),
            errors=tuple(errors),
            segments=segments_done,
        )

    # Introspection ----------------------------------------------------------

    def stats(self) -> IngestStats:
        with self._space:
            return IngestStats(
                admitted=self._admitted,
                submits=self._submits,
                observes=self._observes,
                rejected=self._rejected,
                blocked=self._blocked,
                flushes=self._flushes,
                size_flushes=self._size_flushes,
                interval_flushes=self._interval_flushes,
                drain_flushes=self._drain_flushes,
                items_flushed=self._items_flushed,
                max_batch=self._max_batch,
                fit_rounds=self._fit_rounds,
                peak_depth=self._peak_depth,
                pending=len(self._pending),
                backpressure_flushes=self._backpressure_flushes,
                segments=self._segments_run,
                streamed_items=self._streamed_items,
            )

    @property
    def pending(self) -> int:
        with self._space:
            return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FrontDoor(depth={self.queue_depth}, batch_max={self.batch_max}, "
            f"overflow={self.overflow!r}, pending={self.pending})"
        )
