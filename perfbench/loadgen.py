"""Open-loop HTTP load from one process and one thread.

Requests go out on a fixed schedule whatever the daemon does: each is
written at its due time on one of two keep-alive connections, without
waiting for earlier answers (HTTP/1.1 pipelining; the daemon answers a
connection's requests in order).  Event POSTs and the final flush share
the *ingest* connection, so batches reach the tenant in log order; model
reads use the *read* connection.  Every latency is measured from the
request's due time, so a daemon stall shows up in every request it
delays.  How late the generator itself wrote each request is recorded
too: a run where it fell behind is not a valid open-loop run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: Seconds after the last due time to wait for outstanding answers.
ANSWER_TIMEOUT = 30.0


@dataclass
class Exchange:
    """One scheduled request and what became of it."""

    kind: str  # "post", "read" or "flush"
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    seq: Optional[int] = None
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due to answered; ``inf`` when it failed."""
        return self.done - self.due if self.ok else float("inf")

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class LoadPlan:
    """What to send and when (offsets in seconds from the start)."""

    host: str
    port: int
    process_path: str  # "/v1/<quoted process>"
    bodies: Sequence[bytes]
    post_interval: float
    read_interval: float
    #: Offset of the first read: a read before the tenant's first
    #: finalized execution would only get a 404 (no model yet).
    read_from: float = 0.0
    #: Seeds where in its slot of ``read_interval`` each read is due.
    seed: int = 0
    exchanges: List[Exchange] = field(default_factory=list)


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_answers(
    reader: asyncio.StreamReader,
    pending: "asyncio.Queue[Exchange]",
    loop: asyncio.AbstractEventLoop,
) -> None:
    while True:
        exchange = await pending.get()
        if exchange is None:
            return
        head = await reader.readuntil(b"\r\n\r\n")
        exchange.done = loop.time()
        lines = head.decode("latin-1").split("\r\n")
        exchange.status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-snapshot-seq":
                exchange.seq = int(value)
        exchange.body = await reader.readexactly(length) if length else b""


async def run_plan(
    plan: LoadPlan, on_start: Callable[[], None]
) -> List[Exchange]:
    """Send the plan's schedule; return every exchange, answered or not.

    ``on_start`` runs right before the first request is due (the caller
    reads the daemon's CPU clock there).  Exchanges still unanswered
    :data:`ANSWER_TIMEOUT` seconds after the flush was due keep status
    0, i.e. failed.
    """
    loop = asyncio.get_running_loop()
    ingest = await asyncio.open_connection(plan.host, plan.port)
    reads = await asyncio.open_connection(plan.host, plan.port)
    schedule: List[Tuple[float, int, bytes, Exchange]] = []
    events = f"{plan.process_path}/events"
    for index, body in enumerate(plan.bodies):
        exchange = Exchange("post", index, index * plan.post_interval)
        schedule.append((exchange.due, 0, _request("POST", events, body),
                         exchange))
    end = len(plan.bodies) * plan.post_interval
    read = _request("GET", f"{plan.process_path}/model?format=edges")
    # Each read is due at a seeded random point of its slot, so reads
    # meet every phase of the POST schedule instead of a fixed one.
    jitter = random.Random(plan.seed)
    index = 0
    while True:
        due = plan.read_from + (index + jitter.random()) * plan.read_interval
        if due >= end:
            break
        exchange = Exchange("read", index, due)
        schedule.append((exchange.due, 1, read, exchange))
        index += 1
    flush = Exchange("flush", 0, end)
    schedule.append((end, 0, _request("POST", f"{plan.process_path}/flush"),
                     flush))
    schedule.sort(key=lambda item: item[0])
    queues = (asyncio.Queue(), asyncio.Queue())
    readers = [
        loop.create_task(_read_answers(ingest[0], queues[0], loop)),
        loop.create_task(_read_answers(reads[0], queues[1], loop)),
    ]
    writers = (ingest[1], reads[1])
    # A collection pause here would make the generator late; nothing
    # allocated during the loop needs collecting before it ends.
    gc.collect()
    gc.disable()
    try:
        on_start()
        start = loop.time() + 0.02
        for offset, channel, payload, exchange in schedule:
            exchange.due = start + offset
            delay = exchange.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writers[channel].write(payload)
            exchange.sent = loop.time()
            queues[channel].put_nowait(exchange)
            plan.exchanges.append(exchange)
    finally:
        gc.enable()
    for queue in queues:
        queue.put_nowait(None)
    try:
        await asyncio.wait_for(
            asyncio.gather(*readers), timeout=ANSWER_TIMEOUT
        )
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError):
        pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for writer in writers:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return plan.exchanges


def pending_batches(exchange: Exchange) -> int:
    """The queue depth a 202 reported (0 for anything else)."""
    if exchange.status != 202:
        return 0
    return int(json.loads(exchange.body).get("pending_batches", 0))
