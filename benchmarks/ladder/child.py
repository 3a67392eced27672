"""The TCP server the benchmark measures, in a process of its own.

Run as a script this is the child: it reopens a saved index, serves it
with ``NetServer(workers=0)`` on an ephemeral port, prints ``READY
<port>`` and serves until its stdin reaches end-of-file — so a parent
that dies, however it dies, takes the child with it.  Imported, it gives
the parent :class:`ChildServer`, which starts the child and always reaps
it.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


@contextmanager
def split_cpus():
    """Pin this process to its first CPU; yield the last one for the child.

    Left to the scheduler, parent and child share a core for the whole of
    some runs and not of others, and a run's TCP latencies follow (640 us
    against 460 us at the median here).  Yields None on a single CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield cpus[-1]
    finally:
        os.sched_setaffinity(0, cpus)


class ChildServer:
    """Context manager: a served index in a child process (on ``cpu``)."""

    def __init__(self, index_path: Path, cpu: int | None = None) -> None:
        self.index_path = index_path
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def __enter__(self) -> "ChildServer":
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.index_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            if self.cpu is not None:
                os.sched_setaffinity(self.proc.pid, {self.cpu})
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(
                    f"child server did not start (said {line!r}, "
                    f"exit code {self.proc.poll()})")
            self.port = int(line.split()[1])
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()  # end-of-file asks the child to stop
            proc.wait(STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()


async def _serve(index_path: str) -> None:
    import asyncio

    import repro

    index = repro.open(index_path)
    try:
        async with index.serve(addr=("127.0.0.1", 0)) as net:
            print(f"READY {net.port}", flush=True)
            await asyncio.get_running_loop().run_in_executor(
                None, sys.stdin.read)
    finally:
        index.close()


if __name__ == "__main__":
    import asyncio

    from paths import ensure_repro

    ensure_repro()
    asyncio.run(_serve(sys.argv[1]))
