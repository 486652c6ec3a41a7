"""The worker processes of :func:`panelcsd.run_mc`.

``python -m panelcsd._worker FD`` is a worker server: it imports numpy and
this package once, then forks one worker for each request on the Unix
socket FD, a one-byte message carrying the worker's input and output pipes,
and answers with the worker's pid (:data:`panelcsd.montecarlo._PID`). A
forked worker shares the pages the server's imports touched instead of
faulting them in again, as a new interpreter would. At end of file on the
socket the server kills and reaps its workers and exits. Without ``FD``
(where a process cannot fork) the process is itself one worker, on its
standard input and output.

A worker reads frames (:func:`panelcsd.montecarlo._read_frame`) on
standard input: first the parent's ``sys.path`` and main script path, then
one pickled ``(function, args)`` task per frame, each answered in order by
one frame on standard output, ``(True, result, None)`` or ``(False,
exception, traceback)``. An empty frame or end of file ends it at once and
silently, mid-task if need be. Server and workers ignore SIGINT. A worker
runs the parent's main script, as ``__mp_main__``, only when a task first
needs a name defined there.
"""

import functools
import io
import os
import pickle
import queue
import runpy
import signal
import socket
import sys
import threading
import traceback
import types
from contextlib import suppress

import numpy.random  # noqa: F401  numpy 2 imports it only on first use

from . import montecarlo
from .montecarlo import _PID, _read_frame, _write_frame

_main_path: str | None = None


class _Unpickler(pickle.Unpickler):
    def find_class(self, module, name):
        return super().find_class(
            _main_module() if module == "__main__" else module, name)


@functools.cache
def _main_module() -> str:
    """Run the parent's main script as ``__mp_main__``, once; its name."""
    if _main_path is None:
        raise pickle.UnpicklingError(
            "a task needs a name from the main module, which has no file a "
            "worker can run (stdin or an interactive session)")
    module = sys.modules["__mp_main__"] = types.ModuleType("__mp_main__")
    module.__dict__.update(runpy.run_path(_main_path, run_name="__mp_main__"))
    return "__mp_main__"


def _read_input(frames: queue.SimpleQueue) -> None:
    """Queue each frame from standard input, so that the parent's writes
    never wait on this process; at an empty frame or end of file, end the
    process, whatever the main thread is doing."""
    while frame := _read_frame(sys.stdin.buffer):
        frames.put(frame)
    os._exit(0)


def serve(channel: socket.socket) -> None:
    """Fork a worker on each pair of pipes ``channel`` brings, until end of
    file; then kill and reap them all."""
    pids = []
    with suppress(OSError):  # the parent has gone
        while (fds := socket.recv_fds(channel, 1, 2)[1]):
            pid = os.fork()
            if pid == 0:
                try:
                    channel.close()
                    os.dup2(fds[0], 0)
                    os.dup2(fds[1], 1)
                    for fd in fds:
                        os.close(fd)
                    work()
                finally:
                    os._exit(1)
            for fd in fds:
                os.close(fd)
            pids.append(pid)
            channel.sendall(_PID.pack(pid))
    for pid in pids:
        os.kill(pid, signal.SIGKILL)  # an ended worker waits to be reaped
        os.waitpid(pid, 0)


def work() -> None:
    """Run the tasks that come on standard input, for ever."""
    global _main_path
    # replies go to a copy of standard output; what a task prints, to stderr
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    frames: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_read_input, args=(frames,), daemon=True).start()
    sys.path[:], _main_path = pickle.loads(frames.get())
    while True:
        try:
            fn, args = _Unpickler(io.BytesIO(frames.get())).load()
            reply = (True, fn(*args), None)
        except Exception as exc:  # the parent raises it from the task
            reply = (False, exc, traceback.format_exc())
        try:
            _write_frame(out, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        except BrokenPipeError:  # the parent has died
            os._exit(0)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "pthread_sigmask"):  # the parent started it blocked
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    montecarlo._IN_WORKER = True
    if len(sys.argv) > 1:
        serve(socket.socket(fileno=int(sys.argv[1])))
    else:
        work()
