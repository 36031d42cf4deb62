"""The worker process that formats CSV passes beside the caller, for
floattext's csv_passes and csv_ahead.

One process is forked when a pass is first handed to it, never at
import, and serves every later call: the call that takes it (take) holds
it until it lets it go (Worker.release), and a call that finds it held
formats its own passes.  A pass's varying values, and then its text, go
through a shared memory file (memfd) of 2 * floattext._PASS_BYTES, which
both processes read and write with pread and pwrite, so that its pages
never count in the caller's resident memory; a pipe each way carries the
pass's place in that buffer, its rows and layout, and the reply, with any
error.  The formatter's tables are built before the fork, once for both
processes.

The worker ignores SIGINT and leaves only through os._exit, once it reads
the end of its tasks: the caller closes its end of the pipes and reaps
the worker at interpreter exit (retire), and the child of any later fork
closes its copy of that end (_forget), so that the worker still sees the
end when the caller leaves.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import pickle
import signal
import threading

import numpy as np

from . import floattext

_lock = threading.Lock()  # held by the call that holds the worker
_running = None  # the worker process, once forked


def take():
    """The worker, held for one call until it is let go, and forked if
    there is none or it was lost; None when another call holds it or no
    process can be forked."""
    global _running
    if not _lock.acquire(blocking=False):
        return None
    worker = None
    try:
        if _running is None or _running.lost:
            retire()
            _running = Worker()
        worker = _running
    except OSError:  # no process could be forked
        pass
    finally:
        if worker is None:
            _lock.release()
    return worker


def retire():
    """Close the pipes to the worker, which then leaves, and reap it."""
    global _running
    worker, _running = _running, None
    if worker is not None:
        worker.close()


def _forget():
    """In a forked child: close the parent's ends of the worker's pipes;
    this child has no worker, and no call holds one."""
    global _running, _lock
    worker, _running, _lock = _running, None, threading.Lock()
    if worker is not None:
        worker.close(reap=False)


atexit.register(retire)
os.register_at_fork(after_in_child=_forget)


class Worker:
    """The forked process and this end of its pipes and shared buffer.

    A pass's text is at most its rows times its template's width, about
    0.37 of its _row_bytes estimate, so the two passes that csv_passes
    has handed at most take under one budget, and a control profile of
    up to five passes fits whole.
    """

    def __init__(self):
        floattext._pow10_table()
        floattext._digit_quads()
        floattext._layout_masks()
        self.lost = False  # the worker has left, or a reply was cut
        self.size = 2 * floattext._PASS_BYTES
        self.shared = os.memfd_create("floattext")
        os.ftruncate(self.shared, self.size)
        tasks, self.tasks = os.pipe()
        self.replies, replies = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # glibc would give back each pass's peak and fault it in
                # again for the next pass (353 minor faults per fig45
                # pass): the worker keeps its heap (M_TRIM_THRESHOLD,
                # M_MMAP_THRESHOLD)
                libc = ctypes.CDLL(None)
                if hasattr(libc, "mallopt"):
                    libc.mallopt(-1, 64 << 20)
                    libc.mallopt(-3, 32 << 20)
                os.close(self.tasks)
                os.close(self.replies)
                _serve(tasks, replies, self.shared)
            finally:
                os._exit(0)
        os.close(tasks)
        os.close(replies)

    def hand(self, task, taken):
        """Write a pass's varying values into the first free stretch of
        the shared buffer after the stretches taken, and send the worker
        its place; the stretch, or None when none is free or the worker
        is lost."""
        columns, (template, varying) = task
        rows = len(columns[0])
        need = rows * len(template)  # the text's most bytes
        start = 0
        for lo, hi in sorted(taken):
            if start + need <= lo:
                break
            start = max(start, hi)
        if self.lost or start + need > self.size:
            return None
        os.pwritev(self.shared, [np.ascontiguousarray(columns[i], np.float64)
                                 for i, _ in varying], start)
        try:
            _send(self.tasks, (start, rows, template.tobytes(), varying,
                               [float(c[0]) for c in columns]))
        except OSError:  # the worker has left
            self.lost = True
            return None
        except BaseException:  # the message may be cut short
            self.lost = True
            raise
        return start, start + need

    def receive(self):
        """The worker's next reply, (length, error); None when it is
        lost."""
        if self.lost:
            return None
        try:
            reply = _receive(self.replies)
        except BaseException:
            self.lost = True
            raise
        self.lost = reply is None
        return reply

    def text(self, at):
        """The text of the worker's next pass, written at stretch at;
        None when the worker is lost.  Raises the pass's error."""
        reply = self.receive()
        if reply is None:
            return None
        length, error = reply
        if error is not None:
            raise error
        return os.pread(self.shared, length, at[0])

    def release(self):
        """Let the worker go, for the next call to take."""
        _lock.release()

    def close(self, reap=True):
        """Close this end of the pipes, so that the worker reads the end
        of its tasks and leaves, and reap it."""
        for fd in (self.tasks, self.replies, self.shared):
            os.close(fd)
        if reap:
            os.waitpid(self.pid, 0)


def _serve(tasks, replies, shared):
    """The worker's loop: format each pass read from the tasks pipe, from
    its values in the shared buffer, put its text there in their place,
    and reply (length, None), or (None, error); return at the end of the
    tasks."""
    while (task := _receive(tasks)) is not None:
        start, rows, template, varying, firsts = task
        try:
            columns = [np.broadcast_to(first, rows) for first in firsts]
            values = np.frombuffer(
                os.pread(shared, 8 * rows * len(varying), start),
                np.float64).reshape(len(varying), rows)
            for row, (i, _) in enumerate(varying):
                columns[i] = values[row]
            text = floattext._array_rows(
                columns, (np.frombuffer(template, np.uint8), varying))
            os.pwrite(shared, text, start)
            reply = len(text), None
        except BaseException as exc:
            reply = None, exc
        _send(replies, reply)  # an error that does not pickle ends the worker


def _send(fd, message):
    """Write message to a pipe, pickled, after its length."""
    data = pickle.dumps(message)
    view = memoryview(len(data).to_bytes(4, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd):
    """The next message _send wrote to a pipe, or None at its end."""
    def read(n):
        data = b""
        while len(data) < n:
            chunk = os.read(fd, n - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    head = read(4)
    data = head and read(int.from_bytes(head, "little"))
    return None if data is None else pickle.loads(data)
