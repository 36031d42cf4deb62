"""The worker process that formats CSV passes beside the caller, and the
one protocol with it (Call), for floattext's csv_passes and csv_ahead.

A pass's varying values, and then its text, go through a shared memory
file (memfd) of 2 * floattext._PASS_BYTES, which both processes read and
write with pread and pwrite, so that its pages never count in the
caller's resident memory; a pipe each way carries the pass's place in
that buffer, its rows and layout, and the reply, with any error.  The
formatter's tables are built before the fork, once for both processes.

The worker ignores SIGINT and leaves only through os._exit, once it reads
the end of its tasks: the caller closes its end of the pipes and reaps
the worker at interpreter exit (retire), and the child of any later fork
closes its copy of that end (_forget), so that the worker still sees the
end when the caller leaves.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import os
import pickle
import signal
import threading

import numpy as np

from . import floattext

_lock = threading.Lock()  # held by the call that holds the worker
_running = None  # the worker process, once forked


def _take():
    """The worker, held for one call until the call lets it go, and
    forked if there is none; None when another call holds it or no
    process can be forked."""
    global _running
    if not _lock.acquire(blocking=False):
        return None
    try:
        if _running is None:
            _running = Worker()
    except OSError:  # no process could be forked
        pass
    finally:
        if _running is None:
            _lock.release()
    return _running


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


class Call:
    """One call's passes, handed to the worker in order, each with the
    stretch of the shared buffer that its text takes, or None for a pass
    that the caller formats when it is collected: every pass when another
    call holds the worker or no process can be forked, a pass for which
    no stretch is free, and every pass not yet done when the worker is
    lost (killed: end of file on the reply pipe, or a broken task pipe);
    the next call forks a new one.  The first pass takes the worker,
    forked if there is none, and the end of the block waits for the
    passes not collected and lets the worker go.

    A pass's text is at most its rows times its template's width, about
    0.37 of its _row_bytes estimate, so the two passes that csv_passes
    has handed at most take under one budget, and a control profile of
    up to five passes fits whole.
    """

    def __init__(self):
        self.worker = None  # the worker held; False once this call has none
        self.handed = collections.deque()  # (pass, stretch or None)

    def __enter__(self):
        return self

    def hand(self, task):
        """Hand a pass (columns, layout) to the worker: write its varying
        values into the first free stretch of the shared buffer and send
        the worker its place; or keep it, for the caller to format."""
        if self.worker is None:  # this call's first pass
            self.worker = _take() or False
        columns, (template, varying) = task
        rows = len(columns[0])
        need = rows * len(template)  # the text's most bytes
        start, at = 0, None
        for lo, hi in sorted(taken for _, taken in self.handed if taken):
            if start + need <= lo:
                break
            start = max(start, hi)
        if self.worker and start + need <= self.worker.size:
            os.pwritev(self.worker.shared,
                       [np.ascontiguousarray(columns[i], np.float64)
                        for i, _ in varying], start)
            message = (start, rows, template.tobytes(), varying,
                       [float(c[0]) for c in columns])
            try:
                _send(self.worker.tasks, message)
                at = start, start + need
            except BaseException as exc:
                self._lose()  # it has left, or holds a message cut short
                if not isinstance(exc, OSError):
                    raise
        self.handed.append((task, at))

    def _reply(self):
        """The worker's next reply, (length, error); None when it is
        lost."""
        try:
            reply = _receive(self.worker.replies)
        except BaseException:
            self._lose()
            raise
        if reply is None:
            self._lose()
        return reply

    def collect(self):
        """The text of the first pass not yet collected.  Raises the
        error of a pass that failed in the worker."""
        task, at = self.handed.popleft()
        reply = self._reply() if at and self.worker else None
        if reply is None:  # kept, or lost with the worker
            return floattext._array_rows(*task)
        length, error = reply
        if error is not None:
            raise error
        return os.pread(self.worker.shared, length, at[0])

    def _lose(self):
        """Reap the worker, which has left or may hold a message cut
        short, and let the next call fork another; this call formats its
        passes left."""
        self.worker = False
        try:
            retire()
        finally:
            _lock.release()

    def __exit__(self, *exc):
        """Wait for the worker's passes not collected, and let it go."""
        try:
            for _, at in self.handed:
                if at and self.worker:
                    self._reply()
        finally:
            if self.worker:
                self.worker = False
                _lock.release()


class Worker:
    """The forked process and this end of its pipes and shared buffer."""

    def __init__(self):
        floattext._pow10_table()
        floattext._digit_quads()
        floattext._layout_masks()
        self.size = 2 * floattext._PASS_BYTES
        fds = []
        try:
            fds.append(os.memfd_create("floattext"))
            os.ftruncate(fds[0], self.size)
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            self.pid = os.fork()
        except BaseException:  # nothing is left open
            for fd in fds:
                os.close(fd)
            raise
        self.shared, tasks, self.tasks, self.replies, replies = fds
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
