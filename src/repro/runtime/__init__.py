"""Record-path runtime: the machinery that takes write I/O off the hot loop.

The paper's pitch is that hindsight logging is cheap enough to leave on
everywhere.  This package is where that promise is enforced mechanically:

* :class:`~repro.runtime.buffer.RecordBuffer` — per-call staging for
  ``flor.log``/``flor.loop``.  A log call appends one tuple; value encoding
  (``encode_value`` / JSON) is deferred to drain time so the training thread
  never pays serialization costs inside the loop.
* :class:`~repro.runtime.flusher.BackgroundFlusher` — a double-buffered
  writer thread that drains staged rows to SQLite in single transactions,
  coalescing every batch queued since its last wakeup.  Memory is bounded:
  submitters block (backpressure) once ``max_pending_rows`` rows are in
  flight.  A ``sync`` mode executes submissions inline on the caller's
  thread, preserving the pre-runtime semantics for replay sandboxes and
  tests.
* :class:`~repro.runtime.checkpoint_writer.AsyncCheckpointWriter` — moves
  checkpoint pickling and object-store writes to a worker thread; the
  recording thread only snapshots registered state.  ``drain()`` is the
  barrier that ``restore()``/``commit()``/``close()`` take before relying
  on stored checkpoints.

Layering: this package depends only on :mod:`repro.relational` and
:mod:`repro.errors`; :mod:`repro.core.session` and
:mod:`repro.service.pool` (whose shards append straight to the session's
flusher) build on top of it.
"""

from .buffer import RecordBuffer
from .checkpoint_writer import AsyncCheckpointWriter, CheckpointWriteStats
from .flusher import ASYNC, SYNC, BackgroundFlusher, FlushCallbackError, FlushStats

__all__ = [
    "ASYNC",
    "SYNC",
    "AsyncCheckpointWriter",
    "BackgroundFlusher",
    "CheckpointWriteStats",
    "FlushCallbackError",
    "FlushStats",
    "RecordBuffer",
]
