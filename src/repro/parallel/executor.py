"""The process pools: a plain ordered map and the one supervised scheduler.

Both take a module-level callable (pickled by name to the workers) and
keep inter-process traffic to small per-task arguments and results.

- :func:`map_tasks` is the plain map: results in task order, no
  deadlines, no retries, and a serial finish when the pool breaks.
- :func:`supervise` is the only code that drives a supervised pool: a
  deadline per task, wedged slots written off, pool recreation after a
  worker dies, and requeueing at a caller-chosen ready time.  The
  experiment runner and the fleet supervisor keep only their own
  policy, as the ``on_submit``/``on_done`` callbacks.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable


def map_tasks(map_fn: Callable, tasks: list, n_workers: int = 0) -> list:
    """Map a module-level callable over tasks, ``n_workers``-way parallel.

    Results come back in task order regardless of completion order
    (determinism is what makes parallel answers byte-identical to
    serial ones), and a pool that cannot come up or breaks mid-run
    (restricted environments, OOM-killed workers) degrades to finishing
    the remaining tasks serially in the parent rather than failing.
    """
    if n_workers <= 1 or len(tasks) <= 1:
        return [map_fn(t) for t in tasks]
    results: dict[int, object] = {}
    try:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {i: pool.submit(map_fn, t) for i, t in enumerate(tasks)}
            for i, future in futures.items():
                results[i] = future.result()
    except (BrokenProcessPool, OSError) as exc:
        # The serial re-run below hides the pool failure from callers;
        # leave an audit trail so a fleet that silently lost its
        # parallelism (OOM-killed workers, fork limits) is visible.
        from repro import obs

        obs.count("parallel.pool_broken")
        warnings.warn(
            f"process pool broke ({type(exc).__name__}: {exc}); "
            f"finishing {len(tasks) - len(results)} of {len(tasks)} tasks "
            "serially",
            RuntimeWarning,
            stacklevel=2,
        )
    return [
        results[i] if i in results else map_fn(t) for i, t in enumerate(tasks)
    ]


class TaskTimeout(TimeoutError):
    """Handed to ``on_done`` for a task still running past its deadline."""


def supervise(
    fn: Callable,
    tasks: list,
    jobs: int,
    *,
    timeout_s: float | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_submit: Callable | None = None,
    on_done: Callable,
) -> list:
    """Run ``fn`` over ``tasks`` on a supervised ``jobs``-worker pool.

    Every task starts as ``(task, attempt=1, ready_at=0.0)``.  At most
    one task per live slot is in flight, so a deadline measures run
    time, not queue time; the first queued task whose ``ready_at``
    (``time.monotonic()`` scale) has passed goes next.

    ``on_submit(task, attempt)``, when given, is called just before the
    submission and returns the argument ``fn`` receives (default: the
    task).  ``on_done(task, attempt, result, exc)`` is called once per
    finished attempt with either the worker's return value or the
    exception it raised -- :class:`BrokenProcessPool` when a worker
    died, :class:`TaskTimeout` when the task outlived ``timeout_s``.
    It returns a ready time to requeue the task as ``attempt + 1``, or
    ``None`` when the task is settled.

    A timed-out task's slot is written off (the worker may be wedged;
    it is terminated at shutdown).  A dead worker breaks the pool; its
    in-flight siblings come back through ``on_done`` and a fresh pool
    takes the rest.  When no slot is left, or no pool can be started,
    the unfinished ``(task, attempt, ready_at)`` items are returned for
    the caller to run another way; otherwise the result is empty.
    """
    queue: deque = deque((task, 1, 0.0) for task in tasks)
    max_workers = min(jobs, len(queue))
    in_flight: dict = {}  # future -> (task, attempt, deadline)
    abandoned = 0
    broken = gone = False
    pool = None

    def settle(task, attempt, result, exc) -> None:
        ready_at = on_done(task, attempt, result, exc)
        if ready_at is not None:
            queue.append((task, attempt + 1, ready_at))

    try:
        while queue or in_flight:
            capacity = max_workers - abandoned
            if capacity <= 0:
                # Every slot is wedged (nothing is in flight: each
                # abandoned future also freed its in-flight entry).
                break
            if pool is None or broken:
                if pool is not None:
                    _shutdown(pool, force=True)
                    pool = None
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=max_workers,
                        initializer=initializer,
                        initargs=initargs,
                    )
                except OSError:
                    break  # no pool can be started here
                broken = False

            now = time.monotonic()
            while queue and len(in_flight) < capacity:
                idx = next(
                    (i for i, (_, _, ready) in enumerate(queue) if ready <= now),
                    None,
                )
                if idx is None:
                    break
                queue.rotate(-idx)
                item = queue.popleft()
                queue.rotate(idx)
                task, attempt, _ = item
                arg = task if on_submit is None else on_submit(task, attempt)
                try:
                    future = pool.submit(fn, arg)
                except (BrokenProcessPool, RuntimeError):
                    broken = True
                    queue.appendleft(item)
                    break
                except OSError:
                    # A worker could not be started (fork limits).
                    queue.appendleft(item)
                    gone = True
                    break
                in_flight[future] = (
                    task, attempt, now + timeout_s if timeout_s else None
                )
            if gone:
                break

            if not in_flight:
                if queue and not broken:
                    # Everything queued is backing off; sleep until the
                    # earliest becomes ready.
                    soonest = min(ready for _, _, ready in queue)
                    time.sleep(max(0.0, min(soonest - time.monotonic(), 0.5)))
                continue

            poll = 0.05 if timeout_s else (0.25 if queue else None)
            done, _ = wait(list(in_flight), timeout=poll, return_when=FIRST_COMPLETED)
            for future in done:
                task, attempt, _ = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    # A worker died (OOM killer, SIGKILL): the pool and
                    # every sibling future die with it.  Each victim
                    # comes back through here; the next submission
                    # round gets a fresh pool.
                    broken = True
                    settle(task, attempt, None, exc)
                except Exception as exc:
                    settle(task, attempt, None, exc)
                else:
                    settle(task, attempt, result, None)

            now = time.monotonic()
            for future, (task, attempt, deadline) in list(in_flight.items()):
                if deadline is None or now <= deadline or future.done():
                    continue
                del in_flight[future]
                abandoned += 1
                settle(
                    task,
                    attempt,
                    None,
                    TaskTimeout(f"task exceeded its {timeout_s}s deadline"),
                )
    finally:
        if pool is not None:
            _shutdown(pool, force=bool(abandoned or in_flight))
    # Without a pool, attempts still in flight are handed back unchanged.
    queue.extend((task, attempt, 0.0) for task, attempt, _ in in_flight.values())
    return list(queue)


def _shutdown(pool, force: bool) -> None:
    """Shut a pool down; ``force`` terminates workers still running."""
    if not force:
        pool.shutdown(wait=True)
        return
    # Waiting would block on wedged workers; cut them loose and
    # terminate whatever is still running.  The process table is taken
    # first: shutdown() empties it.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, AttributeError):  # pragma: no cover
            pass
