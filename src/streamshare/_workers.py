"""The ``axioms`` command's property matrix, checked in forked workers.

Built on ``os.fork``, pipes and ``marshal`` alone: a process pool or pickling
would load modules that the command does not otherwise load, and raise its
peak memory.  The code lives apart from :mod:`streamshare.axioms` because,
where bytecode is not cached, compiling that module sets the command's peak
memory, and every line added there adds to it.
"""
from __future__ import annotations

import functools
import marshal
import os
import threading
from typing import Callable, NoReturn, Sequence

from .axioms import ProblemGenerator, axiom_matrix, matrix_to_rows
from .indices import Index


def matrix_rows(indices: Sequence[Index], axioms: Sequence[str] | None,
                generator: ProblemGenerator, budget: int) -> list[dict]:
    """``matrix_to_rows(axiom_matrix(...))``, with the indices dealt to forked workers.

    Each index's cells run on their own: every cell's rng is seeded from
    (seed, index, property), memos are kept per index, and the generator
    starts over on every call.  So worker k of w, one per usable CPU up to
    the n distinct indices, checks ``distinct[k * n // w:(k + 1) * n // w]``,
    and the parent joins the rows in worker order.  A repeated index name
    keeps its first place and its last index, as the matrix's keys do.  With
    one CPU, or where no worker can run, the serial call runs; it also runs
    when any worker fails, and then raises the exception it always raised.
    """
    distinct = list({index.name: index for index in indices}.values())
    cpus = usable_cpus()[:len(distinct)]
    if len(cpus) > 1:
        n, w = len(distinct), len(cpus)
        results = run([functools.partial(_rows_of, distinct[k * n // w:(k + 1) * n // w],
                                         axioms, generator, budget) for k in range(w)], cpus)
        if results is not None:
            return [row for rows in results for row in rows]
    return _rows_of(indices, axioms, generator, budget)


def _rows_of(indices: Sequence[Index], axioms: Sequence[str] | None,
             generator: ProblemGenerator, budget: int) -> list[dict]:
    return matrix_to_rows(axiom_matrix(indices, axioms, generator, budget))


def usable_cpus() -> list[int]:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def run(tasks: Sequence[Callable[[], object]], cpus: Sequence[int]) -> list | None:
    """Each task's result, run in a forked child on its own CPU; None if any child fails.

    A result must be of the types ``marshal`` writes (None, bools, ints,
    strings, lists, tuples and dicts of them).  Task k runs on ``cpus[k]``:
    where the kernel does not balance load (a cpuset with
    ``sched_load_balance`` 0), a child left alone stays on the parent's CPU.
    The parent reads every pipe to the end and reaps every child, on every
    path.  An OS error in the parent, such as a fork refused, counts as a
    failure.  Nothing is forked, and None returned, without ``os.fork`` or
    while other threads run: a child forked then may deadlock, and Python
    3.12 warns of it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    pipes, pids = [], []
    try:
        for task, cpu in zip(tasks, cpus):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _work(task, cpu, pipes, write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        outputs = [pipe.read() for pipe in pipes]
    except OSError:
        return None
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return None if any(statuses) else [marshal.loads(data) for data in outputs]


def _work(task: Callable[[], object], cpu: int, pipes: Sequence, write_end: int) -> NoReturn:
    """In a forked child: write the task's result in ``marshal`` form, and exit.

    The status is 0 once the result is written, and 1 on any exception, with
    nothing written.  The read ends the child inherited are closed first, so
    that a parent that stops reading leaves no writer blocked.
    """
    status = 1
    try:
        for pipe in pipes:
            pipe.close()
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {cpu})
        with open(write_end, "wb") as sink:
            sink.write(marshal.dumps(task()))
        status = 0
    finally:
        os._exit(status)
