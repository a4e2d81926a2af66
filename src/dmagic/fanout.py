"""Helper processes that run the calling process's loop next to it.

`search` and `table` each split their work into items numbered from 0 and
run one loop over them: take the next index from a shared counter, do that
item, and stop once none is left or a shared stop signal is set.  The calling
process always runs the loop; helpers started here run the same loop in
their own processes and send back what it returns.  Helpers use the default
start context, and their target and arguments are module-level names and
picklable values, so they work under fork, spawn and forkserver alike.
multiprocessing is imported only by a run that shares its values.
"""

from __future__ import annotations

from contextlib import nullcontext
from types import SimpleNamespace
from typing import Callable, List, Tuple


def values(k: int, shared: bool) -> List:
    """k integers, 0 at first: shared between processes, or, when no helper
    will start, plain stand-ins with the same value and get_lock."""
    if shared:
        import multiprocessing

        return [multiprocessing.Value("q", 0) for _ in range(k)]
    return [SimpleNamespace(value=0, get_lock=nullcontext) for _ in range(k)]


def take(counter) -> int:
    """The counter's value, advanced by one: the index of the next item."""
    with counter.get_lock():
        i, counter.value = counter.value, counter.value + 1
    return i


def _helper(loop: Callable[[List], List], run: List, conn) -> None:
    """A helper process: send loop(run), or its error, to conn."""
    try:
        conn.send(loop(run))
    except BaseException as exc:  # raised again in the calling process
        conn.send(exc)


def start(helpers: List[Tuple], loop: Callable[[List], List], run: List, count: int) -> None:
    """Start count helper processes, each running loop(run), and add each to
    helpers as it starts, for collect() to end."""
    import multiprocessing

    for _ in range(count):
        receive, send = multiprocessing.Pipe(duplex=False)
        helper = multiprocessing.Process(target=_helper, args=(loop, run, send), daemon=True)
        helper.start()
        send.close()  # so that receive sees the end of a helper that died
        helpers.append((helper, receive))


def collect(helpers: List[Tuple], took_all: bool, died: str) -> List:
    """What each helper's loop returned, or raised, in start order; a helper
    that died is a RuntimeError(died).  Every helper is joined.  If took_all,
    the calling process took every item, so no helper holds one, and the
    helpers are ended rather than waited for: a spawned one may still be
    starting."""
    results = []
    for helper, receive in helpers:
        if took_all:
            helper.terminate()
        else:
            try:
                results.append(receive.recv())
            except EOFError:  # it died before it could send
                results.append(RuntimeError(died))
        receive.close()
        helper.join()
    return results
