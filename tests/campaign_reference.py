"""The campaign's two loops as they were before one ordered-window loop
replaced them: a serial loop for one worker and a thread-pooled loop with
a window of ``2 * workers`` for more.

Kept only as the reference that ``test_campaign_differential.py``
compares ``conffuzz.campaign._loop`` against; the package does not use it.
"""

from __future__ import annotations

from collections import deque
from random import Random

from conffuzz.campaign import _apply, _next_task, _Run


def _loop_serial(run: _Run) -> None:
    rng = Random(run.cfg.seed)
    while run.stats.execs < run.cfg.max_execs:
        tree, donor, mut_seed = _next_task(run, rng)
        run.consume(*_apply(run, tree, donor, mut_seed))


def _loop_pooled(run: _Run) -> None:
    # imported here so single-worker runs never load the thread pool
    from concurrent.futures import ThreadPoolExecutor

    cfg = run.cfg
    streams = [Random(cfg.seed + w) for w in range(cfg.workers)]
    window = 2 * cfg.workers
    submitted = run.stats.execs
    pending: deque = deque()

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:

        def submit_one():
            nonlocal submitted
            rng = streams[submitted % cfg.workers]
            tree, donor, mut_seed = _next_task(run, rng)
            pending.append(
                pool.submit(_apply, run, tree, donor, mut_seed)
            )
            submitted += 1

        while submitted < cfg.max_execs and len(pending) < window:
            submit_one()
        while pending:
            run.consume(*pending.popleft().result())
            if submitted < cfg.max_execs:
                submit_one()


def reference_loop(run: _Run) -> None:
    """The dispatch ``run_campaign`` made between the two loops."""
    if run.cfg.workers == 1:
        _loop_serial(run)
    else:
        _loop_pooled(run)
