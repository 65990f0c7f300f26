"""The two loops the campaign had before one ordered-window loop replaced
them: a serial loop for one worker and a thread-pooled loop with a window
of ``2 * workers`` for more.  Both schedule, mutate and unparse on the
coordinator, mutant ``n`` drawing from stream ``n % workers``, and the
pool runs only ``execute``; mutating on a worker thread would need a
seed per mutation, which the campaign no longer draws.

Kept only as the reference that ``test_campaign_differential.py``
compares ``conffuzz.campaign._loop`` against; the package does not use it.
"""

from __future__ import annotations

from collections import deque
from random import Random

from conffuzz import campaign
from conffuzz.campaign import _Run


# ``random_mutation``, ``unparse`` and ``execute`` are looked up on the
# campaign module at call time, so a test that patches them there sees the
# oracle's calls too.
def _mutate(run: _Run, rng: Random):
    tree = run.scheduler.schedule_next(run.corpus)
    donor = run.corpus[rng.randrange(len(run.corpus))]
    mutated, _ = campaign.random_mutation(
        tree, run.g, rng, donor=donor, max_depth=run.cfg.max_depth, memo={}
    )
    return mutated, campaign.unparse(mutated, run.g)


def _loop_serial(run: _Run) -> None:
    rng = Random(run.cfg.seed)
    while run.stats.execs < run.cfg.max_execs:
        mutated, text = _mutate(run, rng)
        run.consume(mutated, text, *campaign.execute(run.cfg.target, text))


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
            mutated, text = _mutate(run, streams[submitted % cfg.workers])
            pending.append(
                (mutated, text, pool.submit(campaign.execute, cfg.target, text))
            )
            submitted += 1

        while submitted < cfg.max_execs and len(pending) < window:
            submit_one()
        while pending:
            mutated, text, answer = pending.popleft()
            run.consume(mutated, text, *answer.result())
            if submitted < cfg.max_execs:
                submit_one()


def reference_loop(run: _Run) -> None:
    """The dispatch ``run_campaign`` made between the two loops."""
    if run.cfg.workers == 1:
        _loop_serial(run)
    else:
        _loop_pooled(run)
