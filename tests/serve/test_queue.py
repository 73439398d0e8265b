"""Job-queue and job-store unit tests (no sockets, no simulations)."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.jobs import (
    Job,
    JobQueue,
    JobState,
    JobStore,
    QueueClosedError,
    QueueFullError,
)
from repro.serve.protocol import JobRequest


def make_job(job_id="job-x", priority=0):
    return Job(job_id, JobRequest.parse({"priority": priority}))


def drain(queue):
    """Pop every immediately available job (synchronously)."""

    async def _drain():
        jobs = []
        while len(queue):
            jobs.append(await queue.get())
        return jobs

    return asyncio.run(_drain())


class TestJob:
    def test_lifecycle(self):
        job = make_job()
        assert job.state is JobState.QUEUED and not job.done

        async def finish():
            job.finish(JobState.DONE, payload={"n_points": 0})
            await asyncio.wait_for(job.finished.wait(), timeout=1)

        asyncio.run(finish())
        assert job.done and job.payload == {"n_points": 0}
        # Terminal transitions are one-shot.
        job.finish(JobState.FAILED, error="late")
        assert job.state is JobState.DONE and job.error is None

    def test_status_document(self):
        job = make_job("job-42", priority=7)
        status = job.status()
        assert status["id"] == "job-42"
        assert status["state"] == "queued"
        assert status["request"]["priority"] == 7
        assert "error" not in status
        job.finish(JobState.FAILED, error="boom")
        assert job.status()["error"] == "boom"


class TestJobQueue:
    def test_priority_then_fifo(self):
        queue = JobQueue(maxsize=8)
        low1, low2 = make_job("low1", 0), make_job("low2", 0)
        high = make_job("high", 5)
        for job in (low1, low2, high):
            queue.put(job)
        assert [j.id for j in drain(queue)] == ["high", "low1", "low2"]

    def test_full_queue_rejects(self):
        queue = JobQueue(maxsize=1)
        queue.put(make_job("a"))
        with pytest.raises(QueueFullError):
            queue.put(make_job("b"))

    def test_closed_queue_rejects(self):
        queue = JobQueue(maxsize=4)
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.put(make_job())

    def test_get_returns_none_when_closed_and_drained(self):
        queue = JobQueue(maxsize=4)
        queue.put(make_job("a"))
        queue.close()

        async def run():
            assert (await queue.get()).id == "a"
            assert await queue.get() is None

        asyncio.run(run())

    def test_lazily_cancelled_jobs_are_skipped(self):
        queue = JobQueue(maxsize=4)
        victim, survivor = make_job("victim", 9), make_job("survivor", 0)
        queue.put(victim)
        queue.put(survivor)
        victim.finish(JobState.CANCELLED)
        queue.discard(victim)
        assert len(queue) == 1
        assert [j.id for j in drain(queue)] == ["survivor"]

    def test_get_wakes_on_put(self):
        queue = JobQueue(maxsize=4)

        async def run():
            getter = asyncio.ensure_future(queue.get())
            await asyncio.sleep(0)  # park the getter on a waiter future
            queue.put(make_job("late"))
            return await asyncio.wait_for(getter, timeout=1)

        assert asyncio.run(run()).id == "late"

    def test_close_wakes_all_waiters(self):
        queue = JobQueue(maxsize=4)

        async def run():
            getters = [asyncio.ensure_future(queue.get()) for _ in range(3)]
            await asyncio.sleep(0)
            queue.close()
            return await asyncio.wait_for(
                asyncio.gather(*getters), timeout=1
            )

        assert asyncio.run(run()) == [None, None, None]

    def test_every_queued_job_is_popped_exactly_once(self):
        queue = JobQueue(maxsize=64)
        jobs = [make_job(f"job-{i}", priority=i % 3) for i in range(20)]
        for job in jobs:
            queue.put(job)
        popped = drain(queue)
        assert sorted(j.id for j in popped) == sorted(j.id for j in jobs)
        assert len(queue) == 0

    def test_bad_maxsize(self):
        with pytest.raises(ValueError):
            JobQueue(maxsize=0)


class TestJobStore:
    def test_ids_are_unique_and_resolvable(self):
        store = JobStore()
        a = store.create(JobRequest.parse({}))
        b = store.create(JobRequest.parse({}))
        assert a.id != b.id
        assert store.get(a.id) is a and store.get(b.id) is b
        assert store.get("job-999999") is None

    def test_finished_jobs_are_pruned_live_kept(self):
        store = JobStore(max_finished=2)
        finished = [store.create(JobRequest.parse({})) for _ in range(4)]
        live = store.create(JobRequest.parse({}))
        for job in finished:
            job.finish(JobState.DONE)
        store.create(JobRequest.parse({})).finish(JobState.DONE)
        # Creation triggers pruning; the two oldest finished are gone.
        store.create(JobRequest.parse({}))
        assert store.get(finished[0].id) is None
        assert store.get(live.id) is live

    def test_pruning_follows_finishing_order(self):
        store = JobStore(max_finished=2)
        early, late = (store.create(JobRequest.parse({})) for _ in range(2))
        late.finish(JobState.DONE)
        early.finish(JobState.DONE)
        store.create(JobRequest.parse({})).finish(JobState.DONE)
        store.create(JobRequest.parse({}))
        # ``late`` finished first, so it goes first, though created last.
        assert store.get(late.id) is None
        assert store.get(early.id) is early

    def test_retained_jobs_stay_bounded(self):
        store = JobStore(max_finished=8)
        live = store.create(JobRequest.parse({}))
        for _ in range(100):
            store.create(JobRequest.parse({})).finish(JobState.CANCELLED)
        store.create(JobRequest.parse({}))
        # 8 finished, the first live job and the last one created.
        assert len(store) == 10
        assert store.get(live.id) is live
        assert store.states() == {"queued": 2, "cancelled": 8}

    def test_states_census(self):
        store = JobStore()
        store.create(JobRequest.parse({}))
        store.create(JobRequest.parse({})).finish(JobState.DONE)
        assert store.states() == {"queued": 1, "done": 1}
