"""The four fixed workloads and the correctness gate each pass runs.

A workload is built from its seed alone.  :meth:`Workload.setup` builds
what one or more passes need (engines, sessions, services, tenants and,
for ``warm-readapt``, the pre-adapted layouts) and is timed as
``setup_s``; :meth:`Workload.run_pass` does the measured adaptations,
timing each one; :meth:`Workload.check`, outside the timed window,
counts each adaptation into a :class:`Tally` as ok or failed.  The gate
compares every adapted image's layer digests with the recorded
references and every simulated-time result with its recorded value.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Tuple

from repro.apps.specs import APPS
from repro.core.workflow import ComtainerSession, system_side_adapt
from repro.service import AdaptationService, ServiceCrash
from repro.service.service import STATUS_COMPLETED
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER

from stats import Tally

APP_NAMES = sorted(APPS)
TESTBEDS = (X86_CLUSTER, AARCH64_CLUSTER)
#: The service runs on the x86 testbed (its default system).
SERVICE_TESTBED = X86_CLUSTER.key

TENANTS = 16
REQUESTS_PER_TENANT = 4
ARRIVAL_WINDOW = 60.0
SERVICE_WORKERS = 8


class GateError(Exception):
    """A pass produced output that differs from its reference."""


def layer_key(engine, ref: str) -> List[str]:
    return list(engine.image(ref).layer_key())


def sim_results(report) -> dict:
    """The simulated-time results a service pass must reproduce exactly."""
    return {
        "simulated_seconds": report.simulated_seconds,
        "by_status": report.by_status(),
        "dedup_ratio": report.dedup_ratio,
    }


class Workload:
    name = ""
    #: Set up anew before every pass (else: a few times up front).
    setup_per_pass = True

    def __init__(self, seed: int, refs: dict, tracer=None) -> None:
        self.seed = seed
        self.refs = refs
        self.rng = random.Random(seed)
        #: The traced run's :class:`tracer.Tracer` (None when untraced).
        self.tracer = tracer
        self.notes: List[str] = []

    def calibrate(self) -> None:
        """Untimed preparation of the gate's references (default: none)."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self):
        """The measured work of one pass; returns what :meth:`check` needs."""
        raise NotImplementedError

    def check(self, result, tally: Tally) -> None:
        """Count the pass's adaptations; raises :class:`GateError` for a
        finding that is not one adaptation's."""
        raise NotImplementedError

    def count(self, name: str, by: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, by)

    def expect_layers(self, testbed: str, app: str, key: List[str]) -> None:
        if key != self.refs["layers"][testbed][app]:
            raise GateError(f"{testbed}/{app}: layer digests differ from reference")

    def expect_sim(self, kind: str, got: dict) -> None:
        """Simulated results equal the recorded ones for this seed, or,
        for a seed with no record, the first pass of this run."""
        recorded = self.refs.get(kind, {}).get(str(self.seed))
        if recorded is None:
            recorded = self.refs.setdefault(kind, {})[str(self.seed)] = got
            self.notes.append(f"{kind}: seed {self.seed} has no recorded "
                              "simulated results; passes must agree")
        for field, value in recorded.items():
            if got.get(field) != value:
                raise GateError(f"{kind}: {field} = {got.get(field)!r}, "
                                f"recorded {value!r}")


# ---------------------------------------------------------------------------
# session workloads
# ---------------------------------------------------------------------------

class _SessionWorkload(Workload):
    def _pairs(self) -> List[Tuple[str, str]]:
        pairs = [(bed.key, app) for bed in TESTBEDS for app in APP_NAMES]
        self.rng.shuffle(pairs)
        return pairs

    def _timed(self, testbed: str, app: str, adapt: Callable[[], str]) -> tuple:
        """Run one adaptation: ``(testbed, app, seconds, ref)``, or
        ``(testbed, app, None, error)`` when it raised."""
        tracer = self.tracer
        previous = tracer.set_context(f"{testbed}/{app}") if tracer else None
        start = time.perf_counter()
        try:
            ref = adapt()
        except Exception as exc:   # an adaptation error counts as failed
            return testbed, app, None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.restore(previous)
        return testbed, app, elapsed, ref

    def check(self, result, tally: Tally) -> None:
        for testbed, app, elapsed, ref in result:
            if elapsed is None:
                tally.fail(f"{testbed}/{app}: {ref}")
                continue
            try:
                self.expect_layers(testbed, app, layer_key(
                    self.sessions[testbed].system_engine, ref))
            except (GateError, KeyError) as exc:
                tally.fail(str(exc))
                continue
            tally.ok(elapsed)


class ColdAdapt(_SessionWorkload):
    """Fresh sessions per testbed, then ``adapt()`` on all 11 apps."""

    name = "cold-adapt"

    def setup(self) -> None:
        self.sessions = {bed.key: ComtainerSession(system=bed) for bed in TESTBEDS}

    def run_pass(self) -> list:
        return [self._timed(testbed, app, lambda: self.sessions[testbed].adapt(app))
                for testbed, app in self._pairs()]


class WarmReadapt(_SessionWorkload):
    """The 22 layouts adapted once in set-up, then re-adapted identically
    with ``system_side_adapt``.  Each pass commits under a different ref
    than the pass before; two refs alternate, so the images of older
    passes are freed and memory does not grow with the number of passes."""

    name = "warm-readapt"
    setup_per_pass = False

    def setup(self) -> None:
        self.sessions = {}
        for bed in TESTBEDS:
            session = ComtainerSession(system=bed)
            for app in APP_NAMES:
                session.adapt(app)
            self.sessions[bed.key] = session
        self.passes = 0

    def run_pass(self) -> list:
        self.passes += 1
        return [self._timed(testbed, app, lambda: self._readapt(testbed, app))
                for testbed, app in self._pairs()]

    def _readapt(self, testbed: str, app: str) -> str:
        s = self.sessions[testbed]
        layout, _ = s.extended_layout(app)
        return system_side_adapt(
            s.system_engine, layout, s.system, recorder=s.recorder,
            flavor=s.flavor, ref=f"{app}:readapt{self.passes % 2}", nodes=s.nodes,
            jobs=s.jobs)


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------

class _ExecuteClock:
    """Wall time the service spends executing each request.

    The service dispatches every request inside one ``run()`` call, so a
    request's wall time is taken around ``AdaptationService._execute``,
    the per-request dispatch step, summed over every time it runs.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def __enter__(self) -> "_ExecuteClock":
        self._original = original = AdaptationService._execute
        seconds = self.seconds

        def timed(service, request, tenant):
            start = time.perf_counter()
            try:
                return original(service, request, tenant)
            finally:
                rid = request.request_id
                seconds[rid] = seconds.get(rid, 0.0) + time.perf_counter() - start

        AdaptationService._execute = timed
        return self

    def __exit__(self, *exc) -> None:
        AdaptationService._execute = self._original


class ServeMix(Workload):
    """One volatile ``AdaptationService(workers=8)``, 16 tenants x 4
    requests over all 11 apps, arrivals uniform over 60 s.

    The seed shuffles the 11 apps and deals them round-robin, four
    distinct apps per tenant, then draws every arrival time.  So every
    app is asked for 5 or 6 times and every (tenant, app) pair at most
    once: the seed changes who asks for which app and when, and with it
    the dedup pattern, but not how much work or memory a pass needs.
    """

    name = "serve-mix"
    durable = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        apps = list(APP_NAMES)
        self.rng.shuffle(apps)
        self.arrivals = [
            (f"t{tenant:02d}", apps[(REQUESTS_PER_TENANT * tenant + k) % len(apps)],
             self.rng.uniform(0.0, ARRIVAL_WINDOW))
            for tenant in range(TENANTS) for k in range(REQUESTS_PER_TENANT)
        ]

    def _service(self, **kwargs) -> AdaptationService:
        service = AdaptationService(workers=SERVICE_WORKERS, seed=self.seed,
                                    durable=self.durable, **kwargs)
        for tenant in range(TENANTS):
            service.add_tenant(f"t{tenant:02d}", max_workers=2)
        return service

    def _submit(self, service: AdaptationService) -> List[str]:
        return [service.submit(tenant, app, at=at).request_id
                for tenant, app, at in self.arrivals]

    def setup(self) -> None:
        self.service = self._service()
        self.request_ids = self._submit(self.service)

    def run_pass(self):
        """``(report or the exception run() raised, seconds per request)``."""
        with _ExecuteClock() as clock:
            try:
                return self.service.run(), clock.seconds
            except Exception as exc:   # every request of the pass failed
                return exc, clock.seconds

    def check(self, result, tally: Tally) -> None:
        report, seconds = result
        if self.failed_run(report, tally):
            return
        self.count("service.deduped_requests", report.deduped_requests)
        self.judge(tally, report, seconds, lambda outcome: self.service)
        self.expect_sim("serve", sim_results(report))

    def failed_run(self, report, tally: Tally) -> bool:
        if not isinstance(report, Exception):
            return False
        for _ in self.request_ids:
            tally.fail(f"service run failed: {type(report).__name__}: {report}")
        return True

    def judge(self, tally: Tally, report, seconds: Dict[str, float],
              producer: Callable) -> None:
        """Count each request once: ok with its wall time, or failed."""
        by_id: Dict[str, list] = {}
        for outcome in report.outcomes:
            by_id.setdefault(outcome.request_id, []).append(outcome)
        for rid in self.request_ids:
            outcomes = by_id.get(rid, [])
            if len(outcomes) != 1:
                tally.fail(f"{rid}: {len(outcomes)} terminal outcomes")
                continue
            outcome = outcomes[0]
            if outcome.status != STATUS_COMPLETED:
                tally.fail(f"{rid}: terminal status {outcome.status}")
                continue
            engine = producer(outcome).tenants[outcome.tenant].engine
            try:
                self.expect_layers(SERVICE_TESTBED, outcome.app, layer_key(
                    engine, f"{outcome.tenant}/{outcome.app}:adapted"))
            except (GateError, KeyError) as exc:
                tally.fail(f"{rid}: {exc}")
                continue
            if rid not in seconds:
                tally.fail(f"{rid}: completed without executing")
                continue
            tally.ok(seconds[rid])


class ServeDurableCrash(ServeMix):
    """The ``serve-mix`` inputs with ``durable=True``: a torn crash at the
    midpoint of a crash-free run's WAL, then ``restart()`` to the end."""

    name = "serve-durable-crash"
    durable = True

    def calibrate(self) -> None:
        service = self._service()
        self._submit(service)
        report = service.run()
        self.crash_after = len(service.wal.records) // 2
        self.reference = sorted((o.request_id, o.app, o.status)
                                for o in report.outcomes)
        self.notes.append(f"crash-free WAL holds {len(service.wal.records)} "
                          f"records; crashing after {self.crash_after}")

    def setup(self) -> None:
        self.service = self._service(crash_after_records=self.crash_after,
                                     crash_torn=True)
        self.request_ids = self._submit(self.service)

    def run_pass(self):
        """``(restarted service, report or exception, seconds per request)``."""
        restarted = None
        with _ExecuteClock() as clock:
            try:
                try:
                    self.service.run()
                    raise GateError("the service did not crash")
                except ServiceCrash:
                    pass
                restarted = self.service.restart()
                return restarted, restarted.run(), clock.seconds
            except Exception as exc:   # every request of the pass failed
                return restarted, exc, clock.seconds

    def check(self, result, tally: Tally) -> None:
        crashed = self.service
        restarted, report, seconds = result
        if self.failed_run(report, tally):
            return
        dispatched = {r["request_id"] for r in crashed.wal.by_kind("dispatch")}
        self.count("wal.reexecuted_nodes", sum(
            o.executed_nodes for o in report.outcomes
            if not o.recovered and o.request_id in dispatched))
        self.count("wal.bytes", len(restarted.wal.flushed_bytes))
        self.count("service.deduped_requests", report.deduped_requests)
        self.judge(tally, report, seconds,
                   lambda o: crashed if o.recovered else restarted)
        terminals = restarted.wal.terminal_counts()
        if sorted(terminals) != sorted(self.request_ids) or set(terminals.values()) != {1}:
            raise GateError("a request does not have exactly one terminal record")
        outcomes = sorted((o.request_id, o.app, o.status) for o in report.outcomes)
        if outcomes != self.reference:
            raise GateError("outcomes differ from the crash-free run")
        self.expect_sim("durable", sim_results(report))


WORKLOADS = {w.name: w for w in (ColdAdapt, WarmReadapt, ServeMix,
                                 ServeDurableCrash)}
