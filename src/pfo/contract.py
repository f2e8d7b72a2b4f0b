"""Contractual execution: bucket pledges, redirected faults, fake execution.

The enclave pledges the full set of pages its sensitive code needs (the
*bucket*: the code of every function reachable from `main` and the arrays
those functions index, read off the program's index) plus one reserved page
that must always stay mapped for the fault handler.  A cooperating OS
never unmaps bucket pages, so a run completes with no OS-visible faults;
a cheating OS may steal any page at any time (stealing always succeeds,
so the enclave poses no denial-of-service risk).

When a stolen bucket page is touched, the CPU vectors the fault to the
enclave handler, invisible to the OS.  Two handler policies are modeled:

* naive termination exits at the fault step, which hands an adaptive OS a
  timing oracle: stealing a page and watching when the run dies reveals
  whether and when that page was needed;
* fake execution pads with dummy steps to the full schedule length before
  exiting, so the observable (no faults, fixed termination time) matches a
  honest run exactly.

Stealing the reserved page aborts at the next context entry, regardless
of whether the enclave would have touched it; the handler page is checked
at entry, never at access time, so no double fault can arise.

Every observable is therefore fixed by one integer, the termination step,
and one rule gives it (`termination_steps`): for a page and a list of
steal steps, the step at which each steal ends the run.  Only naive
termination reads the access schedule behind it, off a traced run's
footprints; under fake execution runs go untraced.  The sweep compares,
page by page, one column of termination steps per distinct access list
instead of an observable per (page, step, secret), and builds one
schedule per distinct trace.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional, Sequence

from .lang import Index, walk_all
from .memory import AdversaryModel, PfoError


class ContractError(PfoError):
    pass


@dataclass(frozen=True)
class Contract:
    code_pages: frozenset[int]
    data_pages: frozenset[int]
    reserved_page: int  # always-mapped handler page, counted with code
    total_steps: int

    @property
    def bucket(self) -> frozenset[int]:
        return self.code_pages | self.data_pages | {self.reserved_page}

    @property
    def size(self) -> tuple[int, int]:
        """(code + handler, data) page counts, the bucket-size label."""
        return (len(self.code_pages | {self.reserved_page}), len(self.data_pages))

    @property
    def size_label(self) -> str:
        c, d = self.size
        return f"{c} + {d}"


@dataclass(frozen=True)
class OsStrategy:
    variant: str  # 'honest' | 'steal'
    page: int = -1
    step: int = -1

    @staticmethod
    def honest() -> "OsStrategy":
        return OsStrategy("honest")

    @staticmethod
    def steal(page: int, step: int) -> "OsStrategy":
        return OsStrategy("steal", page, step)


@dataclass(frozen=True)
class EnclaveObservable:
    os_visible_faults: tuple[int, ...]
    termination_step: int
    exit_kind: str  # 'normal' | 'abort-on-entry'


NAIVE_TERMINATE = "naive-terminate"
FAKE_EXECUTE = "fake-execute"


@dataclass(frozen=True)
class AccessSchedule:
    """Per-run page-access times at instruction (logical step) granularity."""

    total_steps: int
    page_steps: dict[int, tuple[int, ...]]


def access_schedule(exe, secret=None, public=None) -> AccessSchedule:
    """The steps at which a run needs each page, from its traced footprints.

    A footprint's `need` lists its distinct pages, code page first, so
    each page gets each step once and pages appear in first-touch order.
    """
    result = exe.run(secret=secret, public=public,
                     model=AdversaryModel.infinite_memory(), collect_trace=True)
    if result.trap is not None:
        raise ContractError(f"contracted run trapped: {result.trap}")
    return _schedule(result.footprints)


def _schedule(footprints) -> AccessSchedule:
    pages: defaultdict[int, list[int]] = defaultdict(list)
    for step, fp in enumerate(footprints):
        for page in fp.need:
            pages[page].append(step)
    return AccessSchedule(len(footprints), {p: tuple(s) for p, s in pages.items()})


def derive_contract(exe, probe_secrets: Iterable[dict]) -> Contract:
    """Bucket and schedule length for a balanced, laid-out program.

    The bucket is every code page of a function reachable from `main` (a
    function without code has none) plus every page of an array those
    functions index: the program's index gives the functions, and the
    in-place layout, whose code units are functions, their pages (a staged
    build, whose code units are blocks, is an error).  The reserved
    handler page is the next unused page.  Schedule length must agree
    across the probe secrets, otherwise the program is not balanced and
    no meaningful contract exists.
    """
    program = exe.program
    layout = exe.layout
    reachable = program.reachable({"main"})
    lengths = program.lowered.code_lengths()
    unplaced = sorted(n for n in reachable if lengths[n] and n not in layout.code_map)
    if unplaced:
        raise ContractError(f"the contract takes in-place builds: function {unplaced[0]!r} "
                            "has code but no code extent in the layout")
    code_pages = {e.page for name in reachable for e in layout.code_map.get(name, ())}
    bodies = [s for name in reachable for s in program.function(name).body]
    arrays = {n.name for n in walk_all(bodies) if isinstance(n, Index)}
    data_pages = {e.page for name in arrays for e in layout.data_extents(name)}

    reserved = max(layout.all_pages() | {0}) + 1

    totals = set()
    probes = list(probe_secrets)
    if not probes:
        raise ContractError("need at least one probe secret")
    for secret in probes:
        result = exe.run(secret=secret, model=AdversaryModel.infinite_memory())
        if result.trap is not None:
            raise ContractError(f"probe run trapped: {result.trap}")
        totals.add(result.steps)
    if len(totals) != 1:
        raise ContractError(
            f"program is not balanced: schedule lengths differ ({sorted(totals)})"
        )
    return Contract(
        frozenset(code_pages), frozenset(data_pages), reserved, totals.pop()
    )


def termination_steps(schedule: AccessSchedule, contract: Contract, page: int,
                      steps: Sequence[int], policy: str) -> list[int]:
    """The steal rule: the step at which the run ends when the OS steals
    `page` at each of `steps`.

    Stealing the reserved page ends the run at the steal (an abort on
    entry).  Any other page never faults to the OS: under fake execution
    the run always ends at the full schedule length; under naive
    termination it ends at the page's next access, or at the full length
    if the page is not touched again.
    """
    total = contract.total_steps
    if policy != NAIVE_TERMINATE and policy != FAKE_EXECUTE:
        raise ContractError(f"unknown policy {policy!r}")
    if steps and not (0 <= min(steps) and max(steps) <= total):
        bad = next(s for s in steps if not 0 <= s <= total)
        raise ContractError(f"steal step {bad} outside [0, {total}]")
    if page == contract.reserved_page:
        return list(steps)
    accesses = schedule.page_steps.get(page)
    if policy == FAKE_EXECUTE or not accesses:
        # the fake-execution handler spins out the remaining time from its
        # dedicated counter, then exits at the full schedule length
        return [total] * len(steps)
    # every access is before `total`, so the first entry at or after a
    # steal step is the next access, else `total`
    ends = accesses + (total,)
    return list(map(ends.__getitem__, map(bisect_left, repeat(ends), steps)))


def observable_for(schedule: AccessSchedule, contract: Contract,
                   strategy: OsStrategy, policy: str) -> EnclaveObservable:
    """Enclave-visible outcome of one run under a steal strategy.

    Contracted pages never fault to the OS; the only observables are the
    termination step and, for reserved-page theft, the entry abort.
    """
    if strategy.variant == "honest":
        return EnclaveObservable((), contract.total_steps, "normal")
    if strategy.variant != "steal":
        raise ContractError(f"unknown strategy {strategy.variant!r}")
    (end,) = termination_steps(schedule, contract, strategy.page,
                               (strategy.step,), policy)
    kind = "abort-on-entry" if strategy.page == contract.reserved_page else "normal"
    return EnclaveObservable((), end, kind)


def _contracted_run(exe, contract: Contract, secret, public, traced: bool,
                    memo: dict):
    """A run under the contract and its schedule.  A traced run's schedule
    is read off its footprints once per list of footprint objects: `memo`
    holds each list it keys on, so no id in a key is reused."""
    result = exe.run(secret=secret, public=public,
                     model=AdversaryModel.infinite_memory(), collect_trace=traced)
    if result.trap is not None:
        raise ContractError(f"contracted run trapped: {result.trap}")
    schedule = AccessSchedule(result.steps, {})
    if traced:
        key = tuple(map(id, result.footprints))
        if key not in memo:
            memo[key] = (result.footprints, _schedule(result.footprints))
        schedule = memo[key][1]
    if schedule.total_steps != contract.total_steps:
        raise ContractError(f"schedule length {schedule.total_steps} does not "
                            f"match the contract ({contract.total_steps})")
    return result, schedule


def run_contractual(exe, contract: Contract, secret, strategy: OsStrategy,
                    policy: str = FAKE_EXECUTE, public=None):
    """One contractual run: the plain simulation (if honest) plus the enclave
    observable, traced only for a naive-termination steal of a non-reserved
    page, the one observable that reads access times."""
    traced = (strategy.variant == "steal" and policy == NAIVE_TERMINATE
              and strategy.page != contract.reserved_page)
    result, schedule = _contracted_run(exe, contract, secret, public, traced, {})
    observable = observable_for(schedule, contract, strategy, policy)
    return (result if strategy.variant == "honest" else None), observable


@dataclass(frozen=True)
class SweepReport:
    policy: str
    secrets_checked: int
    strategies_checked: int
    observable_classes: int
    aborts_consistent: bool
    indistinguishable: bool
    distinguishing: Optional[tuple[int, int, tuple, tuple]] = None  # page, step, s0, s1
    # whether every secret's swept schedule gives each page the same access
    # list, so no steal can tell two secrets apart (under fake execution,
    # which sweeps no access times, always)
    one_schedule: bool = field(default=True, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "policy": self.policy,
            "secrets": self.secrets_checked,
            "strategies": self.strategies_checked,
            "observable_classes": self.observable_classes,
            "aborts_consistent": self.aborts_consistent,
            "indistinguishable": self.indistinguishable,
            "distinguishing_steal": None if self.distinguishing is None else {
                "page": self.distinguishing[0], "step": self.distinguishing[1],
            },
        }


def check_contract_indistinguishability(
        exe, contract: Contract, secrets: Iterable[dict], policy: str,
        steps: Optional[Iterable[int]] = None,
        public=None) -> SweepReport:
    """Sweep honest plus every steal of one bucket page over every secret.

    Under fake execution all non-abort observables must form one class;
    abort observables (reserved-page theft) must at least be independent
    of the secret.  Under naive termination the report names the first
    distinguishing steal point, in page, then step, then secret order.
    """
    (report,) = sweep_policies(exe, contract, secrets, (policy,), steps, public)
    return report


def sweep_policies(
        exe, contract: Contract, secrets: Iterable[dict], policies: Sequence[str],
        steps: Optional[Iterable[int]] = None,
        public=None) -> tuple[SweepReport, ...]:
    """`check_contract_indistinguishability` under each of `policies`, from
    one run per secret, made once every argument is checked: traced only
    for naive termination, the one policy that reads access times."""
    secret_list = list(secrets)
    page_list = sorted(contract.bucket)
    step_list = list(steps if steps is not None else range(contract.total_steps + 1))
    # the steal rule checks its arguments; fake execution reads no access
    # times, so it sweeps a schedule without any
    blank = AccessSchedule(contract.total_steps, {})
    for policy in policies:
        termination_steps(blank, contract, contract.reserved_page, step_list, policy)
    traced = NAIVE_TERMINATE in policies
    memo: dict = {}
    schedules = [_contracted_run(exe, contract, secret, public, traced, memo)[1]
                 for secret in secret_list]
    return tuple(_sweep(contract, secret_list,
                        schedules if policy == NAIVE_TERMINATE else [blank] * len(schedules),
                        policy, page_list, step_list)
                 for policy in policies)


def _sweep(contract: Contract, secret_list: list[dict],
           schedules: list[AccessSchedule], policy: str,
           page_list: list[int], step_list: list[int]) -> SweepReport:
    """One policy's sweep over the secrets' schedules.

    A non-abort observable is its termination step, so each page is one
    column of `termination_steps` per distinct access list: the classes are
    the distinct steps in the columns plus the honest run's, and a steal
    distinguishes where a column departs from the first secret's.
    """
    strategies = 1 + len(page_list) * len(step_list)  # honest, then steals
    if not schedules:
        # no observables at all, so none of the aborts agree either
        aborts = not (step_list and contract.reserved_page in page_list)
        return SweepReport(policy, 0, strategies, 0, aborts, aborts)

    classes = {contract.total_steps}  # the honest run's
    distinguishing = None
    one_schedule = True
    for page in page_list:
        if page == contract.reserved_page:
            # an abort at the steal step whatever the secret, so the aborts
            # always agree
            continue
        columns: dict = {}  # access list -> (first secret with it, column)
        for i, sched in enumerate(schedules):
            accesses = sched.page_steps.get(page)
            if accesses not in columns:
                columns[accesses] = (
                    i, termination_steps(sched, contract, page, step_list, policy))
        one_schedule &= len(columns) == 1
        (_, first), *rest = columns.values()
        classes.update(first)
        diverge = None  # (step index, secret index)
        for i, column in rest:
            if column == first:
                continue
            classes.update(column)
            if distinguishing is None:
                j = next(j for j, (a, b) in enumerate(zip(first, column)) if a != b)
                if diverge is None or j < diverge[0]:
                    diverge = (j, i)
        if diverge is not None:
            j, i = diverge
            distinguishing = (
                page, step_list[j],
                tuple(sorted(secret_list[0].items())),
                tuple(sorted(secret_list[i].items())),
            )

    return SweepReport(
        policy=policy,
        secrets_checked=len(secret_list),
        strategies_checked=strategies,
        observable_classes=len(classes),
        aborts_consistent=True,
        indistinguishable=len(classes) <= 1,
        distinguishing=distinguishing,
        one_schedule=one_schedule,
    )
