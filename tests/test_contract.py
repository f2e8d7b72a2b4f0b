import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from pfo.contract import (
    FAKE_EXECUTE,
    NAIVE_TERMINATE,
    AccessSchedule,
    Contract,
    ContractError,
    OsStrategy,
    SweepReport,
    access_schedule,
    check_contract_indistinguishability,
    derive_contract,
    observable_for,
    run_contractual,
    sweep_policies,
)
from pfo.corpus import make_table_cases, powm_balanced_source
from pfo.interp import AstExecutable, Footprint, SimulationResult
from pfo.lang import parse
from pfo.leakage import SecretDomain
from pfo.memory import AdversaryModel, EventKind, _instruction_groups
from pfo.optimize import build_defense
from pfo.suites import CONTRACT_WIDTHS, case_source, contract_case

RNG = random.Random(7)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def aes_exe(key_bits=16):
    case = make_table_cases()["aes"]
    return AstExecutable(parse(case.source(key_bytes=key_bits // 8)))


def aes_probes(key_bits=16):
    return [{"k": 0}, {"k": (1 << key_bits) - 1}, {"k": 0x1A3E & ((1 << key_bits) - 1)}]


class TestDeriveContract:
    def test_aes_bucket_three_plus_three(self):
        exe = aes_exe()
        contract = derive_contract(exe, aes_probes())
        assert contract.size == (3, 3)
        assert contract.size_label == "3 + 3"

    def test_powm_bucket_twentyone_plus_one(self):
        exe = AstExecutable(parse(powm_balanced_source(12)))
        contract = derive_contract(exe, [{"d": 0}, {"d": 4095}, {"d": 0x5A5}])
        assert contract.size == (21, 1)
        assert contract.size_label == "21 + 1"

    def test_single_page_program(self):
        exe = AstExecutable(parse("""
        output int y;
        fn main() { y = 7; }
        """))
        contract = derive_contract(exe, [{}])
        assert len(contract.code_pages) == 1
        assert contract.data_pages == frozenset()
        assert contract.reserved_page not in contract.code_pages

    def test_unbalanced_program_rejected(self):
        exe = AstExecutable(parse("""
        secret int<4> s;
        output int y;
        fn main() {
          y = 0;
          while (s != 0) bound 4 {
            y = y + 1;
            s = s >> 1;
          }
        }
        """))
        with pytest.raises(ContractError, match="not balanced"):
            derive_contract(exe, [{"s": 0}, {"s": 15}])

    def test_staged_build_rejected(self):
        # a staged layout places blocks, not functions, and a staging copy is
        # one footprint of many steps, so no contract of steps can be read
        # off it; the check reads only the program and the layout
        exe = build_defense(parse(case_source("aes", 8))).executable()
        seen = SimpleNamespace(program=exe.program, layout=exe.layout)
        with pytest.raises(ContractError, match="takes in-place builds"):
            derive_contract(seen, [{"k": 0}, {"k": 255}])

    def test_reserved_page_in_bucket(self):
        exe = aes_exe()
        contract = derive_contract(exe, aes_probes())
        assert contract.reserved_page in contract.bucket


class TestRunContractual:
    def test_honest_run_no_faults_full_schedule(self):
        exe = aes_exe()
        contract = derive_contract(exe, aes_probes())
        result, obs = run_contractual(
            exe, contract, {"k": 0x1A3E}, OsStrategy.honest(), FAKE_EXECUTE
        )
        assert obs.os_visible_faults == ()
        assert obs.termination_step == contract.total_steps
        assert obs.exit_kind == "normal"
        assert result.outputs == exe.run(secret={"k": 0x1A3E}).outputs

    def test_steal_with_fake_execution_matches_honest(self):
        exe = aes_exe()
        contract = derive_contract(exe, aes_probes())
        _, honest = run_contractual(
            exe, contract, {"k": 0x2B}, OsStrategy.honest(), FAKE_EXECUTE
        )
        mid = contract.total_steps // 2
        for page in sorted(contract.bucket - {contract.reserved_page}):
            _, stolen = run_contractual(
                exe, contract, {"k": 0x2B}, OsStrategy.steal(page, mid), FAKE_EXECUTE
            )
            assert stolen == honest

    def test_naive_termination_is_an_oracle(self):
        # One secret never touches the stolen page, the other does: the
        # abrupt-termination times differ, advantage 1.
        exe = aes_exe(key_bits=8)
        contract = derive_contract(exe, [{"k": 0}, {"k": 255}])
        low_page = 1  # table1 low side: indexes below 0x1C
        i_low = {"k": 0x1A}   # first lookup lands on the low page
        i_high = {"k": 0xF0}  # never touches it
        _, obs_low = run_contractual(
            exe, contract, i_low, OsStrategy.steal(low_page, 0), NAIVE_TERMINATE
        )
        _, obs_high = run_contractual(
            exe, contract, i_high, OsStrategy.steal(low_page, 0), NAIVE_TERMINATE
        )
        assert obs_low.termination_step < contract.total_steps
        assert obs_high.termination_step == contract.total_steps
        assert obs_low != obs_high

    def test_stealing_reserved_page_aborts_on_entry(self):
        exe = aes_exe()
        contract = derive_contract(exe, aes_probes())
        _, obs = run_contractual(
            exe, contract, {"k": 1}, OsStrategy.steal(contract.reserved_page, 5),
            FAKE_EXECUTE,
        )
        assert obs.exit_kind == "abort-on-entry"
        assert obs.termination_step == 5
        assert obs.os_visible_faults == ()

    @pytest.mark.parametrize("strategy, policy, traced", [
        (OsStrategy.honest(), FAKE_EXECUTE, False),
        (OsStrategy.honest(), NAIVE_TERMINATE, False),
        (OsStrategy.steal(1, 2), FAKE_EXECUTE, False),
        (OsStrategy.steal(1, 2), NAIVE_TERMINATE, True),
        (OsStrategy.steal(0, 4), NAIVE_TERMINATE, True),
        (OsStrategy.steal(2, 1), NAIVE_TERMINATE, False),  # the reserved page
    ], ids=["honest-fake", "honest-naive", "steal-fake", "steal-naive",
            "steal-code-naive", "steal-reserved-naive"])
    def test_one_run_traced_only_when_access_times_are_read(self, strategy,
                                                             policy, traced):
        exe = ScriptedExe(scripted_runs())
        result, obs = run_contractual(exe, SCRIPTED_CONTRACT, {"s": 1}, strategy, policy)
        assert exe.calls == [(1, traced)]
        schedule = access_schedule(exe, {"s": 1})
        assert obs == observable_for(schedule, SCRIPTED_CONTRACT, strategy, policy)
        assert (result is not None) == (strategy.variant == "honest")

    def test_steal_always_succeeds_any_page_any_step(self):
        exe = aes_exe()
        contract = derive_contract(exe, aes_probes())
        for page in sorted(contract.bucket):
            for step in (0, contract.total_steps):
                run_contractual(exe, contract, {"k": 9},
                                OsStrategy.steal(page, step), FAKE_EXECUTE)


class TestIndistinguishabilitySweep:
    def test_fake_execution_single_class(self):
        exe = aes_exe(key_bits=8)
        contract = derive_contract(exe, [{"k": 0}, {"k": 255}])
        secrets = [{"k": v} for v in range(0, 256, 5)]
        report = check_contract_indistinguishability(
            exe, contract, secrets, FAKE_EXECUTE
        )
        assert report.indistinguishable
        assert report.observable_classes == 1
        assert report.aborts_consistent

    def test_naive_termination_at_least_two_classes(self):
        exe = aes_exe(key_bits=8)
        contract = derive_contract(exe, [{"k": 0}, {"k": 255}])
        secrets = [{"k": v} for v in range(0, 256, 5)]
        report = check_contract_indistinguishability(
            exe, contract, secrets, NAIVE_TERMINATE
        )
        assert not report.indistinguishable
        assert report.observable_classes >= 2
        assert report.distinguishing is not None
        page, step, s0, s1 = report.distinguishing
        assert page in contract.bucket

    def test_zero_length_region_single_class(self):
        exe = AstExecutable(parse("""
        output int y;
        fn main() { y = 1; }
        """))
        contract = derive_contract(exe, [{}])
        report = check_contract_indistinguishability(
            exe, contract, [{}], FAKE_EXECUTE
        )
        assert report.indistinguishable


def brute_force_sweep(exe, contract, secrets, policy, steps=None, public=None):
    """The sweep as its definition states it: one `observable_for` per
    (page, step, secret), in page, then step, then secret order."""
    schedules = [access_schedule(exe, s, public) for s in secrets]
    if steps is None:
        steps = range(contract.total_steps + 1)
    pages = sorted(contract.bucket)
    non_abort = {observable_for(sched, contract, OsStrategy.honest(), policy)
                 for sched in schedules}
    aborts_consistent = True
    distinguishing = None
    strategies = 1
    for page in pages:
        for step in steps:
            strategies += 1
            per_secret = [
                observable_for(sched, contract, OsStrategy.steal(page, step), policy)
                for sched in schedules
            ]
            if page == contract.reserved_page:
                aborts_consistent &= len(set(per_secret)) == 1
                continue
            for i, obs in enumerate(per_secret):
                if distinguishing is None and obs != per_secret[0]:
                    distinguishing = (page, step,
                                      tuple(sorted(secrets[0].items())),
                                      tuple(sorted(secrets[i].items())))
                non_abort.add(obs)
    return SweepReport(
        policy=policy,
        secrets_checked=len(secrets),
        strategies_checked=strategies,
        observable_classes=len(non_abort),
        aborts_consistent=aborts_consistent,
        indistinguishable=len(non_abort) <= 1 and aborts_consistent,
        distinguishing=distinguishing,
    )


class ScriptedExe:
    """An executable whose traced runs replay fixed footprint lists, one
    per value of the secret `s`; `calls` logs each run's secret value and
    whether it was traced."""

    def __init__(self, runs):
        self.runs = runs
        self.calls = []

    def run(self, secret=None, public=None, model=None, collect_trace=False):
        self.calls.append((secret["s"], collect_trace))
        footprints = list(self.runs[secret["s"]])
        return SimulationResult({}, [], len(footprints), 0, 0, 0,
                                footprints=footprints if collect_trace else None)


def scripted_runs():
    """Four steps on code page 0; data page 1 read at different steps.

    Against secret 0 (reads at 1 and 3), secret 1 (reads at 1 and 2)
    first diverges at steal step 2 and secret 2 (reads at 0 and 3) at
    step 0: a later secret diverging at an earlier step."""
    code = Footprint(0)
    read = Footprint(0, (1,), (EventKind.DATA_READ,))
    return {
        0: [code, read, code, read],
        1: [code, read, read, code],
        2: [read, code, code, read],
    }


SCRIPTED_CONTRACT = Contract(frozenset({0}), frozenset({1}), 2, 4)


class TestIntegerSweep:
    @pytest.mark.parametrize("policy", [FAKE_EXECUTE, NAIVE_TERMINATE])
    @pytest.mark.parametrize("name", ["aes", "powm", "eddsa"])
    def test_matches_brute_force_over_full_step_range(self, name, policy):
        width = CONTRACT_WIDTHS.get(name, 12)
        exe, probes, secret_name = contract_case(name, width)
        contract = derive_contract(exe, probes)
        rng = random.Random(11)
        secrets = probes + [{secret_name: rng.randrange(1 << width)}
                            for _ in range(6)]
        report = check_contract_indistinguishability(exe, contract, secrets, policy)
        assert report == brute_force_sweep(exe, contract, secrets, policy)
        assert report.strategies_checked == (
            1 + len(contract.bucket) * (contract.total_steps + 1))
        if policy == NAIVE_TERMINATE and name != "eddsa":
            assert report.distinguishing is not None

    @pytest.mark.parametrize("policy", [FAKE_EXECUTE, NAIVE_TERMINATE])
    def test_distinguishing_is_step_major_across_secrets(self, policy):
        exe = ScriptedExe(scripted_runs())
        secrets = [{"s": 0}, {"s": 1}, {"s": 2}]
        report = check_contract_indistinguishability(exe, SCRIPTED_CONTRACT, secrets, policy)
        assert report == brute_force_sweep(exe, SCRIPTED_CONTRACT, secrets, policy)
        if policy == NAIVE_TERMINATE:
            assert report.distinguishing == (1, 0, (("s", 0),), (("s", 2),))
            assert report.observable_classes == 5  # ends 0..4
        else:
            assert report.distinguishing is None

    def test_both_policies_from_one_run_per_secret(self):
        self.check_runs((FAKE_EXECUTE, NAIVE_TERMINATE), traced=True)

    @pytest.mark.parametrize("policy, traced", [(FAKE_EXECUTE, False),
                                                (NAIVE_TERMINATE, True)])
    def test_one_run_per_secret_traced_only_for_naive(self, policy, traced):
        self.check_runs((policy,), traced)

    @staticmethod
    def check_runs(policies, traced):
        exe = ScriptedExe(scripted_runs())
        secrets = [{"s": 0}, {"s": 1}, {"s": 2}]
        reports = sweep_policies(exe, SCRIPTED_CONTRACT, secrets, policies)
        assert exe.calls == [(s["s"], traced) for s in secrets]
        assert reports == tuple(brute_force_sweep(exe, SCRIPTED_CONTRACT, secrets, policy)
                                for policy in policies)

    @pytest.mark.parametrize("values, naive_one", [
        ((0, 3), True),    # 3 replays 0's footprints: one schedule
        ((0, 3, 1), False),
    ])
    def test_one_schedule_when_every_secret_shares_it(self, values, naive_one):
        runs = scripted_runs()
        runs[3] = [Footprint(fp.code, fp.pages, fp.kinds) for fp in runs[0]]
        secrets = [{"s": v} for v in values]
        fake, naive = sweep_policies(ScriptedExe(runs), SCRIPTED_CONTRACT, secrets,
                                     (FAKE_EXECUTE, NAIVE_TERMINATE))
        # fake execution sweeps no access times
        assert (fake.one_schedule, naive.one_schedule) == (True, naive_one)
        assert naive.distinguishing is None or not naive_one

    @pytest.mark.parametrize("policy", [FAKE_EXECUTE, NAIVE_TERMINATE])
    def test_shared_and_equal_traces_match_brute_force(self, policy):
        # secrets 3 and 4 replay secret 0's footprint objects, secret 5 the
        # same footprints as distinct objects, and 6 shares secret 1's
        runs = scripted_runs()
        runs[3] = runs[4] = runs[0]
        runs[5] = [Footprint(fp.code, fp.pages, fp.kinds) for fp in runs[0]]
        runs[6] = runs[1]
        exe = ScriptedExe(runs)
        secrets = [{"s": v} for v in (0, 3, 1, 4, 5, 2, 6)]
        report = check_contract_indistinguishability(exe, SCRIPTED_CONTRACT, secrets, policy)
        assert report == brute_force_sweep(exe, SCRIPTED_CONTRACT, secrets, policy)

    @pytest.mark.parametrize("policy", [FAKE_EXECUTE, NAIVE_TERMINATE])
    def test_equal_footprint_objects_give_the_same_report(self, policy):
        runs = scripted_runs()
        runs[3] = [Footprint(fp.code, fp.pages, fp.kinds) for fp in runs[1]]
        exe = ScriptedExe(runs)
        reports = [
            check_contract_indistinguishability(
                exe, SCRIPTED_CONTRACT, [{"s": 0}, {"s": v}, {"s": 2}], policy)
            for v in (1, 3)
        ]
        assert reports[0] == brute_force_sweep(
            exe, SCRIPTED_CONTRACT, [{"s": 0}, {"s": 1}, {"s": 2}], policy)
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("policies, steps", [
        (("bogus",), None),
        ((FAKE_EXECUTE, "bogus"), None),
        ((FAKE_EXECUTE,), [0, 99]),
        ((NAIVE_TERMINATE,), [-1, 0]),
    ], ids=["bogus", "fake-then-bogus", "past-the-end", "negative"])
    @pytest.mark.parametrize("values", [[], [0, 1]], ids=["no-secrets", "two-secrets"])
    def test_bad_arguments_raise_before_any_run(self, policies, steps, values):
        exe = ScriptedExe(scripted_runs())
        secrets = [{"s": v} for v in values]
        with pytest.raises(ContractError, match="unknown policy|outside"):
            sweep_policies(exe, SCRIPTED_CONTRACT, secrets, policies, steps=steps)
        assert exe.calls == []

    def test_schedule_from_scripted_footprints(self):
        exe = ScriptedExe(scripted_runs())
        assert access_schedule(exe, {"s": 1}) == AccessSchedule(
            4, {0: (0, 1, 2, 3), 1: (1, 2)})

    def test_out_of_range_steal_step_raises(self):
        exe = aes_exe(key_bits=8)
        contract = derive_contract(exe, [{"k": 0}, {"k": 255}])
        schedule = access_schedule(exe, {"k": 3})
        page = min(contract.data_pages)
        for step in (-1, contract.total_steps + 1):
            with pytest.raises(ContractError, match="outside"):
                observable_for(schedule, contract, OsStrategy.steal(page, step),
                               NAIVE_TERMINATE)
            with pytest.raises(ContractError, match="outside"):
                check_contract_indistinguishability(
                    exe, contract, [{"k": 3}], FAKE_EXECUTE, steps=[0, step])

    def test_unknown_policy_raises(self):
        exe = aes_exe(key_bits=8)
        contract = derive_contract(exe, [{"k": 0}, {"k": 255}])
        schedule = access_schedule(exe, {"k": 3})
        page = min(contract.data_pages)
        with pytest.raises(ContractError, match="unknown policy"):
            observable_for(schedule, contract, OsStrategy.steal(page, 0), "bogus")
        with pytest.raises(ContractError, match="unknown policy"):
            check_contract_indistinguishability(exe, contract, [{"k": 3}], "bogus")


def reference_schedule(trace) -> AccessSchedule:
    """The schedule regrouped from expanded events, one group per step."""
    pages: dict[int, list[int]] = {}
    step = -1
    for step, group in enumerate(_instruction_groups(trace)):
        for ev in group:
            steps = pages.setdefault(ev.page, [])
            if not steps or steps[-1] != step:
                steps.append(step)
    return AccessSchedule(step + 1, {p: tuple(s) for p, s in pages.items()})


class TestAccessSchedule:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.pfo")), ids=lambda p: p.stem)
    def test_matches_regrouped_trace(self, path):
        program = parse(path.read_text())
        exe = AstExecutable(program)
        for secret in SecretDomain.of(program).sample(2, 0):
            traced = exe.run(secret=secret, model=AdversaryModel.infinite_memory(),
                             collect_trace=True)
            schedule = access_schedule(exe, secret)
            reference = reference_schedule(traced.trace)
            assert schedule == reference
            assert list(schedule.page_steps) == list(reference.page_steps)

    def test_trapping_run_rejected(self):
        exe = AstExecutable(parse("""
        #pragma page_size 16
        public int i;
        output int y;
        int t[4];
        fn main() {
          t[0] = 7;
          y = t[i];
        }
        """))
        traced = exe.run(public={"i": 9}, model=AdversaryModel.infinite_memory(),
                         collect_trace=True)
        assert traced.trap is not None
        assert reference_schedule(traced.trace).total_steps == len(traced.footprints)
        with pytest.raises(ContractError, match="trapped"):
            access_schedule(exe, public={"i": 9})
