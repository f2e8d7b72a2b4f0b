"""The four workloads of the pfo benchmark.

Each workload draws its inputs from the benchmark seed in `__init__` (the
set-up, which also parses what is parsed only once) and then repeats
`run_pass`, the unit of timed work.  A pass builds the program under test,
runs it, checks every output against a reference that does not come from
the layer under test, and returns exact counts that must repeat from pass
to pass and from process to process.

`pfo` functions are looked up through their modules at call time, so the
traced run sees the wrapped entry points (see `spans.instrument`).

Durations are read from the meter's clock.  The worker's clock counts CPU
time, scaled to a reference host speed (`hostspeed.HostSpeed.now`): the
benchmark is single-threaded and does no I/O, and on a shared host wall
time also counts the moments the host runs someone else.
"""

from __future__ import annotations

import dataclasses
import gc
import random

from pfo import contract, corpus, interp, lang, leakage, optimize, suites


class Meter:
    """Measurements of the untraced run, shared by every workload, timed by `clock`.

    A build sample is the time to build every program under test once; a
    first-run sample is the first run of each of them after that build,
    summed.
    """

    # latency samples kept: two verify-aes passes.  A fixed cap keeps the
    # sample count, and the memory it takes, the same however fast ops get.
    MAX_OP_SAMPLES = 1 << 17

    def __init__(self, tally, clock):
        self.tally = tally
        self.clock = clock
        self.ops = 0
        self.op_seconds: list[float] = []
        self.build_seconds: list[float] = []
        self.first_run_seconds: list[float] = []
        self.steady_run_seconds = 0.0
        self.steady_steps = 0
        self.begin_pass()

    def op(self, seconds: float):
        self.ops += 1
        if len(self.op_seconds) < self.MAX_OP_SAMPLES:
            self.op_seconds.append(seconds)

    def begin_pass(self):
        self.runs = self.steps = self.faults = self.copy_ops = 0

    def run(self, seconds: float, result, steady: bool = True):
        """Account one simulated run; steady runs feed `us_per_step`."""
        self.runs += 1
        self.steps += result.steps
        self.faults += result.faults
        self.copy_ops += result.copy_ops
        if steady:
            self.steady_run_seconds += seconds
            self.steady_steps += result.steps

    def sim_counts(self) -> dict:
        return {
            "sim_steps_per_run": self.steps / self.runs,
            "sim_faults_per_run": self.faults / self.runs,
            "sim_copy_ops_per_run": self.copy_ops / self.runs,
        }


def _bits_value(bits) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


class VerifyAes:
    """Exhaustive obliviousness verdict over 2^16 two-byte AES keys."""

    name = "verify-aes"
    op_unit = "simulated run"
    ops_per_pass = 1 << 16
    builds_per_pass = 128  # together ~2 % of a pass; enough for a steady median
    output_samples = 256

    def __init__(self, seed: int):
        self.case = corpus.make_table_cases()["aes"]
        self.program = lang.parse(self.case.source(key_bytes=2))
        rng = random.Random(seed)
        self.probe = rng.randrange(1 << 16)
        self.sampled = frozenset(rng.sample(range(1 << 16), self.output_samples))

    def expected(self, k: int) -> int:
        return corpus.table_reference(self.case, k, 0, key_bytes=2)

    def build(self):
        # O1 + O2 over the staged build: suites.defended_build("aes", 16)
        staged = optimize.build_staged(self.program)
        return optimize.opt_page_realign(optimize.opt_readonly_elim(staged))

    def timed_build(self, m: Meter):
        clock = m.clock
        # empty young generations, so that every timed build and first run
        # meets the collector in the same state whatever ran before it
        gc.collect(1)
        t0 = clock()
        build = self.build()
        t1 = clock()
        first = build.run(secret={"k": self.probe}, public={"p": 0})
        t2 = clock()
        m.build_seconds.append(t1 - t0)
        m.first_run_seconds.append(t2 - t1)
        m.run(t2 - t1, first, steady=False)
        m.tally.check(first.outputs["y"] == self.expected(self.probe),
                      f"aes k={self.probe}: first-run output")
        return build

    def run_pass(self, m: Meter) -> dict:
        clock = m.clock
        check = m.tally.check
        # every run uses the pass's first build, so that run latency does not
        # depend on which build served which keys; the other timed builds are
        # spread over the pass, so that they meet the host in all its states
        build = self.timed_build(m)
        spacing = self.ops_per_pass // self.builds_per_pass
        sampled = self.sampled
        n = 0

        def runner(secret):
            nonlocal n
            n += 1
            if n % spacing == 0 and n < self.ops_per_pass:
                self.timed_build(m)
            t = clock()
            result = build.run(secret=secret, public={"p": 0})
            dt = clock() - t
            m.op(dt)
            m.run(dt, result)
            k = secret["k"]
            if k in sampled:
                check(result.outputs["y"] == self.expected(k), f"aes k={k}: output")
            return result.profile

        domain = leakage.SecretDomain.of(self.program)
        verdict = leakage.verify_pfo(runner, domain.exhaustive())
        check(verdict.oblivious and verdict.classes == 1
              and verdict.inputs_checked == 1 << 16,
              f"aes verdict: {verdict.classes} classes over "
              f"{verdict.inputs_checked} inputs")
        counts = _build_counts(build)
        counts["leakage.classes"] = verdict.classes
        return counts

    def final_checks(self, tally) -> None:
        built = self.build().plan.to_json()
        tally.check(built == suites.defended_build("aes", 16).plan.to_json(),
                    "aes: O1+O2 plan differs from suites.defended_build")


class BuildEddsa:
    """Parse, O5, staged build and first run of the full-size EdDSA encoding."""

    name = "build-eddsa"
    op_unit = "steady simulated run"
    steady_runs = 25
    ops_per_pass = steady_runs
    # first runs per build, each of a copy of the build that has not
    # compiled yet: more first-run samples than the builds alone give
    first_runs = 2

    def __init__(self, seed: int):
        self.source = corpus.eddsa_full_source()
        rng = random.Random(seed)
        self.secrets = [
            {"k": rng.getrandbits(corpus.EDDSA_FULL_WIDTH)}
            for _ in range(1 + self.steady_runs)
        ]

    def run_pass(self, m: Meter) -> dict:
        clock = m.clock
        check = m.tally.check

        def check_run(secret, result):
            k = secret["k"]
            check(result.outputs["rx"] == corpus.eddsa_reference(k)
                  and result.mux_accesses == corpus.EDDSA_FULL_MUX_ACCESSES,
                  f"eddsa k={k:#x}: rx {result.outputs['rx']}, "
                  f"mux accesses {result.mux_accesses}")

        t0 = clock()
        program, report = optimize.opt_if_convert(lang.parse(self.source))
        build = optimize.build_staged(program)
        # the build's garbage is collected as part of it, not at whatever
        # point of the first run the collector happens to reach it
        gc.collect()
        m.build_seconds.append(clock() - t0)
        check(report.converted == 1, f"eddsa O5 converted {report.converted} branches")

        for _ in range(self.first_runs):
            built = None  # the last compile is garbage before the next starts
            gc.collect()
            t = clock()
            built = dataclasses.replace(build, _exe=None)
            first = built.run(secret=self.secrets[0])
            dt = clock() - t
            m.first_run_seconds.append(dt)
            m.run(dt, first, steady=False)
            check_run(self.secrets[0], first)

        def runner(secret):
            if secret is self.secrets[0]:
                return first.profile
            t = clock()
            result = built.run(secret=secret)
            dt = clock() - t
            m.op(dt)
            m.run(dt, result)
            check_run(secret, result)
            return result.profile

        verdict = leakage.verify_pfo(runner, self.secrets)
        check(verdict.classes == 1,
              f"eddsa: {verdict.classes} profile classes over seeded secrets")
        counts = _build_counts(built)
        counts["leakage.classes"] = verdict.classes
        return counts


class AttackVanilla:
    """The paper's attacks: one vanilla run per secret, decoded from faults."""

    name = "attack-vanilla"
    op_unit = "attack (EdDSA-512 and powm-64 run plus decode)"
    ops_per_pass = 64  # enough keys that the ones they hold average out
    builds_per_pass = 4  # each build serves a quarter of the keys
    eddsa_width = 512
    powm_width = 64

    def __init__(self, seed: int):
        self.eddsa = lang.parse(corpus.eddsa_source(self.eddsa_width))
        self.powm = lang.parse(corpus.powm_source(self.powm_width, 1))
        rng = random.Random(seed)
        self.secrets = [
            (rng.getrandbits(self.eddsa_width), rng.getrandbits(self.powm_width))
            for _ in range(self.ops_per_pass)
        ]

    def run_pass(self, m: Meter) -> dict:
        clock = m.clock
        check = m.tally.check
        per_build = self.ops_per_pass // self.builds_per_pass
        for i, (k, d) in enumerate(self.secrets):
            if i % per_build == 0:
                t0 = clock()
                eddsa = interp.AstExecutable(self.eddsa)
                powm = interp.AstExecutable(self.powm)
                m.build_seconds.append(clock() - t0)
            t0 = clock()
            r1 = eddsa.run(secret={"k": k})
            t1 = clock()
            bits_k = leakage.attack_eddsa(r1.profile)
            t2 = clock()
            r2 = powm.run(secret={"d": d})
            t3 = clock()
            bits_d = leakage.attack_powm(r2.profile, window=1)
            t4 = clock()
            m.op(t4 - t0)
            m.run(t1 - t0, r1)
            m.run(t3 - t2, r2)
            if i % per_build == 0:
                m.first_run_seconds.append((t1 - t0) + (t3 - t2))
            check(len(bits_k) == self.eddsa_width and _bits_value(bits_k) == k
                  and r1.outputs["rx"] == corpus.eddsa_reference(k),
                  f"eddsa k={k:#x}: recovered or output mismatch")
            check(len(bits_d) == self.powm_width and _bits_value(bits_d) == d
                  and r2.outputs["a_out"] == corpus.powm_reference(d),
                  f"powm d={d:#x}: recovered or output mismatch")
        return {"layouts.pages": len(eddsa.layout.all_pages())
                + len(powm.layout.all_pages())}


class RunMeter:
    """Executable proxy that times and counts the runs the contract layer makes."""

    def __init__(self, exe, m: Meter):
        self._exe = exe
        self._m = m
        self.first_run_s = None
        self.program = exe.program
        self.layout = exe.layout

    def run(self, *args, **kwargs):
        clock = self._m.clock
        t = clock()
        result = self._exe.run(*args, **kwargs)
        dt = clock() - t
        if self.first_run_s is None:
            self.first_run_s = dt
        self._m.run(dt, result)
        return result


class ContractSweep:
    """Contract derivation and steal sweeps under both handler policies."""

    name = "contract-sweep"
    cases = ("aes", "powm", "eddsa")
    policies = (contract.FAKE_EXECUTE, contract.NAIVE_TERMINATE)
    ops_per_pass = len(cases) * len(policies)
    secrets_per_case = 64  # as suites.contracts_suite
    steal_steps = 25
    op_unit = f"policy sweep ({secrets_per_case} secrets, {steal_steps} steal steps)"
    # cases whose naive-termination handler must leak (the Appendix oracle)
    naive_oracle = ("aes", "powm")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.widths = {n: suites.CONTRACT_WIDTHS.get(n, 12) for n in self.cases}
        self.values = {
            n: [rng.randrange(1 << self.widths[n]) for _ in range(self.secrets_per_case)]
            for n in self.cases
        }

    def run_pass(self, m: Meter) -> dict:
        clock = m.clock
        check = m.tally.check
        strategies = pages = 0
        build_s = first_run_s = 0.0
        for name in self.cases:
            t0 = clock()
            exe, probes, secret_name = suites.contract_case(name, self.widths[name])
            build_s += clock() - t0
            pages += len(exe.layout.all_pages())
            proxy = RunMeter(exe, m)
            public = {"p": 0} if name == "aes" else None
            secrets = [{secret_name: v} for v in self.values[name]]
            c = contract.derive_contract(proxy, probes)
            stride = max(c.total_steps // self.steal_steps, 1)
            steps = range(0, c.total_steps + 1, stride)
            fake, naive = (self.sweep(m, proxy, c, secrets, policy, steps, public)
                           for policy in self.policies)
            first_run_s += proxy.first_run_s
            strategies += fake.strategies_checked + naive.strategies_checked
            check(fake.observable_classes == 1 and fake.indistinguishable,
                  f"{name}: fake execution shows {fake.observable_classes} classes")
            if name in self.naive_oracle:
                check(naive.observable_classes >= 2 and naive.distinguishing is not None,
                      f"{name}: naive termination shows no oracle")
        m.build_seconds.append(build_s)
        m.first_run_seconds.append(first_run_s)
        return {"contract.strategies_checked": strategies, "layouts.pages": pages}

    @staticmethod
    def sweep(m: Meter, proxy, c, secrets, policy, steps, public):
        t = m.clock()
        report = contract.check_contract_indistinguishability(
            proxy, c, secrets, policy, steps=steps, public=public)
        m.op(m.clock() - t)
        return report


def _build_counts(build) -> dict:
    tree = build.tree
    return {
        "exectree.blocks": len(tree.blocks),
        "exectree.levels": len(tree.levels),
        "layouts.pages": len(build.executable().layout.all_pages()),
        "transform.scheduled_copy_ops": build.plan.scheduled_copy_ops,
    }


WORKLOADS = {w.name: w for w in (VerifyAes, BuildEddsa, AttackVanilla, ContractSweep)}
