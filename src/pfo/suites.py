"""Corpus suites: attacks, defenses, contracts.

Each suite runs every applicable corpus case and returns rows plus a pass
flag; the CLI renders them and the acceptance tests pin the headline
numbers.  Runs are fully determined by the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .contract import (
    FAKE_EXECUTE,
    NAIVE_TERMINATE,
    check_contract_indistinguishability,
    derive_contract,
)
from .corpus import (
    TABLE_ENTRIES,
    eddsa_source,
    make_table_cases,
    powm_balanced_source,
    powm_precompute_mults,
    powm_source,
)
from .interp import AstExecutable
from .lang import parse
from .leakage import (
    SecretDomain,
    attack_eddsa,
    attack_powm,
    quantify_leakage,
    verify_pfo,
)
from .optimize import DefenseBuild, opt_if_convert, opt_mux_elim, opt_page_realign
from .transform import transform_program


@dataclass
class SuiteResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    ok: bool = True

    def to_json_dict(self) -> dict:
        return {"suite": self.name, "ok": self.ok, "rows": self.rows}


# --- attacks ---------------------------------------------------------------

def _table_attack_row(name: str, seed: int) -> dict:
    case = make_table_cases()[name]
    byte_exe = AstExecutable(parse(case.source(key_bytes=1)))
    report = quantify_leakage(
        lambda s: byte_exe.run(secret=s, public={"p": 0}).profile,
        SecretDomain.of(byte_exe.program).exhaustive(),
    )
    lookups = len(case.lookups)
    smallest = min(report.class_sizes.values())
    worst_profile = next(
        p for p, n in report.class_sizes.items() if n == smallest
    )
    per_lookup = report.class_bits(worst_profile)
    worst_bits = report.power(lookups).uniform_class_bits(worst_profile)
    mi_bits = report.mutual_information * lookups
    return {
        "case": name,
        "oracle": "split-table",
        "input_bits": case.key_bits,
        "split": f"[{round(100 * case.tables[0].split / TABLE_ENTRIES)}:"
                 f"{round(100 * (1 - case.tables[0].split / TABLE_ENTRIES))}]",
        "leakage_bits": round(worst_bits, 2),
        "leakage_display": math.floor(worst_bits),
        "mutual_information_bits": round(mi_bits, 2),
        "per_lookup_bits": round(per_lookup, 4),
        "percent": round(100 * worst_bits / case.key_bits, 2),
    }


def attacks_suite(seed: int = 0, eddsa_samples: int = 50,
                  powm_samples: int = 25) -> SuiteResult:
    result = SuiteResult("attacks")
    rng = random.Random(seed)

    for name in sorted(make_table_cases()):
        result.rows.append(_table_attack_row(name, seed))

    # scalar multiplication: full recovery from one trace per scalar
    exe = AstExecutable(parse(eddsa_source(512)))
    recovered = 0
    for _ in range(eddsa_samples):
        k = rng.randrange(1 << 512)
        bits = attack_eddsa(exe.run(secret={"k": k}).profile)
        if int("".join(map(str, bits)), 2) == k:
            recovered += 1
    eddsa_pct = 100.0 * recovered / eddsa_samples
    result.rows.append({
        "case": "eddsa", "oracle": "bit-pattern", "input_bits": 512,
        "leakage_bits": 512 if recovered == eddsa_samples else 0,
        "leakage_display": 512 if recovered == eddsa_samples else 0,
        "percent": round(eddsa_pct, 2),
        "samples": eddsa_samples,
    })
    result.ok &= recovered == eddsa_samples

    # windowed exponentiation, window 1: exact exponent from one trace
    exe = AstExecutable(parse(powm_source(64, 1)))
    exact = 0
    for _ in range(powm_samples):
        d = rng.randrange(1 << 64)
        bits = attack_powm(exe.run(secret={"d": d}).profile, window=1)
        if int("".join(map(str, bits)), 2) == d:
            exact += 1
    result.rows.append({
        "case": "powm", "oracle": "window-skeleton", "input_bits": 64,
        "window": 1,
        "leakage_bits": 64 if exact == powm_samples else 0,
        "leakage_display": 64 if exact == powm_samples else 0,
        "percent": 100.0 if exact == powm_samples else 0.0,
        "samples": powm_samples,
    })
    result.ok &= exact == powm_samples

    # wider window: the skeleton pins only part of the exponent
    exe = AstExecutable(parse(powm_source(64, 4)))
    pre = powm_precompute_mults(4)
    fractions = []
    for _ in range(powm_samples):
        d = rng.randrange(1 << 64)
        sk = attack_powm(exe.run(secret={"d": d}).profile, window=4,
                         precompute_mults=pre)
        fractions.append(sk.known_fraction)
    mean_fraction = sum(fractions) / len(fractions)
    result.rows.append({
        "case": "powm_w4", "oracle": "window-skeleton", "input_bits": 64,
        "window": 4,
        "leakage_bits": round(64 * mean_fraction, 2),
        "leakage_display": math.floor(64 * mean_fraction),
        "percent": round(100 * mean_fraction, 2),
        "samples": powm_samples,
        "input_dependent": True,
    })
    return result


# --- defenses ---------------------------------------------------------------

def defended_build(name: str, width: Optional[int] = None) -> DefenseBuild:
    """Per-case defense with its recorded optimization combination."""
    cases = make_table_cases()
    if name in cases:
        case = cases[name]
        key_bytes = (width // 8) if width else None
        program = parse(case.source(key_bytes=key_bytes))
        exe = transform_program(program, readonly_elim=True)
        build = DefenseBuild(
            program, exe.plan.page_size, "staged", ("O1",),
            exe.tree, exe.source_layout, exe.plan,
        )
        return opt_page_realign(build)
    if name == "eddsa":
        program, report = opt_if_convert(parse(eddsa_source(width or 512)))
        if report.converted != 1:
            raise RuntimeError("if-conversion did not fire on the scalar loop")
        from .optimize import build_inplace
        build = build_inplace(program)
        build.applied = ("O5",)
        return build
    if name == "powm":
        build, report = opt_mux_elim(parse(powm_balanced_source(width or 64)))
        if build is None:
            raise RuntimeError(f"grouping failed: {report.reason}")
        return build
    if name == "foo":
        from .corpus import FOO_SOURCE
        exe = transform_program(parse(FOO_SOURCE))
        return DefenseBuild(
            exe.tree.program, exe.plan.page_size, "staged", (),
            exe.tree, exe.source_layout, exe.plan,
        )
    raise KeyError(name)


def vanilla_runner(name: str, width: Optional[int] = None):
    cases = make_table_cases()
    if name in cases:
        key_bytes = (width // 8) if width else None
        exe = AstExecutable(parse(cases[name].source(key_bytes=key_bytes)))
        return exe, lambda s: exe.run(secret=s, public={"p": 0}).profile
    if name == "eddsa":
        exe = AstExecutable(parse(eddsa_source(width or 512)))
    elif name == "powm":
        exe = AstExecutable(parse(powm_balanced_source(width or 64)))
    elif name == "foo":
        from .corpus import FOO_SOURCE
        exe = AstExecutable(parse(FOO_SOURCE))
    else:
        raise KeyError(name)
    return exe, lambda s: exe.run(secret=s).profile


DEFENSE_CASES = (
    "aes", "cast_gcrypt", "cast_openssl", "seed_gcrypt", "seed_openssl",
    "stribog", "tiger", "whirlpool", "eddsa", "powm",
)

# exhaustive-verification widths (secret domains of at most 2^16)
EXHAUSTIVE_WIDTHS = {name: 16 for name in DEFENSE_CASES}
EXHAUSTIVE_WIDTHS["eddsa"] = 12
FULL_WIDTHS = {name: 64 for name in DEFENSE_CASES}
FULL_WIDTHS["eddsa"] = 512


def _defense_runner(build: DefenseBuild, name: str):
    cases = make_table_cases()
    if name in cases:
        return lambda s: build.run(secret=s, public={"p": 0}).profile
    return lambda s: build.run(secret=s).profile


def defenses_suite(seed: int = 0, exhaustive_limit: int = 1 << 16,
                   sample_pairs: int = 100, full_exhaustive: bool = False,
                   opt_all: bool = False) -> SuiteResult:
    """Re-verify obliviousness per case; emit fault and copy counters.

    `sample_pairs` counts full-width secret pairs checked against the
    first profile (profile equality is transitive, so `n` matching runs
    cover all pairs among them).
    """
    result = SuiteResult("defenses")
    for name in DEFENSE_CASES:
        row = {"case": name}
        width = EXHAUSTIVE_WIDTHS[name]
        if opt_all:
            small = opt_all_build(name, width)
        else:
            small = defended_build(name, width)
        small_run = _defense_runner(small, name)
        domain = SecretDomain.of(small.program)
        if full_exhaustive and domain.size <= exhaustive_limit:
            verdict = verify_pfo(small_run, domain.exhaustive(exhaustive_limit))
        else:
            probe = min(domain.size, 256)
            verdict = verify_pfo(small_run, domain.sample(probe, seed))
        row["exhaustive_width"] = width
        row["exhaustive_oblivious"] = verdict.oblivious
        row["exhaustive_inputs"] = verdict.inputs_checked

        full_width = FULL_WIDTHS[name]
        if opt_all:
            full = opt_all_build(name, full_width)
        else:
            full = defended_build(name, full_width)
        full_run = _defense_runner(full, name)
        full_domain = SecretDomain.of(full.program)
        full_verdict = verify_pfo(
            full_run, full_domain.sample(sample_pairs + 1, seed + 1)
        )
        row["full_width"] = full_width
        row["full_oblivious"] = full_verdict.oblivious
        row["full_pairs"] = max(full_verdict.inputs_checked - 1, 0)

        _, vanilla_run = vanilla_runner(name, full_width)
        rng = random.Random(seed + 2)
        names = full_domain.names
        probe_secret = {
            n: rng.randrange(1 << w) for n, w in zip(names, full_domain.widths)
        }
        row["pf_vanilla"] = len(vanilla_run(probe_secret))
        defended = full.run(secret=probe_secret, public={"p": 0}) \
            if name in make_table_cases() else full.run(secret=probe_secret)
        row["pf_transformed"] = defended.faults
        row["copy_ops"] = defended.copy_ops
        row["opts"] = "all" if opt_all else "+".join(full.applied) or "mux"
        row["oblivious"] = verdict.oblivious and full_verdict.oblivious
        result.ok &= row["oblivious"]
        result.rows.append(row)
    return result


def opt_all_build(name: str, width: Optional[int] = None) -> DefenseBuild:
    """The fixed-order everything pipeline: O5, O3A, O3B, O4, O1, O2."""
    from .optimize import (
        apply_all_passes,
    )
    cases = make_table_cases()
    if name in cases:
        source = cases[name].source(key_bytes=(width // 8) if width else None)
    elif name == "eddsa":
        source = eddsa_source(width or 512)
    elif name == "powm":
        source = powm_balanced_source(width or 64)
    else:
        raise KeyError(name)
    return apply_all_passes(parse(source))


# --- contracts ---------------------------------------------------------------

CONTRACT_WIDTHS = {"aes": 12, "powm": 12}


def contract_case(name: str, width: int):
    """Balanced executable plus probe secrets for a contract sweep."""
    cases = make_table_cases()
    if name in cases:
        exe = AstExecutable(parse(cases[name].source(key_bits=width)))
        probes = [{"k": 0}, {"k": (1 << width) - 1}]
        secret_name = "k"
    elif name == "powm":
        exe = AstExecutable(parse(powm_balanced_source(width)))
        probes = [{"d": 0}, {"d": (1 << width) - 1}]
        secret_name = "d"
    elif name == "eddsa":
        program, _ = opt_if_convert(parse(eddsa_source(width)))
        exe = AstExecutable(program)
        probes = [{"k": 0}, {"k": (1 << width) - 1}]
        secret_name = "k"
    else:
        raise KeyError(name)
    return exe, probes, secret_name


def contracts_suite(seed: int = 0, secrets_per_case: int = 64,
                    steal_steps: int = 25,
                    exhaustive: bool = False) -> SuiteResult:
    result = SuiteResult("contracts")
    for name in ("aes", "powm", "eddsa"):
        width = CONTRACT_WIDTHS.get(name, 12)
        exe, probes, secret_name = contract_case(name, width)
        contract = derive_contract(exe, probes)
        if exhaustive:
            secrets = [{secret_name: v} for v in range(1 << width)]
        else:
            rng = random.Random(seed)
            secrets = [{secret_name: rng.randrange(1 << width)}
                       for _ in range(secrets_per_case)]
        stride = max(contract.total_steps // steal_steps, 1)
        steps = range(0, contract.total_steps + 1, stride)
        fake = check_contract_indistinguishability(
            exe, contract, secrets, FAKE_EXECUTE, steps=steps,
            public={"p": 0} if name in make_table_cases() else None,
        )
        naive = check_contract_indistinguishability(
            exe, contract, secrets, NAIVE_TERMINATE, steps=steps,
            public={"p": 0} if name in make_table_cases() else None,
        )
        row = {
            "case": name,
            "bucket": contract.size_label,
            "schedule_steps": contract.total_steps,
            "secrets": len(secrets),
            "steal_points": fake.strategies_checked - 1,
            "fake_classes": fake.observable_classes,
            "naive_classes": naive.observable_classes,
            "fake_indistinguishable": fake.indistinguishable,
            "naive_secret_oracle": naive.distinguishing is not None,
        }
        result.rows.append(row)
        result.ok &= fake.indistinguishable
        if name in ("aes", "powm"):
            # the Appendix-style oracle: some steal point separates secrets
            result.ok &= naive.observable_classes >= 2
            result.ok &= naive.distinguishing is not None
    return result
