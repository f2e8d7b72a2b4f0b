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
    derive_contract,
    sweep_policies,
)
from .corpus import (
    TABLE_ENTRIES,
    eddsa_source,
    make_table_cases,
    powm_balanced_source,
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
from .optimize import ALL_PASSES, DefenseBuild, build_defense


@dataclass
class SuiteResult:
    name: str
    rows: list[dict] = field(default_factory=list)
    ok: bool = True

    def to_json_dict(self) -> dict:
        return {"suite": self.name, "ok": self.ok, "rows": self.rows}


# --- attacks ---------------------------------------------------------------

def _table_attack_row(name: str) -> dict:
    case = make_table_cases()[name]
    byte_exe = AstExecutable(parse(case.source(key_bytes=1)))
    report = quantify_leakage(
        lambda s: byte_exe.run(secret=s).profile,
        SecretDomain.of(byte_exe.program).exhaustive(),
    )
    lookups = len(case.lookups)
    smallest = min(report.class_sizes.values())
    worst_profile = next(
        p for p, n in report.class_sizes.items() if n == smallest
    )
    per_lookup = report.class_bits(worst_profile)
    worst_bits = per_lookup * lookups  # every lookup lands in the worst class
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


def attacks_suite(seed: int = 0, samples: int = 50) -> SuiteResult:
    """Every attack, EdDSA over `samples` scalars and each powm row over
    half as many exponents (at least one)."""
    eddsa_samples, powm_samples = samples, max(samples // 2, 1)
    result = SuiteResult("attacks")
    # one generator draws the EdDSA scalars, then each powm row's exponents:
    # the golden report pins that order
    rng = random.Random(seed)

    for name in sorted(make_table_cases()):
        result.rows.append(_table_attack_row(name))

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
    fractions = []
    for _ in range(powm_samples):
        d = rng.randrange(1 << 64)
        sk = attack_powm(exe.run(secret={"d": d}).profile, window=4)
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

def case_source(name: str, width: Optional[int] = None) -> str:
    """A suite case's source with a `width`-bit secret (None: its default)."""
    cases = make_table_cases()
    if name in cases:
        return cases[name].source(key_bits=width)
    if name == "eddsa":
        return eddsa_source(width or 512)
    if name == "powm":
        return powm_balanced_source(width or 64)
    raise KeyError(name)


# each case's recorded defense, `(passes, in_place)`; every other case is
# staged under O1 and O2
RECORDED = {"eddsa": (("O5",), True), "powm": (("O4",), True)}


def defended_build(name: str, width: Optional[int] = None) -> DefenseBuild:
    """Per-case defense with its recorded optimization combination."""
    passes, in_place = RECORDED.get(name, (("O1", "O2"), False))
    build = build_defense(parse(case_source(name, width)), passes, in_place=in_place)
    missing = [p for p in passes if p not in build.applied]
    if missing:
        raise RuntimeError(f"{name}: {', '.join(missing)} did not apply {build.notes}")
    return build


DEFENSE_CASES = (
    "aes", "cast_gcrypt", "cast_openssl", "seed_gcrypt", "seed_openssl",
    "stribog", "tiger", "whirlpool", "eddsa", "powm",
)

# exhaustive-verification widths (secret domains of at most 2^16)
EXHAUSTIVE_WIDTHS = {name: 16 for name in DEFENSE_CASES}
EXHAUSTIVE_WIDTHS["eddsa"] = 12
FULL_WIDTHS = {name: 64 for name in DEFENSE_CASES}
FULL_WIDTHS["eddsa"] = 512


def defenses_suite(seed: int = 0, sample_pairs: int = 100,
                   opt_all: bool = False) -> SuiteResult:
    """Re-verify obliviousness per case; emit fault and copy counters.

    The `exhaustive_*` row fields report a seeded sample of 256 secrets
    (at most the domain size) at the exhaustive width; the keys keep
    their names so the reports stay byte-identical.  `sample_pairs` counts
    full-width secret pairs checked against the first profile (profile
    equality is transitive, so `n` matching runs cover all pairs among
    them).  `opt_all` defends every case with all passes instead of its
    recorded combination.
    """
    def defend(name: str, width: int) -> DefenseBuild:
        if opt_all:
            return build_defense(parse(case_source(name, width)), ALL_PASSES)
        return defended_build(name, width)

    result = SuiteResult("defenses")
    for name in DEFENSE_CASES:
        row = {"case": name}
        width = EXHAUSTIVE_WIDTHS[name]
        small = defend(name, width)
        domain = SecretDomain.of(small.program)
        verdict = verify_pfo(lambda s: small.run(secret=s).profile,
                             domain.sample(min(domain.size, 256), seed))
        row["exhaustive_width"] = width
        row["exhaustive_oblivious"] = verdict.oblivious
        row["exhaustive_inputs"] = verdict.inputs_checked

        full_width = FULL_WIDTHS[name]
        full = defend(name, full_width)
        full_domain = SecretDomain.of(full.program)
        full_verdict = verify_pfo(
            lambda s: full.run(secret=s).profile,
            full_domain.sample(sample_pairs + 1, seed + 1),
        )
        row["full_width"] = full_width
        row["full_oblivious"] = full_verdict.oblivious
        row["full_pairs"] = max(full_verdict.inputs_checked - 1, 0)

        vanilla = AstExecutable(parse(case_source(name, full_width)))
        [probe_secret] = full_domain.sample(1, seed + 2)
        row["pf_vanilla"] = len(vanilla.run(secret=probe_secret).profile)
        defended = full.run(secret=probe_secret)
        row["pf_transformed"] = defended.faults
        row["copy_ops"] = defended.copy_ops
        row["opts"] = "all" if opt_all else "+".join(full.applied) or "mux"
        row["oblivious"] = verdict.oblivious and full_verdict.oblivious
        result.ok &= row["oblivious"]
        result.rows.append(row)
    return result


# --- contracts ---------------------------------------------------------------

CONTRACT_WIDTHS = {"aes": 12, "powm": 12}
# steal points per sweep: every `total_steps // STEAL_STEPS`-th step
STEAL_STEPS = 25


def contract_case(name: str, width: int):
    """Balanced executable plus probe secrets for a contract sweep."""
    passes = ("O5",) if name == "eddsa" else ()
    build = build_defense(parse(case_source(name, width)), passes, in_place=True)
    domain = SecretDomain.of(build.program)
    [secret_name] = domain.names
    return build.executable(), domain.extremes(), secret_name


def contracts_suite(seed: int = 0, secrets_per_case: int = 64) -> SuiteResult:
    result = SuiteResult("contracts")
    for name in ("aes", "powm", "eddsa"):
        width = CONTRACT_WIDTHS.get(name, 12)
        exe, probes, _ = contract_case(name, width)
        contract = derive_contract(exe, probes)
        secrets = list(SecretDomain.of(exe.program).sample(secrets_per_case, seed))
        stride = max(contract.total_steps // STEAL_STEPS, 1)
        steps = range(0, contract.total_steps + 1, stride)
        fake, naive = sweep_policies(
            exe, contract, secrets, (FAKE_EXECUTE, NAIVE_TERMINATE), steps=steps,
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
        if name in ("aes", "powm") and not naive.one_schedule:
            # the Appendix-style oracle: some steal point separates secrets
            # (none can when they all share one access schedule)
            result.ok &= naive.observable_classes >= 2
            result.ok &= naive.distinguishing is not None
    return result
