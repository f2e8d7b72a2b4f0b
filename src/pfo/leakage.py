"""Leakage verification and quantification over the page-fault channel.

The simulator is deterministic, so distinguishability is exact: two
secrets are distinguishable iff their fault profiles differ.  Secrets
come from one `SecretDomain` (exhaustive, seeded samples, or the
extremes), and one loop, `_classes`, partitions them by profile (the
partition view of Koepf and Basin): a program is oblivious over the
inputs iff they form one profile class (`verify_pfo`, also O4's probe),
and leakage is measured from the class sizes (`quantify_leakage`):

* mutual information between the secret and the observed profile,
  ``sum_c (|c|/N) * log2(N/|c|)`` over profile classes `c`;
* max-leakage, ``log2(N / min_c |c|)``: the bits revealed about the
  worst-case (smallest) class;
* per-class knowledge gain, ``log2(N) - log2(|c|)``: how far an observed
  profile narrows the initial choice set.  Independent observations
  compose additively: `n` lookups that each land in class `c` reveal
  ``n * class_bits(c)``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .corpus import EDDSA_PAGES, POWM_PAGES, powm_precompute_mults
from .lang import DeclKind, Program
from .memory import PfoError

Profile = tuple[int, ...]
Runner = Callable[[dict[str, int]], Profile]

DEFAULT_EXHAUSTIVE_LIMIT = 1 << 20


class DomainError(PfoError):
    pass


@dataclass(frozen=True)
class SecretDomain:
    """Enumeration order for a program's secret inputs."""

    names: tuple[str, ...]
    widths: tuple[int, ...]

    @staticmethod
    def of(program: Program) -> "SecretDomain":
        secrets = [d for d in program.decls if d.kind == DeclKind.SECRET]
        return SecretDomain(
            tuple(d.name for d in secrets),
            tuple(d.domain_width for d in secrets),
        )

    @property
    def size(self) -> int:
        total = 1
        for w in self.widths:
            total <<= w
        return total

    def exhaustive(self, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> Iterable[dict[str, int]]:
        if self.size > limit:
            raise DomainError(
                f"domain of {self.size} secrets exceeds the exhaustive limit "
                f"{limit}; use sampling"
            )
        ranges = [range(1 << w) for w in self.widths]
        for values in itertools.product(*ranges):
            yield dict(zip(self.names, values))

    def sample(self, count: int, seed: int) -> Iterable[dict[str, int]]:
        """`count` secrets drawn from `random.Random(seed)`, each name's
        value in declaration order."""
        rng = random.Random(seed)
        for _ in range(count):
            yield {
                name: rng.randrange(1 << width)
                for name, width in zip(self.names, self.widths)
            }

    def extremes(self) -> list[dict[str, int]]:
        """Every secret at 0, then every secret at its maximum."""
        return [{n: 0 for n in self.names},
                {n: (1 << w) - 1 for n, w in zip(self.names, self.widths)}]


@dataclass(frozen=True)
class Counterexample:
    first: dict[str, int]
    second: dict[str, int]
    divergence_index: int


@dataclass(frozen=True)
class VerifyResult:
    oblivious: bool
    classes: int
    inputs_checked: int
    counterexample: Optional[Counterexample] = None


def _first_divergence(a: Profile, b: Profile) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def _classes(runner: Runner, inputs: Iterable[dict[str, int]],
             ) -> tuple[dict[Profile, list], int]:
    """Partition `inputs` by profile: each class's `[size, first input]`,
    in the order the classes were first seen, and the number of inputs."""
    classes: dict[Profile, list] = {}
    count = 0
    for secret in inputs:
        count += 1
        profile = tuple(runner(secret))
        seen = classes.get(profile)
        if seen is None:
            classes[profile] = [1, dict(secret)]
        else:
            seen[0] += 1
    return classes, count


def verify_pfo(runner: Runner, inputs: Iterable[dict[str, int]]) -> VerifyResult:
    """Single-profile-class check over enumerated inputs.

    The counterexample, when present, is the lexicographically first pair:
    the first enumerated input versus the first input whose profile
    diverges from it.
    """
    classes, count = _classes(runner, inputs)
    counterexample = None
    if len(classes) > 1:
        (base, (_, first)), (other, (_, second)) = itertools.islice(classes.items(), 2)
        counterexample = Counterexample(first, second, _first_divergence(base, other))
    return VerifyResult(
        oblivious=len(classes) <= 1,
        classes=len(classes),
        inputs_checked=count,
        counterexample=counterexample,
    )


@dataclass
class LeakageReport:
    domain_size: int
    class_sizes: dict[Profile, int]
    mutual_information: float
    max_leakage: float

    @property
    def classes(self) -> int:
        return len(self.class_sizes)

    def class_bits(self, profile: Profile) -> float:
        """Knowledge gain of observing this profile: log2(N / |class|)."""
        return math.log2(self.domain_size / self.class_sizes[profile])

    def to_json_dict(self) -> dict:
        ordered = sorted(self.class_sizes.items(), key=lambda kv: (kv[1], kv[0]))
        return {
            "domain_size": self.domain_size,
            "classes": self.classes,
            "mutual_information_bits": round(self.mutual_information, 6),
            "max_leakage_bits": round(self.max_leakage, 6),
            "class_sizes": [
                {"size": size, "bits": round(self.class_bits(p), 6)}
                for p, size in ordered
            ],
        }


def quantify_leakage(runner: Runner, inputs: Iterable[dict[str, int]]) -> LeakageReport:
    """Partition inputs by profile and compute the leakage measures."""
    classes, total = _classes(runner, inputs)
    if total == 0:
        raise DomainError("empty input domain")
    sizes = {profile: size for profile, (size, _) in classes.items()}
    mi = 0.0
    for count in sizes.values():
        mi += (count / total) * math.log2(total / count)
    max_leak = math.log2(total / min(sizes.values()))
    return LeakageReport(total, sizes, mi, max_leak)


# --- scalar-multiplication bit recovery -----------------------------------

@dataclass(frozen=True)
class ProfileParseError(PfoError):
    message: str
    offset: int

    def __str__(self):
        return f"{self.message} (at profile offset {self.offset})"


def attack_eddsa(profile: Iterable[int]) -> list[int]:
    """Recover the scalar from a vanilla double-and-add fault profile.

    Pages are `corpus.EDDSA_PAGES`.  Per loop iteration the profile
    shows `[P2 P1 P3 P1]` (double, bit test); a one-bit appends the
    addition routine's `(P2 P1)` page alternation before the next
    iteration's doubling, which is recognized by its following `P3`.  Bits
    come out most significant first.
    """
    p1, p2, p3 = EDDSA_PAGES["main"], EDDSA_PAGES["add"], EDDSA_PAGES["test"]
    pages = {p1, p2, p3}
    tokens = [p for p in profile if p in pages]
    n = len(tokens)
    pos = 1 if n and tokens[0] == p1 else 0  # cold-start fault on the loop body's page
    bits: list[int] = []
    append = bits.append
    while pos < n:
        if not (pos + 3 < n and tokens[pos] == p2 and tokens[pos + 1] == p1
                and tokens[pos + 2] == p3 and tokens[pos + 3] == p1):
            raise ProfileParseError(
                f"expected doubling/bit-test pattern [{p2},{p1},{p3},{p1}]", pos
            )
        pos += 4
        start = pos
        # a (P2 P1) pair is the addition's unless a P3 follows: then it is
        # the next iteration's doubling
        while (pos + 1 < n and tokens[pos] == p2 and tokens[pos + 1] == p1
               and (pos + 2 == n or tokens[pos + 2] != p3)):
            pos += 2
        pairs = (pos - start) >> 1
        if pairs == 0:
            append(0)
        elif pairs == 3:
            append(1)
        else:
            raise ProfileParseError(
                f"unexpected addition alternation length {pairs}", pos
            )
    return bits


# --- windowed-exponentiation recovery ------------------------------------

@dataclass(frozen=True)
class PowmSkeleton:
    """Squaring-run structure of one windowed-exponentiation trace."""

    runs: tuple[int, ...]      # squarings before each power fetch
    trailing: int              # squarings after the last fetch
    window: int

    def determined_bits(self) -> list[Optional[int]]:
        """Bit values fixed by the skeleton alone (None where ambiguous).

        Each run of `r` squarings consumes `r` bits ending in a 1 (window
        values are odd); at least `r - w` leading bits must be zeros.
        """
        out: list[Optional[int]] = []
        for r in self.runs:
            known_zeros = max(r - self.window, 0)
            out.extend([0] * known_zeros)
            out.extend([None] * (r - known_zeros - 1))
            out.append(1)
        out.extend([0] * self.trailing)
        return out

    @property
    def known_fraction(self) -> float:
        bits = self.determined_bits()
        if not bits:
            return 1.0
        return sum(1 for b in bits if b is not None) / len(bits)


def attack_powm(profile: Iterable[int], window: int = 1):
    """Recover exponent structure from a windowed-exponentiation profile.

    Pages are `corpus.POWM_PAGES`.  The multiplies that fill the odd-power
    table come first (`corpus.powm_precompute_mults(window)` of them).
    Multiply-routine visits between power-fetch visits split into
    squarings and the per-window outer multiply; with window size 1 the
    squaring-run lengths give the exact exponent (most significant bit
    first), otherwise the window skeleton and the fraction of bits it
    pins down.
    """
    mul_page, sel_page = POWM_PAGES["mul"], POWM_PAGES["sel"]
    pages = {mul_page, sel_page}
    tokens = [p for p in profile if p in pages]
    precompute_mults = powm_precompute_mults(window)
    if precompute_mults:
        prefix = tokens[:precompute_mults]
        if prefix != [mul_page] * precompute_mults:
            raise ProfileParseError(
                f"expected {precompute_mults} power-table multiplies first", 0
            )
        tokens = tokens[precompute_mults:]
    runs: list[int] = []
    count = 0
    first_segment = True
    for tok in tokens:
        if tok == mul_page:
            count += 1
        else:
            # a fetch: everything before it in this segment was squarings,
            # except the previous window's outer multiply
            if first_segment:
                runs.append(count)
                first_segment = False
            else:
                if count < 1:
                    raise ProfileParseError("missing outer multiply", 0)
                runs.append(count - 1)
            count = 0
    if first_segment:
        trailing = count  # no fetch at all: the exponent is all zeros
    else:
        if count < 1:
            raise ProfileParseError("missing final outer multiply", 0)
        trailing = count - 1
    skeleton = PowmSkeleton(tuple(runs), trailing, window)
    if window == 1:
        bits = skeleton.determined_bits()
        assert all(b is not None for b in bits)
        return bits
    return skeleton
