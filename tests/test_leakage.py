import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pfo.corpus import (
    eddsa_source,
    make_table_cases,
    powm_source,
)
from pfo.interp import AstExecutable
from pfo.lang import parse
from pfo.leakage import (
    ProfileParseError,
    SecretDomain,
    _eddsa_steps,
    attack_eddsa,
    attack_powm,
    quantify_leakage,
    verify_pfo,
)
from pfo.optimize import build_defense

SPLIT_LOOKUP = """
#pragma page_size 16
#pragma place data t 1 0
secret int<3> s;
output int y;
int t[8] = {10, 11, 12, 13, 14, 15, 16, 17};

fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  #pragma end_pf_sensitive
}
"""

BYTE_LOOKUP = """
#pragma page_size 4096
#pragma place data t 1 -112
secret int<8> s;
output int y;
int t[256];

fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  #pragma end_pf_sensitive
}
"""


def runner_for(program_source):
    exe = AstExecutable(parse(program_source))
    return exe, lambda secret: exe.run(secret=secret).profile


class TestVerifyPfo:
    def test_split_toy_counterexample_0_4_index_1(self):
        exe, run = runner_for(SPLIT_LOOKUP)
        domain = SecretDomain.of(exe.program)
        result = verify_pfo(run, domain.exhaustive())
        assert not result.oblivious
        assert result.classes == 2
        ce = result.counterexample
        assert ce.first == {"s": 0}
        assert ce.second == {"s": 4}
        assert ce.divergence_index == 1

    def test_no_secrets_trivially_oblivious(self):
        source = """
        output int y;
        fn main() { y = 5; }
        """
        exe, run = runner_for(source)
        result = verify_pfo(run, [{}])
        assert result.oblivious

    def test_transformed_two_byte_lookup_oblivious_exhaustive(self):
        # staged transform over all 2^16 two-byte keys: one class
        case = make_table_cases()["aes"]
        exe = build_defense(parse(case.source(key_bytes=2))).executable()
        result = verify_pfo(
            lambda secret: exe.run(secret=secret, public={"p": 0}).profile,
            SecretDomain.of(exe.tree.program).exhaustive(),
        )
        assert result.oblivious
        assert result.inputs_checked == 1 << 16

    def test_unwidthed_secret_spans_64_bits(self):
        domain = SecretDomain.of(parse("secret int s;\noutput int y;\nfn main() { y = s; }"))
        assert domain.widths == (64,)
        assert domain.extremes() == [{"s": 0}, {"s": (1 << 64) - 1}]

    def test_domain_guard(self):
        exe, _ = runner_for(BYTE_LOOKUP)
        domain = SecretDomain.of(exe.program)
        with pytest.raises(Exception, match="sampling"):
            list(domain.exhaustive(limit=100))


class TestQuantifyLeakage:
    def test_split_byte_lookup_class_structure(self):
        exe, run = runner_for(BYTE_LOOKUP)
        report = quantify_leakage(run, SecretDomain.of(exe.program).exhaustive())
        assert sorted(report.class_sizes.values()) == [28, 228]
        assert sum(report.class_sizes.values()) == 256

    def test_aes_first_round_ratio_form_25_bits(self):
        # per lookup the OS narrows 256 -> 28 for a low-page observation;
        # eight independent lookups give 8 * log2(256/28) = 25.53 bits,
        # truncating to the recorded 25
        exe, run = runner_for(BYTE_LOOKUP)
        report = quantify_leakage(run, SecretDomain.of(exe.program).exhaustive())
        low_profile = next(p for p, n in report.class_sizes.items() if n == 28)
        bits = report.class_bits(low_profile) * 8
        assert abs(bits - 25.5) <= 0.1
        assert int(bits) == 25

    def test_oblivious_program_zero_bits(self):
        exe = build_defense(parse(SPLIT_LOOKUP.replace("16", "64", 1))).executable()
        report = quantify_leakage(
            lambda secret: exe.run(secret=secret).profile,
            SecretDomain.of(exe.tree.program).exhaustive(),
        )
        assert report.classes == 1
        assert report.mutual_information == 0.0

    def test_split_toy_one_bit(self):
        exe, run = runner_for(SPLIT_LOOKUP)
        report = quantify_leakage(run, SecretDomain.of(exe.program).exhaustive())
        assert report.classes == 2
        assert abs(report.mutual_information - 1.0) < 1e-12

    def test_mutual_information_matches_partition_entropy_oracle(self):
        # independent recomputation from the raw profile list
        exe, run = runner_for(BYTE_LOOKUP)
        domain = list(SecretDomain.of(exe.program).exhaustive())
        report = quantify_leakage(run, domain)
        counts = Counter(tuple(run(s)) for s in domain)
        n = sum(counts.values())
        expected = -sum((c / n) * math.log2(c / n) for c in counts.values())
        assert abs(report.mutual_information - expected) < 1e-9

    def test_max_leakage_uses_smallest_class(self):
        exe, run = runner_for(BYTE_LOOKUP)
        report = quantify_leakage(run, SecretDomain.of(exe.program).exhaustive())
        assert abs(report.max_leakage - math.log2(256 / 28)) < 1e-12


class TestAttackEddsa:
    def test_four_bit_scalar(self):
        exe = AstExecutable(parse(eddsa_source(4)))
        bits = attack_eddsa(exe.run(secret={"k": 0b1011}).profile)
        assert bits == [1, 0, 1, 1]

    def test_all_zero_scalar_no_alternation(self):
        exe = AstExecutable(parse(eddsa_source(4)))
        profile = exe.run(secret={"k": 0}).profile
        assert attack_eddsa(profile) == [0, 0, 0, 0]
        # no addition-routine page pairs at all: the pattern is pure
        # double/test iterations
        assert profile == [1] + [2, 1, 3, 1] * 4

    def test_512_bit_random_scalars_full_recovery(self):
        exe = AstExecutable(parse(eddsa_source(512)))
        rng = random.Random(42)
        for _ in range(5):
            k = rng.randrange(1 << 512)
            bits = attack_eddsa(exe.run(secret={"k": k}).profile)
            assert len(bits) == 512
            assert int("".join(map(str, bits)), 2) == k

    def test_malformed_profile_reports_offset(self):
        with pytest.raises(ProfileParseError):
            attack_eddsa([1, 2, 2, 2])

    # offsets count only the decoded pages: the 7s and 9s are dropped first
    @pytest.mark.parametrize("profile, message, offset", [
        # the second iteration ends on page 2, not 1
        ([1, 7, 2, 1, 3, 1, 9, 2, 1, 3, 2, 2, 1, 3, 1],
         "expected doubling/bit-test pattern [2,1,3,1]", 5),
        # the profile ends inside an iteration
        ([1, 2, 1, 3, 1, 2, 1, 3], "expected doubling/bit-test pattern [2,1,3,1]", 5),
        # an addition shows three (P2 P1) pairs, not two
        ([1, 2, 1, 3, 1, 2, 1, 7, 2, 1, 2, 1, 3, 1],
         "unexpected addition alternation length 2", 9),
    ])
    def test_malformed_profile_error_is_exact(self, profile, message, offset):
        with pytest.raises(ProfileParseError) as info:
            attack_eddsa(profile)
        assert (info.value.message, info.value.offset) == (message, offset)
        assert str(info.value) == f"{message} (at profile offset {offset})"


@st.composite
def eddsa_profiles(draw) -> list[int]:
    """Double-and-add profiles of a few bits, with or without the
    cold-start fault, then with up to three pages replaced or inserted:
    decoded ones, a dropped one and one past a byte."""
    profile = [1] if draw(st.booleans()) else []
    for bit in draw(st.lists(st.booleans(), max_size=6)):
        profile += [2, 1, 3, 1] + [2, 1] * (3 if bit else 0)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(profile)))
        page = draw(st.sampled_from([1, 2, 3, 7, 300]))
        if i < len(profile) and draw(st.booleans()):
            profile[i] = page
        else:
            profile.insert(i, page)
    return profile


def _outcome(decode, profile):
    try:
        return decode(profile)
    except ProfileParseError as e:
        return e.message, e.offset


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(eddsa_profiles())
def test_eddsa_decoding_matches_stepping(profile):
    # the one-expression decoder gives the bits, or the error, that
    # stepping the decoded pages an iteration at a time gives
    decoded = [p for p in profile if p in (1, 2, 3)]
    assert _outcome(attack_eddsa, profile) == _outcome(_eddsa_steps, decoded)


class TestAttackPowm:
    def test_d_1001_window_1(self):
        exe = AstExecutable(parse(powm_source(4, 1)))
        bits = attack_powm(exe.run(secret={"d": 0b1001}).profile, window=1)
        assert bits == [1, 0, 0, 1]

    def test_single_bit_exponent(self):
        exe = AstExecutable(parse(powm_source(1, 1)))
        assert attack_powm(exe.run(secret={"d": 1}).profile, window=1) == [1]

    def test_exhaustive_10_bit(self):
        exe = AstExecutable(parse(powm_source(10, 1)))
        for d in range(0, 1024, 7):
            bits = attack_powm(exe.run(secret={"d": d}).profile, window=1)
            assert int("".join(map(str, bits)), 2) == d

    def test_window_3_skeleton_fraction(self):
        exe = AstExecutable(parse(powm_source(64, 3)))
        rng = random.Random(9)
        fractions = []
        for _ in range(10):
            d = rng.randrange(1 << 64)
            sk = attack_powm(exe.run(secret={"d": d}).profile, window=3)
            bits = sk.determined_bits()
            true = [(d >> (63 - i)) & 1 for i in range(64)]
            assert len(bits) == 64
            assert all(b is None or b == t for b, t in zip(bits, true))
            fractions.append(sk.known_fraction)
        assert all(0.0 < f < 1.0 for f in fractions)

    def test_malformed_profile(self):
        with pytest.raises(ProfileParseError):
            attack_powm([3, 3], window=1)

    @pytest.mark.parametrize("profile, window, message", [
        # window 3 fills its table with 6 multiplies; a fetch comes fourth
        ([1, 2, 2, 2, 3, 2, 2, 2, 3, 2], 3, "expected 6 power-table multiplies first"),
        ([2], 2, "expected 2 power-table multiplies first"),
        ([2, 3, 3, 2], 1, "missing outer multiply"),
        ([2, 3], 1, "missing final outer multiply"),
    ])
    def test_malformed_profile_error_is_exact(self, profile, window, message):
        with pytest.raises(ProfileParseError) as info:
            attack_powm(profile, window=window)
        assert (info.value.message, info.value.offset) == (message, 0)
