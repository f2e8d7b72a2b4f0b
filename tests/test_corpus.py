import random
import time
from pathlib import Path

import pytest

from pfo.corpus import (
    ECC_MODULUS,
    EDDSA_PAGES,
    FOO_SOURCE,
    POWM_PAGES,
    eddsa_reference,
    eddsa_source,
    load_cases,
    make_table_cases,
    powm_balanced_source,
    powm_reference,
    powm_source,
    table_reference,
    write_corpus,
)
from pfo.interp import AstExecutable
from pfo.lang import parse
from pfo.leakage import SecretDomain, verify_pfo
from pfo.memory import page_of
from pfo.optimize import build_defense, opt_if_convert

from test_optimize import code_groups

RNG = random.Random(20240810)


class TestTableCases:
    @pytest.mark.parametrize("name", sorted(make_table_cases()))
    def test_semantics_match_reference(self, name):
        case = make_table_cases()[name]
        exe = AstExecutable(parse(case.source()))
        for _ in range(10):
            k = RNG.randrange(1 << case.key_bits)
            p = RNG.randrange(1 << case.key_bits)
            out = exe.run(secret={"k": k}, public={"p": p}).outputs["y"]
            assert out == table_reference(case, k, p)

    def test_aes_split_geometry(self):
        # the 0x1C boundary: entry 0x1B on the low page, 0x1C on the next
        case = make_table_cases()["aes"]
        exe = AstExecutable(parse(case.source()))
        layout = exe.layout
        assert page_of(layout, "table1", 4 * 0x1B) == 1
        assert page_of(layout, "table1", 4 * 0x1C) == 2
        assert page_of(layout, "table3", 4 * 0x1B) == 2
        assert page_of(layout, "table3", 4 * 0x1C) == 3

    def test_split_ratios_encoded(self):
        for name, split in (
            ("cast_gcrypt", 97), ("cast_openssl", 141),
            ("seed_gcrypt", 225), ("seed_openssl", 120),
            ("stribog", 131), ("tiger", 136), ("whirlpool", 115),
        ):
            case = make_table_cases()[name]
            assert case.tables[0].split == split

    def test_vanilla_leaks(self):
        case = make_table_cases()["aes"]
        exe = AstExecutable(parse(case.source(key_bytes=1)))
        run = lambda s: exe.run(secret=s, public={"p": 0}).profile
        result = verify_pfo(run, SecretDomain.of(exe.program).exhaustive())
        assert not result.oblivious

    @pytest.mark.parametrize("name", sorted(make_table_cases()))
    def test_transformed_oblivious_sampled(self, name):
        case = make_table_cases()[name]
        exe = build_defense(parse(case.source())).executable()
        profiles = set()
        for _ in range(25):
            k = RNG.randrange(1 << case.key_bits)
            profiles.add(tuple(exe.run(secret={"k": k}, public={"p": 0}).profile))
        assert len(profiles) == 1


class TestEddsaCase:
    def test_semantics(self):
        exe = AstExecutable(parse(eddsa_source(32)))
        for _ in range(8):
            k = RNG.randrange(1 << 32)
            assert exe.run(secret={"k": k}).outputs["rx"] == eddsa_reference(k)

    def test_profile_shows_regex_structure(self):
        # one-bit iterations carry the addition-routine page alternation
        # after the [P1 P2 P1 P3 P1] double-and-test pattern
        exe = AstExecutable(parse(eddsa_source(4)))
        profile = exe.run(secret={"k": 0b1000}).profile
        assert profile[:6] == [1, 2, 1, 3, 1, 2]
        flat = ",".join(map(str, profile))
        assert "2,1,2,1,2,1" in flat          # (P2 P1)+ for the one bit
        zero_iter = ",".join(map(str, exe.run(secret={"k": 0}).profile))
        assert "2,1,2,1,2,1" not in zero_iter  # absent for all-zero scalar

    def test_o5_defense_oblivious_and_correct(self):
        program, report = opt_if_convert(parse(eddsa_source(16)))
        assert report.converted == 1
        exe = AstExecutable(program)
        vanilla = AstExecutable(parse(eddsa_source(16)))
        profiles = set()
        for k in [0, 1, 0xFFFF, 0x8000] + [RNG.randrange(1 << 16) for _ in range(20)]:
            r = exe.run(secret={"k": k})
            assert r.outputs == vanilla.run(secret={"k": k}).outputs
            profiles.add(tuple(r.profile))
        assert len(profiles) == 1


class TestPowmCases:
    def test_sliding_window_semantics(self):
        for width, window in ((10, 1), (16, 2), (32, 4)):
            exe = AstExecutable(parse(powm_source(width, window)))
            for _ in range(8):
                d = RNG.randrange(1 << width)
                out = exe.run(secret={"d": d}).outputs["a_out"]
                assert out == powm_reference(d), (width, window, d)

    def test_balanced_semantics(self):
        exe = AstExecutable(parse(powm_balanced_source(24)))
        for _ in range(8):
            d = RNG.randrange(1 << 24)
            assert exe.run(secret={"d": d}).outputs["a_out"] == powm_reference(d)

    def test_balanced_constant_steps(self):
        exe = AstExecutable(parse(powm_balanced_source(16)))
        steps = {exe.run(secret={"d": d}).steps for d in (0, 1, 0xFFFF, 0x8001)}
        assert len(steps) == 1

    def test_balanced_vanilla_leaks_pages(self):
        exe = AstExecutable(parse(powm_balanced_source(8)))
        run = lambda s: exe.run(secret=s).profile
        result = verify_pfo(run, SecretDomain.of(exe.program).exhaustive())
        assert not result.oblivious

    def test_o4_defense_oblivious(self):
        program = parse(powm_balanced_source(16))
        build = build_defense(program, ("O4",), in_place=True)
        assert build.applied == ("O4",)
        grouped = next(g for g in code_groups(build) if "mul_mod" in g)
        assert "mul_mod_dummy" in grouped
        profiles = set()
        vanilla = AstExecutable(program)
        for d in [0, 1, 0xFFFF] + [RNG.randrange(1 << 16) for _ in range(20)]:
            r = build.run(secret={"d": d})
            assert r.outputs == vanilla.run(secret={"d": d}).outputs
            profiles.add(tuple(r.profile))
        assert len(profiles) == 1
        sample = build.run(secret={"d": 5})
        assert sample.copy_ops == 0 and sample.code_copy_ops == 0

    def test_ungrouped_layout_has_a_witness(self):
        assert AstExecutable(parse(powm_balanced_source(16))).witness == \
            "`if` at line 129: its arms fault differently"


class TestInPlaceO4:
    def test_eddsa_one_class(self):
        # the arm that adds calls add_points and, through it, add_step: both
        # share main's page
        program = parse(eddsa_source(8))
        build = build_defense(program, ("O4",), in_place=True)
        assert code_groups(build) == (("add_points", "add_step", "main"), ("dup_point",),
                                      ("test_bit",))
        vanilla = AstExecutable(program)
        profiles = set()
        for secret in SecretDomain.of(program).exhaustive():
            r = build.run(secret=secret)
            assert r.outputs == vanilla.run(secret=secret).outputs
            profiles.add(tuple(r.profile))
        assert len(profiles) == 1

    def test_full_eddsa_decided_quickly(self):
        from pfo.corpus import eddsa_full_source

        program = parse(eddsa_full_source())
        start = time.perf_counter()
        build = build_defense(program, ("O4",), in_place=True)
        assert time.perf_counter() - start < 5
        assert build.applied == ("O4",)
        setups = tuple((f"setup{i}",) for i in range(26))
        assert code_groups(build) == tuple(sorted(
            (("add_points", "add_step", "main"), ("dup_point",), ("test_bit",), *setups)))

    def test_split_table_declines(self):
        # without the split-access rule aes would pass, with 8 classes
        build = build_defense(parse(make_table_cases()["aes"].source(key_bits=16)),
                              ("O4",), in_place=True)
        assert build.applied == ()
        assert build.notes == ("O4 declined: access to table1 split across pages",)


# the decoders read `EDDSA_PAGES` and `POWM_PAGES`: each function's code
# must sit on the page its constant names
@pytest.mark.parametrize("source, pages, functions", [
    (eddsa_source(8), EDDSA_PAGES, {"main": "main", "add_step": "main",
                                    "dup_point": "add", "add_points": "add",
                                    "test_bit": "test"}),
    (powm_source(16, 2), POWM_PAGES, {"main": "main", "mul_mod": "mul",
                                      "set_cond": "sel"}),
], ids=["eddsa", "powm"])
def test_code_sits_on_the_decoder_pages(source, pages, functions):
    layout = AstExecutable(parse(source)).layout
    for fn, key in functions.items():
        assert {e.page for e in layout.code_extents(fn)} == {pages[key]}, fn


class TestCorpusFiles:
    def test_write_and_reparse(self, tmp_path):
        written = write_corpus(tmp_path)
        assert len(written) >= 11
        for path in written:
            program = parse(path.read_text(), str(path))
            assert program.entry is not None

    def test_checked_in_corpus_matches_generators(self):
        corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
        assert corpus_dir.is_dir(), "corpus/ directory missing"
        cases = load_cases()
        for name, case in cases.items():
            on_disk = (corpus_dir / f"{name}.pfo").read_text()
            assert on_disk == case.source, f"{name}.pfo out of date"
        assert (corpus_dir / "powm_sw.pfo").read_text() == \
               cases["powm"].meta["attack_source"]

    def test_case_table_lists_expected_names(self):
        names = set(load_cases())
        assert names == {
            "aes", "cast_gcrypt", "cast_openssl", "seed_gcrypt", "seed_openssl",
            "stribog", "tiger", "whirlpool", "eddsa", "powm", "foo",
        }


class TestEddsaFullSize:
    def test_analysis_counts(self):
        from pfo.corpus import EDDSA_FULL_ANALYSIS, eddsa_full_source
        from pfo.labeling import label_sensitivity

        summary = label_sensitivity(parse(eddsa_full_source())).summary()
        for key, value in EDDSA_FULL_ANALYSIS.items():
            assert summary[key] == value, (key, summary)

    def test_staged_build_mux_accesses_and_pages(self, monkeypatch):
        from pfo.corpus import (
            EDDSA_FULL_MUX_ACCESSES,
            EDDSA_FULL_STAGING_PAGES,
            eddsa_full_source,
        )
        from pfo.exectree import PAD_ORIGIN
        from pfo.optimize import build_staged, opt_if_convert
        from test_transform import count_compiles

        program, report = opt_if_convert(parse(eddsa_full_source()))
        assert report.converted == 1
        build = build_staged(program, 4096)
        assert len(build.plan.staging.pages()) == EDDSA_FULL_STAGING_PAGES
        assert build.plan.scheduled_copy_ops == 1026
        # each expanded statement is lowered once, however many trips and
        # arms place it
        placed = [i for b in build.tree.blocks for i in b.instrs
                  if i.origin != PAD_ORIGIN]
        assert (len({id(i) for i in placed}), len(placed)) == (2354, 56287)
        # and every trip of a loop uses the one trip's register slots
        assert build.tree.alloc.count == 1160
        # blocks holding the same micro-ops compile once, on any level, and
        # blocks with the same copies, body and exit share their segments
        calls = count_compiles(monkeypatch)
        exe = build.executable()
        assert len(calls) == 3736
        assert (len(set(map(id, exe.segments.values()))), len(exe.segments)) == \
            (432, 1674)
        r1 = build.run(secret={"k": 3})
        r2 = build.run(secret={"k": (1 << 511) | 1})
        assert r1.mux_accesses == r2.mux_accesses == EDDSA_FULL_MUX_ACCESSES
        assert r1.profile == r2.profile

    def test_full_size_semantics(self):
        from pfo.corpus import eddsa_full_source

        exe = AstExecutable(parse(eddsa_full_source()))
        k = RNG.randrange(1 << 512)
        assert exe.run(secret={"k": k}).outputs["rx"] == eddsa_reference(k)
