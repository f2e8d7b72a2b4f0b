"""Case-study corpus: access-structure skeletons of the vulnerable routines.

Each case reproduces the page geometry and call structure that makes the
real implementation leak, at desk scale: split lookup tables sit across
page boundaries at the recorded split ratios, the scalar-multiplication
loop keeps its main body, doubling helper, bit-test helper, and two-page
addition routine on separate pages, and the modular-exponentiation
skeleton keeps its window scan, multiply routine, and power-fetch routine
apart.  The programs are not cryptographically faithful; the channel only
depends on which pages get touched when.

Generators are width-parametric so the same case runs exhaustively at
small widths and sampled at full width.  `write_corpus` freezes the
canonical desk-scale sources under `corpus/*.pfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# Split ratios from the study, as first-page entry counts of 256-entry
# tables: [a:b] means a% of the table sits on the first page.
SPLITS = {
    "aes": 28,            # [11:89], the 0x1C boundary
    "cast_gcrypt": 97,    # [38:62]
    "cast_openssl": 141,  # [55:45]
    "seed_gcrypt": 225,   # [88:12]
    "seed_openssl": 120,  # [47:53]
    "stribog": 131,       # [51:49]
    "tiger": 136,         # [53:47]
    "whirlpool": 115,     # [45:55]
}

TABLE_ENTRIES = 256
PAGE_SIZE = 4096


@dataclass(frozen=True)
class TableGeometry:
    """One split table: entries below `split` on the low page."""

    name: str
    split: int
    low_page: int

    @property
    def high_page(self) -> int:
        return self.low_page + 1


@dataclass(frozen=True)
class TableCase:
    name: str
    tables: tuple[TableGeometry, ...]
    lookups: tuple[tuple[int, int], ...]  # (table index, key byte index)
    key_bits: int

    def source(self, key_bytes: Optional[int] = None,
               key_bits: Optional[int] = None) -> str:
        return table_source(self, key_bytes, key_bits)


def _table_values(t: int) -> list[int]:
    # deterministic, distinct-ish entries so output checks mean something
    return [((37 * i + 101 * (t + 1)) & 0xFF) for i in range(TABLE_ENTRIES)]


def table_source(case: TableCase, key_bytes: Optional[int] = None,
                 key_bits: Optional[int] = None) -> str:
    """Split-table lookup skeleton: per lookup, a key byte XOR a plaintext
    byte indexes a table whose low entries sit at the end of one page."""
    if key_bits is None:
        key_bits = 8 * key_bytes if key_bytes is not None else case.key_bits
    n_bytes = (key_bits + 7) // 8
    lookups = [(t, b) for (t, b) in case.lookups if b < n_bytes]
    lines = [f"#pragma page_size {PAGE_SIZE}"]
    for geom in case.tables:
        # negative offset: the first `split` entries occupy the tail of the
        # low page, the rest flow onto the next page
        lines.append(
            f"#pragma place data {geom.name} {geom.low_page} {-4 * geom.split}"
        )
    code_page = max(g.high_page for g in case.tables) + 1
    lines.append(f"#pragma place code mix {code_page} 0")
    lines.append(f"#pragma place code main {code_page + 1} 0")
    lines.append(f"secret int<{key_bits}> k;")
    lines.append(f"public int<{key_bits}> p;")
    lines.append("output int y;")
    for t, geom in enumerate(case.tables):
        values = ", ".join(str(v) for v in _table_values(t))
        lines.append(f"int {geom.name}[{TABLE_ENTRIES}] = {{{values}}};")
    lines.append("")
    lines.append("fn mix(acc, v) {")
    lines.append("  return acc ^ v;")
    lines.append("}")
    lines.append("")
    lines.append("fn main() {")
    lines.append("  #pragma begin_pf_sensitive")
    lines.append("  y = 0;")
    for t, b in lookups:
        geom = case.tables[t]
        lines.append(f"  y = mix(y, {geom.name}[((k >> {8 * b}) ^ (p >> {8 * b})) & 255]);")
    lines.append("  #pragma end_pf_sensitive")
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_reference(case: TableCase, k: int, p: int,
                    key_bytes: Optional[int] = None) -> int:
    """Independent Python model of a table case's output."""
    n_bytes = key_bytes if key_bytes is not None else case.key_bits // 8
    y = 0
    for t, b in case.lookups:
        if b >= n_bytes:
            continue
        idx = ((k >> (8 * b)) ^ (p >> (8 * b))) & 0xFF
        y ^= _table_values(t)[idx]
    return y


def _spread_lookups(n_tables: int, count: int = 8):
    return tuple((i % n_tables, i) for i in range(count))


def make_table_cases() -> dict[str, TableCase]:
    cases = {}
    # AES: two split T-boxes (the other two stay inside pages), four
    # observable lookups each over the first eight key bytes
    cases["aes"] = TableCase(
        "aes",
        tables=(
            TableGeometry("table1", SPLITS["aes"], 1),
            TableGeometry("table3", SPLITS["aes"], 2),
        ),
        lookups=tuple((i % 2, i) for i in range(8)),
        key_bits=64,
    )
    for name, n_tables in (
        ("cast_gcrypt", 1), ("cast_openssl", 1),
        ("seed_gcrypt", 1), ("seed_openssl", 1),
        ("stribog", 4), ("tiger", 2), ("whirlpool", 4),
    ):
        tables = tuple(
            TableGeometry(f"sbox{t}", SPLITS[name], 1 + 2 * t)
            for t in range(n_tables)
        )
        cases[name] = TableCase(
            name, tables, _spread_lookups(n_tables), key_bits=64,
        )
    return cases


# --- scalar multiplication (input-dependent code page access) ---------------

ECC_MODULUS = 2147483647  # 2^31 - 1
EDDSA_PAGES = {"main": 1, "add": 2, "test": 3}


def eddsa_source(width: int = 512) -> str:
    """Double-and-add scalar multiplication skeleton.

    The loop body (page 1) doubles via a page-2 helper, tests the secret
    bit on page 3, and, only for one-bits, runs the addition routine whose
    code alternates between pages 2 and 1.  The per-iteration fault
    pattern therefore spells out the scalar.
    """
    main, add, test = EDDSA_PAGES["main"], EDDSA_PAGES["add"], EDDSA_PAGES["test"]
    return f"""#pragma page_size {PAGE_SIZE}
#pragma place code main {main} 0
#pragma place code add_step {main} 1024
#pragma place code dup_point {add} 0
#pragma place code add_points {add} 1024
#pragma place code test_bit {test} 0
secret int<{width}> k;
public int gx = 31337;
int m = {ECC_MODULUS};
output int rx;

fn dup_point(a) {{
  return (a + a) % m;
}}

fn add_step(a, b) {{
  return (a + b) % m;
}}

fn add_points(a, b) {{
  t = add_step(a, b);
  t = add_step(t, 0);
  return t;
}}

fn test_bit(s, i) {{
  return (s >> i) & 1;
}}

fn main() {{
  #pragma begin_pf_sensitive
  rx = 0;
  for (i = {width - 1}; i >= 0; i = i - 1) {{
    rx = dup_point(rx);
    b = test_bit(k, i);
    if (b == 1) {{
      rx = add_points(rx, gx);
    }}
  }}
  #pragma end_pf_sensitive
}}
"""


def eddsa_reference(k: int, gx: int = 31337, m: int = ECC_MODULUS) -> int:
    return (k * gx) % m


# --- modular exponentiation (sliding window) ------------------------------

POWM_MODULUS = 2147483647
POWM_PAGES = {"main": 1, "mul": 2, "sel": 3}


def powm_source(width: int = 64, window: int = 1) -> str:
    """Left-to-right windowed exponentiation, one multiply routine on its
    own page and the constant-time power fetch on another.

    Zeros cost one squaring each; a window of `c` bits costs `c` squarings,
    one fetch, and one multiply, so the squaring-run lengths between fetch
    visits spell out the exponent's zero runs.
    """
    if window < 1 or (1 << window) * 4 > PAGE_SIZE:
        raise ValueError("window size out of range")
    table = 1 << window
    precompute = []
    if window == 1:
        precompute.append("  g_pow[1] = g;")
    else:
        precompute.append("  g_pow[1] = g;")
        precompute.append(f"  for (j = 3; j < {table}; j = j + 2) {{")
        precompute.append("    g_pow[j] = mul_mod(g_pow[j - 2], mul_mod(g, g));")
        precompute.append("  }")
    body = "\n".join(precompute)
    main, mul, sel = POWM_PAGES["main"], POWM_PAGES["mul"], POWM_PAGES["sel"]
    return f"""#pragma page_size {PAGE_SIZE}
#pragma place code main {main} 0
#pragma place code mul_mod {mul} 0
#pragma place code set_cond {sel} 0
secret int<{width}> d;
public int g = 7;
int p = {POWM_MODULUS};
output int a_out;
int g_pow[{table}];

fn mul_mod(a, b) {{
  return (a * b) % p;
}}

fn set_cond(u) {{
  r = 0;
  for (j = 0; j < {table}; j = j + 1) {{
    r = (j == u) ? g_pow[j] : r;
  }}
  return r;
}}

fn main() {{
  #pragma begin_pf_sensitive
  g_pow[0] = 1;
{body}
  a = 1;
  i = {width};
  while (i != 0) bound {width} {{
    b = (d >> (i - 1)) & 1;
    if (b == 0) {{
      a = mul_mod(a, a);
      i = i - 1;
    }} else {{
      c = (i < {window}) ? i : {window};
      u = (d >> (i - c)) & ((1 << c) - 1);
      while (((u & 1) == 0) && (c > 1)) bound {window} {{
        u = u >> 1;
        c = c - 1;
      }}
      q = 0;
      while (q < c) bound {width} {{
        a = mul_mod(a, a);
        q = q + 1;
      }}
      gu = set_cond(u);
      a = mul_mod(a, gu);
      i = i - c;
    }}
  }}
  a_out = a;
  #pragma end_pf_sensitive
}}
"""


def powm_reference(d: int, g: int = 7, p: int = POWM_MODULUS) -> int:
    return pow(g, d, p)


def powm_precompute_mults(window: int) -> int:
    """Multiplies issued while filling the odd-power table (known prefix)."""
    if window == 1:
        return 0
    odd_count = (1 << window) // 2 - 1  # entries 3, 5, ..., 2^w - 1
    return 2 * odd_count  # one squaring of g plus one chained multiply each


# --- balanced exponentiation (defense and contract target) ----------------

POWM_BALANCED_FILLERS = 17


def powm_balanced_source(width: int = 64, fillers: int = POWM_BALANCED_FILLERS) -> str:
    """Square-and-multiply-always with the real and dummy multiply routines
    on different pages: balanced in time, leaky in page visits until the
    grouping optimization co-locates the two routines."""
    decl_lines = []
    body_lines = []
    for i in range(fillers):
        decl_lines.append(
            f"fn warm{i}(v) {{\n  return (v * 3 + {i + 1}) % 97;\n}}"
        )
        body_lines.append(f"  x = warm{i}(x);")
    placements = "\n".join(
        f"#pragma place code warm{i} {5 + i} 0" for i in range(fillers)
    )
    decls = "\n\n".join(decl_lines)
    warmup = "\n".join(body_lines)
    return f"""#pragma page_size {PAGE_SIZE}
#pragma place code main 1 0
#pragma place code mul_mod 2 0
#pragma place code mul_mod_dummy 4 0
#pragma place data seed_tab 3 0
{placements}
secret int<{width}> d;
public int g = 7;
int p = {POWM_MODULUS};
output int a_out;
int seed_tab[2] = {{1, 0}};

fn mul_mod(a, b) {{
  return (a * b) % p;
}}

fn mul_mod_dummy(a, b) {{
  return (a * b) % p;
}}

{decls}

fn main() {{
  #pragma begin_pf_sensitive
  x = 0;
{warmup}
  a = seed_tab[0];
  for (i = {width - 1}; i >= 0; i = i - 1) {{
    a = mul_mod(a, a);
    b = (d >> i) & 1;
    if (b == 1) {{
      a = mul_mod(a, g);
    }} else {{
      a = mul_mod_dummy(a, 1);
    }}
  }}
  a_out = a;
  #pragma end_pf_sensitive
}}
"""


# --- the Fig. 5-style branching example ------------------------------------

FOO_SOURCE = """#pragma page_size 4096
secret int<8> x;
secret int<8> y;
output int w;

fn path_a() {
  return 1;
}

fn path_b() {
  t = 0;
  for (j = 0; j < 2; j = j + 1) {
    t = t + 2;
  }
  return t;
}

fn path_c() {
  t = 0;
  for (j = 0; j < 2; j = j + 1) {
    t = t + 3;
  }
  return t;
}

fn main() {
  #pragma begin_pf_sensitive
  z = 2 * y;
  if (z != x) {
    if (z < x + 10) {
      w = path_c();
    } else {
      w = path_b();
    }
  } else {
    w = path_a();
  }
  #pragma end_pf_sensitive
}
"""


@dataclass(frozen=True)
class CorpusCase:
    name: str
    kind: str  # 'table' | 'eddsa' | 'powm' | 'powm_balanced' | 'branching'
    source: str
    meta: dict = field(default_factory=dict)


def load_cases() -> dict[str, CorpusCase]:
    cases: dict[str, CorpusCase] = {}
    for name, tc in make_table_cases().items():
        cases[name] = CorpusCase(name, "table", tc.source())
    cases["eddsa"] = CorpusCase("eddsa", "eddsa", eddsa_source(512))
    cases["powm"] = CorpusCase(
        "powm", "powm_balanced", powm_balanced_source(64),
        meta={"attack_source": powm_source(64, 1)},
    )
    cases["foo"] = CorpusCase("foo", "branching", FOO_SOURCE)
    return cases


def write_corpus(directory: str | Path) -> list[Path]:
    """Write the canonical desk-scale corpus files."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, case in sorted(load_cases().items()):
        path = out / f"{name}.pfo"
        path.write_text(case.source)
        written.append(path)
        if case.kind == "powm_balanced":
            attack = out / f"{name}_sw.pfo"
            attack.write_text(case.meta["attack_source"])
            written.append(attack)
    return written


# --- full-size scalar-multiplication encoding -------------------------------

# Constants below size the full-scale encoding: 26 setup helpers carrying
# 319 filler loops plus 12 loop-split points in the entry function, 72
# chained locals, one calibration table read, 197 single-word setup
# statements, and 10 per-iteration statements in the scalar loop.  At this
# size the sensitivity analysis marks 31 functions, 701 execution blocks,
# and 178 variables high, and the staged build of the if-converted program
# issues 60725 staging accesses per run over a two-page staging area.
EDDSA_FULL_HELPERS = 26
EDDSA_FULL_BREAKERS = 12
EDDSA_FULL_HELPER_LOOPS = 331 - EDDSA_FULL_BREAKERS
EDDSA_FULL_LOCALS = 72
EDDSA_FULL_CAL_LOADS = 1
EDDSA_FULL_FINE_STMTS = 197
EDDSA_FULL_PAD_STMTS = 10
EDDSA_FULL_WIDTH = 512


def eddsa_full_source() -> str:
    """Full-scale double-and-add encoding for analysis-size measurements."""
    helpers = EDDSA_FULL_HELPERS
    per = [0] * helpers
    for i in range(EDDSA_FULL_HELPER_LOOPS):
        per[i % helpers] += 1
    fns, calls = [], []
    for h in range(helpers):
        body = ["  t0 = v + 1;"]
        for _ in range(per[h]):
            body.append("  for (q = 0; q < 2; q = q + 1) {")
            body.append("    t0 = t0 + q;")
            body.append("  }")
        if h == 0:
            body.append("  if (t0 < 0) {")
            body.append("    t0 = 0;")
            body.append("  }")
        body.append("  return t0;")
        fns.append(f"fn setup{h}(v) {{\n" + "\n".join(body) + "\n}")
        calls.append(f"  w0 = setup{h}(w0);")
    tail = [f"  e{j} = w0 + {j};" for j in range(EDDSA_FULL_LOCALS)]
    tail += [f"  c0 = cal_tab[{j % 4}];" for j in range(EDDSA_FULL_CAL_LOADS)]
    tail += ["  w0 = w0 + 1;" for _ in range(EDDSA_FULL_FINE_STMTS)]
    segments = []
    per_seg = max(1, (len(tail) + EDDSA_FULL_BREAKERS - 1) // EDDSA_FULL_BREAKERS)
    idx = 0
    for _ in range(EDDSA_FULL_BREAKERS):
        segments.append(
            "  for (sp = 0; sp < 2; sp = sp + 1) {\n    w0 = w0 + sp;\n  }"
        )
        segments.extend(tail[idx:idx + per_seg])
        idx += per_seg
    segments.extend(tail[idx:])
    pads = "\n".join(
        f"    pp{j} = rx + {j};" for j in range(EDDSA_FULL_PAD_STMTS)
    )
    width = EDDSA_FULL_WIDTH
    return f"""
secret int<{width}> k;
public int gx = 31337;
int m = {ECC_MODULUS};
output int rx;
int cal_tab[4] = {{1, 2, 3, 4}};

fn dup_point(a) {{
  return (a + a) % m;
}}

fn add_step(a, b) {{
  return (a + b) % m;
}}

fn add_points(a, b) {{
  t = add_step(a, b);
  t = add_step(t, 0);
  return t;
}}

fn test_bit(s, i) {{
  return (s >> i) & 1;
}}

{chr(10).join(fns)}

fn main() {{
  #pragma begin_pf_sensitive
  w0 = k & 1;
{chr(10).join(calls)}
{chr(10).join(segments)}
  rx = 0;
  for (i = {width - 1}; i >= 0; i = i - 1) {{
    rx = dup_point(rx);
    b = test_bit(k, i);
{pads}
    if (b == 1) {{
      rx = add_points(rx, gx);
    }}
  }}
  #pragma end_pf_sensitive
}}
"""

EDDSA_FULL_ANALYSIS = {"functions": 31, "execution_blocks": 701, "variables": 178}
EDDSA_FULL_MUX_ACCESSES = 60725
EDDSA_FULL_STAGING_PAGES = 2
