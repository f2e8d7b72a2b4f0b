from pfo.labeling import HIGH, LOW, label_sensitivity
from pfo.lang import parse

HELPER_SOURCE = """
secret int<8> k;
output int y;
int untouched;

fn helper(a) {
  t = a * 3;
  return t;
}

fn bystander() {
  q = 5;
  return q;
}

fn main() {
  untouched = 1;
  #pragma begin_pf_sensitive
  y = helper(k);
  #pragma end_pf_sensitive
}
"""


class TestLabeling:
    def test_region_called_helper_is_high(self):
        result = label_sensitivity(parse(HELPER_SOURCE))
        assert result.functions["helper"] == HIGH
        assert result.variables["helper/t"] == HIGH
        assert result.variables["helper/a"] == HIGH

    def test_untouched_variable_stays_low(self):
        result = label_sensitivity(parse(HELPER_SOURCE))
        assert result.variables["untouched"] == LOW
        assert result.functions["bystander"] == LOW

    def test_secret_and_output_high(self):
        result = label_sensitivity(parse(HELPER_SOURCE))
        assert result.variables["k"] == HIGH
        assert result.variables["y"] == HIGH

    def test_idempotent(self):
        program = parse(HELPER_SOURCE)
        first = label_sensitivity(program)
        second = label_sensitivity(program)
        assert first.variables == second.variables
        assert first.functions == second.functions

    def test_monotone_under_region_growth(self):
        # Adding code inside the region can only add high items.
        grown = HELPER_SOURCE.replace(
            "y = helper(k);", "y = helper(k);\n  extra = bystander();"
        )
        base = label_sensitivity(parse(HELPER_SOURCE))
        wide = label_sensitivity(parse(grown))
        for name in base.high_variables:
            assert name in wide.high_variables
        for name in base.high_functions:
            assert name in wide.high_functions
        assert wide.functions["bystander"] == HIGH

    def test_dataflow_taint_outside_region(self):
        source = """
        secret int<4> s;
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          a = s + 1;
          #pragma end_pf_sensitive
          b = a * 2;
          y = b;
        }
        """
        result = label_sensitivity(parse(source))
        assert result.variables["main/b"] == HIGH

    def test_writer_of_high_variable_becomes_high(self):
        source = """
        secret int<4> s;
        output int y;
        fn scribble() {
          y = 0;
          return 0;
        }
        fn main() {
          r = scribble();
          #pragma begin_pf_sensitive
          y = s;
          #pragma end_pf_sensitive
        }
        """
        result = label_sensitivity(parse(source))
        assert result.functions["scribble"] == HIGH

    def test_region_without_secrets_warns(self):
        source = """
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          y = 3;
          #pragma end_pf_sensitive
        }
        """
        result = label_sensitivity(parse(source))
        assert result.warnings

    def test_call_in_loop_step_is_region_call(self):
        result = label_sensitivity(parse("""
        secret int<8> k;
        output int y;

        fn h(a) {
          return a & 1;
        }

        fn main() {
          #pragma begin_pf_sensitive
          y = 0;
          for (i = 0; i < 2; i = i + h(k)) bound 2 {
            y = y + i;
          }
          #pragma end_pf_sensitive
        }
        """))
        assert result.functions["h"] == HIGH
        assert result.variables["h/a"] == HIGH
