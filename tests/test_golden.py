"""Reports against recorded ones.

tests/golden/ holds two configs and the stdout of `twisted`, `sweep`, `weil`
and parametric `solve` on each at precisions 17 and 40:

* sqrt2_inf_7_3.json, Q(sqrt2) with S = {inf, 7, 3} (the split prime 7 at
  its second place, the inert prime 3, the larger real embedding), whose
  reports are <command>_<precision>.json;
* qi_inf_5_3.json, Q(i) with S = {inf, 5, 3} (the complex place, the split
  prime 5 at its second place, the inert prime 3), whose reports are
  qi_<command>_<precision>.json.

Every field of a report must equal the recorded one, except
identity_residual: it measures the rounding of two combinations of one
evaluation of every form, lhs - h and -log H_Q, so it must lie below a
bound instead: above 17 digits the report's working precision, at most
10^-(precision + 8), and at 17 digits the bundled audit's 1e-12.

It also holds the stdout of the two bundled configs in configs/, at their
own precision: bundled_roth_sqrt2_solve.json, which must be equal byte for
byte, and bundled_identity_audit_audit.json, whose two residuals measure
rounding and are held below a bound instead: product_formula_max_defect
below 1e-30, identity_max_residual below 1e-12.
"""

import json
import os

import pytest

from linscat.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")


def _residuals(doc):
    return [row.pop("identity_residual") for row in doc.get("twisted", [])]


def _check(config, prefix, command, precision, capsys):
    code = main([command, "--config", os.path.join(GOLDEN, config),
                 "--precision", str(precision)])
    doc = json.loads(capsys.readouterr().out)
    with open(os.path.join(GOLDEN, "%s%s_%d.json" % (prefix, command, precision))) as fh:
        want = json.load(fh)
    # the sweep's Q = 1 row has the exact-zero margin of [0:1]: indeterminate
    assert code == (2 if command == "sweep" else 0)
    residuals = _residuals(doc)
    _residuals(want)
    assert doc == want
    if command == "twisted":
        assert len(residuals) == len(doc["twisted"]) > 0
        assert max(residuals) <= (10.0 ** -(precision + 8) if precision > 17 else 1e-12)


@pytest.mark.parametrize("precision", [17, 40])
@pytest.mark.parametrize("command", ["twisted", "sweep", "weil", "solve"])
def test_report_matches_golden(command, precision, capsys):
    _check("sqrt2_inf_7_3.json", "", command, precision, capsys)


@pytest.mark.parametrize("precision", [17, 40])
@pytest.mark.parametrize("command", ["twisted", "sweep", "weil", "solve"])
def test_complex_place_report_matches_golden(command, precision, capsys):
    _check("qi_inf_5_3.json", "qi_", command, precision, capsys)


def _bundled(command, config, capsys):
    code = main([command, "--config", os.path.join(CONFIGS, config + ".json")])
    with open(os.path.join(GOLDEN, "bundled_%s_%s.json" % (config, command))) as fh:
        want = fh.read()
    return code, capsys.readouterr().out, want


def test_bundled_roth_solve_matches_golden(capsys):
    code, out, want = _bundled("solve", "roth_sqrt2", capsys)
    assert code == 0
    assert out == want


def test_bundled_audit_matches_golden(capsys):
    code, out, want = _bundled("audit", "identity_audit", capsys)
    assert code == 0
    doc, want = json.loads(out), json.loads(want)
    assert doc.pop("product_formula_max_defect") < 1e-30
    assert doc.pop("identity_max_residual") < 1e-12
    want.pop("product_formula_max_defect")
    want.pop("identity_max_residual")
    assert doc == want
