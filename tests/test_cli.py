import json
import os
from fractions import Fraction

import mpmath
import pytest

from linscat import nf_create
from linscat.cli import main
from linscat.exceptional import FormSystemSpec, filter_solutions
from linscat.heights import LinearForm
from linscat.places import INF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_places_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p.json", {
        "field": [-2, 0, 1], "places": [2, 3, 7, "inf"]})
    code, doc = run(capsys, "places", "--config", cfg)
    assert code == 0
    assert doc["schema"] == 1 and len(doc["config_digest"]) == 64
    by_v = {row["v"]: row for row in doc["places"]}
    assert by_v["2"]["sum_ef"] == 2
    assert len(by_v["7"]["above"]) == 2  # 7 splits in Q(sqrt 2)
    assert by_v["inf"]["above"][0]["v"] == "inf"


def test_height_and_weil_commands(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "h.json", {"points": [[3, 4], [2, 4], [3, 4]]})
    code, doc = run(capsys, "height", "--config", cfg)
    assert code == 0
    assert [r["H"] for r in doc["heights"]] == ["2", "4"]  # dedup + sort
    wcfg = write_cfg(tmp_path, "w.json", {
        "field": [0, 1], "S": ["inf", 3], "form": [1, 0],
        "points": [[3, 4]]})
    code, doc = run(capsys, "weil", "--config", wcfg)
    assert code == 0
    lam = doc["weil"][0]["lambda"]
    assert abs(lam["inf"] - 0.2876820724) < 1e-9
    assert abs(lam["3"] - 1.0986122886) < 1e-9


def test_weil_at_a_float_zero_is_an_error(tmp_path, capsys):
    """x1 - sqrt2 x0 at the Pell point [93222358:131836323] is 0 in floats."""
    cfg = write_cfg(tmp_path, "w.json", {
        "field": [-2, 0, 1], "S": ["inf"], "w_choices": {"inf": 1},
        "form": [["0", "-1"], "1"], "points": [[93222358, 131836323]]})
    assert main(["weil", "--config", cfg, "--precision", "17"]) == 1
    assert "error: " in capsys.readouterr().err
    code, doc = run(capsys, "weil", "--config", cfg)
    assert code == 0 and doc["weil"][0]["lambda"]["inf"] > 37


def test_weil_past_the_double_range_is_an_error(tmp_path, capsys):
    """The form 10^400 sqrt2 x0 + x1 at [1:2]: its integer row has no float,
    so at precision 17 the value is an error line and exit 1, and at
    precision 40 it exists."""
    cfg = write_cfg(tmp_path, "w.json", {
        "field": [-2, 0, 1], "S": ["inf"], "w_choices": {"inf": 1},
        "form": [["0", "1e400"], "1"], "points": [[1, 2]]})
    assert main(["weil", "--config", cfg, "--precision", "17"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    code, doc = run(capsys, "weil", "--config", cfg, "--precision", "40")
    with mpmath.workdps(50):
        want = mpmath.log(2) - mpmath.log(10 ** 400 * mpmath.sqrt(2) + 2)
    assert code == 0 and abs(doc["weil"][0]["lambda"]["inf"] - float(want)) < 1e-12


@pytest.mark.parametrize("Q, weights", [("1e400", ["1", "-1"]), ("1e300", ["-2", "2"])])
def test_twisted_outside_the_float_range_is_an_error(tmp_path, capsys, Q, weights):
    """At precision 17, Q = 1e400 has no float, and with Q = 1e300 and
    weights -2, 2 H_Q is about 1e600: each is an error line and exit 1,
    not an OverflowError traceback.  At precision 40 the values exist, but
    the report's float H_Q would be Infinity, which JSON cannot hold: the
    same error, with nothing written."""
    cfg = write_cfg(tmp_path, "t.json", {
        "field": [0, 1], "S": ["inf"], "forms": {"inf": [["1", "0"], ["0", "1"]]},
        "weights": {"inf": weights}, "Q": Q, "points": [[3, 4]]})
    for precision in ("17", "40"):
        assert main(["twisted", "--config", cfg, "--precision", precision]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out, precision


def test_twisted_and_sweep_commands(tmp_path, capsys):
    base = {
        "field": [0, 1], "S": ["inf"],
        "forms": {"inf": [["1", "0"], ["0", "1"]]},
        "weights": {"inf": ["1", "-1"]},
        "epsilon": "1/10", "Q": 2,
        "points": [[3, 4], [1, 1]],
    }
    cfg = write_cfg(tmp_path, "t.json", base)
    code, doc = run(capsys, "twisted", "--config", cfg)
    assert code == 0
    by_pt = {tuple(r["point"]): r for r in doc["twisted"]}
    assert abs(by_pt[(3, 4)]["H_Q"] - 8.0) < 1e-9
    assert by_pt[(3, 4)]["identity_residual"] < 1e-9
    sweep = dict(base)
    sweep["Q_grid"] = ["1", "2", "10"]
    scfg = write_cfg(tmp_path, "s.json", sweep)
    code, doc = run(capsys, "sweep", "--config", scfg)
    # [1:1] at Q = 1 sits exactly on the boundary: indeterminate, exit 2
    assert code == 2
    assert [1, 1] in doc["sweep"][0]["indeterminate"]


def test_solve_command_with_outdir(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "roth.json", {
        "mode": "schmidt",
        "field": [-2, 0, 1], "S": ["inf"],
        "w_choices": {"inf": 1},
        "forms": {"inf": [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "0"]]]},
        "epsilon": "3/10", "slack": "0",
        "height_bound": 300, "precision": 17,
    })
    outdir = str(tmp_path / "rep")
    code = main(["solve", "--config", cfg_path, "--out", outdir])
    capsys.readouterr()
    assert code == 0
    with open(os.path.join(outdir, "solve.json")) as fh:
        doc = json.load(fh)
    assert [1, 1] in doc["solutions"] and [5, 7] in doc["solutions"]
    assert "cover" in doc and doc["density"]["point_count"] == len(doc["solutions"])
    with open(os.path.join(outdir, "solve.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "point,h,bucket"
    assert any(line.startswith("1:1,") for line in lines)


def test_solve_csv_h_is_a_number(tmp_path, capsys):
    """Every h cell of solve.csv parses as a float, also at precision 40,
    and is the float the JSON reports give for the point's height."""
    golden = os.path.join(ROOT, "tests", "golden", "sqrt2_inf_7_3.json")
    outdir = str(tmp_path / "rep")
    assert main(["solve", "--config", golden, "--precision", "40", "--out", outdir]) == 0
    capsys.readouterr()
    with open(os.path.join(outdir, "solve.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    assert rows
    heights = {}
    for row in rows:
        point, h, _ = row.split(",")
        heights[point] = float(h)
    cfg = write_cfg(tmp_path, "h.json", {
        "points": [[int(c) for c in point.split(":")] for point in heights]})
    code, doc = run(capsys, "height", "--config", cfg, "--precision", "40")
    assert code == 0
    assert {":".join(map(str, r["point"])): r["h"] for r in doc["heights"]} == heights


def test_solve_with_an_indeterminate_point_exits_2(tmp_path, capsys):
    """solve exits 2 when a verdict is indeterminate: [1:1] at Q = 1 sits
    exactly on the parametric boundary, and [3:4] is decided."""
    cfg = write_cfg(tmp_path, "s.json", {
        "mode": "parametric", "field": [0, 1], "S": ["inf"],
        "forms": {"inf": [["1", "0"], ["0", "1"]]}, "weights": {"inf": ["1", "-1"]},
        "epsilon": "1/10", "Q": 1, "points": [[3, 4], [1, 1]]})
    code, doc = run(capsys, "solve", "--config", cfg)
    assert code == 2
    assert doc["indeterminate"] == [[1, 1]] and [3, 4] not in doc["indeterminate"]


def test_solve_lists_a_repeated_point_once(tmp_path, capsys):
    """A point given twice, or as [1, 2] and [2, 4], is one solution of
    solve, as sweep lists it once; the cover report counts two points."""
    cfg = write_cfg(tmp_path, "s.json", {
        "mode": "schmidt", "field": [0, 1], "S": ["inf"],
        "forms": {"inf": [["1", "0"], ["0", "1"]]}, "epsilon": "-2",
        "points": [[1, 2], [1, 2], [2, 4], [2, 3]]})
    code, doc = run(capsys, "solve", "--config", cfg)
    assert code == 0
    assert doc["solutions"] == [[1, 2], [2, 3]]
    assert doc["density"]["point_count"] == 2 and doc["density"]["economy"] == 1.0


def test_twisted_verdict_at_an_exact_tie_is_indeterminate(tmp_path, capsys):
    """twisted decides with the parametric filter's certified sign: [1:1] at
    Q = 1 is an exact tie, lhs = rhs, so its verdict is null and the command
    exits 2, as parametric solve on the same spec lists it as indeterminate;
    [3:4] is decided."""
    spec = {"field": [0, 1], "S": ["inf"], "forms": {"inf": [["1", "0"], ["0", "1"]]},
            "weights": {"inf": ["1", "-1"]}, "epsilon": "1/10", "Q": 1,
            "points": [[3, 4], [1, 1]]}
    cfg = write_cfg(tmp_path, "t.json", spec)
    for precision in ("17", "40"):
        code, doc = run(capsys, "twisted", "--config", cfg, "--precision", precision)
        assert code == 2
        verdicts = {tuple(r["point"]): r["verdict"] for r in doc["twisted"]}
        assert verdicts == {(1, 1): None, (3, 4): False}, precision
        code, doc = run(capsys, "solve", "--config",
                        write_cfg(tmp_path, "s.json", dict(spec, mode="parametric")),
                        "--precision", precision)
        assert code == 2 and doc["indeterminate"] == [[1, 1]]


def test_precision_flag_wins_over_the_config(tmp_path, capsys):
    """An explicit --precision sets the digits; without it the config's
    precision holds, and 40 without either."""
    with_key = write_cfg(tmp_path, "h.json", {"points": [[3, 4]], "precision": 17})
    without = write_cfg(tmp_path, "n.json", {"points": [[3, 4]]})
    for cfg, argv, want in ((with_key, ["--precision", "60"], 60),
                            (with_key, [], 17),
                            (without, ["--precision", "25"], 25),
                            (without, [], 40)):
        code, doc = run(capsys, "height", "--config", cfg, *argv)
        assert code == 0 and doc["precision"] == want, (cfg, argv)
    # the config's value is still read, and refused when it is no integer
    bad = write_cfg(tmp_path, "b.json", {"points": [[3, 4]], "precision": "x"})
    assert main(["height", "--config", bad, "--precision", "40"]) == 1
    assert "precision must be an integer" in capsys.readouterr().err


def test_solve_slack_stays_exact(tmp_path, capsys):
    """A config's slack reaches the filter as the Fraction it spells: the
    report settles the points as the API call given Fraction(1, 3) does,
    with the same spec digest."""
    forms = [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "0"]]]
    cfg = write_cfg(tmp_path, "slack.json", {
        "mode": "schmidt", "field": [-2, 0, 1], "S": ["inf"],
        "w_choices": {"inf": 1}, "forms": {"inf": forms},
        "epsilon": "3/10", "slack": "1/3", "height_bound": 60,
        "precision": 17, "cover": False,
    })
    code, doc = run(capsys, "solve", "--config", cfg)
    assert code == 0 and doc["slack"] == "1/3"
    K = nf_create([-2, 0, 1])
    spec = FormSystemSpec(
        K, [INF], {INF: [LinearForm(K, [K.element(c) for c in f]) for f in forms]},
        w_choices={INF: 1})
    kwargs = {"height_bound": 60, "epsilon": Fraction(3, 10)}
    ss = filter_solutions("schmidt", spec, slack=Fraction(1, 3), **kwargs)
    assert doc["spec_digest"] == ss.spec_digest
    assert doc["solutions"] == [list(p.coords) for p in ss.points]
    assert doc["indeterminate"] == [list(p.coords) for p in ss.indeterminate]
    assert doc["support"] == [list(p.coords) for p in ss.support]
    assert len(ss) > len(filter_solutions("schmidt", spec, slack=0, **kwargs))


@pytest.mark.parametrize("key", ["epsilon", "slack"])
def test_solve_past_the_double_range_writes_a_report(tmp_path, capsys, key):
    """An epsilon or slack of 10^400 with a height bound is settled point by
    point and reported, as the API call gives it, not a traceback."""
    forms = [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "0"]]]
    cfg = {"mode": "schmidt", "field": [-2, 0, 1], "S": ["inf"],
           "w_choices": {"inf": 1}, "forms": {"inf": forms},
           "epsilon": "3/10", "slack": "0", "height_bound": 30,
           "precision": 17, "cover": False}
    cfg[key] = "1" + "0" * 400
    code, doc = run(capsys, "solve", "--config", write_cfg(tmp_path, "big.json", cfg))
    assert code == 0
    K = nf_create([-2, 0, 1])
    spec = FormSystemSpec(
        K, [INF], {INF: [LinearForm(K, [K.element(c) for c in f]) for f in forms]},
        w_choices={INF: 1})
    kwargs = {"epsilon": Fraction(3, 10), "slack": 0, key: 10 ** 400}
    ss = filter_solutions("schmidt", spec, height_bound=30, **kwargs)
    assert doc["solutions"] == [list(p.coords) for p in ss.points]
    assert doc["support"] == [[0, 1]]


def _pell_points(count):
    """[x0:x1] with x1^2 - 2 x0^2 = +-1, from [1:1] on."""
    pts, x0, x1 = [], 1, 1
    while len(pts) < count:
        pts.append([x0, x1])
        x0, x1 = x0 + x1, x1 + 2 * x0
    return pts


@pytest.mark.parametrize("precision", [17, 40, 60])
def test_solve_decides_every_pell_point_at_every_precision(tmp_path, capsys, precision):
    """schmidt with eps = 3 on x1 - sqrt2 x0 and x0, at the first 80 Pell
    points, where x1 - sqrt2 x0 cancels to about 1/(2 sqrt2 x0): the
    margin -3 log H - log|(x1 - sqrt2 x0) x0|, at 250 digits, makes [1:1]
    the one solution and every other point a non-solution, at every
    --precision."""
    pts = _pell_points(80)
    with mpmath.workdps(250):
        want = [[x0, x1] for x0, x1 in pts
                if -3 * mpmath.log(x1) - mpmath.log(abs(x1 - mpmath.sqrt(2) * x0) * x0) > 0]
    assert want == [[1, 1]]
    cfg = write_cfg(tmp_path, "pell.json", {
        "mode": "schmidt", "field": [-2, 0, 1], "S": ["inf"], "w_choices": {"inf": 1},
        "forms": {"inf": [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "0"]]]},
        "epsilon": "3", "points": pts, "cover": False,
    })
    code, doc = run(capsys, "solve", "--config", cfg, "--precision", str(precision))
    assert code == 0
    assert doc["solutions"] == want and doc["indeterminate"] == [] == doc["support"]


def test_report_determinism(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "d.json", {
        "field": [-2, 0, 1], "places": [2, 5, "inf"]})
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["places", "--config", cfg, "--out", out1]) == 0
    assert main(["places", "--config", cfg, "--out", out2]) == 0
    capsys.readouterr()
    b1 = open(os.path.join(out1, "places.json"), "rb").read()
    b2 = open(os.path.join(out2, "places.json"), "rb").read()
    assert b1 == b2


def test_scatter_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sc.json", {
        "n": 1, "epsilon": "1/2", "S_size": 1,
        "profiles": [
            {"label": "a", "lambda": [["26", "4"]], "h": "10"},
            {"label": "d", "lambda": [["9", "9"]], "h": "10"},
        ]})
    code, doc = run(capsys, "scatter", "--config", cfg)
    assert code == 0
    assert doc["rejected"] == ["d"]
    assert len(doc["classes"]) == 1


def test_ruvojta_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "rv.json", {
        "n": 2, "m_max": 6, "betas": ["1", "1"], "b": 2,
        "m": 3, "epsilon1": "1/100", "epsilon": "1/2",
        "sigma": [0], "a": ["1"]})
    code, doc = run(capsys, "ruvojta", "--config", cfg)
    assert code == 0
    assert doc["gamma"] == "3" and doc["beta_sup"] == "1/3"
    assert all(r == "3" for r in doc["ratio_table"].values())
    assert doc["delta_sigma"] == [["0", "2"], ["1", "1"], ["2", "0"]]
    assert doc["filtration"]["h0"] == 10
    assert "feasible" in doc


def test_audit_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "a.json", {
        "seed": 3, "fields": [[0, 1], [-2, 0, 1]],
        "product_formula_samples": 8, "identity_samples": 4})
    code, doc = run(capsys, "audit", "--config", cfg)
    assert code == 0
    assert doc["product_formula_max_defect"] < 1e-10
    assert doc["identity_max_residual"] < 1e-8


def test_error_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "bad.json", {
        "field": [0, 1], "S": ["inf"],
        "forms": {"inf": [["1", "0"], ["0", "1"]]},
        "weights": {"inf": ["1", "1"]},  # does not sum to zero
        "points": [[1, 2]]})
    assert main(["twisted", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "sums to 2, not 0" in err
    assert main(["places", "--config", str(tmp_path / "missing.json")]) == 1
    notjson = tmp_path / "nj.json"
    notjson.write_text("{nope")
    assert main(["places", "--config", str(notjson)]) == 1
    capsys.readouterr()
    fw = {"mode": "fw", "field": [0, 1], "S": ["inf", 3],
          "forms": {"inf": [["1", "0"], ["0", "1"]], "3": [["1", "0"], ["0", "1"]]},
          "d_weights": {"inf": ["0", "0"]},  # no row for 3
          "points": [[1, 2]]}
    full = dict(fw, d_weights={"inf": ["0", "0"], "3": ["0", "0"]})
    bad_w = dict(full, w_choices={"inf": "first"})
    row = ["0", "0"]
    short = dict(fw, d_weights={"inf": ["3/2"], "3": ["0", "0"]})
    for cfg, text in ((fw, "no d_weights row for place 3"),
                      (bad_w, "w_choices[inf] must be an integer"),
                      (dict(full, w_choices=1), "'w_choices' must be"),
                      (short, "one row of 2 entries per place of S"),
                      (dict(full, points=[[0.1, 1]]), "got 0.1"),
                      (dict(full, points=[[None, 1]]), "got None"),
                      (dict(full, points=[3]), "a point must be a list"),
                      # JSON booleans and floats are not integers or rationals
                      (dict(full, height_bound=3.9), "must be an integer, got 3.9"),
                      (dict(full, height_bound=True), "integer, got True"),
                      (dict(full, precision=17.0), "integer, got 17.0"),
                      (dict(full, field=[0, 1.0]), "field must be an integer"),
                      (dict(full, points=[[True, 2]]), "got True"),
                      (dict(full, slack=False), "got False"),
                      # w_choices names only places of S, at most one index each
                      (dict(full, w_choices=[0, 0, 5]), "3 entries for the 2 places"),
                      (dict(full, w_choices={"inf": 0, "7": 1}), "7, which is not in S"),
                      (dict(full, w_choices={"oo": 0, "x": 1}), "bad 'w_choices'"),
                      # forms, weights and d_weights are read as w_choices is
                      (dict(full, forms=dict(full["forms"], **{"7": full["forms"]["3"]})),
                       "bad 'forms': an entry for 7, which is not in S"),
                      (dict(full, mode="parametric",
                            weights={"inf": ["1", "-1"], "3": row, "5": row}),
                       "bad 'weights': an entry for 5, which is not in S"),
                      (dict(full, d_weights=dict(full["d_weights"], **{"5": row})),
                       "bad 'd_weights': an entry for 5, which is not in S"),
                      (dict(full, forms=[full["forms"]["inf"]]), "no forms for place 3"),
                      (dict(full, d_weights=[row] * 3), "3 entries for the 2 places"),
                      (dict(full, forms="x"), "'forms' must be an object"),
                      (dict(full, precision=0), "precision must be at least 1, got 0"),
                      (dict(full, precision=-5), "at least 1, got -5"),
                      # a scalar where a list belongs
                      (dict(full, points=5), "points must be a list, got 5"),
                      (dict(full, S=5), "S must be a list, got 5"),
                      (dict(full, forms=dict(full["forms"], inf=5)),
                       "forms[inf] must be a list, got 5"),
                      (dict(full, forms=dict(full["forms"], inf=[5, ["0", "1"]])),
                       "forms[inf] must be a list, got 5"),
                      (dict(full, mode="parametric", weights={"inf": 5, "3": row}),
                       "weights[inf] must be a list, got 5"),
                      (dict(full, d_weights={"inf": 5, "3": row}),
                       "d_weights[inf] must be a list, got 5")):
        assert main(["solve", "--config", write_cfg(tmp_path, "e.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err
        assert err.count("\n") == 1 and "Traceback" not in err
    # the same for the list-valued keys of every other subcommand
    twisted = dict(full, weights={"inf": ["1", "-1"], "3": row})
    scatter = {"n": 1, "profiles": [{"lambda": [["1", "1"]], "h": "1"}]}
    ruvojta = {"n": 1, "m_max": 2, "betas": ["1"], "b": 1, "m": 2, "sigma": [0], "a": ["1"]}
    for command, cfg, text in (
            ("places", {"field": [0, 1], "places": 5}, "places must be a list"),
            ("height", {"points": 5}, "points must be a list"),
            ("weil", dict(full, form=5), "form must be a list"),
            ("twisted", dict(twisted, weights={"inf": 5, "3": row}),
             "weights[inf] must be a list"),
            ("sweep", dict(twisted, Q_grid=5), "Q_grid must be a list"),
            ("scatter", dict(scatter, profiles=5), "profiles must be a list"),
            ("scatter", dict(scatter, profiles=[5]), "profiles[0] needs 'lambda' and 'h'"),
            ("scatter", dict(scatter, profiles=[{"lambda": 5, "h": "1"}]),
             "profiles[0].lambda must be a list"),
            ("scatter", dict(scatter, d_v=5), "d_v must be a list"),
            ("ruvojta", dict(ruvojta, betas=5), "betas must be a list"),
            ("ruvojta", dict(ruvojta, sigma=5), "sigma must be a list"),
            ("audit", {"fields": [5]}, "fields must be a list")):
        assert main([command, "--config", write_cfg(tmp_path, "e.json", cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err, (command, err)
        assert err.count("\n") == 1 and "Traceback" not in err
    # --precision is checked as the config's key is
    cubic = write_cfg(tmp_path, "c.json", {"field": [1, -3, 0, 1], "places": [17]})
    for precision in ("0", "-5"):
        assert main(["places", "--config", cubic, "--precision", precision]) == 1
        err = capsys.readouterr().err
        assert err == "error: precision must be at least 1, got %s\n" % precision


@pytest.mark.parametrize("field, p", [([-2 * 7 ** 6, 0, 1], 7), ([-17 * 2 ** 20, 0, 1], 2)])
def test_places_command_at_a_high_index_prime(tmp_path, capsys, field, p):
    """p divides the index of Z[theta] to a high power (theta = 343 sqrt2,
    1024 sqrt17): p splits, as in Q(sqrt2) at 7 and Q(sqrt17) at 2."""
    cfg = write_cfg(tmp_path, "p.json", {"field": field, "places": [p]})
    code, doc = run(capsys, "places", "--config", cfg)
    assert code == 0
    assert [(w["e"], w["f"]) for w in doc["places"][0]["above"]] == [(1, 1), (1, 1)]


def test_places_report_does_not_depend_on_precision(tmp_path, capsys):
    """The places report (e, f, w_index) is the same at every --precision,
    also where one p-adic digit cannot tell the roots apart."""
    cfg = write_cfg(tmp_path, "p17.json", {"field": [-17, 0, 1], "places": [2, "inf"]})
    rows = []
    for precision in ("1", "40"):
        code, doc = run(capsys, "places", "--config", cfg, "--precision", precision)
        assert code == 0
        rows.append(doc["places"])
    assert rows[0] == rows[1]
    assert len(rows[0][0]["above"]) == 2  # 2 splits in Q(sqrt 17)


def test_w_choices_list_in_S_order(tmp_path, capsys):
    """w_choices as a list in S-order gives the report of the equivalent
    dict."""
    base = {"field": [-2, 0, 1], "S": ["inf", 7], "form": [["1", "1"], "3"],
            "points": [[3, 4], [5, 7]]}
    docs = []
    for w_choices in ([1, 1], {"inf": 1, "7": 1}, {}):
        cfg = write_cfg(tmp_path, "wc.json", dict(base, w_choices=w_choices))
        code, doc = run(capsys, "weil", "--config", cfg)
        assert code == 0
        del doc["config_digest"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0] != docs[2]  # the indices are read, not ignored


def test_per_place_spellings_agree(tmp_path, capsys):
    """forms, weights and d_weights give the same reports as objects keyed
    by place, with "oo" for inf, and as lists in S-order."""
    f_inf, f_3 = [["1", "0"], ["1", "-2"]], [["1", "1"], ["0", "1"]]
    w_inf, w_3 = ["1/2", "-1/2"], ["-1", "1"]
    d_inf, d_3 = ["-1", "0"], ["0", "1/3"]
    spellings = [
        (["inf", 3], {"inf": f_inf, "3": f_3}, {"inf": w_inf, "3": w_3},
         {"inf": d_inf, "3": d_3}),
        (["oo", 3], {"oo": f_inf, "3": f_3}, {"oo": w_inf, "3": w_3},
         {"oo": d_inf, "3": d_3}),
        (["inf", 3], [f_inf, f_3], [w_inf, w_3], [d_inf, d_3]),
    ]
    reports = []
    for S, forms, weights, d_weights in spellings:
        cfg = {"field": [0, 1], "S": S, "forms": forms, "weights": weights,
               "d_weights": d_weights, "points": [[1, 2], [3, 1], [2, 5], [5, 3]]}
        docs = []
        bounded = {"points": [], "height_bound": 6}
        for command, extra in (("twisted", {}), ("solve", dict(bounded, mode="fw")),
                               ("solve", dict(bounded, mode="parametric", Q=100,
                                              epsilon="-1/2"))):
            code, doc = run(capsys, command, "--config",
                            write_cfg(tmp_path, "s.json", dict(cfg, **extra)))
            assert code != 1, (S, command, extra)
            del doc["config_digest"]
            docs.append((code, doc))
        reports.append(docs)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][1][1]["support"] and reports[0][2][1]["solutions"]


def test_bad_integer_values_exit_1(tmp_path, capsys):
    solve = {"mode": "schmidt", "field": [0, 1], "S": ["inf"],
             "forms": {"inf": [["1", "0"], ["0", "1"]]}}
    scatter = {"epsilon": "1/2", "S_size": 1,
               "profiles": [{"label": "a", "lambda": [["26", "4"]], "h": "10"}]}
    cases = [
        ("solve", dict(solve, height_bound="abc"), "height_bound must be an integer"),
        ("solve", dict(solve, height_bound=5, precision="x"),
         "precision must be an integer"),
        ("sweep", dict(solve, weights={"inf": ["1", "-1"]}, Q_grid=["1"],
                       height_bound=[3]), "height_bound must be an integer"),
        ("scatter", scatter, "scatter needs 'n'"),
        ("scatter", {"n": 1, "profiles": []},
         "scatter needs 'S_size' when 'profiles' is empty"),
        ("scatter", dict(scatter, n="one"), "n must be an integer"),
        ("scatter", dict(scatter, n=1, S_size=None), "S_size must be an integer"),
        ("scatter", dict(scatter, n=1, profiles=[{"lambda": [["1", "1"]]}]),
         "profiles[0] needs 'lambda' and 'h'"),
        ("ruvojta", {"n": ""}, "n must be an integer"),
        ("ruvojta", {"m_max": "many"}, "m_max must be an integer"),
        ("ruvojta", {"betas": ["1"], "b": "two"}, "b must be an integer"),
        ("ruvojta", {"betas": ["1"], "b": 1, "m": "x", "epsilon1": "1/100",
                     "epsilon": "1/2"}, "m must be an integer"),
        ("ruvojta", {"m": 2, "sigma": ["s"], "a": ["1"]}, "sigma must be an integer"),
        ("audit", {"seed": "s"}, "seed must be an integer"),
        ("audit", {"fields": [["a", 1]]}, "fields must be an integer"),
        ("audit", {"product_formula_samples": {}},
         "product_formula_samples must be an integer"),
        ("audit", {"product_formula_samples": 0, "identity_samples": "many"},
         "identity_samples must be an integer"),
    ]
    for command, cfg, text in cases:
        path = write_cfg(tmp_path, "i.json", cfg)
        assert main([command, "--config", path]) == 1, (command, cfg)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err, (command, err)
        assert err.count("\n") == 1 and "Traceback" not in err


def test_bundled_configs(capsys):
    roth = os.path.join(ROOT, "configs", "roth_sqrt2.json")
    code, doc = run(capsys, "solve", "--config", roth)
    assert code == 0
    assert [1, 2] in doc["solutions"] and [12, 17] in doc["solutions"]
    audit = os.path.join(ROOT, "configs", "identity_audit.json")
    code, doc = run(capsys, "audit", "--config", audit)
    assert code == 0
    assert doc["product_formula_max_defect"] < 1e-10
