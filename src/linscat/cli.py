"""Command-line front end: JSON experiment configs in, JSON/CSV reports out.

Subcommands: places, height, weil, twisted, sweep, solve, scatter,
ruvojta, audit.  One config file describes one experiment; reports are
deterministic (byte-identical across runs), embed the config digest, and
serialize every rational as a string.  Exit code 0 on success, 2 when any
verdict was indeterminate, 1 on error.
"""

import argparse
import csv
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from . import exceptional, ruvojta, scattering
from .errors import BadParameter, ConfigInvalid, LinscatError, PrecisionExhausted
from .fieldarith import nf_create
from .heights import (
    LinearForm,
    ProjectivePoint,
    _per_place,
    log_height,
    mult_height,
    weil_hyperplane,
)
from .places import INF, normalize_place, places_above, product_formula_defect
from .twisted import FormSystemSpec, TwistedHeightSpec, log_twisted_report

SCHEMA = 1


def _frac(s, where=""):
    # a JSON true is a Python int, and a float is not exact: refuse both
    try:
        if isinstance(s, (str, int)) and not isinstance(s, bool):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigInvalid("expected a rational string at %s, got %r" % (where, s))


def _int(value, where):
    try:
        if not isinstance(value, (bool, float)):
            return int(value)
    except (TypeError, ValueError):
        pass
    raise ConfigInvalid("%s must be an integer, got %r" % (where, value))


def _list(value, where):
    """A list-valued config entry: anything else is refused."""
    if not isinstance(value, list):
        raise ConfigInvalid("%s must be a list, got %r" % (where, value))
    return value


def _normalize_place(v, where=""):
    try:
        return normalize_place(v)
    except BadParameter:
        raise ConfigInvalid("bad place %r at %s" % (v, where))


def _place_key(v):
    return "inf" if v == INF else str(v)


def _load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigInvalid("cannot read config %s: %s" % (path, exc))
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be an object")
    digest = hashlib.sha256(raw).hexdigest()
    return cfg, digest


def _get_field(cfg):
    if "field" not in cfg:
        raise ConfigInvalid("config needs a 'field' minimal polynomial")
    return nf_create([_int(c, "field") for c in _list(cfg["field"], "field")])


def _get_points(cfg, key="points"):
    pts = []
    for row in _list(cfg.get(key, []), key):
        if not isinstance(row, list):
            raise ConfigInvalid("a point must be a list of coordinates, got %r" % (row,))
        try:
            pts.append(ProjectivePoint([_frac(c, key) for c in row]))
        except LinscatError as exc:
            raise ConfigInvalid("bad point %r: %s" % (row, exc))
    return pts


def _parse_form(field, coeff_list, where):
    coeffs = []
    for c in _list(coeff_list, where):
        if isinstance(c, list):
            if len(c) != field.degree:
                raise ConfigInvalid(
                    "coefficient %r at %s needs %d basis entries"
                    % (c, where, field.degree))
            coeffs.append(field.element([_frac(x, where) for x in c]))
        else:
            coeffs.append(field.from_rational(_frac(c, where)))
    try:
        return LinearForm(field, coeffs)
    except LinscatError as exc:
        raise ConfigInvalid("bad form at %s: %s" % (where, exc))


def _get_S(cfg):
    if "S" not in cfg or not cfg["S"]:
        raise ConfigInvalid("config needs a nonempty 'S'")
    return [_normalize_place(v, "S") for v in _list(cfg["S"], "S")]


def _get_table(cfg, key, S, entry=None):
    """The per-place table cfg[key], an object keyed by place or a list in
    S-order, read through heights._per_place.  With entry, every place of S
    needs one ("no <entry> for place <v>"), a list."""
    table = cfg.get(key, {})
    if not isinstance(table, (list, dict)):
        raise ConfigInvalid("'%s' must be an object keyed by place "
                            "or a list in S-order" % key)
    try:
        table = _per_place(table, S)
    except BadParameter as exc:
        raise ConfigInvalid("bad '%s': %s" % (key, exc))
    if entry is not None:
        for v in S:
            if v not in table:
                raise ConfigInvalid("no %s for place %s" % (entry, _place_key(v)))
            _list(table[v], "%s[%s]" % (key, _place_key(v)))
    return table


def _get_forms(cfg, field, S):
    if "forms" not in cfg:
        raise ConfigInvalid("config needs 'forms' per place")
    table = _get_table(cfg, "forms", S, "forms")
    return {v: [_parse_form(field, f, "forms[%s]" % _place_key(v)) for f in table[v]]
            for v in S}


def _get_weights(cfg, S):
    if "weights" not in cfg:
        raise ConfigInvalid("config needs 'weights' per place")
    table = _get_table(cfg, "weights", S, "weight row")
    return {v: [_frac(c, "weights[%s]" % _place_key(v)) for c in table[v]] for v in S}


def _get_w_choices(cfg, S):
    """Place indices: a dict keyed by place, or a list read in S-order."""
    return {v: _int(ix, "w_choices[%s]" % _place_key(v))
            for v, ix in _get_table(cfg, "w_choices", S).items()}


def _report(payload, cfg_digest, precision, out_path=None, indeterminate=False):
    """Write the report, and return the exit status: 2 when the command
    found an indeterminate verdict, else 0.  A non-finite number, which
    JSON cannot hold, is refused before anything is written."""
    doc = {"schema": SCHEMA, "config_digest": cfg_digest,
           "precision": precision}
    doc.update(payload)
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, default=str, allow_nan=False)
    except ValueError:
        raise PrecisionExhausted("a report value is outside the float range") from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 2 if indeterminate else 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_places(cfg, digest, precision, outdir):
    field = _get_field(cfg)
    key = "places" if "places" in cfg else "S"
    vs = [_normalize_place(v, key) for v in _list(cfg.get(key, []), key)]
    if not vs:
        raise ConfigInvalid("'places' (or 'S') must list the places to factor")
    rows = []
    for v in vs:
        ws = places_above(field, v)
        rows.append({"v": _place_key(v),
                     "above": [w.serial() for w in ws],
                     "sum_ef": sum(w.e * w.f for w in ws)})
    return _report({"places": rows, "field": list(field.min_poly)},
                   digest, precision, _out(outdir, "places.json"))


def cmd_height(cfg, digest, precision, outdir):
    pts = _get_points(cfg)
    if not pts:
        raise ConfigInvalid("'points' must be nonempty")
    rows = [{"point": list(p.coords), "H": str(mult_height(p)),
             "h": float(log_height(p, precision))} for p in sorted(set(pts))]
    return _report({"heights": rows}, digest, precision, _out(outdir, "height.json"))


def cmd_weil(cfg, digest, precision, outdir):
    field = _get_field(cfg)
    S = _get_S(cfg)
    if "form" not in cfg:
        raise ConfigInvalid("config needs a 'form'")
    form = _parse_form(field, cfg["form"], "form")
    w_choices = _get_w_choices(cfg, S)
    pts = _get_points(cfg)
    rows = []
    for p in sorted(set(pts)):
        lam = {}
        for v in S:
            lam[_place_key(v)] = float(weil_hyperplane(
                form, p, v, w_index=w_choices.get(v, 0), precision=precision))
        rows.append({"point": list(p.coords),
                     "h": float(log_height(p, precision)), "lambda": lam})
    return _report({"weil": rows}, digest, precision, _out(outdir, "weil.json"))


def _spec(cfg, weighted=True):
    """The config's form system: a TwistedHeightSpec with its weights,
    epsilon and Q, or without weighted a plain FormSystemSpec."""
    field = _get_field(cfg)
    S = _get_S(cfg)
    forms = _get_forms(cfg, field, S)
    try:
        if not weighted:
            return FormSystemSpec(field, S, forms, w_choices=_get_w_choices(cfg, S))
        return TwistedHeightSpec(
            field, S, forms, _get_weights(cfg, S),
            epsilon=_frac(cfg.get("epsilon", "1/10"), "epsilon"),
            Q=_frac(cfg.get("Q", 1), "Q"),
            w_choices=_get_w_choices(cfg, S))
    except LinscatError as exc:
        raise ConfigInvalid(str(exc))


def cmd_twisted(cfg, digest, precision, outdir):
    spec = _spec(cfg)
    pts = _get_points(cfg)
    rows = []
    for p in sorted(set(pts)):
        rep = log_twisted_report(spec, p, precision)
        rows.append({
            "point": list(p.coords),
            "H_Q": float(rep["H_Q"]),
            "per_place": {_place_key(v): float(val)
                          for v, val in rep["per_place"].items()},
            "lhs": float(rep["lhs"]), "rhs": float(rep["rhs"]),
            "h": float(rep["h"]),
            "verdict": rep["verdict"],
            "identity_residual": rep["identity_residual"],
        })
    return _report({"Q": str(spec.Q), "epsilon": str(spec.epsilon),
                    "twisted": rows}, digest, precision,
                   _out(outdir, "twisted.json"),
                   indeterminate=any(r["verdict"] is None for r in rows))


def cmd_sweep(cfg, digest, precision, outdir):
    spec = _spec(cfg)
    grid = [_frac(q, "Q_grid") for q in _list(cfg.get("Q_grid", []), "Q_grid")]
    if not grid:
        raise ConfigInvalid("'Q_grid' must be a nonempty ascending list")
    pts = _get_points(cfg)
    if not pts and "height_bound" in cfg:
        pts = exceptional.enumerate_points(
            spec.n, _int(cfg["height_bound"], "height_bound"))
    rows = exceptional.q_sweep(spec, grid, pts)
    payload = [{"Q": str(r["Q"]),
                "solutions": [list(p.coords) for p in r["solutions"]],
                "indeterminate": [list(p.coords) for p in r["indeterminate"]]}
               for r in rows]
    return _report({"sweep": payload, "epsilon": str(spec.epsilon)},
                   digest, precision, _out(outdir, "sweep.json"),
                   indeterminate=any(r["indeterminate"] for r in rows))


def cmd_solve(cfg, digest, precision, outdir):
    mode = cfg.get("mode")
    if mode not in ("schmidt", "fw", "parametric"):
        raise ConfigInvalid("'mode' must be schmidt, fw or parametric")
    slack = _frac(cfg.get("slack", 0), "slack")
    pts = _get_points(cfg) or None
    bound = _int(cfg["height_bound"], "height_bound") if "height_bound" in cfg else None
    spec = _spec(cfg, weighted=mode == "parametric")
    params = {}
    if mode == "schmidt":
        params["epsilon"] = _frac(cfg.get("epsilon", "1/10"), "epsilon")
    elif mode == "fw":
        if "d_weights" not in cfg:
            raise ConfigInvalid("fw mode needs 'd_weights'")
        table = _get_table(cfg, "d_weights", spec.S, "d_weights row")
        params["d_weights"] = [[_frac(c, "d_weights") for c in table[v]]
                               for v in spec.S]
    ss = exceptional.filter_solutions(mode, spec, points=pts, height_bound=bound,
                                      slack=slack, **params)
    payload = {
        "mode": mode,
        "solutions": [list(p.coords) for p in ss.points],
        "indeterminate": [list(p.coords) for p in ss.indeterminate],
        "support": [list(p.coords) for p in ss.support],
        "slack": str(slack),
        "spec_digest": ss.spec_digest,
    }
    if ss.points and cfg.get("cover", True):
        cover = exceptional.subspace_cover(ss, mode=cfg.get("cover_mode", "exact"))
        payload["cover"] = cover.serial()
        payload["density"] = exceptional.density_report(ss, cover)
    if outdir and cfg.get("csv", True):
        _solve_csv(ss, _out(outdir, "solve.csv"), precision)
    return _report(payload, digest, precision, _out(outdir, "solve.json"),
                   indeterminate=bool(ss.indeterminate))


def _solve_csv(ss, path, precision):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["point", "h", "bucket"])
        for bucket, pts in (("solution", ss.points),
                            ("indeterminate", ss.indeterminate),
                            ("support", ss.support)):
            for p in pts:
                wr.writerow([":".join(str(c) for c in p.coords),
                             float(log_height(p, precision)), bucket])


def cmd_scatter(cfg, digest, precision, outdir):
    if "profiles" not in cfg:
        raise ConfigInvalid("scatter needs 'profiles' "
                            "(label, lambda matrix, h) entries")
    if "n" not in cfg:
        raise ConfigInvalid("scatter needs 'n', the dimension of P^n")
    if not cfg["profiles"] and "S_size" not in cfg:
        raise ConfigInvalid("scatter needs 'S_size' when 'profiles' is empty")
    profiles = []
    for k, prof in enumerate(_list(cfg["profiles"], "profiles")):
        where = "profiles[%d]" % k
        if not isinstance(prof, dict) or "lambda" not in prof or "h" not in prof:
            raise ConfigInvalid("%s needs 'lambda' and 'h'" % where)
        lam = [[_frac(c, where) for c in _list(row, where)]
               for row in _list(prof["lambda"], where + ".lambda")]
        profiles.append((prof.get("label", "p%d" % k), lam,
                         _frac(prof["h"], where + ".h")))
    n = _int(cfg["n"], "n")
    S_size = _int(cfg["S_size"], "S_size") if "S_size" in cfg else len(profiles[0][1])
    eps = _frac(cfg.get("epsilon", "1/2"), "epsilon")
    slack = _frac(cfg.get("slack", 0), "slack")
    d_v = [_frac(c, "d_v") for c in _list(cfg["d_v"], "d_v")] if "d_v" in cfg else None
    classes, rejected = scattering.scatter_partition(
        profiles, n, eps, S_size, slack=slack, d_v=d_v)
    return _report({"classes": [c.serial() for c in classes],
                    "rejected": rejected, "epsilon": str(eps)},
                   digest, precision, _out(outdir, "scatter.json"))


def cmd_ruvojta(cfg, digest, precision, outdir):
    n = _int(cfg.get("n", 1), "n")
    m_max = _int(cfg.get("m_max", 10), "m_max")
    table, gamma, beta_sup = ruvojta.gamma_beta(n, m_max)
    payload = {
        "n": n,
        "gamma": str(gamma),
        "beta_sup": str(beta_sup),
        "ratio_table": {str(m): str(r) for m, r in table.items()},
    }
    if "betas" in cfg and "b" in cfg:
        betas = [_frac(x, "betas") for x in _list(cfg["betas"], "betas")]
        b = _int(cfg["b"], "b")
        tuples = ruvojta.delta_sigma(betas, b)
        payload["delta_sigma"] = [[str(a) for a in tup] for tup in tuples]
        if "m" in cfg and "epsilon1" in cfg and "epsilon" in cfg:
            ok, lhs, rhs = ruvojta.feasibility(
                n, _int(cfg["m"], "m"), betas, b,
                _frac(cfg["epsilon1"], "epsilon1"), _frac(cfg["epsilon"], "epsilon"))
            payload["feasible"] = ok
            payload["feasibility_lhs"] = str(lhs)
            payload["feasibility_rhs"] = str(rhs)
    if "m" in cfg and "sigma" in cfg and "a" in cfg:
        prof = ruvojta.filtration_dims(
            n, _int(cfg["m"], "m"), [_int(i, "sigma") for i in _list(cfg["sigma"], "sigma")],
            [_frac(x, "a") for x in _list(cfg["a"], "a")])
        payload["filtration"] = prof.serial()
    return _report(payload, digest, precision, _out(outdir, "ruvojta.json"))


def cmd_audit(cfg, digest, precision, outdir):
    """Identity and product-formula audits over seeded random samples."""
    seed = _int(cfg.get("seed", 0), "seed")
    rng = random.Random(seed)
    payload = {"seed": seed}
    fields = [nf_create([_int(c, "fields") for c in _list(f, "fields")])
              for f in _list(cfg.get("fields", [[0, 1], [-2, 0, 1]]), "fields")]
    n_pf = _int(cfg.get("product_formula_samples", 50), "product_formula_samples")
    worst_pf = 0.0
    for field in fields:
        for _ in range(n_pf):
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                      for _ in range(field.degree)]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            try:
                d = product_formula_defect(field, field.element(coeffs))
            except LinscatError:
                continue
            worst_pf = max(worst_pf, d)
    payload["product_formula_max_defect"] = worst_pf

    n_id = _int(cfg.get("identity_samples", 40), "identity_samples")
    worst_id = 0.0
    for _ in range(n_id):
        field = rng.choice(fields)
        nvars = rng.choice([2, 3])
        spec = None
        while spec is None:
            try:
                cand = []
                for _i in range(nvars):
                    cand.append(LinearForm(field, [
                        field.element([Fraction(rng.randint(-4, 4))
                                       for _ in range(field.degree)])
                        if rng.random() < 0.7 else field.from_rational(rng.randint(-4, 4))
                        for _ in range(nvars)]))
                spec = TwistedHeightSpec(
                    field, [INF], {INF: cand},
                    {INF: _random_zero_row(rng, nvars)},
                    epsilon=Fraction(1, 10),
                    Q=rng.choice([1, 2, 10, 1000]),
                    w_choices={INF: 0})
            except LinscatError:
                spec = None
        for _j in range(5):
            coords = [rng.randint(-500, 500) for _ in range(nvars)]
            if not any(coords):
                coords[0] = 1
            p = ProjectivePoint(coords)
            try:
                rep = log_twisted_report(spec, p, precision)
            except LinscatError:
                continue
            worst_id = max(worst_id, rep["identity_residual"])
    payload["identity_max_residual"] = worst_id
    payload["identity_samples"] = n_id
    return _report(payload, digest, precision, _out(outdir, "audit.json"))


def _random_zero_row(rng, nvars):
    row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nvars - 1)]
    row.append(-sum(row))
    return row


def _out(outdir, name):
    if not outdir:
        return None
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


COMMANDS = {
    "places": cmd_places,
    "height": cmd_height,
    "weil": cmd_weil,
    "twisted": cmd_twisted,
    "sweep": cmd_sweep,
    "solve": cmd_solve,
    "scatter": cmd_scatter,
    "ruvojta": cmd_ruvojta,
    "audit": cmd_audit,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linscat",
        description="height / Weil-function / twisted-height experiments "
                    "on projective space")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--precision", type=int, default=None,
                        help="digits of printed values (default: the config's, "
                             "else 40); no solve, sweep or twisted verdict "
                             "depends on it")
    parser.add_argument("--out", default=None, help="report output directory")
    args = parser.parse_args(argv)
    try:
        cfg, digest = _load_config(args.config)
        precision = _int(cfg.get("precision", 40), "precision")
        if args.precision is not None:
            precision = args.precision
        if precision < 1:
            raise ConfigInvalid("precision must be at least 1, got %d" % precision)
        return COMMANDS[args.command](cfg, digest, precision, args.out)
    except LinscatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
