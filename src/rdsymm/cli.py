"""Command-line interface.

    rdsymm verify <system.json> <generator.json>
    rdsymm canon <matrix.json>
    rdsymm commutator <X.json> <Y.json>
    rdsymm corpus run [--table N ...] [--item K ...] [--m M ...] [--seed S]
                      [--json out.json] [--mode symbolic|witness|both]
    rdsymm equiv apply <system.json> <transform.json>

Exit codes: 0 all pass; 1 verification failures, or an identity a check
needs that no exact layer proves and no sample point refutes (``verify``
reports an undecided claim; ``canon`` and ``equiv apply`` print one
``undecided:`` line); 2 usage or parse errors.

System files: {"m": 2, "family": {"kind": "triangular", "a": "1"} |
{"kind": "drift", "p": "1"}, "f1": "...", "f2": "...",
"params": {"name": "value" | "free"}}, m >= 1.
Generator files: {"eta": "...", "xi": ["...", ...], "pi": ["...", "..."]}.
Matrix files: 3x3 array of expression strings in the N pattern.
Transform files: {"kind": "linear" | "aet" | "vshift" | "vshift_full",
"params": {...}}; AET 2 and AET 3 build x^2 over the system's m, so their
params give no m.  A v-shift v -> v + Phi gives Phi as "phi" ("vshift") or
as "phihat" ("vshift_full"); both build the same shift, which must satisfy
the admissibility system when Phi holds t or an x_i.  Every expression
field is a JSON string or a JSON integer; null, a boolean or any other JSON
value exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .corpus import TABLES
from .equality import Undecided
from .expr import ExprError, substitute, sym
from .fields import Generator, commutator
from .nmatrix import CaseSplitNeeded, NMatrix, as_nmatrix, canonical_form
from .parser import ParseError, parse, to_text
from .systems import RDSystem, drift, is_symmetry, triangular
from .transforms import (InapplicableTransform, LinearEquiv, VShift, aet,
                         apply_equiv)
from .verify import MODES, run_suite


class UsageError(Exception):
    pass


def _load_json(path, shape=dict):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if not isinstance(data, shape):
        raise UsageError(f"{path} must hold a JSON "
                         + ("object" if shape is dict else "array"))
    return data


def _parse_expr(value, what):
    """The expression a JSON string or integer spells; any other JSON value
    (null, a boolean, a float, an array, an object) is refused, since its
    Python text would parse as a symbol such as ``None`` or ``True``."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise UsageError(f"bad expression for {what}: {json.dumps(value)} "
                         "is not a JSON string or integer")
    try:
        return parse(str(value))
    except (ParseError, ExprError) as exc:
        raise UsageError(f"bad expression for {what}: {exc}")


def load_system(path) -> RDSystem:
    data = _load_json(path)
    if "constraints" in data:
        raise UsageError("system field 'constraints' is not supported")
    try:
        m = data["m"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise UsageError(f"system dimension m={m!r}, must be an integer")
        if m < 1:
            raise UsageError(f"system dimension m={m}, must be at least 1")
        fam = data["family"]
        kind = fam["kind"]
        binding = {}
        for name, val in data.get("params", {}).items():
            if val != "free":
                binding[sym(name)] = _parse_expr(val, f"param {name}")
        f1 = substitute(_parse_expr(data["f1"], "f1"), binding)
        f2 = substitute(_parse_expr(data["f2"], "f2"), binding)
        if kind == "triangular":
            a = substitute(_parse_expr(fam.get("a", "0"), "a"), binding)
            return triangular(m, a, f1, f2)
        if kind == "drift":
            p = substitute(_parse_expr(fam.get("p", "1"), "p"), binding)
            return drift(m, p, f1, f2)
    except KeyError as exc:
        raise UsageError(f"system file missing field {exc}")
    except (AttributeError, TypeError, ValueError, ExprError) as exc:
        raise UsageError(f"system file malformed: {exc}")
    raise UsageError(f"unknown system kind {kind!r}")


def load_generator(path, m=None) -> Generator:
    """The generator in ``path``; with no m, m is its xi array's length."""
    data = _load_json(path)
    if m is None:
        m = len(_array(data, "xi", []))
    eta = _parse_expr(data.get("eta", "0"), "eta")
    xi = [_parse_expr(s, "xi") for s in _array(data, "xi", ["0"] * m)]
    if len(xi) != m:
        raise UsageError(f"generator has {len(xi)} xi components, system m={m}")
    pi = [_parse_expr(s, f"pi{i}")
          for i, s in enumerate(_array(data, "pi", ["0", "0"]), start=1)]
    if len(pi) != 2:
        raise UsageError(f"generator has {len(pi)} pi components, needs 2")
    return Generator(eta, tuple(xi), *pi)


def _array(data, field, default):
    value = data.get(field, default)
    if not isinstance(value, list):
        raise UsageError(f"generator field {field!r} must be a JSON array")
    return value


def dump_generator(g: Generator) -> dict:
    return {"eta": to_text(g.eta), "xi": [to_text(c) for c in g.xi],
            "pi": [to_text(g.pi1), to_text(g.pi2)]}


def load_matrix(path) -> NMatrix:
    data = _load_json(path, list)
    if len(data) != 3 or not all(isinstance(row, list) and len(row) == 3
                                 for row in data):
        raise UsageError("matrix file must be a 3x3 array of strings")
    rows = [[_parse_expr(e, "matrix entry") for e in row] for row in data]
    try:
        return as_nmatrix(tuple(tuple(r) for r in rows))
    except ValueError as exc:
        raise UsageError(str(exc))


def load_transform(path, m: int):
    """The transform a file describes, for a system of dimension m."""
    data = _load_json(path)
    kind = data.get("kind")
    try:
        params = {k: _parse_expr(v, f"transform param {k}")
                  for k, v in data.get("params", {}).items()}
        if kind == "linear":
            return LinearEquiv(**params)
        if kind == "aet":
            if "m" in params:
                raise UsageError("AET parameter m is the system's dimension")
            index = data["index"]
            if isinstance(index, bool) or not isinstance(index, int):
                raise UsageError(f"AET index {index!r}, must be an integer")
            return aet(index, m=m, **params)
        if kind == "vshift":
            return VShift(_parse_expr(data["phi"], "phi"))
        if kind == "vshift_full":
            return VShift(_parse_expr(data["phihat"], "phihat"))
    except KeyError as exc:
        raise UsageError(f"transform file missing field {exc}")
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"transform file malformed: {exc}")
    raise UsageError(f"unknown transform kind {kind!r}")


def cmd_verify(args) -> int:
    system = load_system(args.system)
    gen = load_generator(args.generator, system.m)
    rep = is_symmetry(system, gen)
    out = {"verdict": rep.verdict, "decision_path": rep.decision_path,
           "residuals": [to_text(r) for r in rep.residuals]}
    if rep.counterexample:
        out["counterexample"] = {k: str(v) for k, v in rep.counterexample.items()}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if rep.verdict == "holds" else 1


def cmd_canon(args) -> int:
    g = load_matrix(args.matrix)
    try:
        cf = canonical_form(g)
    except CaseSplitNeeded as exc:
        raise UsageError(str(exc))
    out = {
        "label": cf.label,
        "canonical": [[to_text(e) for e in row] for row in cf.canonical.matrix()],
        "witness": [[to_text(e) for e in row] for row in cf.witness.matrix()],
        "scale": to_text(cf.scale),
    }
    if cf.invariant is not None:
        out["invariant"] = to_text(cf.invariant)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_commutator(args) -> int:
    gx, gy = load_generator(args.x), load_generator(args.y)
    if gx.m != gy.m:
        raise UsageError("generators have different dimensions")
    print(json.dumps(dump_generator(commutator(gx, gy)),
                     indent=2, sort_keys=True))
    return 0


def cmd_corpus_run(args) -> int:
    modes = MODES if args.mode == "both" else (args.mode,)
    # open the report first: a path that cannot be written fails at once,
    # not after the whole suite has run; appending leaves a report already
    # there as it is until the new one replaces it
    try:
        out = open(args.json, "a") if args.json else nullcontext()
    except OSError as exc:
        raise UsageError(f"cannot write {args.json}: {exc}")
    with out as fh:
        rep = run_suite(tables=args.table or TABLES, items=args.item or None,
                        m_values=args.m or None, seed=args.seed, modes=modes)
        if not rep.runs:
            raise UsageError("no corpus row matches the filters")
        payload = rep.to_json()
        if fh is not None:
            fh.truncate(0)
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for run in rep.runs:
        print(f"{run.row_key}: {run.status}"
              + (" (annotated)" if run.annotated and run.status == "fail" else ""))
    c = payload["counts"]
    print(f"pass {c.get('pass', 0)}, fail {c.get('fail', 0)}, "
          f"blocked {c.get('blocked', 0)}, undecided {c.get('undecided', 0)}; "
          f"gate pass fraction {payload['gate_pass_fraction']}")
    return rep.exit_code


def cmd_equiv_apply(args) -> int:
    system = load_system(args.system)
    tr = load_transform(args.transform, system.m)
    try:
        out = apply_equiv(system, tr)
    except InapplicableTransform as exc:
        print(json.dumps({"error": str(exc)}, indent=2))
        return 1
    payload = {"m": out.m,
               "family": {"kind": out.family,
                          **({"a": to_text(out.a)} if out.family == "triangular"
                             else {"p": to_text(out.p)})},
               "f1": to_text(out.f1), "f2": to_text(out.f2)}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rdsymm",
                                 description="symmetry verification for "
                                 "triangular reaction-diffusion systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a generator against a system")
    p.add_argument("system")
    p.add_argument("generator")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("canon", help="canonical form of an N-pattern matrix")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("commutator", help="commutator of two generators")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_commutator)

    p = sub.add_parser("corpus", help="table corpus operations")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    pr = csub.add_parser("run", help="verify corpus rows")
    pr.add_argument("--table", type=int, action="append", choices=TABLES)
    pr.add_argument("--item", action="append")
    pr.add_argument("--m", type=int, action="append")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--json", help="write the machine-readable report here")
    pr.add_argument("--mode", choices=[*MODES, "both"],
                    default="both")
    pr.set_defaults(fn=cmd_corpus_run)

    p = sub.add_parser("equiv", help="equivalence transformations")
    esub = p.add_subparsers(dest="equiv_command", required=True)
    pa = esub.add_parser("apply", help="apply a transform to a system")
    pa.add_argument("system")
    pa.add_argument("transform")
    pa.set_defaults(fn=cmd_equiv_apply)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except Undecided as exc:
        print(f"undecided: {exc}")
        return 1
    except (UsageError, ParseError, ExprError) as exc:
        # an ExprError past loading is a domain fault of the input, such as
        # differentiating 0^(u-1) (which needs ln 0)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
