"""Machine-readable classification tables and their loader.

Each table ships as a JSON file; a row records the nonlinearity templates,
parameter constraints, declared kernels (arbitrary functions with their
argument signatures and, where they have one, their defining relations),
the claimed symmetries as generator specs, claimed additional equivalence
transformations, and transcription flags.

Generator specs are either raw coefficient dictionaries

    {"eta": "...", "xi": ["..."] | {"radial": "..."} | {"dir": 1, "expr": "..."},
     "phiu": "...", "phiv": "..."}

or named-operator macros ({"macro": "D", "coeff": "nu"}, ...), or sums and
scalings of those.  Strings may use the placeholders {x2} (sum of squares),
{xd} (the direction variable of a per-direction claim), and {xm} (the last
spatial variable); declared kernel names appearing bare are rewritten to
full applications of their argument signature.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence

from ..expr import (Expr, KernelWitness, ONE, Rat, RuleSet, T, ZERO, add, exp_,
                    jet, ker, mul, powe, rat, substitute, sym)
from ..fields import Generator, generator, named_operator, zero_generator
from ..parser import parse
from ..systems import (cauchy_riemann_rules, heat_kernel_rule,
                       laplace_kernel_rule, w_kernel_rules)

TABLES = (2, 3, 4, 5, 6, 7, 8, 9, 10)


@dataclass
class CorpusRow:
    table: int
    item: str
    family: str                      # a_nonzero | a_zero | a_any | drift
    m_list: List[int]
    params: Dict[str, dict]
    zero: List[str]
    nonzero: List[str]
    derive: Dict[str, str]
    kernels: List[dict]
    f1: str
    f2: str
    claims: List[dict]
    aet: List[dict]
    status: str                      # ok | blocked
    flags: List[str]
    annotation: Optional[dict]
    notes: str

    @property
    def key(self) -> str:
        return f"T{self.table}.{self.item}"


def _data_text(name: str) -> str:
    return resources.files(__package__).joinpath("data", name).read_text()


def load_table(n: int) -> List[CorpusRow]:
    raw = json.loads(_data_text(f"table{n}.json"))
    rows = []
    for entry in raw["rows"]:
        rows.append(CorpusRow(
            table=n,
            item=str(entry["item"]),
            family=entry["family"],
            m_list=list(entry.get("m", [1, 2, 3])),
            params={k: dict(v) for k, v in entry.get("params", {}).items()},
            zero=list(entry.get("zero", [])),
            nonzero=list(entry.get("nonzero", [])),
            derive=dict(entry.get("derive", {})),
            kernels=list(entry.get("kernels", [])),
            f1=entry["f1"],
            f2=entry["f2"],
            claims=list(entry.get("claims", [])),
            aet=list(entry.get("aet", [])),
            status=entry.get("status", "ok"),
            flags=list(entry.get("flags", [])),
            annotation=entry.get("annotation"),
            notes=entry.get("notes", ""),
        ))
    return rows


def load_rows(tables: Sequence[int] = TABLES) -> List[CorpusRow]:
    out = []
    for n in tables:
        out.extend(load_table(n))
    return out


# ---------------------------------------------------------------------------
# template expansion


def expand_template(s: str, m: int, direction: Optional[int] = None,
                    kernel_args: Optional[Dict[str, str]] = None) -> str:
    out = s
    if "{x2}" in out:
        out = out.replace("{x2}", "(" + "+".join(f"x{i}^2" for i in range(1, m + 1)) + ")")
    if "{xm}" in out:
        out = out.replace("{xm}", f"x{m}")
    if "{m}" in out:
        out = out.replace("{m}", str(m))
    if "{xd}" in out:
        if direction is None:
            raise ValueError("{xd} used outside a per-direction claim")
        out = out.replace("{xd}", f"x{direction}")
    dm = re.search(r"\{div\((\w+),(\w+)\)\}", out)
    while dm:
        h1, h2 = dm.groups()
        out = (out[:dm.start()]
               + f"({h1}__d1_0(x1,x2) + {h2}__d0_1(x1,x2))" + out[dm.end():])
        dm = re.search(r"\{div\((\w+),(\w+)\)\}", out)
    if kernel_args:
        for name, args in kernel_args.items():
            # rewrite bare kernel mentions into full applications
            out = re.sub(rf"\b{name}\b(?!\()", f"{name}({args})", out)
    return out


def _coord_args(kind: str, m: int) -> str:
    if kind == "coords":            # (t, x1..xm)
        return ",".join(["t"] + [f"x{i}" for i in range(1, m + 1)])
    if kind == "space":             # (x1..xm)
        return ",".join(f"x{i}" for i in range(1, m + 1))
    if kind == "space_tilde":       # (x1..x_{m-1})
        return ",".join(f"x{i}" for i in range(1, m))
    if kind == "coords_u":          # (t, x1..xm, u)
        return ",".join(["t"] + [f"x{i}" for i in range(1, m + 1)] + ["u"])
    if kind == "space_u":           # (u, x1..xm)
        return ",".join(["u"] + [f"x{i}" for i in range(1, m + 1)])
    if kind == "space_tilde_shift":  # (x1..x_{m-1}, xm + t)
        parts = [f"x{i}" for i in range(1, m)] + [f"x{m}+t"]
        return ",".join(parts)
    raise ValueError(f"unknown coordinate signature {kind!r}")


@dataclass
class KernelInfo:
    name: str
    decl: dict
    call_args: str          # argument list text inserted at mentions


def kernel_infos(row: CorpusRow, m: int) -> List[KernelInfo]:
    out = []
    for decl in row.kernels:
        name = decl["name"]
        ktype = decl.get("type", "opaque")
        if ktype == "opaque":
            args = decl["args"]
            if isinstance(args, str):
                call = _coord_args(args, m)
            else:
                call = ",".join(expand_template(a, m) for a in args)
        elif ktype == "heat":
            call = _coord_args("coords", m)
        elif ktype in ("laplace", "harmonic"):
            call = _coord_args("space", m)
        elif ktype == "space_tilde":
            call = _coord_args("space_tilde", m)
        elif ktype == "laplace_shift":
            call = _coord_args("space_tilde_shift", m)
        elif ktype == "wkernel":
            call = _coord_args("coords_u", m)
        elif ktype == "cr":
            call = "x1,x2"
        elif ktype == "cr_partner":
            call = "x1,x2"
        else:
            raise ValueError(f"unknown kernel type {ktype!r}")
        out.append(KernelInfo(name, decl, call))
        if ktype == "cr":
            out.append(KernelInfo(decl["partner"],
                                  {"name": decl["partner"],
                                   "type": "cr_partner"}, "x1,x2"))
    return out


def parse_in_row(s: str, m: int, infos: List[KernelInfo],
                 direction: Optional[int] = None) -> Expr:
    kargs = {ki.name: ki.call_args for ki in infos}
    return parse(expand_template(s, m, direction, kargs))


# ---------------------------------------------------------------------------
# kernel rules and witness menus


def build_rules(row: CorpusRow, m: int, a_expr: Expr, f1: Expr, f2: Expr,
                binding: Dict) -> RuleSet:
    """Defining rewrite rules for the row's kernels at dimension m."""
    rules = []
    for ki in kernel_infos(row, m):
        ktype = ki.decl.get("type", "opaque")
        if ktype == "heat":
            rate = substitute(parse(ki.decl["rate"]), binding)
            rules.append(heat_kernel_rule(ki.name, m, a_expr, rate))
        elif ktype in ("laplace", "laplace_shift"):
            eig = substitute(parse(str(ki.decl["eigen"])), binding)
            rules.append(laplace_kernel_rule(ki.name, _laplace_params(ktype, m),
                                             eig))
        elif ktype == "cr":
            if m == 2:
                rules.extend(cauchy_riemann_rules(ki.name, ki.decl["partner"]))
        elif ktype == "wkernel":
            try:
                rules.append(w_kernel_rules(ki.name, m, f1, f2))
            except ValueError:
                # the defining relation only exists where f1 and f2_v are
                # v-free; claims that use W impose that through their side
                # conditions and get the rule on their own system
                pass
    return RuleSet(rules)


def _laplace_params(ktype: str, m: int) -> List[Expr]:
    """Parameters of a Laplace eigenfunction kernel: x1..xm, or
    x1..x_{m-1}, _s for the shifted one (its last slot receives xm + t)."""
    if ktype == "laplace":
        return [sym(f"x{i}") for i in range(1, m + 1)]
    return [sym(f"x{i}") for i in range(1, m)] + [sym("_s")]


def witness_menu(ki: KernelInfo, m: int, a_expr: Expr,
                 binding: Dict, rng) -> Optional[KernelWitness]:
    """A concrete replacement for the kernel, or None to stay symbolic."""
    ktype = ki.decl.get("type", "opaque")
    t, u = T, jet("u")
    xs = [sym(f"x{i}") for i in range(1, m + 1)]
    if ktype == "opaque":
        if "witnesses" in ki.decl:
            body_text = rng.choice(ki.decl["witnesses"])
            args = [parse(p) for p in
                    expand_template(ki.call_args, m).split(",")] if ki.call_args else []
            params = [sym(f"_s{i+1}") for i in range(len(args))]
            body = substitute(parse(expand_template(body_text, m)),
                              {sym(f"s{i+1}"): params[i] for i in range(len(params))})
            return KernelWitness(params, body)
        nargs = len(ki.call_args.split(",")) if ki.call_args else 0
        params = [sym(f"_s{i+1}") for i in range(nargs)]
        if nargs == 0:
            return KernelWitness([], rat(rng.randint(1, 4)))
        choices = []
        s1 = params[0]
        choices.append(mul(s1, s1))
        choices.append(add(rat(rng.randint(1, 3)), mul(rat(rng.randint(1, 3)), s1)))
        choices.append(exp_(s1))
        body = rng.choice(choices)
        for extra in params[1:]:
            body = mul(body, add(ONE, extra))
        return KernelWitness(params, body)
    if ktype == "heat":
        rate = substitute(parse(ki.decl["rate"]), binding)
        params = [T] + xs
        k = rat(rng.choice([0, 1, 1, 2]))
        if k.value == 0:
            body = exp_(mul(rate, T))
        else:
            body = exp_(add(mul(add(rate, mul(a_expr, k, k)), T), mul(k, xs[0])))
        return KernelWitness(params, body)
    if ktype == "laplace":
        eig = substitute(parse(str(ki.decl["eigen"])), binding)
        params = _laplace_params(ktype, m)
        if isinstance(eig, Rat) and eig.value == 0:
            opts = [ONE, xs[0]]
            if m >= 2:
                opts += [mul(xs[0], xs[1]),
                         add(mul(xs[0], xs[0]), mul(rat(-1), xs[1], xs[1]))]
            return KernelWitness(params, rng.choice(opts))
        # eigen = k^2 with k prearranged by the instantiator
        kq = _exact_sqrt(eig)
        if kq is None:
            return None  # stay symbolic under the eigenrelation rule
        return KernelWitness(params, exp_(mul(kq, xs[0])))
    if ktype == "laplace_shift":
        eig = substitute(parse(str(ki.decl["eigen"])), binding)
        params = _laplace_params(ktype, m)
        kq = _exact_sqrt(eig)
        if kq is None:
            return None
        return KernelWitness(params, exp_(mul(kq, params[-1])))
    if ktype == "space_tilde":
        params = [sym(f"x{i}") for i in range(1, m)]
        if not params:
            return KernelWitness([], rat(rng.randint(1, 4)))
        opts = [ONE, params[0], mul(params[0], params[0])]
        return KernelWitness(params, rng.choice(opts))
    if ktype == "wkernel":
        return None  # only defined through its rewrite rule
    if ktype in ("cr", "cr_partner"):
        return None  # handled pairwise by cr_witnesses
    raise ValueError(f"unknown kernel type {ktype!r}")


def cr_witnesses(h1: str, h2: str, rng) -> Dict[str, KernelWitness]:
    x1, x2 = sym("_s1"), sym("_s2")
    pairs = [
        (x1, x2),
        (add(mul(x1, x1), mul(rat(-1), x2, x2)), mul(rat(2), x1, x2)),
        (mul(exp_(x1), ker("cos", x2)), mul(exp_(x1), ker("sin", x2))),
    ]
    p1, p2 = rng.choice(pairs)
    return {h1: KernelWitness([x1, x2], p1), h2: KernelWitness([x1, x2], p2)}


def _exact_sqrt(e: Expr) -> Optional[Expr]:
    if isinstance(e, Rat) and e.value >= 0:
        r = powe(e, rat(1, 2))
        if isinstance(r, Rat):
            return r
    return None


# ---------------------------------------------------------------------------
# generator specs


def _xi_from_spec(spec, m: int, infos, direction) -> List[Expr]:
    if spec is None:
        return [ZERO] * m
    if isinstance(spec, list):
        if len(spec) != m:
            raise ValueError(f"xi list has {len(spec)} entries for m={m}")
        return [parse_in_row(s, m, infos, direction) for s in spec]
    if isinstance(spec, dict):
        if "radial" in spec:
            c = parse_in_row(spec["radial"], m, infos, direction)
            return [mul(c, sym(f"x{i}")) for i in range(1, m + 1)]
        if "each" in spec:
            # same coefficient on every direction
            c = parse_in_row(spec["each"], m, infos, direction)
            return [c for _ in range(m)]
        if "dir" in spec:
            out = [ZERO] * m
            d = spec["dir"] if isinstance(spec["dir"], int) else direction
            out[d - 1] = parse_in_row(spec["expr"], m, infos, direction)
            return out
        if "pattern" in spec:
            return [parse_in_row(spec["pattern"].replace("{i}", str(i)),
                                 m, infos, direction)
                    for i in range(1, m + 1)]
    raise ValueError(f"bad xi spec {spec!r}")


def build_generator(spec, m: int, infos, binding, a_expr: Expr,
                    direction: Optional[int] = None) -> Generator:
    """Interpret a generator spec at dimension m with parameters bound."""

    def sub(e: Expr) -> Expr:
        return substitute(e, binding)

    if "sum" in spec:
        g = zero_generator(m)
        for part in spec["sum"]:
            g = g + build_generator(part, m, infos, binding, a_expr, direction)
        return g
    if "scale" in spec:
        c = sub(parse_in_row(spec["scale"], m, infos, direction))
        inner = build_generator(spec["of"], m, infos, binding, a_expr, direction)
        return inner.scale(c)
    if "macro" in spec:
        name = spec["macro"]
        kw = {}
        if name in ("K", "G", "Ghat", "Ktilde"):
            kw["a"] = a_expr
        if "gamma" in spec:
            kw["gamma"] = sub(parse_in_row(spec["gamma"], m, infos, direction))
        if "lam" in spec:
            kw["lam"] = sub(parse_in_row(spec["lam"], m, infos, direction))
        if "dir" in spec:
            kw["index"] = spec["dir"] if isinstance(spec["dir"], int) else direction
        if "j" in spec:
            kw["index2"] = spec["j"]
        if "i" in spec:
            kw["index"] = spec["i"]
        if "H" in spec:
            kw["H"] = [sub(parse_in_row(h, m, infos, direction))
                       for h in spec["H"]]
        if "lam_vec" in spec:
            kw["lam_vec"] = [sub(parse_in_row(c, m, infos, direction))
                             for c in spec["lam_vec"]]
        g = named_operator(name, m, **kw)
        if "coeff" in spec:
            g = g.scale(sub(parse_in_row(spec["coeff"], m, infos, direction)))
        return g
    eta = sub(parse_in_row(spec["eta"], m, infos, direction)) \
        if "eta" in spec else ZERO
    xi = [sub(x) for x in _xi_from_spec(spec.get("xi"), m, infos, direction)]
    phiu = sub(parse_in_row(spec["phiu"], m, infos, direction)) \
        if "phiu" in spec else ZERO
    phiv = sub(parse_in_row(spec["phiv"], m, infos, direction)) \
        if "phiv" in spec else ZERO
    return generator(m, eta=eta, xi=xi, phi_u=phiu, phi_v=phiv)
