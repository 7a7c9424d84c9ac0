"""Machine-readable classification tables and their loader.

Each table ships as a JSON file; a row records the nonlinearity templates
``f1``/``f2``, its parameters (flags ``pm1``, ``square``, ``nonzero``) with
``zero``/``nonzero`` constraints and ``derive``d parameters, the declared
kernels (arbitrary functions), the claimed symmetries as generator specs,
claimed additional equivalence transformations, and transcription flags.

Kernel types, one ``KERNEL_TYPES`` entry each: ``opaque`` F(``args``: a list
of templates, or ``"space"``/``"space_u"``); ``heat`` psi(t, x) with
``rate``; ``laplace`` Psi(x) with ``eigen``; ``laplace_shift`` Psi(x1..x_{m-1},
xm + t) with ``eigen``; ``space_tilde`` phi(x1..x_{m-1}); ``wkernel``
W(t, x, u); ``cr`` H1(x1, x2) with its Cauchy-Riemann ``partner`` H2.

Generator specs are either raw coefficient dictionaries

    {"eta": "...", "xi": ["..."] | {"radial": "..."} | {"dir": null, "expr": "..."},
     "phiu": "...", "phiv": "..."}

or named-operator macros ({"macro": "D", "coeff": "nu"}, "gamma" for Ghat),
or sums ({"sum": [...]}) and scalings ({"scale": "...", "of": ...}) of
those.  A claim may be ``per_direction`` (one instance per x_d, which also
carries the ``{"dir": null}`` component) and carry ``when`` conditions:
``m``, ``zero``, ``set`` (parameters) and ``set_kernel`` (kernel bodies).
Strings may use the placeholders {x2} (sum of squares), {xd} (x_d of a
per-direction claim), {xm} (the last spatial variable), {m} and
{div(H1,H2)}; declared kernel names appearing bare are rewritten to full
applications of their argument signature.

A row is compiled once per dimension m (``CorpusRow.template``), with the
parameters left unbound, and instantiating the row is substitution of the
compiled templates.  The rows of one load share one text table
(``CorpusRow.texts``, copied by ``dataclasses.replace``): every text a
compile parses, after template expansion, is parsed once per load and
looked up there after.  This is exact, since ``parse`` is a pure function
of its text and nodes are hash-consed; a text that fails to parse stores
nothing.  The table is dropped with the load's rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..expr import (Expr, KernelRule, ONE, Rat, RuleSet, T, ZERO, add, exp_,
                    ker, mul, powe, rat, substitute, sym)
from ..fields import Generator, generator, named_operator, zero_generator
from ..jets import coords
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
    # the parsed texts of the load the row came from (see the docstring)
    texts: Dict[str, Expr] = field(
        default_factory=dict, repr=False, compare=False)
    templates: Dict[int, RowTemplate] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def key(self) -> str:
        return f"T{self.table}.{self.item}"

    def template(self, m: int) -> RowTemplate:
        """The row compiled at dimension m, built on first use."""
        if m not in self.templates:
            self.templates[m] = compile_row(self, m)
        return self.templates[m]


def _data_text(name: str) -> str:
    return resources.files(__package__).joinpath("data", name).read_text()


def load_table(n: int, texts: Optional[Dict[str, Expr]] = None
               ) -> List[CorpusRow]:
    """The rows of table n, an ``int`` in ``TABLES``, sharing ``texts`` (a
    new table by default)."""
    if type(n) is not int or n not in TABLES:
        raise ValueError(f"no corpus table {n!r}; the tables are {TABLES}")
    texts = {} if texts is None else texts
    raw = json.loads(_data_text(f"table{n}.json"))
    return [CorpusRow(
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
        texts=texts,
    ) for entry in raw["rows"]]


def load_rows(tables: Sequence[int] = TABLES) -> List[CorpusRow]:
    """The rows of the given tables, sharing one text table."""
    texts = {}
    return [row for n in tables for row in load_table(n, texts)]


# ---------------------------------------------------------------------------
# template expansion


def expand_template(s: str, m: int, direction: Optional[int] = None,
                    kernel_args: Optional[Dict[str, str]] = None) -> str:
    if "{xd}" in s and direction is None:
        raise ValueError("{xd} used outside a per-direction claim")
    out = (s.replace("{xm}", f"x{m}").replace("{m}", str(m))
           .replace("{xd}", f"x{direction}"))
    if "{x2}" in out:
        out = out.replace("{x2}", "(" + "+".join(
            f"x{i}^2" for i in range(1, m + 1)) + ")")
    if "{div(" in out:
        out = re.sub(r"\{div\((\w+),(\w+)\)\}",
                     r"(\1__d1_0(x1,x2) + \2__d0_1(x1,x2))", out)
    # rewrite bare kernel mentions into full applications
    for name, args in (kernel_args or {}).items():
        out = re.sub(rf"\b{name}\b(?!\()", f"{name}({args})", out)
    return out


def _space(m: int) -> List[str]:
    return [f"x{i}" for i in range(1, m + 1)]


def _parse_once(texts: Dict[str, Expr], s: str) -> Expr:
    """parse(s), kept in a load's text table."""
    e = texts.get(s)
    if e is None:
        e = texts[s] = parse(s)
    return e


def _parsed(args: List[str], texts: Dict[str, Expr]) -> List[Expr]:
    return [_parse_once(texts, a) for a in args]


@dataclass(frozen=True)
class KernelType:
    """One kind of declared kernel: its call signature at dimension m (None:
    the declaration's ``args``), its formal parameters (from the argument
    texts), the builders of its defining relations and of its witnesses
    (definitions: rules of order 0), and the declaration key holding its
    rate or eigenvalue."""
    signature: Optional[Callable[[int], List[str]]]
    params: Callable[[List[str], Dict[str, Expr]], List[Expr]] = _parsed
    rules: Optional[Callable] = None     # (ki, m, a, f1, f2, binding) -> rules
    witnesses: Optional[Callable] = None  # (ki, m, a, binding, rng) -> rules
    spec_key: Optional[str] = None


@dataclass
class KernelInfo:
    name: str
    decl: dict
    kind: KernelType
    call_args: str          # argument list text inserted at mentions
    params: List[Expr]      # formal parameters of its rules and witnesses
    spec: Optional[Expr]    # its rate or eigenvalue, parameters unbound


def _heat_rules(ki, m, a_expr, f1, f2, binding):
    return [heat_kernel_rule(ki.name, ki.params, a_expr,
                             substitute(ki.spec, binding))]


def _laplace_rules(ki, m, a_expr, f1, f2, binding):
    return [laplace_kernel_rule(ki.name, ki.params,
                                substitute(ki.spec, binding))]


def _w_rules(ki, m, a_expr, f1, f2, binding):
    try:
        return [w_kernel_rules(ki.name, ki.params, f1, f2)]
    except ValueError:
        # the defining relation only exists where f1 and f2_v are v-free;
        # claims that use W impose that through their side conditions and
        # get the rule on their own system
        return []


def _cr_rules(ki, m, a_expr, f1, f2, binding):
    return (cauchy_riemann_rules(ki.name, ki.decl["partner"], ki.params)
            if m == 2 else [])


def _defined(ki, body) -> List[KernelRule]:
    return [KernelRule(ki.name, 0, 0, ki.params, body)]


def _opaque_witness(ki, m, a_expr, binding, rng):
    s1 = ki.params[0]
    choices = [mul(s1, s1),
               add(rat(rng.randint(1, 3)), mul(rat(rng.randint(1, 3)), s1)),
               exp_(s1)]
    body = rng.choice(choices)
    for extra in ki.params[1:]:
        body = mul(body, add(ONE, extra))
    return _defined(ki, body)


def _heat_witness(ki, m, a_expr, binding, rng):
    rate = substitute(ki.spec, binding)
    k = rat(rng.choice([0, 1, 1, 2]))
    if k.value == 0:
        body = exp_(mul(rate, T))
    else:
        body = exp_(add(mul(add(rate, mul(a_expr, k, k)), T),
                        mul(k, ki.params[1])))
    return _defined(ki, body)


def _laplace_witness(ki, m, a_expr, binding, rng):
    eig = substitute(ki.spec, binding)
    xs = ki.params
    if type(eig) is Rat and eig.value == 0:
        opts = [ONE, xs[0]]
        if m >= 2:
            opts += [mul(xs[0], xs[1]),
                     add(mul(xs[0], xs[0]), mul(rat(-1), xs[1], xs[1]))]
        return _defined(ki, rng.choice(opts))
    # eigen = k^2 with k prearranged by the instantiator; otherwise the
    # kernel stays symbolic under its eigenrelation rule
    kq = _exact_sqrt(eig)
    return [] if kq is None else _defined(ki, exp_(mul(kq, xs[0])))


def _laplace_shift_witness(ki, m, a_expr, binding, rng):
    kq = _exact_sqrt(substitute(ki.spec, binding))
    return [] if kq is None else _defined(ki, exp_(mul(kq, ki.params[-1])))


def _space_tilde_witness(ki, m, a_expr, binding, rng):
    if not ki.params:
        return _defined(ki, rat(rng.randint(1, 4)))
    p = ki.params[0]
    return _defined(ki, rng.choice([ONE, p, mul(p, p)]))


def _cr_witnesses(ki, m, a_expr, binding, rng):
    """One harmonic pair for the kernel and its partner, drawn together."""
    if m != 2:
        return []
    x1, x2 = ki.params
    pairs = [
        (x1, x2),
        (add(mul(x1, x1), mul(rat(-1), x2, x2)), mul(rat(2), x1, x2)),
        (mul(exp_(x1), ker("cos", x2)), mul(exp_(x1), ker("sin", x2))),
    ]
    p1, p2 = rng.choice(pairs)
    return (_defined(ki, p1)
            + [KernelRule(ki.decl["partner"], 0, 0, ki.params, p2)])


def _exact_sqrt(e: Expr) -> Optional[Expr]:
    if type(e) is Rat and e.value >= 0:
        r = powe(e, rat(1, 2))
        if type(r) is Rat:
            return r
    return None


# call signatures an opaque kernel may name instead of listing its arguments
_OPAQUE_SIGNATURES = {"space": _space,
                      "space_u": lambda m: ["u"] + _space(m)}

KERNEL_TYPES: Dict[str, KernelType] = {
    # F(args as declared): no relation; witnesses in fresh parameters _s<i>
    "opaque": KernelType(
        signature=None, witnesses=_opaque_witness,
        params=lambda args, texts: [sym(f"_s{i+1}")
                                    for i in range(len(args))]),
    # psi(t, x1..xm): psi_t = a*Lap(psi) + rate*psi
    "heat": KernelType(lambda m: ["t"] + _space(m), rules=_heat_rules,
                       witnesses=_heat_witness, spec_key="rate"),
    # Psi(x1..xm): Lap(Psi) = eigen*Psi
    "laplace": KernelType(_space, rules=_laplace_rules,
                          witnesses=_laplace_witness, spec_key="eigen"),
    # Psi(x1..x_{m-1}, xm + t), written in x1..x_{m-1}, _s
    "laplace_shift": KernelType(
        lambda m: _space(m - 1) + [f"x{m}+t"],
        params=lambda args, texts: _parsed(args[:-1], texts) + [sym("_s")],
        rules=_laplace_rules, witnesses=_laplace_shift_witness,
        spec_key="eigen"),
    # phi(x1..x_{m-1}): no relation
    "space_tilde": KernelType(lambda m: _space(m - 1),
                              witnesses=_space_tilde_witness),
    # W(t, x1..xm, u): W_t = f2_v - W_u*f1, never replaced by a witness
    "wkernel": KernelType(lambda m: ["t"] + _space(m) + ["u"],
                          rules=_w_rules),
    # H1(x1, x2) with its Cauchy-Riemann partner H2 (m = 2; symbolic else)
    "cr": KernelType(lambda m: ["x1", "x2"], rules=_cr_rules,
                     witnesses=_cr_witnesses),
    # H2, whose rules and witnesses come with H1's
    "cr_partner": KernelType(lambda m: ["x1", "x2"]),
}


def _kernel_info(decl: dict, m: int, texts: Dict[str, Expr]) -> KernelInfo:
    ktype = decl.get("type", "opaque")
    kind = KERNEL_TYPES.get(ktype)
    if kind is None:
        raise ValueError(f"unknown kernel type {ktype!r}")
    if kind.signature is not None:
        args = kind.signature(m)
    elif isinstance(decl["args"], str):
        args = _OPAQUE_SIGNATURES[decl["args"]](m)
    else:
        args = [expand_template(a, m) for a in decl["args"]]
    spec = (_parse_once(texts, str(decl[kind.spec_key])) if kind.spec_key
            else None)
    return KernelInfo(decl["name"], decl, kind, ",".join(args),
                      kind.params(args, texts), spec)


def kernel_infos(row: CorpusRow, m: int) -> List[KernelInfo]:
    """The row's kernels at dimension m, a Cauchy-Riemann partner right
    after the kernel that declares it."""
    out = []
    for decl in row.kernels:
        out.append(_kernel_info(decl, m, row.texts))
        if "partner" in decl:
            out.append(_kernel_info({"name": decl["partner"],
                                     "type": "cr_partner"}, m, row.texts))
    return out


def parse_in_row(s: str, m: int, infos: List[KernelInfo],
                 texts: Dict[str, Expr],
                 direction: Optional[int] = None) -> Expr:
    kargs = {ki.name: ki.call_args for ki in infos}
    return _parse_once(texts, expand_template(s, m, direction, kargs))


# ---------------------------------------------------------------------------
# kernel rules and witness menus


def build_rules(infos: List[KernelInfo], m: int, a_expr: Expr, f1: Expr,
                f2: Expr, binding: Dict) -> RuleSet:
    """Defining rewrite rules for the row's kernels at dimension m."""
    return RuleSet([r for ki in infos if ki.kind.rules
                    for r in ki.kind.rules(ki, m, a_expr, f1, f2, binding)])


def witness_menu(infos: List[KernelInfo], m: int, a_expr: Expr,
                 binding: Dict, rng, skip=()) -> List[KernelRule]:
    """Concrete definitions (rules of order 0) for the kernels not named in
    ``skip``, drawn in declaration order; a kernel that stays symbolic gets
    none."""
    return [r for ki in infos if ki.kind.witnesses and ki.name not in skip
            for r in ki.kind.witnesses(ki, m, a_expr, binding, rng)]


# ---------------------------------------------------------------------------
# generator specs and compiled rows


def _xi_from_spec(spec, m: int, read, direction) -> List[Expr]:
    if spec is None:
        return [ZERO] * m
    if isinstance(spec, list):
        if len(spec) != m:
            raise ValueError(f"xi list has {len(spec)} entries for m={m}")
        return [read(s) for s in spec]
    if isinstance(spec, dict):
        if "radial" in spec:
            c = read(spec["radial"])
            return [mul(c, x) for x in coords(m)]
        if "dir" in spec:
            # the one component along a per-direction claim's direction
            out = [ZERO] * m
            out[direction - 1] = read(spec["expr"])
            return out
    raise ValueError(f"bad xi spec {spec!r}")


def build_generator(spec, m: int, infos, texts: Dict[str, Expr],
                    direction: Optional[int] = None) -> Generator:
    """Interpret a generator spec at dimension m, its parameters unbound
    (the macros K, G and Ghat take the symbol a)."""

    def read(text: str) -> Expr:
        return parse_in_row(text, m, infos, texts, direction)

    if "sum" in spec:
        g = zero_generator(m)
        for part in spec["sum"]:
            g = g + build_generator(part, m, infos, texts, direction)
        return g
    if "scale" in spec:
        return build_generator(spec["of"], m, infos, texts, direction).scale(
            read(spec["scale"]))
    if "macro" in spec:
        name = spec["macro"]
        kw = {"a": sym("a")} if name in ("K", "G", "Ghat") else {}
        if "gamma" in spec:
            kw["gamma"] = read(spec["gamma"])
        g = named_operator(name, m, **kw)
        return g.scale(read(spec["coeff"])) if "coeff" in spec else g
    eta, phiu, phiv = (read(spec[k]) if k in spec else ZERO
                       for k in ("eta", "phiu", "phiv"))
    return generator(m, eta=eta, phi_u=phiu, phi_v=phiv,
                     xi=_xi_from_spec(spec.get("xi"), m, read, direction))


@dataclass
class ClaimTemplate:
    """A claim at dimension m: its side conditions as (parameter, value)
    pairs bound in order, its kernel bodies as definitions (rules of order
    0) and its generators by label."""
    conditions: List[Tuple[Expr, Expr]]
    kernel_sets: List[KernelRule]
    generators: List[Tuple[str, Generator]]


@dataclass
class RowTemplate:
    """Every text of a row parsed at dimension m, parameters unbound."""
    infos: List[KernelInfo]
    f1: Expr
    f2: Expr
    zero: List[Expr]
    nonzero: List[Expr]
    derive: List[Tuple[Expr, Expr]]
    claims: List[ClaimTemplate]   # the claims that apply at m


def compile_row(row: CorpusRow, m: int) -> RowTemplate:
    """Read each text of the row at dimension m (once per direction for a
    per-direction claim's generator) through the load's text table."""
    infos = kernel_infos(row, m)
    params_of = {ki.name: ki.params for ki in infos}

    def read(s: str) -> Expr:
        return parse_in_row(s, m, infos, row.texts)

    claims = []
    for idx, claim in enumerate(row.claims):
        when = claim.get("when", {})
        if "m" in when and m not in when["m"]:
            continue
        label = claim.get("name", f"claim{idx+1}")
        dirs = range(1, m + 1) if claim.get("per_direction") else [None]
        claims.append(ClaimTemplate(
            [(sym(n), ZERO) for n in when.get("zero", [])]
            + [(sym(n), read(s)) for n, s in when.get("set", {}).items()],
            [KernelRule(k, 0, 0, params_of[k], read(s))
             for k, s in when.get("set_kernel", {}).items()],
            [(label if d is None else f"{label}[x{d}]",
              build_generator(claim["gen"], m, infos, row.texts, d))
             for d in dirs]))
    return RowTemplate(infos, read(row.f1), read(row.f2),
                       [read(c) for c in row.zero],
                       [read(c) for c in row.nonzero],
                       [(sym(n), read(s)) for n, s in row.derive.items()],
                       claims)
