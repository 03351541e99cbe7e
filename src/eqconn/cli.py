"""Command-line front end.

One subcommand per operation; inputs are file paths or inline JSON; output
is a human-readable report on stdout, or a canonical JSON report with
``--json``.  Reports always carry the command, an input digest, the
tolerances/parameters used, and residual diagnostics, and contain nothing
nondeterministic, so identical invocations produce byte-identical output.

Exit codes: 0 on success, 2 when an input fails to parse or violates an
invariant (the report names it), 1 on internal numerical failure.  Inputs
and reports are strict JSON: ``NaN`` and ``Infinity`` are refused.
"""

import argparse
import hashlib
import json
import math
import sys
import traceback

import numpy as np

from . import category, serialize, torus
from .exceptions import NumericFailure, ValidationFailure
from .numkit import SL2Z, Tolerances, Transversal, find_small_width, moebius, wd
from .torus import Omega, TorusPoly

DEFAULT_TAU = 1.0 - 1.0j
DEFAULT_THETA = (math.sqrt(5.0) - 1.0) / 2.0


def parse_real(text):
    """Parse a finite real number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


def parse_complex(text):
    """Parse 're,im' (or a bare real) into a complex number."""
    parts = str(text).split(",")
    try:
        if len(parts) in (1, 2):
            return complex(*(parse_real(part) for part in parts))
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError("expected 're,im', got %r" % text)


def _add_knobs(parser, suppress):
    """Attach the shared option set; subparsers suppress defaults so values
    parsed before the subcommand survive."""
    d = (lambda value: argparse.SUPPRESS) if suppress else (lambda value: value)
    parser.add_argument("--tau", type=parse_complex, default=d(DEFAULT_TAU),
                        help="modulus as 're,im' (default 1,-1)")
    parser.add_argument("--theta", type=parse_real, default=d(DEFAULT_THETA),
                        help="dilation angle (default (sqrt 5 - 1)/2)")
    parser.add_argument("--transversal-offset", type=parse_real, default=d(0.0),
                        help="left edge of the strip in Re(z/tau) units")
    parser.add_argument("--truncation", type=int, default=d(16),
                        help="series gauge truncation order")
    parser.add_argument("--tol-spec", type=parse_real, default=d(1e-8))
    parser.add_argument("--tol-res", type=parse_real, default=d(1e-9))
    parser.add_argument("--tol-key", type=parse_real, default=d(1e-7))
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--d-max", type=int, default=d(64),
                        help="order bound for the finite-monodromy test")
    if suppress:
        parser.add_argument("--json", action="store_true",
                            default=argparse.SUPPRESS,
                            help="emit the machine-readable report")
    else:
        parser.add_argument("--json", action="store_true",
                            help="emit the machine-readable report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eqconn",
        description="compute with dilation-equivariant regular-singular "
                    "connections on C* and their bundle/divisor images")
    _add_knobs(parser, suppress=False)
    parser.add_argument("--batch", metavar="MANIFEST",
                        help="run the jobs listed in a manifest file")

    common = argparse.ArgumentParser(add_help=False)
    _add_knobs(common, suppress=True)

    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, *positionals):
        p = sub.add_parser(name, help=help_text, parents=[common])
        for pos in positionals:
            p.add_argument(pos)
        return p

    add("validate", "check object invariants", "input")
    add("normalize", "gauge an object to constant form", "input")
    add("rh-to-rep", "monodromy pair of an object or normal form", "input")
    add("rh-from-rep", "normal form realizing a commuting pair", "input")
    add("tensor", "tensor product of two objects", "input", "input2")
    add("dual", "dual object", "input")
    add("hom", "basis of the morphism space", "input", "input2")
    add("kernel", "kernel of a morphism", "input")
    add("cokernel", "cokernel of a morphism", "input")
    add("decompose", "composition series labels", "input")
    add("k0", "class in the Grothendieck group", "input")
    add("kmap", "divisor class of a K-group element", "input")
    add("divisor-eq", "Abel-type linear equivalence of divisors",
        "input", "input2")
    add("psi-star", "push a normal form to a free bundle", "input")
    ext = add("extension", "extend a free bundle by a line", "input")
    ext.add_argument("--zprime", type=parse_complex, required=True,
                     help="new first diagonal entry as 're,im'")
    ext.add_argument("--row", default=None,
                     help="JSON array of algebra elements for the first row")
    bundle = add("std-bundle", "degree/rank/slope of a label")
    bundle.add_argument("--m", type=int, required=True)
    bundle.add_argument("--n", type=int, required=True)
    ph = add("phase", "stability central charge and phase")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--n", type=int, required=True)
    add("nori", "finite-monodromy test", "input")
    chk = add("atheta-check", "verify the algebra identities numerically")
    chk.add_argument("--bound", type=int, default=3)
    chk.add_argument("--pairs", type=int, default=25)
    add("wd", "real width of the modulus and the reducing move")
    red = add("reduce-tau", "reduce a scalar into the strip")
    red.add_argument("--value", type=parse_complex, required=True)
    return parser


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------

def _refuse_constant(token):
    raise ValidationFailure("non-standard JSON token %s in input" % token)


class Context:
    def __init__(self, args):
        self.args = args
        self.tol = Tolerances(args.tol_spec, args.tol_res, args.tol_key)
        self.raw_inputs = []

    def load(self, spec):
        """Read a JSON payload from a path or from inline text."""
        text = spec
        if not spec.lstrip().startswith(("{", "[")):
            try:
                with open(spec, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ValidationFailure("cannot read input %r: %s" % (spec, exc))
        try:
            data = json.loads(text, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(
                "malformed JSON in %r: %s (line %d, column %d)"
                % (spec[:40], exc.msg, exc.lineno, exc.colno))
        self.raw_inputs.append(data)
        return data

    def digest(self):
        blob = json.dumps(self.raw_inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def strip_for(self, tau):
        return Transversal(tau, self.args.transversal_offset)

    def params(self):
        a = self.args
        return {
            "tau": serialize.encode_complex(a.tau),
            "theta": a.theta,
            "transversal_offset": a.transversal_offset,
            "truncation": a.truncation,
            "tolerances": {"eps_spec": a.tol_spec, "eps_res": a.tol_res,
                           "eps_key": a.tol_key},
            "seed": a.seed,
            "d_max": a.d_max,
        }

    def to_normal_form(self, data):
        """Accept either an object payload (normalized here) or a normal form."""
        if serialize.is_normal_form_payload(data):
            return serialize.decode_normal_form(data)
        if serialize.is_object_payload(data):
            obj = serialize.decode_object(data)
            return category.normalize(obj, self.strip_for(obj.tau),
                                      self.args.truncation, self.tol)
        raise ValidationFailure("input is neither an object nor a normal form")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_validate(ctx):
    obj = serialize.decode_object(ctx.load(ctx.args.input))
    diag = category.validate(obj, ctx.tol)
    return {"valid": True, "residuals": serialize.encode_diagnostics(diag)}


def cmd_normalize(ctx):
    obj = serialize.decode_object(ctx.load(ctx.args.input))
    nf = category.normalize(obj, ctx.strip_for(obj.tau),
                            ctx.args.truncation, ctx.tol)
    payload = serialize.encode_normal_form(nf)
    payload["strip_positions"] = [
        nf.transversal.position(complex(v[0], v[1]))
        for v in payload["eigenvalues"]]
    return payload


def cmd_rh_to_rep(ctx):
    nf = ctx.to_normal_form(ctx.load(ctx.args.input))
    return serialize.encode_monodromy(category.monodromy(nf))


def cmd_rh_from_rep(ctx):
    rep = serialize.decode_monodromy(ctx.load(ctx.args.input))
    nf = category.from_monodromy(rep, ctx.strip_for(ctx.args.tau),
                                 ctx.args.theta, ctx.tol)
    return serialize.encode_normal_form(nf)


def cmd_tensor(ctx):
    x = ctx.to_normal_form(ctx.load(ctx.args.input))
    y = ctx.to_normal_form(ctx.load(ctx.args.input2))
    return serialize.encode_normal_form(category.tensor(x, y, ctx.tol))


def cmd_dual(ctx):
    x = ctx.to_normal_form(ctx.load(ctx.args.input))
    return serialize.encode_normal_form(category.dual(x, ctx.tol))


def cmd_hom(ctx):
    x = ctx.to_normal_form(ctx.load(ctx.args.input))
    y = ctx.to_normal_form(ctx.load(ctx.args.input2))
    basis = category.hom_basis(x, y, ctx.tol)
    return {"dim": len(basis),
            "basis": [serialize.encode_matrix(m.phi) for m in basis]}


def cmd_kernel(ctx):
    m = serialize.decode_morphism(ctx.load(ctx.args.input))
    ker, inc = category.kernel(m, ctx.tol)
    return {"object": serialize.encode_normal_form(ker),
            "morphism": serialize.encode_morphism(inc)}


def cmd_cokernel(ctx):
    m = serialize.decode_morphism(ctx.load(ctx.args.input))
    cok, proj = category.cokernel(m, ctx.tol)
    return {"object": serialize.encode_normal_form(cok),
            "morphism": serialize.encode_morphism(proj)}


def cmd_decompose(ctx):
    nf = ctx.to_normal_form(ctx.load(ctx.args.input))
    pairs = category.decompose(nf, ctx.tol)
    return {"factors": [{"lambda": serialize.encode_complex(lam),
                         "b": serialize.encode_complex(b)} for lam, b in pairs]}


def cmd_k0(ctx):
    nf = ctx.to_normal_form(ctx.load(ctx.args.input))
    return serialize.encode_k0(category.k0_class(nf, ctx.tol))


def cmd_kmap(ctx):
    data = ctx.load(ctx.args.input)
    if isinstance(data, dict) and "terms" in data and "tau" in data:
        cls = serialize.decode_k0(data, ctx.tol)
    else:
        ctx.raw_inputs.pop()
        ctx.raw_inputs.append(data)
        cls = category.k0_class(ctx.to_normal_form(data), ctx.tol)
    return serialize.encode_divisor(torus.k0_to_divisor(cls))


def cmd_divisor_eq(ctx):
    d1 = serialize.decode_divisor(ctx.load(ctx.args.input), ctx.tol)
    d2 = serialize.decode_divisor(ctx.load(ctx.args.input2), ctx.tol)
    return {"equivalent": torus.divisor_equivalent(d1, d2, ctx.tol),
            "degrees": [d1.degree(), d2.degree()]}


def cmd_psi_star(ctx):
    nf = ctx.to_normal_form(ctx.load(ctx.args.input))
    return serialize.encode_free_bundle(torus.psi_star(nf))


def cmd_extension(ctx):
    sub = serialize.decode_free_bundle(ctx.load(ctx.args.input))
    if ctx.args.row is None:
        row = [TorusPoly(sub.theta) for _ in range(sub.n)]
    else:
        entries = ctx.load(ctx.args.row)
        if not isinstance(entries, list):
            raise ValidationFailure("--row must be a JSON array")
        row = [serialize.decode_torus_poly(e) for e in entries]
    ext = torus.build_extension(ctx.args.zprime, row, sub)
    return serialize.encode_free_bundle(ext)


def cmd_std_bundle(ctx):
    deg, rank, slope = torus.std_bundle_data(ctx.args.m, ctx.args.n,
                                             ctx.args.theta)
    return {"deg": deg, "rk": rank, "slope": slope}


def cmd_phase(ctx):
    z = torus.central_charge(ctx.args.m, ctx.args.n, ctx.args.theta)
    return {"Z": serialize.encode_complex(z),
            "phase": torus.phase(ctx.args.m, ctx.args.n, ctx.args.theta)}


def cmd_nori(ctx):
    data = ctx.load(ctx.args.input)
    if isinstance(data, dict) and "M1" in data:
        rep = serialize.decode_monodromy(data)
        finite = torus.is_nori_finite(rep, ctx.args.d_max, ctx.tol)
    elif isinstance(data, dict) and "M" in data:
        finite = torus.is_nori_finite(serialize.decode_matrix(data["M"], "M"),
                                      ctx.args.d_max, ctx.tol)
    else:
        raise ValidationFailure("input must carry 'M' or 'M1'/'M2'")
    return {"nori_finite": finite, "d_max": ctx.args.d_max}


def cmd_atheta_check(ctx):
    theta = ctx.args.theta
    rng = np.random.default_rng(ctx.args.seed)
    u1, u2 = TorusPoly.u1(theta), TorusPoly.u2(theta)
    comm = (u2 * u1).distance((u1 * u2).scale(
        complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))))

    def rand_elem():
        coeffs = {}
        for _ in range(5):
            key = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
            coeffs[key] = complex(*rng.normal(size=2))
        return TorusPoly(theta, coeffs)

    mult = 0.0
    for token in ("g1", "g2"):
        for _ in range(ctx.args.pairs):
            x, y = rand_elem(), rand_elem()
            lhs = torus.modular_apply([token], x * y)
            rhs = torus.modular_apply([token], x) * torus.modular_apply([token], y)
            mult = max(mult, lhs.distance(rhs))
    intertwine = 0.0
    for token in ("g1", "g2"):
        for _ in range(5):
            w = Omega(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
            intertwine = max(intertwine,
                             torus.check_intertwine(token, w, ctx.args.bound, theta))
    f = {int(k): complex(*rng.normal(size=2)) for k in rng.integers(-5, 6, size=4)}
    psi_res = torus.psi_delta_residual(f, ctx.args.tau, theta)
    return {"commutation_residual": comm,
            "automorphism_multiplicativity_residual": mult,
            "intertwining_residual": intertwine,
            "psi_intertwining_residual": psi_res,
            "bound": ctx.args.bound}


def cmd_wd(ctx):
    tau = ctx.args.tau
    width = wd(tau)
    result = {"tau": serialize.encode_complex(tau),
              "wd": None if math.isinf(width) else width}
    if tau.imag != 0.0:
        g, gtau = find_small_width(tau)
        result["g"] = {"N": g.d, "matrix": [[g.a, g.b], [g.c, g.d]]}
        result["gtau"] = serialize.encode_complex(gtau)
        result["wd_g"] = wd(gtau)
    return result


def cmd_reduce_tau(ctx):
    strip = ctx.strip_for(ctx.args.tau)
    rep, shift = strip.reduce(ctx.args.value)
    return {"representative": serialize.encode_complex(rep), "shift": shift,
            "position": strip.position(rep)}


COMMANDS = {
    "validate": cmd_validate,
    "normalize": cmd_normalize,
    "rh-to-rep": cmd_rh_to_rep,
    "rh-from-rep": cmd_rh_from_rep,
    "tensor": cmd_tensor,
    "dual": cmd_dual,
    "hom": cmd_hom,
    "kernel": cmd_kernel,
    "cokernel": cmd_cokernel,
    "decompose": cmd_decompose,
    "k0": cmd_k0,
    "kmap": cmd_kmap,
    "divisor-eq": cmd_divisor_eq,
    "psi-star": cmd_psi_star,
    "extension": cmd_extension,
    "std-bundle": cmd_std_bundle,
    "phase": cmd_phase,
    "nori": cmd_nori,
    "atheta-check": cmd_atheta_check,
    "wd": cmd_wd,
    "reduce-tau": cmd_reduce_tau,
}


# ---------------------------------------------------------------------------
# driving
# ---------------------------------------------------------------------------

def execute(args):
    """Run one parsed command; returns ``(exit_code, report)``."""
    ctx = Context(args)
    report = {"command": args.command, "params": ctx.params()}
    try:
        result = COMMANDS[args.command](ctx)
        try:
            json.dumps(result, allow_nan=False)
        except ValueError as exc:
            raise NumericFailure("result holds a non-finite number: %s" % exc)
        report["inputs_digest"] = ctx.digest()
        report["result"] = result
        return 0, report
    except ValidationFailure as exc:
        report["inputs_digest"] = ctx.digest()
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        return 2, report
    except (NumericFailure, np.linalg.LinAlgError) as exc:
        report["inputs_digest"] = ctx.digest()
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        return 1, report


def _render_text(report, stream):
    def emit(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                emit("%s%s." % (prefix, key) if prefix else key + ".", value[key])
        else:
            stream.write("%s %s\n" % (prefix.rstrip("."),
                                       json.dumps(value, allow_nan=False)))

    stream.write("command: %s\n" % report["command"])
    stream.write("inputs: %s\n" % report.get("inputs_digest", "-"))
    if "error" in report:
        stream.write("error: %s: %s\n" % (report["error"]["kind"],
                                          report["error"]["message"]))
    else:
        emit("", report["result"])


def _emit(report, as_json, stream=None):
    stream = stream or sys.stdout
    if as_json:
        stream.write(json.dumps(report, sort_keys=True, separators=(",", ":"),
                                allow_nan=False))
        stream.write("\n")
    else:
        _render_text(report, stream)


def run_argv(argv):
    """Parse and run one command line; returns ``(exit_code, report)``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise ValidationFailure("a command is required")
    return execute(args)


def _run_job(argv):
    """Run one batch job; any failure becomes that job's error report, with
    exit code 2 for bad input and 1 for anything else (its traceback goes to
    stderr), so the jobs after it still run."""
    try:
        return run_argv(argv)
    except (ValidationFailure, SystemExit) as exc:
        code, error = 2, exc
    except Exception as exc:
        traceback.print_exc()
        code, error = 1, exc
    return code, {"command": argv[0] if argv else None,
                  "error": {"kind": type(error).__name__, "message": str(error)}}


def _run_batch(args):
    """Run the manifest's jobs one after another, in manifest order."""
    with open(args.batch, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    jobs = manifest["jobs"] if isinstance(manifest, dict) else manifest
    argvs = []
    for job in jobs:
        argv = job["argv"] if isinstance(job, dict) else list(job)
        argvs.append([str(a) for a in argv])
    results = [_run_job(argv) for argv in argvs]
    report = {"batch": [r for _, r in results]}
    _emit(report, args.json)
    return max((code for code, _ in results), default=0)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch:
        return _run_batch(args)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("eqconn: error: a command or --batch is required\n")
        return 2
    code, report = execute(args)
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
