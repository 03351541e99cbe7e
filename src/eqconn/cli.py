"""Command-line front end.

One subcommand per operation; inputs are file paths or inline JSON; output
is a human-readable report on stdout, or a canonical JSON report with
``--json``.  Reports always carry the command, an input digest, the
tolerances/parameters used, and residual diagnostics, and contain nothing
nondeterministic, so identical invocations produce byte-identical output.

Exit codes: 0 on success, 2 when the command line or an input fails to
parse or violates an invariant (the report names it; normal forms are
checked by ``category.validate_normal_form``), 1 on internal numerical
failure, a ``SpectrumCollision`` of a solve included; ``_attempt`` is the
one place a failure becomes its report and exit code.  Inputs and reports
are strict JSON: ``NaN`` and ``Infinity`` are refused.
"""

import argparse
import hashlib
import json
import math
import sys
import traceback

import numpy as np

from . import category, serialize, torus
from .exceptions import NumericFailure, SpectrumCollision, ValidationFailure
from .numkit import DEFAULT_TOL, SL2Z, Tolerances, Transversal, find_small_width, moebius, wd
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
    parser.add_argument("--tol-spec", type=parse_real, default=d(DEFAULT_TOL.eps_spec))
    parser.add_argument("--tol-res", type=parse_real, default=d(DEFAULT_TOL.eps_res))
    parser.add_argument("--tol-key", type=parse_real, default=d(DEFAULT_TOL.eps_key))
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--d-max", type=int, default=d(64),
                        help="order bound for the finite-monodromy test")
    parser.add_argument("--json", action="store_true", default=d(False),
                        help="emit the machine-readable report")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises ``ValidationFailure`` where argparse
    would print the usage and exit, so a command line that does not parse is
    reported as any bad input is.  Subparsers are made of the same class and
    know their ``root``; once the root's ``in_batch`` is set, a help flag is
    refused the same way, as its text would break the batch report."""

    in_batch = False

    def __init__(self, *args, root=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.root = root or self

    def error(self, message):
        raise ValidationFailure(message)

    def print_help(self, file=None):
        if self.root.in_batch:
            self.error("-h/--help is not allowed in a batch job")
        super().print_help(file)


def build_parser():
    parser = _Parser(
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
        p = sub.add_parser(name, help=help_text, parents=[common], root=parser)
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
    for name, help_text in (("std-bundle", "degree/rank/slope of a label"),
                            ("phase", "stability central charge and phase")):
        labelled = add(name, help_text)
        labelled.add_argument("--m", type=int, required=True)
        labelled.add_argument("--n", type=int, required=True)
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


# The largest value accepted for an option that sets how much work a command
# does: atheta-check's ``--bound`` (0.86 s at 30, 20 s at 100) and
# ``--pairs`` (0.47 s per 1000), and the order bound ``--d-max`` of nori's
# finite-monodromy test.
WORK_CAPS = {"bound": 32, "pairs": 2000, "d_max": 10 ** 6}


class Context:
    def __init__(self, args):
        self.args = args
        self.tol = None
        self.raw_inputs = []

    def run(self):
        """The result of the parsed command, checked to be strict JSON, once
        the tolerances, every integer option (as int64) and the options
        capped by ``WORK_CAPS`` are.  numpy's floating-point warnings are
        off while it runs: an overflow shows in the report, as a failure or
        as a non-finite number, and not on stderr."""
        a = self.args
        self.tol = Tolerances(a.tol_spec, a.tol_res, a.tol_key)
        for name, value in sorted(vars(a).items()):
            if type(value) is int:
                serialize._number(value, "--" + name.replace("_", "-"), integer=True)
        for name, cap in WORK_CAPS.items():
            value = getattr(a, name, None)
            if value is not None and value > cap:
                raise ValidationFailure("--%s is capped at %d, got %d"
                                        % (name.replace("_", "-"), cap, value))
        if a.command is None:
            raise ValidationFailure("a command or --batch is required")
        with np.errstate(all="ignore"):
            result = COMMANDS[a.command](self)
        try:
            json.dumps(result, allow_nan=False)
        except ValueError as exc:
            raise NumericFailure("result holds a non-finite number: %s" % exc)
        return result

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
        except ValueError as exc:   # a NaN token, an integer too long for int()
            raise ValidationFailure("malformed JSON in %r: %s" % (spec[:40], exc))
        self.raw_inputs.append(data)
        return data

    def digest(self):
        blob = json.dumps(self.raw_inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def strip_for(self, tau):
        return Transversal(tau, self.args.transversal_offset)

    def params(self):
        a = self.args
        return {"tau": serialize.encode_complex(a.tau), "theta": a.theta,
                "transversal_offset": a.transversal_offset, "truncation": a.truncation,
                "tolerances": {"eps_spec": a.tol_spec, "eps_res": a.tol_res,
                               "eps_key": a.tol_key},
                "seed": a.seed, "d_max": a.d_max}

    def to_normal_form(self, data):
        """Accept either an object payload (normalized here) or a normal form
        (checked here)."""
        if serialize.is_normal_form_payload(data):
            return self._checked(serialize.decode_normal_form(data))
        if serialize.is_object_payload(data):
            obj = serialize.decode_object(data)
            return category.normalize(obj, self.strip_for(obj.tau),
                                      self.args.truncation, self.tol)
        raise ValidationFailure("input is neither an object nor a normal form")

    def to_morphism(self, data):
        """A morphism payload with both endpoints checked; ``kernel`` and
        ``cokernel`` refuse a phi that does not intertwine them."""
        m = serialize.decode_morphism(data)
        self._checked(m.source), self._checked(m.target)
        return m

    def _checked(self, nf):
        category.validate_normal_form(nf, self.tol)
        return nf


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
    payload = serialize.encode_normal_form(nf, ctx.tol)
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
    return serialize.encode_normal_form(nf, ctx.tol)


def cmd_tensor(ctx):
    x = ctx.to_normal_form(ctx.load(ctx.args.input))
    y = ctx.to_normal_form(ctx.load(ctx.args.input2))
    return serialize.encode_normal_form(category.tensor(x, y, ctx.tol), ctx.tol)


def cmd_dual(ctx):
    x = ctx.to_normal_form(ctx.load(ctx.args.input))
    return serialize.encode_normal_form(category.dual(x, ctx.tol), ctx.tol)


def cmd_hom(ctx):
    x = ctx.to_normal_form(ctx.load(ctx.args.input))
    y = ctx.to_normal_form(ctx.load(ctx.args.input2))
    basis = category.hom_basis(x, y, ctx.tol)
    return {"dim": len(basis),
            "basis": [serialize.encode_matrix(m.phi) for m in basis]}


def cmd_kernel(ctx):
    m = ctx.to_morphism(ctx.load(ctx.args.input))
    ker, inc = category.kernel(m, ctx.tol)
    return {"object": serialize.encode_normal_form(ker, ctx.tol),
            "morphism": serialize.encode_morphism(inc, ctx.tol)}


def cmd_cokernel(ctx):
    m = ctx.to_morphism(ctx.load(ctx.args.input))
    cok, proj = category.cokernel(m, ctx.tol)
    return {"object": serialize.encode_normal_form(cok, ctx.tol),
            "morphism": serialize.encode_morphism(proj, ctx.tol)}


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
    deg, rank, slope = torus.std_bundle_data(ctx.args.m, ctx.args.n, ctx.args.theta)
    return {"deg": deg, "rk": rank, "slope": slope}


def cmd_phase(ctx):
    a = ctx.args
    z = torus.central_charge(a.m, a.n, a.theta)
    return {"Z": serialize.encode_complex(z), "phase": torus.phase(a.m, a.n, a.theta)}


def cmd_nori(ctx):
    data = ctx.load(ctx.args.input)
    if isinstance(data, dict) and "M1" in data:
        rep = serialize.decode_monodromy(data)
        category.validate_monodromy(rep, ctx.tol)
    elif isinstance(data, dict) and "M" in data:
        rep = serialize.decode_matrix(data["M"], "M")
    else:
        raise ValidationFailure("input must carry 'M' or 'M1'/'M2'")
    finite = torus.is_nori_finite(rep, ctx.args.d_max, ctx.tol)
    return {"nori_finite": finite, "d_max": ctx.args.d_max}


def cmd_atheta_check(ctx):
    theta = ctx.args.theta
    if ctx.args.seed < 0:
        raise ValidationFailure("--seed must be non-negative, got %d" % ctx.args.seed)
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


# cmd_rh_to_rep runs the command rh-to-rep, and so on
COMMANDS = {name[4:].replace("_", "-"): handler
            for name, handler in list(globals().items()) if name.startswith("cmd_")}


# ---------------------------------------------------------------------------
# driving
# ---------------------------------------------------------------------------

# The exit code of a failure: that of the most specific class of the
# exception listed here (a SpectrumCollision is a ValidationFailure raised by
# a solve, a numerical failure); any other exception exits 1.
EXIT_CODES = {ValidationFailure: 2, SpectrumCollision: 1, NumericFailure: 1,
              np.linalg.LinAlgError: 1}


def _attempt(report, run, *args):
    """``(0, run(*args))``; or, when ``run`` raises, ``(exit_code, None)``
    with the failure added to ``report`` as its ``error``.  This is the one
    place where the command line turns an exception into an exit code and a
    report: the code is from ``EXIT_CODES``, or 1 with the traceback on
    stderr."""
    try:
        return 0, run(*args)
    except Exception as exc:
        code = next((EXIT_CODES[kind] for kind in type(exc).__mro__
                     if kind in EXIT_CODES), None)
        if code is None:
            traceback.print_exc()
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        return code or 1, None


def execute(args):
    """Run one parsed command; returns ``(exit_code, report)``: the command,
    its parameters and the digest of the inputs it read, then its result or
    its error."""
    ctx = Context(args)
    report = {"command": args.command, "params": ctx.params()}
    code, result = _attempt(report, ctx.run)
    report["inputs_digest"] = ctx.digest()
    if not code:
        report["result"] = result
    return code, report


def _render_text(report, stream):
    def emit(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                emit("%s%s." % (prefix, key) if prefix else key + ".", value[key])
        else:
            stream.write("%s %s\n" % (prefix.rstrip("."),
                                       json.dumps(value, allow_nan=False)))

    stream.write("command: %s\n" % (report["command"] or "-"))
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


def _parse(argv, parser, args):
    """``(exit_code, report)`` of parsing ``argv`` with ``parser`` into the
    namespace ``args``; a failure's report names the command if parsed."""
    report = {}
    code, _ = _attempt(report, parser.parse_args, argv, args)
    report["command"] = getattr(args, "command", None)
    return code, report


def _run_job(argv, parser):
    """Parse and run one batch job with the process's one ``parser``;
    returns ``(exit_code, report)``."""
    args = argparse.Namespace()
    code, report = _parse(argv, parser, args)
    return (code, report) if code else execute(args)


def _read_manifest(path):
    """The command lines of a batch manifest: a JSON array of jobs, or an
    object holding one under ``"jobs"``; a job is an array of arguments, or
    an object holding one under ``"argv"``.  Anything else, and a file that
    cannot be read or parsed, raises ValidationFailure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle, parse_constant=_refuse_constant)
    except (OSError, ValueError) as exc:   # JSON and decoding errors are ValueErrors
        raise ValidationFailure("cannot read batch manifest %r: %s" % (path, exc))
    if isinstance(manifest, dict):
        manifest, = serialize.required_fields(manifest, ("jobs",), "batch manifest")
    if not isinstance(manifest, list):
        raise ValidationFailure("batch manifest must hold an array of jobs")
    argvs = []
    for job in manifest:
        if isinstance(job, dict):
            job, = serialize.required_fields(job, ("argv",), "batch job")
        if not isinstance(job, list):
            raise ValidationFailure("a batch job must be an array of arguments, "
                                    "got %s" % type(job).__name__)
        argvs.append([str(a) for a in job])
    return argvs


def _run_batch(args, parser):
    """Run the manifest's jobs one after another, in manifest order, each
    parsed by ``parser`` and refused if it asks for help; a manifest that
    cannot be read is one error report with exit code 2."""
    report = {"command": "batch"}
    code, argvs = _attempt(report, _read_manifest, args.batch)
    if not code:
        parser.in_batch = True
        results = [_run_job(argv, parser) for argv in argvs]
        report = {"batch": [r for _, r in results]}
        code = max((c for c, _ in results), default=0)
    _emit(report, args.json)
    return code


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command line that does not parse is reported in JSON if it asks so
    args = argparse.Namespace(json="--json" in argv)
    code, report = _parse(argv, parser, args)
    if not code and args.batch:
        return _run_batch(args, parser)
    if not code:
        code, report = execute(args)
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
