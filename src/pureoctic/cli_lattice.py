"""The `lattice` and `witt-verify` subcommands: the subgroup <-> subfield
lattice of X^8 + k^2 in `lattice`, and the exact Witt certificate in E."""

from . import lattice
from .cli import _emit, rational_parts


def cmd_lattice(args) -> int:
    # the report reads k only through the integers of its reduced pair
    k = rational_parts(args.k)
    if args.format != "dot":
        # the text and JSON reports print k^2: a k^2 past the digit limit
        # raises here, before k is factored
        lattice.polynomial(k)
    report = lattice.report(k)
    if args.format == "dot":
        _emit(None, args.format, report.as_dot())
    else:
        _emit(report.as_dict(), args.format, report.as_text())
    return 0


def cmd_witt_verify(args) -> int:
    from . import splitting

    k = rational_parts(args.k)
    cert = splitting.witt_beta_rho(splitting.SplittingField(k))
    rho = f"{cert.rho}*sqrt(-2)"
    checks = {
        "det(T) = 1": cert.det_is_one,
        "T^t * diag(2, k, 1/2k) * T = identity": cert.congruence_is_identity,
        "rho*beta = (a - abar)^2 * (w*(1 + sqrt(2k)))^2":
            cert.factorization_holds and cert.beta_matches_matrix_diagonal,
        "sqrt(rho*beta) generates E over L (flips under Gal(E/L))":
            cert.a_minus_abar_nonzero and cert.generates_E_over_L,
    }
    lines = [f"Witt verification for k = {k} (ground field Q(sqrt(-2)))",
             f"  beta = {cert.beta}",
             f"  rho  = {rho}",
             f"  sqrt(rho*beta) = {cert.sqrt_rho_beta}"]
    for label, ok in checks.items():
        lines.append(f"  {label}: {'PASS' if ok else 'FAIL'}")
    payload = {"k": str(k), "beta": str(cert.beta), "rho": rho,
               "sqrt_rho_beta": str(cert.sqrt_rho_beta),
               "checks": {lbl: bool(ok) for lbl, ok in checks.items()}}
    _emit(payload, args.format, "\n".join(lines))
    return 0 if all(checks.values()) else 1
