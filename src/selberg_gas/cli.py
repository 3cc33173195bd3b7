"""Command-line interface: every computation as a subcommand.

Output is a JSON document or CSV table embedding the resolved
configuration and seed.  The configuration is the parsed namespace minus
the run flags (--format, --out, --seed, --threads), so identical
(config, seed) runs produce byte-identical output.  Only the seeded
subcommands take --threads, which is accepted and has no effect: every
run draws its samples on the calling thread.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import __version__
from . import fisherhartwig as fh
from .averages import duality_lhs, duality_rhs, mc_density_matrix_table
from .ensembles import sample_bidiagonal, spectra
from .exact import (
    BOUNDARY_DIRICHLET,
    BOX_EXPONENTS,
    DensityMatrixQuery,
    EnsembleParams,
    MorrisParams,
    density_matrix_asymptote,
    morris_closed,
    occupation_number,
    selberg_closed,
)
from .orbitals import orbital_normalization, scaled_occupation
from .specfun import DomainError


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_field(x) -> str:
    # quoted when its text holds a comma, a quote or a newline
    text = _fmt(x)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# the %-spec of a column of one exact type, whose text needs no quote scan;
# any other column is formatted by _csv_field and spliced in by %s
_CSV_SPECS = {float: "%.17g", int: "%d", bool: "%s"}


def render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    lines = []
    for key in sorted(document["config"]):
        lines.append(f"# {key}={_fmt(document['config'][key])}")
    for key in sorted(document["provenance"]):
        lines.append(f"# {key}={_fmt(document['provenance'][key])}")
    results = document["results"]
    body = ""
    if results:
        columns = list(results[0])
        lines.append(",".join(columns))
        specs, fields = [], []
        for c in columns:
            values = [row[c] for row in results]
            kinds = set(map(type, values))
            spec = _CSV_SPECS.get(kinds.pop()) if len(kinds) == 1 else None
            specs.append(spec or "%s")
            fields.append(values if spec else list(map(_csv_field, values)))
        # the template holds only specs, so no value's text is read as one
        body = (",".join(specs) + "\n") * len(results) % tuple(
            itertools.chain.from_iterable(zip(*fields)))
    return "\n".join(lines) + "\n" + body


def _run_selberg(ns):
    val = selberg_closed(ns.n, ns.lambda1, ns.lambda2)
    return [{"log_value": val.log_abs, "value": val.value("Selberg integral")}]


def _run_morris(ns):
    val = morris_closed(MorrisParams(ns.n, ns.a, ns.b))
    return [{"log_value": val.log_abs, "value": val.value("Morris integral")}]


def _run_dm_asym(ns):
    query = DensityMatrixQuery(N=ns.n, X=ns.x, Y=ns.y, boundary=ns.boundary)
    return [{"value": density_matrix_asymptote(query)}]


def _run_dm_mc(ns):
    query = DensityMatrixQuery(N=ns.n, X=ns.x, Y=ns.y, boundary=ns.boundary)
    est = mc_density_matrix_table([query], ns.m_samples, ns.seed)[0]
    return [{"value": est.value, "std_error": est.std_error, "m_samples": ns.m_samples}]


# the ten standard X values of Table 1, each paired with Y = 1 - X
TABLE1_XS = tuple(0.025 + 0.05 * i for i in range(10))


def _run_table1(ns):
    # the Dirichlet estimate, its standard error, the asymptote and their
    # ratio at each (X, 1 - X) of the standard grid, which criterion 1 bands
    queries = [DensityMatrixQuery(N=ns.n, X=x, Y=1.0 - x) for x in TABLE1_XS]
    rows = []
    for query, est in zip(queries, mc_density_matrix_table(queries, ns.m_samples, ns.seed)):
        asym = density_matrix_asymptote(query)
        rows.append({"X": query.X, "mc_value": est.value, "std_error": est.std_error,
                     "asymptote": asym, "ratio": est.value / asym})
    return rows


def _run_duality(ns):
    params = EnsembleParams(n=ns.n, lambda1=ns.lambda1, lambda2=ns.lambda2)
    lhs = duality_lhs(params, ns.t, ns.m)
    rhs = duality_rhs(params, ns.t, ns.m)
    # both sides are normal floats, so lhs is never 0
    return [{"lhs": lhs, "rhs": rhs, "rel_diff": abs(lhs - rhs) / abs(lhs)}]


def _run_orbitals(ns):
    rows = []
    for j in range(ns.j_max + 1):
        rows.append({
            "j": j,
            "scaled_occupation": scaled_occupation(j),
            "occupation": occupation_number(j, ns.n),
            "normalization": orbital_normalization(j),
        })
    return rows


def _run_sample_jue(ns):
    params = EnsembleParams(n=ns.n, lambda1=0.5, lambda2=0.5)
    samples = spectra(*sample_bidiagonal(params, ns.seed, ns.m_samples)).tolist()
    rows = []
    for k, pts in enumerate(samples):
        for i, x in enumerate(pts):
            rows.append({"sample": k, "index": i, "eigenvalue": x})
    return rows


def _parse_sizes(text: str):
    sizes = tuple(int(s) for s in text.split(","))
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"every size must be >= 1, got {text!r}")
    return sizes


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return integer


def _finite_float(text: str) -> float:
    # float() also reads "nan" and "inf", which no computation here accepts
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _run_fh_jacobi(ns):
    symbol = fh.SymbolSpec(singularities=((ns.y, ns.q),))
    exact = fh.hankel_balanced_log_ratios(ns.lambda1, ns.lambda2, symbol, ns.sizes).tolist()
    rows = []
    for n, ex, pred in zip(ns.sizes, exact, fh.jacobi_fh_asymptotes(symbol, ns.sizes)):
        rows.append({"n": n, "log_exact": ex, "log_predicted": pred, "delta": ex - pred})
    return rows


def _run_fh_toeplitz(ns):
    symbol = fh.SymbolSpec(singularities=((0.0, ns.q),))
    rows = []
    exact = fh.toeplitz_log_dets(symbol, ns.sizes).tolist()
    for N, log_exact, pred in zip(ns.sizes, exact, fh.toeplitz_fh_asymptotes(symbol, ns.sizes)):
        rows.append({"N": N, "log_exact": log_exact, "log_predicted": pred,
                     "delta": log_exact - pred})
    return rows


def _run_validate(ns):
    from . import acceptance  # here, so that no other subcommand loads the suite

    results = acceptance.run_all(seed=ns.seed)
    rows = []
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'} criterion {res.number}: {res.name}"
        print(line, file=sys.stderr)
        if not res.passed:
            print(f"     {res.detail}", file=sys.stderr)
        rows.append({"criterion": res.number, "name": res.name,
                     "passed": res.passed, "detail": res.detail})
    return rows


_SUBCOMMANDS = {
    "selberg": _run_selberg,
    "morris": _run_morris,
    "dm-asym": _run_dm_asym,
    "dm-mc": _run_dm_mc,
    "table1": _run_table1,
    "duality-check": _run_duality,
    "orbitals": _run_orbitals,
    "sample-jue": _run_sample_jue,
    "fh-jacobi": _run_fh_jacobi,
    "fh-toeplitz": _run_fh_toeplitz,
    "validate": _run_validate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves no state on
    it, so callers share it."""
    parser = argparse.ArgumentParser(
        prog="selberg-gas",
        description="Jacobi-ensemble averages, duality checks, and the "
                    "impenetrable Bose gas density matrix")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=_int_at_least(0), default=42)
            p.add_argument("--threads", type=_int_at_least(1), default=1,
                           help="accepted and ignored: runs draw on the calling thread")

    p = sub.add_parser("selberg", help="closed-form Selberg integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda1", type=_finite_float, required=True)
    p.add_argument("--lambda2", type=_finite_float, required=True)
    common(p, seed=False)

    p = sub.add_parser("morris", help="closed-form Morris integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda1", dest="a", type=_finite_float, required=True, help="exponent a")
    p.add_argument("--lambda2", dest="b", type=_finite_float, required=True, help="exponent b")
    common(p, seed=False)

    p = sub.add_parser("dm-asym", help="asymptotic density matrix value")
    p.add_argument("--n", type=int, required=True, help="N (system holds N+1 particles)")
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--boundary", choices=tuple(BOX_EXPONENTS), default=BOUNDARY_DIRICHLET)
    common(p, seed=False)

    p = sub.add_parser("dm-mc", help="Monte Carlo density matrix estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--boundary", choices=tuple(BOX_EXPONENTS), default=BOUNDARY_DIRICHLET)
    p.add_argument("--m-samples", type=int, default=5000)
    common(p)

    p = sub.add_parser("table1", help="MC/asymptote ratio at the ten standard X values")
    p.add_argument("--n", type=int, default=14)
    p.add_argument("--m-samples", type=int, default=5000)
    common(p)

    p = sub.add_parser("duality-check", help="both sides of the duality identity")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2, help="even power m >= 2")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--lambda1", type=_finite_float, default=0.5)
    p.add_argument("--lambda2", type=_finite_float, default=0.5)
    common(p, seed=False)

    p = sub.add_parser("orbitals", help="orbital occupations and normalizations")
    p.add_argument("--j-max", type=_int_at_least(0), default=8)
    p.add_argument("--n", type=int, default=1, help="N entering the occupation scale")
    common(p, seed=False)

    p = sub.add_parser("sample-jue", help="exact (1/2,1/2) ensemble samples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-samples", type=_int_at_least(1), default=1)
    common(p)

    p = sub.add_parser("fh-jacobi", help="Jacobi-weight determinant drift vs the "
                       "Deift-Its-Krasovsky asymptote")
    p.add_argument("--sizes", type=_parse_sizes, default=(8, 16, 32, 48))
    p.add_argument("--q", type=_finite_float, default=0.5)
    p.add_argument("--y", type=_finite_float, default=0.5)
    p.add_argument("--lambda1", type=_finite_float, default=0.5)
    p.add_argument("--lambda2", type=_finite_float, default=0.5)
    common(p, seed=False)

    p = sub.add_parser("fh-toeplitz", help="Toeplitz determinant drift vs classical form")
    p.add_argument("--sizes", type=_parse_sizes, default=(8, 16, 32, 48))
    p.add_argument("--q", type=_finite_float, default=0.5, help="singularity strength")
    common(p, seed=False)

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p)

    return parser


# options that choose how a run executes or where its output goes, not
# what it computes
_RUN_FLAGS = ("format", "out", "seed", "threads")


def execute(ns) -> dict:
    config = {key: value for key, value in vars(ns).items() if key not in _RUN_FLAGS}
    if "sizes" in config:
        config["sizes"] = ",".join(map(str, config["sizes"]))
    results = _SUBCOMMANDS[ns.subcommand](ns)
    # a NaN or an infinity is no result, and a JSON document cannot hold one;
    # one pass per column keeps this cheap at thousands of rows
    for column in results[0] if results else ():
        values = [row[column] for row in results]
        try:
            finite = all(map(math.isfinite, values))
        except TypeError:  # a text column
            continue
        if not finite:
            bad = next(v for v in values if not math.isfinite(v))
            raise DomainError(f"{ns.subcommand} {column} is not finite: {bad!r}")
    return {
        "config": config,
        "results": results,
        "provenance": {"seed": getattr(ns, "seed", None), "version": __version__},
    }


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        document = execute(ns)
    except (ValueError, OverflowError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = render(document, ns.format)
    if ns.out:
        try:
            with open(ns.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    if ns.subcommand == "validate" and not all(r["passed"] for r in document["results"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
