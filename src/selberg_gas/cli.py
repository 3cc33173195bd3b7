"""Command-line interface: every computation as a subcommand.

Output is a JSON document or CSV table embedding the resolved
configuration and seed.  A handler's result is a table of columns, a dict
from column name to list of values, from the handler through the finite
check to the writers: CSV is written from the columns, and JSON zips them
into one object per row.  The configuration is the parsed namespace minus
the run flags (--format, --out, --seed, --threads), so identical
(config, seed) runs produce byte-identical output.  Only the seeded
subcommands take --threads, which is accepted and has no effect: every
run draws its samples on the calling thread.

Only `exact`, which needs no numpy and no `dataclasses`, loads with this
module.  Each handler that computes with arrays imports its layer
(`averages`, `ensembles`, `fisherhartwig`, or the acceptance suite for
`validate`) when it runs, so `selberg`, `morris`, `dm-asym`, `orbitals`,
`--help` and usage errors load no numpy, the others load it on first use,
and scipy loads where it is called (by `sample-jue` only where it pays).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import __version__
from .exact import (
    BOUNDARY_DIRICHLET,
    BOX_EXPONENTS,
    DensityMatrixQuery,
    EnsembleParams,
    LogMagnitude,
    MorrisParams,
    density_matrix_asymptote,
    morris_closed,
    occupation_number,
    orbital_normalization,
    scaled_occupation,
    selberg_closed,
)
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
    """The text of `document`, whose results are a table of columns: JSON
    with one object per row, or CSV with one line per row."""
    columns = document["results"]
    if fmt == "json":
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        return json.dumps({**document, "results": rows}, indent=2, sort_keys=True) + "\n"
    lines = []
    for key in sorted(document["config"]):
        lines.append(f"# {key}={_fmt(document['config'][key])}")
    for key in sorted(document["provenance"]):
        lines.append(f"# {key}={_fmt(document['provenance'][key])}")
    n_rows = len(next(iter(columns.values()), ()))
    body = ""
    # a table of no rows prints no column line
    if n_rows:
        lines.append(",".join(columns))
        specs, fields = [], []
        for values in columns.values():
            kinds = set(map(type, values))
            spec = _CSV_SPECS.get(kinds.pop()) if len(kinds) == 1 else None
            specs.append(spec or "%s")
            fields.append(values if spec else list(map(_csv_field, values)))
        # the template holds only specs, so no value's text is read as one
        body = (",".join(specs) + "\n") * n_rows % tuple(
            itertools.chain.from_iterable(zip(*fields)))
    return "\n".join(lines) + "\n" + body


def _run_selberg(ns):
    val = selberg_closed(ns.n, ns.lambda1, ns.lambda2)
    return {"log_value": [val.log_abs], "value": [val.value("Selberg integral")]}


def _run_morris(ns):
    val = morris_closed(MorrisParams(ns.n, ns.a, ns.b))
    return {"log_value": [val.log_abs], "value": [val.value("Morris integral")]}


def _run_dm_asym(ns):
    query = DensityMatrixQuery(N=ns.n, X=ns.x, Y=ns.y, boundary=ns.boundary)
    return {"value": [density_matrix_asymptote(query)]}


def _run_dm_mc(ns):
    from .averages import mc_density_matrix_table

    query = DensityMatrixQuery(N=ns.n, X=ns.x, Y=ns.y, boundary=ns.boundary)
    values, std_errors = mc_density_matrix_table([query], ns.m_samples, ns.seed)
    return {"value": values, "std_error": std_errors, "m_samples": [ns.m_samples]}


# the ten standard X values of Table 1, each paired with Y = 1 - X
TABLE1_XS = tuple(0.025 + 0.05 * i for i in range(10))


def _run_table1(ns):
    # the Dirichlet estimate, its standard error, the asymptote and their
    # ratio at each (X, 1 - X) of the standard grid, which criterion 1 bands
    from .averages import mc_density_matrix_table

    queries = [DensityMatrixQuery(N=ns.n, X=x, Y=1.0 - x) for x in TABLE1_XS]
    values, std_errors = mc_density_matrix_table(queries, ns.m_samples, ns.seed)
    asymptotes = [density_matrix_asymptote(query) for query in queries]
    return {"X": [query.X for query in queries], "mc_value": values, "std_error": std_errors,
            "asymptote": asymptotes,
            "ratio": [value / asym for value, asym in zip(values, asymptotes)]}


def _run_duality(ns):
    from .averages import duality_lhs, duality_rhs

    params = EnsembleParams(n=ns.n, lambda1=ns.lambda1, lambda2=ns.lambda2)
    # the Jacobi side is computed and checked first, so its error comes first
    lhs = LogMagnitude(duality_lhs(params, ns.t, ns.m)).value("duality Jacobi side")
    rhs = LogMagnitude(duality_rhs(params, ns.t, ns.m)).value("duality circular side")
    # both sides are normal floats, so lhs is never 0
    return {"lhs": [lhs], "rhs": [rhs], "rel_diff": [abs(lhs - rhs) / abs(lhs)]}


def _run_orbitals(ns):
    js = range(ns.j_max + 1)
    return {"j": list(js),
            "scaled_occupation": [scaled_occupation(j) for j in js],
            "occupation": [occupation_number(j, ns.n) for j in js],
            "normalization": [orbital_normalization(j) for j in js]}


def _run_sample_jue(ns):
    from .ensembles import sample_jacobi_matrices, spectra

    params = EnsembleParams(n=ns.n, lambda1=0.5, lambda2=0.5)
    points = spectra(*sample_jacobi_matrices(params, ns.seed, ns.m_samples))
    # row k * n + i holds eigenvalue i of sample k
    return {"sample": [k for k in range(ns.m_samples) for _ in range(ns.n)],
            "index": list(range(ns.n)) * ns.m_samples,
            "eigenvalue": points.ravel().tolist()}


def _parse_sizes(text: str):
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"every size must be an integer, got {text!r}") from None
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
    from . import fisherhartwig as fh

    symbol = fh.SymbolSpec(singularities=((ns.y, ns.q),))
    exact = fh.hankel_balanced_log_ratios(ns.lambda1, ns.lambda2, symbol, ns.sizes).tolist()
    predicted = fh.jacobi_fh_asymptotes(symbol, ns.sizes)
    return {"n": list(ns.sizes), "log_exact": exact, "log_predicted": predicted,
            "delta": [ex - pred for ex, pred in zip(exact, predicted)]}


def _run_fh_toeplitz(ns):
    from . import fisherhartwig as fh

    symbol = fh.SymbolSpec(singularities=((0.0, ns.q),))
    exact = fh.toeplitz_log_dets(symbol, ns.sizes).tolist()
    predicted = fh.toeplitz_fh_asymptotes(symbol, ns.sizes)
    return {"N": list(ns.sizes), "log_exact": exact, "log_predicted": predicted,
            "delta": [ex - pred for ex, pred in zip(exact, predicted)]}


def _run_validate(ns):
    from . import acceptance

    results = acceptance.run_all(seed=ns.seed)
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'} criterion {res.number}: {res.name}"
        print(line, file=sys.stderr)
        if not res.passed:
            print(f"     {res.detail}", file=sys.stderr)
    return {"criterion": [res.number for res in results],
            "name": [res.name for res in results],
            "passed": [res.passed for res in results],
            "detail": [res.detail for res in results]}


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
    p.add_argument("--n", type=int, required=True, help="N (N+1 particles); density rho = N")
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
    for column, values in results.items():
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
    if ns.subcommand == "validate" and not all(document["results"]["passed"]):
        return 1
    return 0


if __name__ == "__main__":
    # `python -m` runs this file as __main__; registered under its own name
    # too, it is the module `acceptance` imports, so `validate` runs no
    # second copy of it
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
