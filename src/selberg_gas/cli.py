"""Command-line interface: every computation as a subcommand.

Output is a JSON document or CSV table embedding the resolved
configuration and seed.  Execution-resource flags (--threads, --out) are
not part of the reproducibility header, so identical (config, seed) runs
produce byte-identical output regardless of worker count.  Only the
seeded subcommands take --threads.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import __version__, acceptance
from . import fisherhartwig as fh
from .averages import (
    DualityCase,
    duality_lhs,
    duality_rhs,
    mc_density_matrix,
    mc_density_matrix_table,
)
from .ensembles import map_sample_blocks
from .exact import (
    DensityMatrixQuery,
    EnsembleParams,
    MorrisParams,
    density_matrix_asymptote,
    morris_closed,
    occupation_number,
    selberg_closed,
)
from .orbitals import orbital, scaled_occupation


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_field(x) -> str:
    # the text of an int or a float cannot hold a comma, a quote or a
    # newline, so only other values are scanned
    if isinstance(x, float):
        return f"{x:.17g}"
    text = str(x)
    if isinstance(x, int) or not ("," in text or '"' in text or "\n" in text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _document(config: dict, results: list, seed) -> dict:
    return {
        "config": config,
        "results": results,
        "provenance": {"seed": seed, "version": __version__},
    }


def render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    lines = []
    for key in sorted(document["config"]):
        lines.append(f"# {key}={_fmt(document['config'][key])}")
    for key in sorted(document["provenance"]):
        lines.append(f"# {key}={_fmt(document['provenance'][key])}")
    results = document["results"]
    if results:
        columns = list(results[0])
        lines.append(",".join(columns))
        for row in results:
            lines.append(",".join([_csv_field(row[c]) for c in columns]))
    return "\n".join(lines) + "\n"


def _run_selberg(ns):
    config = {"subcommand": "selberg", "n": ns.n, "lambda1": ns.lambda1,
              "lambda2": ns.lambda2}
    val = selberg_closed(ns.n, ns.lambda1, ns.lambda2)
    return config, [{"log_value": val.log_abs, "value": val.value()}]


def _run_morris(ns):
    config = {"subcommand": "morris", "n": ns.n, "a": ns.lambda1, "b": ns.lambda2}
    val = morris_closed(MorrisParams(ns.n, ns.lambda1, ns.lambda2))
    return config, [{"log_value": val.log_abs, "value": val.value()}]


def _run_dm_asym(ns):
    config = {"subcommand": "dm-asym", "n": ns.n, "x": ns.x, "y": ns.y,
              "boundary": ns.boundary}
    query = DensityMatrixQuery(N=ns.n, X=ns.x, Y=ns.y, boundary=ns.boundary)
    return config, [{"value": density_matrix_asymptote(query)}]


def _run_dm_mc(ns):
    config = {"subcommand": "dm-mc", "n": ns.n, "x": ns.x, "y": ns.y,
              "boundary": ns.boundary, "m_samples": ns.m_samples}
    query = DensityMatrixQuery(N=ns.n, X=ns.x, Y=ns.y, boundary=ns.boundary)
    est = mc_density_matrix(query, ns.m_samples, ns.seed, ns.threads)
    return config, [{"value": est.value, "std_error": est.std_error,
                     "m_samples": est.m_samples}]


def _run_table1(ns):
    config = {"subcommand": "table1", "n": ns.n, "m_samples": ns.m_samples}
    queries = [DensityMatrixQuery(N=ns.n, X=x, Y=1.0 - x) for x in acceptance.TABLE1_XS]
    estimates = mc_density_matrix_table(queries, ns.m_samples, ns.seed, ns.threads)
    rows = []
    for query, est in zip(queries, estimates):
        asym = density_matrix_asymptote(query)
        rows.append({"X": query.X, "mc_value": est.value, "std_error": est.std_error,
                     "asymptote": asym, "ratio": est.value / asym})
    return config, rows


def _run_duality(ns):
    config = {"subcommand": "duality-check", "n": ns.n, "m": ns.m, "t": ns.t,
              "lambda1": ns.lambda1, "lambda2": ns.lambda2}
    params = EnsembleParams(n=ns.n, lambda1=ns.lambda1, lambda2=ns.lambda2)
    case = DualityCase(n=ns.n, m=ns.m, t=ns.t, params=params)
    lhs = duality_lhs(case)
    rhs = duality_rhs(case)
    return config, [{"lhs": lhs, "rhs": rhs,
                     "rel_diff": abs(lhs - rhs) / max(1e-300, abs(lhs))}]


def _run_orbitals(ns):
    config = {"subcommand": "orbitals", "j_max": ns.j_max, "n": ns.n}
    rows = []
    for j in range(ns.j_max + 1):
        rows.append({
            "j": j,
            "scaled_occupation": scaled_occupation(j),
            "occupation": occupation_number(j, ns.n),
            "normalization": orbital(j).normalization,
        })
    return config, rows


def _run_sample_jue(ns):
    config = {"subcommand": "sample-jue", "n": ns.n, "m_samples": ns.m_samples}
    params = EnsembleParams(n=ns.n, lambda1=0.5, lambda2=0.5)
    samples = map_sample_blocks(lambda spectra: spectra.tolist(), params, ns.seed,
                                ns.m_samples, ns.threads)
    rows = []
    for k, pts in enumerate(itertools.chain.from_iterable(samples)):
        for i, x in enumerate(pts):
            rows.append({"sample": k, "index": i, "eigenvalue": x})
    return config, rows


def _thread_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(
            f"thread count (--threads or SELBERG_GAS_THREADS) must be an integer "
            f">= 1, got {text!r}")
    return threads


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


def _run_fh_jacobi(ns):
    config = {"subcommand": "fh-jacobi", "sizes": ",".join(map(str, ns.sizes)),
              "q": ns.q, "y": ns.y, "lambda1": ns.lambda1, "lambda2": ns.lambda2}
    symbol = fh.SymbolSpec(singularities=((ns.y, ns.q),))
    params = EnsembleParams(n=max(ns.sizes), lambda1=ns.lambda1, lambda2=ns.lambda2)
    exact = fh.hankel_balanced_log_ratios(params, symbol, ns.sizes).tolist()
    rows = []
    for n, ex in zip(ns.sizes, exact):
        pred = fh.jacobi_fh_asymptote(symbol, n)
        rows.append({"n": n, "log_exact": ex, "log_predicted": pred, "delta": ex - pred})
    if len(rows) >= 4:
        # whether |delta| strictly decreases over the last three requested sizes
        tail = [abs(row["delta"]) for row in rows[-3:]]
        for row in rows:
            row["decreasing_tail"] = tail[0] > tail[1] > tail[2]
    return config, rows


def _run_fh_toeplitz(ns):
    config = {"subcommand": "fh-toeplitz", "sizes": ",".join(map(str, ns.sizes)),
              "q": ns.q}
    symbol = fh.SymbolSpec(singularities=((0.0, ns.q),))
    rows = []
    for N, log_exact in zip(ns.sizes, fh.toeplitz_log_dets(symbol, ns.sizes).tolist()):
        pred = fh.toeplitz_fh_asymptote(symbol, N)
        rows.append({"N": N, "log_exact": log_exact, "log_predicted": pred,
                     "delta": log_exact - pred})
    return config, rows


def _run_validate(ns):
    results = acceptance.run_all(seed=ns.seed, threads=ns.threads)
    rows = []
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'} criterion {res.number}: {res.name}"
        print(line, file=sys.stderr)
        if not res.passed:
            print(f"     {res.detail}", file=sys.stderr)
        rows.append({"criterion": res.number, "name": res.name,
                     "passed": res.passed, "detail": res.detail})
    config = {"subcommand": "validate"}
    return config, rows


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


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and per value of
    SELBERG_GAS_THREADS.  The variable is read on every call, so a changed
    value still changes the --threads default; parsing leaves no state on
    the parser, so callers share it."""
    return _parser(os.environ.get("SELBERG_GAS_THREADS", "1"))


@functools.lru_cache(maxsize=4)
def _parser(default_threads: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selberg-gas",
        description="Jacobi-ensemble averages, duality checks, and the "
                    "impenetrable Bose gas density matrix")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=42)
            # a string default goes through _thread_count on every parse
            # without --threads, so a bad variable is a usage error only here
            p.add_argument("--threads", type=_thread_count, default=default_threads)

    p = sub.add_parser("selberg", help="closed-form Selberg integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    common(p, seed=False)

    p = sub.add_parser("morris", help="closed-form Morris integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda1", type=float, required=True, help="exponent a")
    p.add_argument("--lambda2", type=float, required=True, help="exponent b")
    common(p, seed=False)

    p = sub.add_parser("dm-asym", help="asymptotic density matrix value")
    p.add_argument("--n", type=int, required=True, help="N (system holds N+1 particles)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--boundary", choices=("dirichlet", "neumann"), default="dirichlet")
    common(p, seed=False)

    p = sub.add_parser("dm-mc", help="Monte Carlo density matrix estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--boundary", choices=("dirichlet", "neumann"), default="dirichlet")
    p.add_argument("--m-samples", type=int, default=5000)
    common(p)

    p = sub.add_parser("table1", help="MC/asymptote ratio at the ten standard X values")
    p.add_argument("--n", type=int, default=14)
    p.add_argument("--m-samples", type=int, default=5000)
    common(p)

    p = sub.add_parser("duality-check", help="both sides of the duality identity")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2, help="even power m >= 2")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambda1", type=float, default=0.5)
    p.add_argument("--lambda2", type=float, default=0.5)
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
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--y", type=float, default=0.5)
    p.add_argument("--lambda1", type=float, default=0.5)
    p.add_argument("--lambda2", type=float, default=0.5)
    common(p, seed=False)

    p = sub.add_parser("fh-toeplitz", help="Toeplitz determinant drift vs classical form")
    p.add_argument("--sizes", type=_parse_sizes, default=(8, 16, 32, 48))
    p.add_argument("--q", type=float, default=0.5, help="singularity strength")
    common(p, seed=False)

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p)

    return parser


def execute(ns) -> dict:
    config, results = _SUBCOMMANDS[ns.subcommand](ns)
    seed = getattr(ns, "seed", None)
    return _document(config, results, seed)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        document = execute(ns)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = render(document, ns.format)
    if ns.out:
        with open(ns.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if ns.subcommand == "validate" and not all(r["passed"] for r in document["results"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
