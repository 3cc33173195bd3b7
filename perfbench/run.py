"""Closed-loop benchmark of the selberg-gas CLI and acceptance suite.

    python3 perfbench/run.py --workload mc-table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --readme-examples

One client in one process sends one request at a time (a CLI subcommand
through `selberg_gas.cli.main`, or an acceptance criterion) and checks
each output against an independent oracle before sending the next.
Requests come in rounds of a fixed mix (see workloads.py); whole rounds
run until the next one would overrun --seconds.

--trace 0 prints the end-to-end metrics.  Their times are at reference
speed: each measured time is scaled by the host speed a fixed reference
kernel shows just before and after it (hostspeed.py), because the shared
host's own speed drifts by up to a factor of two within minutes.  The
times as measured are printed on a '#' line beside them.

--trace 1 runs the same rounds twice, untraced and then with every
library function wrapped in a span (tracer.py), and prints the per-layer
metrics (layers.py) and the tracing overhead, both as measured.

Lines starting with '#' are for people; the last line is the JSON result.
--readme-examples times every README example once, as separate
processes; those timings are informational and not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from layers import PhaseResult, RequestRecord  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

SETUP_REPEATS = 7
# runs the reference kernel in the same fresh process as the set-up it
# scales; hostspeed imports only time, so loading it adds nothing to measure
SETUP_PROBE = ("import time, hostspeed; before = hostspeed.reference_kernel(); "
               "t = time.perf_counter(); import selberg_gas.cli as c; c.build_parser(); "
               "seconds = time.perf_counter() - t; "
               "print(seconds, 0.5 * (before + hostspeed.reference_kernel()))")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms",
                    "req_tail_ms": "ms", "peak_rss_mb": "MB"}
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> tuple:
    """Median, over fresh interpreters, of importing the CLI and building
    its parser, the set-up every CLI invocation pays: (at reference speed,
    as measured)."""
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join((str(HERE), env["PYTHONPATH"]))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, reference_s = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(hostspeed.scale(seconds, reference_s))
    return statistics.median(scaled), statistics.median(raw)


def tail_latency(values: list) -> tuple:
    """(value, percentile, count) of the highest nearest-rank percentile
    with at least ten requests beyond it; the smallest value when there
    are fewer than eleven requests."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


class Runner:
    """Executes requests against the library and records the outcome."""

    def __init__(self, tracer: Tracer = None):
        from selberg_gas import acceptance, cli
        self.cli = cli
        self.acceptance = acceptance
        self.tracer = tracer

    def _criterion(self, number: int):
        name = next(n for n in dir(self.acceptance) if n.startswith(f"criterion_{number}_"))
        return getattr(self.acceptance, name)

    def run(self, req: workloads.Request) -> tuple:
        """Execute, time and check one request; return (record, output)."""
        out, err = io.StringIO(), io.StringIO()
        traced = self.tracer is not None and req.threads == 1
        if self.tracer is not None:
            # spans of a request whose work runs on pool threads have no
            # parent to charge, so replays at --threads 2 stay untraced
            self.tracer.enabled = traced
            self.tracer.scope = req.scope
        error, text, result = "", "", None
        reference_s = hostspeed.reference_kernel()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if req.criterion is None:
                        code = self.cli.main(list(req.argv))
                    else:
                        result = self._criterion(req.criterion)()
                        code = 0
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a request boundary: record and go on
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        reference_s = 0.5 * (reference_s + hostspeed.reference_kernel())
        if self.tracer is not None:
            self.tracer.enabled = False
        if result is not None:
            text = json.dumps({"passed": bool(result.passed), "detail": result.detail})
        else:
            text = out.getvalue()
        if not error and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        points = None
        if not error:
            try:
                points = req.check(text)
            except workloads.CheckFailed as exc:
                error = str(exc)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        record = RequestRecord(
            scope=req.scope, seconds=seconds, ok=not error, samples=req.samples,
            threads=req.threads, replayed=req.replay,
            bytes_out=len(text.encode()) if req.criterion is None else 0,
            ensembles_warnings=sum(1 for w in caught
                                   if Path(w.filename).name == "ensembles.py"),
            mc_points=tuple(points or ()),
            reason=f"{req.label}: {error}" if error else "", reference_s=reference_s)
        return record, text


def run_phase(runner: Runner, workload: str, seed: int, budget_s: float,
              n_rounds: int = None) -> PhaseResult:
    """Run whole rounds: n_rounds of them, or while the next round is
    expected to end within budget_s (at least one)."""
    phase = PhaseResult()
    start = time.perf_counter()
    index = 0
    while True:
        if n_rounds is not None:
            if index >= n_rounds:
                break
        elif index and (time.perf_counter() - start
                        + statistics.mean(phase.round_walls) > budget_s):
            break
        t0 = time.perf_counter()
        first = len(phase.records)
        for req in workloads.make_round(workload, seed, index):
            record, text = runner.run(req)
            phase.records.append(record)
            if req.replay:
                phase.records.append(runner.run(workloads.replay_request(req, text))[0])
        for record in phase.records[first:]:
            record.round = index
        phase.round_walls.append(time.perf_counter() - t0)
        index += 1
    pooled = workloads.pooled_mc_failures([p for r in phase.records for p in r.mc_points])
    for record in phase.records:
        bad = [pooled[p.key] for p in record.mc_points if p.key in pooled]
        if bad and record.ok:
            record.ok, record.reason = False, f"{record.scope}: {bad[0]}"
    return phase


def clear_library_caches() -> None:
    """Empty every functools cache in the library, so each phase starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "selberg_gas" or name.startswith("selberg_gas."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def warm_up(runner: Runner, workload: str) -> None:
    for req in workloads.warmup_requests(workload):
        record, _ = runner.run(req)
        if not record.ok:
            raise RuntimeError(f"warm-up request failed: {record.reason}")


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def _openblas() -> dict:
    import ctypes

    info = {"env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (ImportError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    info["threads"] = int(fn())
                    return info
    return info


def machine_record(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "openblas": _openblas(), "commit": commit}


def _report(lines: list, result: dict) -> None:
    for line in lines:
        print("# " + line)
    print(json.dumps(result, sort_keys=True))


def _failures(phases: list) -> tuple:
    records = [r for p in phases for r in p.records]
    return len(records), [r.reason for r in records if not r.ok]


def run_untraced(workload: str, seed: int, seconds: float) -> None:
    setup_s, setup_raw_s = measure_setup()
    runner = Runner()
    warm_up(runner, workload)
    phase = run_phase(runner, workload, seed, seconds)
    latencies = [hostspeed.scale(r.seconds, r.reference_s) for r in phase.records]
    round_sums = {}  # a round's requests at reference speed, checks left out
    for record, latency in zip(phase.records, latencies):
        round_sums[record.round] = round_sums.get(record.round, 0.0) + latency
    tail, pct, count = tail_latency(latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_sums.values()),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failures = _failures([phase])
    lines = [f"machine {json.dumps(machine_record(workload, seed), sort_keys=True)}",
             f"rounds {len(phase.round_walls)}, requests {count}, "
             f"tail percentile p{pct:.1f} of {count} requests"]
    lines += [f"{name} = {value:.6g} {END_TO_END_UNITS[name]}" for name, value in metrics.items()]
    raw = [r.seconds for r in phase.records]
    references = [r.reference_s for r in phase.records]
    lines.append(f"as measured: setup_s {setup_raw_s:.6g} s, round wall (checks included) "
                 f"{statistics.median(phase.round_walls):.6g} s, req_p50_ms "
                 f"{1e3 * statistics.median(raw):.6g} ms, req_tail_ms "
                 f"{1e3 * tail_latency(raw)[0]:.6g} ms")
    lines.append(f"reference kernel: median {1e3 * statistics.median(references):.4g} ms, "
                 f"range {1e3 * min(references):.4g}-{1e3 * max(references):.4g} ms, "
                 f"{1e3 * hostspeed.REFERENCE_S:.4g} ms at reference speed")
    by_scope = {}
    for r, latency in zip(phase.records, latencies):
        by_scope.setdefault(r.scope, []).append(latency)
    lines += [f"latency {scope}: {len(v)} requests, median {1e3 * statistics.median(v):.6g} ms "
              "at reference speed" for scope, v in sorted(by_scope.items())]
    lines.append(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    if workload == "mc-table":
        rate, speedup = layers.mc_rates(phase.records)
        lines += [f"mc_samples_per_s = {rate:.6g} 1/s", f"threads2_speedup = {speedup:.6g} ratio"]
    lines += [f"FAILED {reason}" for reason in failures]
    _report(lines, {"correct": not failures, "attempted": attempted, "failed": len(failures),
                    "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                                for k, v in metrics.items()}})


def run_traced(workload: str, seed: int, seconds: float) -> None:
    runner = Runner()
    clear_library_caches()
    warm_up(runner, workload)
    untraced = run_phase(runner, workload, seed, seconds / 2.0)

    tracer = Tracer(probes={
        "quadrature.power_panel": lambda a: (a["order"], a["p_left"], a["p_right"]),
        "quadrature.periodic_integrate": lambda a: a["points_per_axis"] ** a["m"],
        "fisherhartwig.hankel_log_ratio": lambda a: a["n"],
        "fisherhartwig.toeplitz_determinant": lambda a: a["N"],
    })
    clear_library_caches()
    warm_up(runner, workload)
    tracer.install()
    try:
        runner.tracer = tracer
        traced = run_phase(runner, workload, seed, 0.0, n_rounds=len(untraced.round_walls))
    finally:
        tracer.uninstall()
    values, absent = layers.layer_metrics(tracer.spans, tracer.wrapped, untraced, traced,
                                          span_cost())
    attempted, failures = _failures([untraced, traced])
    lines = [f"machine {json.dumps(machine_record(workload, seed), sort_keys=True)}",
             f"rounds {len(traced.round_walls)} untraced + {len(traced.round_walls)} traced, "
             f"{len(tracer.spans)} spans"]
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in layers.METRICS]
    if absent:
        lines.append("absent (instrumented function no longer exists): " + ", ".join(absent))
    lines += [f"FAILED {reason}" for reason in failures]
    _report(lines, {"correct": not failures, "attempted": attempted, "failed": len(failures),
                    "metrics": {k: {"value": values[k], "unit": u} for k, u in layers.METRICS}})


def readme_examples() -> list:
    """Every `selberg-gas ...` line of the README's code blocks."""
    lines, inside = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside and line.startswith("selberg-gas "):
            lines.append(shlex.split(line, comments=True)[1:])
    return lines


def run_readme_examples() -> int:
    """Informational: time each README example once in a fresh process."""
    rows = []
    for argv in readme_examples():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "selberg_gas.cli", *argv], env=child_env(),
                              cwd=ROOT, capture_output=True, timeout=1800)
        rows.append({"argv": " ".join(argv), "seconds": time.perf_counter() - start,
                     "exit_code": proc.returncode})
        print(f"# {rows[-1]['seconds']:9.3f} s  exit {proc.returncode}  selberg-gas "
              f"{rows[-1]['argv']}", flush=True)
    print(json.dumps({"readme_examples": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--readme-examples", action="store_true",
                        help="time every README example once (informational)")
    ns = parser.parse_args(argv)
    if not (SRC / "selberg_gas" / "__init__.py").is_file():
        print(f"error: no selberg_gas package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if ns.readme_examples:
        return run_readme_examples()
    if ns.workload is None:
        parser.error("--workload is required")
    if ns.trace:
        run_traced(ns.workload, ns.seed, ns.seconds)
    else:
        run_untraced(ns.workload, ns.seed, ns.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
