"""Seeded benchmark of pcanon: one workload per run, one caller, one thread.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; pcanon is imported from ./src.
Workloads: exact, numeric (see NOTES.md). With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics and the tracing overhead. The line before it is a JSON
object of details: provenance, sample counts, tail percentiles, per-call
medians, every failure and the known defects that still reproduce.
"""
from __future__ import annotations

import os

# one BLAS thread for the process, fixed before numpy is first imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from harness import Runner, fastest_of, per_call_medians, summarize  # noqa: E402
from spans import SpanRecorder  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: rounds repeat one cycle, on the same inputs, until the time is up; a
#: call's latency is its fastest round
MIN_ROUNDS = 2
#: the tail of a class is its latency with this many samples beyond it
TAIL_BEYOND = 10
IMPORT_PROBES = 5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_pcanon():
    if not os.path.isfile(os.path.join(SRC, "pcanon", "__init__.py")):
        _fail(f"no pcanon sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import pcanon

    if os.path.dirname(os.path.dirname(os.path.abspath(pcanon.__file__))) != SRC:
        _fail(f"imported pcanon from {pcanon.__file__}, not from {SRC}")
    return pcanon


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start(argv, check):
    """CPU time (user + system) of one fresh `python -m pcanon.cli` process,
    and what was wrong with its output (None when it was right)."""
    cmd = [sys.executable, "-m", "pcanon.cli", *argv]
    t0 = _children_cpu_s()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    dt = _children_cpu_s() - t0
    bad = (f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
           if proc.returncode else check(proc.stdout))
    return dt, bad


def import_probe(count):
    """Median in-process time of `import pcanon` in fresh interpreters, and
    whether that import loaded numpy."""
    code = ("import sys, time; t = time.perf_counter(); import pcanon; "
            "print(time.perf_counter() - t, int('numpy' in sys.modules))")
    times, loaded = [], 0
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        t, flag = out.stdout.split()
        times.append(float(t))
        loaded = int(flag)
    return statistics.median(times), loaded


def run_cycle(cycle, workload, seed, runner, smallest):
    """One cycle on the inputs the seed gives (the same ones every time);
    returns its summed call time."""
    start = len(runner.samples)
    cycle(runner, random.Random(f"pcanon-bench/{workload}/{seed}"), smallest)
    return sum(s.seconds for s in runner.samples[start:])


def timed_rounds(cycle, workload, seed, seconds, smallest, between):
    """Rounds of the cycle, each followed by a call of `between`, until the
    next round would end after `seconds` (at least MIN_ROUNDS of them).
    Returns the rounds' runners and the wall time they took."""
    rounds, t0 = [], perf_counter()
    while True:
        r0 = perf_counter()
        rounds.append(Runner())
        run_cycle(cycle, workload, seed, rounds[-1], smallest)
        between()
        now = perf_counter()
        if smallest or (len(rounds) >= MIN_ROUNDS and now - t0 + (now - r0) > seconds):
            return rounds, now - t0


def pinned_probe(probe, workload, seed):
    """Run the inputs that carry a known defect once, untimed; returns
    their samples."""
    run = Runner()
    probe(run, random.Random(f"pcanon-bench/{workload}/{seed}/pinned"))
    return run.samples


def traced_cycles(cycle, workload, seed, seconds, smallest):
    """The cycle in pairs, untraced and traced, alternating which goes
    first, until the next pair would end after `seconds`. The median ratio
    of traced to untraced call time per pair, minus one, is the tracing
    overhead."""
    plain, traced, rec = Runner(), Runner(probes={}), SpanRecorder()
    t0, cycles, ratios = perf_counter(), 0, []
    while True:
        p0, times = perf_counter(), {}
        for mode in ((False, True) if cycles % 2 == 0 else (True, False)):
            if mode:
                with rec:
                    times[mode] = run_cycle(cycle, workload, seed, traced, smallest)
            else:
                times[mode] = run_cycle(cycle, workload, seed, plain, smallest)
        ratios.append(times[True] / times[False])
        cycles += 1
        now = perf_counter()
        if smallest or now - t0 + (now - p0) > seconds:
            break
    return plain, traced, rec, cycles, ratios


def end_to_end(samples, window_s, setup_s):
    stats = summarize(samples, window_s, TAIL_BEYOND)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (stats["solve"]["p50_s"], "s"),
        "solve_tail_s": (stats["solve"]["tail_s"], "s"),
        "eval_p50_s": (stats["eval"]["p50_s"], "s"),
        "eval_tail_s": (stats["eval"]["tail_s"], "s"),
        "refuse_p50_s": (stats["refuse"]["p50_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, stats


def per_layer(rec, runner, cycles, overhead, import_s, numpy_loaded, pinned_open):
    def busy(*spans):
        return sum(rec.busy.get(s, 0.0) for s in spans) / cycles

    def self_time(*spans):
        return sum(rec.self_s.get(s, 0.0) for s in spans) / cycles

    def probe(key):
        return runner.probes.get(key, 0.0) / cycles

    def count(key):
        return rec.counts.get(key, 0) / cycles

    m = {
        "linalg.minpoly_s": (busy("linalg.minpoly"), "s"),
        "linalg.spectral_projections_s": (busy("linalg.spectral_projections"), "s"),
        "linalg.spectral_data_s": (busy("linalg.spectral_data"), "s"),
        "linalg.matmul_s": (probe("linalg.matmul_s"), "s"),
        "linalg.inverse_s": (probe("linalg.inverse_s"), "s"),
        "linalg.power_s": (probe("linalg.power_s"), "s"),
        "linalg.char_poly_s": (busy("linalg.char_poly"), "s"),
        "linalg.minpoly_degree": (rec.maxima.get("linalg.minpoly_degree", 0), "count"),
        "linalg.entry_bits": (rec.maxima.get("linalg.entry_bits", 0), "count"),
        "scalar.poly_factor_s": (busy("scalar.poly_factor"), "s"),
        "scalar.poly_factor_refused_s": (rec.refused_factor_s / cycles, "s"),
        "scalar.durand_kerner_s": (busy("scalar.durand_kerner"), "s"),
        "scalar.roots_found": (count("scalar.roots_found"), "count"),
        "pcf.build_s": (busy("pcf.pcf_build"), "s"),
        "pcf.assembly_s": (self_time("pcf.pcf_build"), "s"),
        "pcf.eval_s": (busy("pcf.pcf_eval"), "s"),
        "pcf.to_gamma_s": (busy("pcf.pcf_to_gamma"), "s"),
        "pcf.realify_s": (busy("pcf.pcf_realify"), "s"),
        "pcf.realpcf_eval_s": (busy("pcf.realpcf_eval"), "s"),
        "pcf.worst_rel_residual": (runner.worst_residual["pcf"], "ratio"),
        "matfun.expm_closed_s": (busy("matfun.expm_closed"), "s"),
        "matfun.expm_real_s": (busy("matfun.expm_real"), "s"),
        "matfun.logm_s": (busy("matfun.logm"), "s"),
        "matfun.log_pcf_s": (busy("matfun.log_pcf"), "s"),
        "matfun.closedform_eval_s": (busy("matfun.closedform_eval"), "s"),
        "matfun.assembly_s": (self_time("matfun.expm_closed", "matfun.expm_real",
                                        "matfun.logm", "matfun.log_pcf"), "s"),
        "matfun.worst_rel_residual": (runner.worst_residual["matfun"], "ratio"),
        "kronmin.eig_spec_s": (busy("kronmin.eig_spec"), "s"),
        "kronmin.class_table_s": (busy("kronmin.product_class_table"), "s"),
        "kronmin.symbolic_s": (busy("kronmin.kron_minpoly_symbolic"), "s"),
        "kronmin.direct_s": (busy("kronmin.kron_minpoly_direct"), "s"),
        "kronmin.product_poly_s": (busy("kronmin.lrs_product_poly"), "s"),
        "kronmin.class_tuples": (count("kronmin.class_tuples"), "count"),
        "kronmin.classes": (count("kronmin.classes"), "count"),
        "lrs.eval_s": (busy("lrs.lrs_eval"), "s"),
        "lrs.mul_s": (busy("lrs.lrs_mul"), "s"),
        "lrs.min_annihilator_s": (busy("lrs.lrs_min_annihilator"), "s"),
        "lrs.eval_terms": (count("lrs.eval_terms"), "count"),
        "lrs.annihilator_degree": (rec.maxima.get("lrs.annihilator_degree", 0), "count"),
        "wedge.wedge_s": (busy("wedge.wedge"), "s"),
        "wedge.fold_s": (busy("wedge.wedge_fold"), "s"),
        "wedge.pairs_scanned": (count("wedge.pairs_scanned"), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.numpy_loaded": (numpy_loaded, "count"),
        "cli.render_json_s": (busy("cli.render_closed_form"), "s"),
        "cli.parse_s": (probe("cli.parse_s"), "s"),
        "bench.trace_overhead": (overhead, "ratio"),
        "bench.pinned_open": (pinned_open, "count"),
    }
    for layer in ("scalar", "linalg", "pcf", "matfun", "kronmin", "lrs", "wedge", "cli"):
        m[f"{layer}.calls"] = (rec.calls.get(layer, 0) / cycles, "count")
        m[f"{layer}.failed"] = (rec.failed.get(layer, 0) / cycles, "count")
    return m


def provenance(args, pcanon):
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "pcanon": os.path.relpath(pcanon.__file__, ROOT),
        "machine": platform.machine(), "system": platform.system(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("exact", "numeric"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smallest", action="store_true",
                    help="one cycle of the smallest rung of every family (self-test)")
    args = ap.parse_args(argv)

    pcanon = _import_pcanon()
    from workloads import WORKLOADS  # needs pcanon on the path

    cycle, cli_input, probe = WORKLOADS[args.workload]
    details = {"provenance": provenance(args, pcanon)}
    problems = []

    if args.trace:
        plain, traced, rec, cycles, ratios = traced_cycles(
            cycle, args.workload, args.seed, args.seconds, args.smallest)
        import_s, numpy_loaded = import_probe(1 if args.smallest else IMPORT_PROBES)
        executed = plain.samples + traced.samples
        details.update(cycles=cycles, traced_to_untraced=ratios)
    else:
        # set-up is timed once after every round, so that its median, like
        # the calls' fastest rounds, samples the whole run; the first start
        # is untimed and fills the bytecode cache
        cli = cli_input(random.Random(f"pcanon-bench/{args.workload}/{args.seed}/cli"))
        starts = [cold_start(*cli)]
        rounds, window_s = timed_rounds(cycle, args.workload, args.seed, args.seconds,
                                        args.smallest, lambda: starts.append(cold_start(*cli)))
        problems += [f"cold start: {bad}" for _, bad in starts if bad]
        setup_s = statistics.median(t for t, _ in starts[1:])
        executed = [s for r in rounds for s in r.samples]
        samples = fastest_of(rounds)
        metrics, stats = end_to_end(samples, window_s, setup_s)
        details.update(rounds=len(rounds), window_s=window_s,
                       round_call_s=[sum(s.seconds for s in r.samples) for r in rounds],
                       oracle_s=sum(r.oracle_s for r in rounds), classes=stats,
                       per_call=per_call_medians(samples))

    # known defects: their inputs run apart, once, and count as open while
    # any of their calls still fails
    probed = pinned_probe(probe, args.workload, args.seed)
    pinned = [s for s in probed if s.reason and s.pinned]
    details["pinned_open"] = sorted({s.pinned for s in pinned})
    details["pinned_failures"] = sorted({f"{s.pinned}: {s.name}: {s.reason[:120]}"
                                         for s in pinned})
    if args.trace:
        metrics = per_layer(rec, traced, cycles, statistics.median(ratios) - 1,
                            import_s, numpy_loaded, len(details["pinned_open"]))
    unpinned = [s for s in executed + probed if s.reason and not s.pinned]
    details["failures"] = sorted({f"{s.cls}:{s.name}: {s.reason[:200]}"
                                  for s in unpinned}) + problems
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not unpinned and not problems,
        "attempted": len(executed),
        "failed": sum(1 for s in executed if s.reason),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
